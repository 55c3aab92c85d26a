"""Feasibility-preserving random walks on the kernel coset.

Lazy product-of-cycles Cayley walk, expander generator sampling, a
Metropolis filter tilting the stationary law toward low cost, and the
walk-level diagnostics (dense transition matrix, spectral gap, the gap
of K's own generators from its characters, log-Sobolev lower bound,
pseudo-Lipschitz norm, cyclic metric).

Every walk, plain or Metropolis, runs in ``walk``, on a float hold
threshold and sparse generator supports precomputed by
``CayleyWalkSpec``. The plain walk only counts net moves per
generator; the Metropolis filter prices each move by the integer
change of a ``LinearCost``, so no step does rational arithmetic. Per
call it builds a move table, +-h_j over h_j's support with -h stored as
the step m - h, each entry holding its cost change with and without the
wrap, so a proposal is priced and applied by compares, adds and
subtracts alone; and it keeps the acceptance threshold of each distinct
change, so a proposal pays no division or exp once its change has been
met. ``step`` and ``metropolis_step`` are its one-step forms.

The walk matrix comes from an (n, 2k) neighbour table: ``coset_table``
reads it off the generator orders for a whole coset, and
``check_coset_table`` certifies it against the points; ``_neighbours``
builds it by lookup for any state list closed under the generators.
``transition_counts`` turns a table into exact sparse counts in memory
O(n k). ``transition_matrix`` (those counts, densified) and
``spectral_gap`` are the dense oracles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapExceeded, CertificateError
from .exact import clear_denominators, int_dtype
from .kernel import KernelBasis
from .relax import LinearCost

DENSE_LIMIT_DEFAULT = 4096


@dataclass
class CayleyWalkSpec:
    """Lazy symmetric Cayley walk: hold with probability `laziness`,
    otherwise add or subtract a uniformly chosen generator. Each move g
    and -g is equally likely, so the chain is reversible with uniform
    stationary law on the component containing the start state."""

    generators: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]
    laziness: Fraction = Fraction(1, 3)
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self):
        self.laziness = Fraction(self.laziness)
        if not (0 < self.laziness < 1):
            raise ValueError("laziness must be in (0, 1)")
        for h in self.generators:
            if len(h) != len(self.moduli):
                raise ValueError("generator dimension mismatch")
        # random() returns k / 2^53, so u < hold exactly when u < laziness
        self._hold = math.ceil(self.laziness * 2**53) / 2**53
        self._supports = tuple(
            tuple((i, g % m) for i, (g, m) in enumerate(zip(h, self.moduli)) if g % m)
            for h in self.generators)


def walk(spec: CayleyWalkSpec, x: Sequence[int], n: int,
         cost: Optional[LinearCost] = None,
         beta: float = 0.0) -> tuple[list[int], Optional[Fraction], int, int]:
    """Run n steps from state x, reduced mod the moduli on entry; x
    itself is not modified, and must have one entry per modulus. With a
    cost and beta > 0 each non-null proposal y is accepted with
    probability min(1, exp(-beta * delta)), delta = cost(y) - cost(x).
    The walk carries den * cost(x) as an int and prices a move by its
    change over the move's support, so delta is that change over den,
    correctly rounded.

    The Metropolis walk first tabulates the 2k moves: move 2j is +h_j
    and move 2j + 1 is -h_j, a tuple over h_j's support whose step s on
    coordinate i (modulus m, weight w) is h_i or m - h_i. With t = m - s,
    the move takes x_i to x_i - t when x_i >= t and to x_i + s otherwise,
    and changes den * cost by w (s - m) or w s: no multiply and no modulo
    per step. Each distinct change met in a call is kept in a dict with
    its threshold, exp(-beta * delta), computed once; a change whose
    delta is <= 0, or underflows to 0.0, is accepted with no draw.

    The RNG draws per step are the hold random(), the generator index,
    the sign random() and, only for a Metropolis proposal that raises
    the cost, the acceptance random(). The index is drawn as
    random.Random.randrange(k) draws it: getrandbits(k.bit_length()),
    again while it is >= k. The plain walk (no cost, or beta = 0) only
    counts each generator's net moves and adds them once at the end; K
    is abelian, so the state is the one the moves reach one by one.

    Returns (state as a list, cost(state) or None without a cost,
    proposals, accepted), the last two counting non-null Metropolis
    proposals. Raises ValueError unless beta >= 0, so for NaN too (+inf
    is legal: a zero-temperature filter), and CertificateError when the
    carried cost differs from the cost of the final state."""
    if not beta >= 0:  # NaN too
        raise ValueError(f"beta must be >= 0, got {beta}")
    if cost is not None and not isinstance(cost, LinearCost):
        raise TypeError("the walk cost must be a LinearCost")
    moduli = spec.moduli
    if len(x) != len(moduli):
        raise ValueError(f"state of length {len(x)} for a walk on "
                         f"{len(moduli)} coordinates")
    x = [v % m for v, m in zip(x, moduli)]
    supports = spec._supports
    k = len(supports)
    filtered = cost is not None and beta > 0
    proposals = accepted = 0
    if filtered:
        weights, den, exp = cost.weights, cost.den, math.exp
        num = cost.scaled(x)
    rand, getrandbits, hold = spec.rng.random, spec.rng.getrandbits, spec._hold
    bits = k.bit_length()
    if k and not filtered:
        net = [0] * k
        for _ in repeat(None, n):
            if rand() >= hold:
                j = getrandbits(bits)
                while j >= k:
                    j = getrandbits(bits)
                if rand() < 0.5:
                    net[j] += 1
                else:
                    net[j] -= 1
        for a, support in zip(net, supports):
            if a:
                for i, h in support:
                    x[i] = (x[i] + a * h) % moduli[i]
    elif k:
        # move 2j is +h_j, move 2j + 1 is -h_j; an entry (i, t, s, up, down)
        # moves x_i by -t if x_i >= t (the wrap) and den * cost by down,
        # else by s and up
        moves = []
        for support in supports:
            for sign in (1, -1):
                move = []
                for i, h in support:
                    m, w = moduli[i], weights[i]
                    s = h if sign > 0 else m - h
                    move.append((i, m - s, s, w * s, w * (s - m)))
                moves.append(tuple(move))
        # each change met so far -> exp(-beta * change / den), or 2.0 (accept
        # with no draw) where change / den is <= 0, underflows included
        thresholds: dict[int, float] = {}
        for _ in repeat(None, n):
            if rand() < hold:
                continue
            j = getrandbits(bits)
            while j >= k:
                j = getrandbits(bits)
            move = moves[2 * j] if rand() < 0.5 else moves[2 * j + 1]
            if not move:
                continue
            proposals += 1
            change = 0
            for i, t, _, up, down in move:
                change += down if x[i] >= t else up
            p = thresholds.get(change)
            if p is None:
                # int / int rounds correctly, as float(Fraction) does
                delta = change / den
                p = thresholds[change] = exp(-beta * delta) if delta > 0 else 2.0
            if p <= 1.0 and rand() >= p:
                continue
            for i, t, s, _, _ in move:
                v = x[i]
                x[i] = v - t if v >= t else v + s
            num += change
            accepted += 1
    if cost is None:
        return x, None, proposals, accepted
    final = cost.scaled(x)
    if filtered and final != num:
        raise CertificateError(f"carried cost {num} differs from {final}, the final state's")
    return x, Fraction(final, cost.den), proposals, accepted


def step(state: tuple[int, ...], spec: CayleyWalkSpec) -> tuple[int, ...]:
    """One walk step; with the default laziness 1/3 this is exactly
    'pick a generator uniformly, pick a in {-1, 0, +1} uniformly'.
    The state comes back reduced mod the moduli."""
    return tuple(walk(spec, state, 1)[0])


def expander_generation(kb: KernelBasis, C: float = 8.0,
                        rng: Optional[random.Random] = None) -> list[tuple[int, ...]]:
    """Sample ceil(C * ln|K|) uniform elements of K by drawing uniform
    coefficients against the cyclic generators. The sampled multiset is
    an expanding generating set with high probability (random Cayley
    graphs of logarithmic degree have constant spectral gap)."""
    if kb.kernel_order <= 1:
        return []
    rng = rng or random.Random()
    count = math.ceil(C * math.log(kb.kernel_order))
    out = []
    for _ in range(count):
        x = [0] * len(kb.moduli)
        for h, u in zip(kb.generators, kb.orders):
            n = rng.randrange(u)
            if n:
                for i, g in enumerate(h):
                    x[i] = (x[i] + n * g) % kb.moduli[i]
        out.append(tuple(x))
    return out


@dataclass
class DenseTransition:
    """Exact dense transition matrix P = counts / den (int64 numerators
    over one common denominator), indexed as the states it was built on."""

    counts: np.ndarray
    den: int

    @property
    def P(self) -> np.ndarray:
        return self.counts / float(self.den)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.counts, self.counts.T))

    def is_doubly_stochastic(self) -> bool:
        return bool(
            np.all(self.counts.sum(axis=0) == self.den)
            and np.all(self.counts.sum(axis=1) == self.den)
        )


def _neighbours(spec: CayleyWalkSpec, states: list[tuple[int, ...]]) -> np.ndarray:
    """(n, 2k) index table over an explicit state list: column 2j holds
    the index of state + h_j and column 2j + 1 that of state - h_j.
    Raises ValueError when a move leaves the state set."""
    index = {s: i for i, s in enumerate(states)}
    n, d = len(states), len(spec.moduli)
    # states and generators are residues, so |x +- h| < 2 * modulus
    dtype = int_dtype(2 * max(spec.moduli, default=0))
    moduli = np.array(spec.moduli, dtype=dtype)
    S = np.array(states, dtype=dtype).reshape(n, d)
    table = np.empty((n, 2 * len(spec.generators)), dtype=np.intp)
    for j, h in enumerate(spec.generators):
        H = np.array([g % m for g, m in zip(h, spec.moduli)], dtype=dtype)
        for c, moved in enumerate(((S + H) % moduli, (S - H) % moduli)):
            idx = list(map(index.get, map(tuple, moved.tolist())))
            if None in idx:
                raise ValueError("state set is not closed under the generators")
            table[:, 2 * j + c] = idx
    return table


def coset_table(orders: Sequence[int]) -> np.ndarray:
    """The (n, 2k) table of ``_neighbours`` for the coset in
    ``kernel.coset_array``'s order, n = prod(orders), read off the
    mixed-radix digits: +-h_j moves digit j by +-1 mod u_j, so the index
    by +-stride_j, with wrap. ``check_coset_table`` certifies it."""
    n = math.prod(orders)
    idx = np.arange(n)
    table = np.empty((n, 2 * len(orders)), dtype=np.int32 if n < 2**31 else np.intp)
    stride = n
    for j, u in enumerate(orders):
        stride //= u
        digit = idx // stride % u
        table[:, 2 * j] = np.where(digit == u - 1, idx - (u - 1) * stride, idx + stride)
        table[:, 2 * j + 1] = np.where(digit == 0, idx + (u - 1) * stride, idx - stride)
    return table


def check_coset_table(spec: CayleyWalkSpec, X: np.ndarray, nb: np.ndarray) -> None:
    """CertificateError unless row i of nb holds the indices of X[i] +- h_j
    and the rows of X, the points of ``kernel.coset_array`` (in a dtype
    that holds a sum of two residues), are distinct. O(n k d)."""
    n = len(X)
    if nb.shape != (n, 2 * len(spec.generators)) or (n and not 0 <= nb.min() <= nb.max() < n):
        raise CertificateError("neighbour table does not index the state set")
    m = np.array(spec.moduli, dtype=X.dtype)
    for j, h in enumerate(spec.generators):
        H = np.array([g % mc for g, mc in zip(h, spec.moduli)], dtype=X.dtype)
        # X and H hold residues: one conditional subtraction or addition
        # of m reduces their sum or difference
        up, down = X + H, X - H
        np.subtract(up, m, out=up, where=up >= m)
        np.add(down, m, out=down, where=down < 0)
        for c, moved in enumerate((up, down)):
            if not np.array_equal(X[nb[:, 2 * j + c]], moved):
                raise CertificateError(
                    f"neighbour table column {2 * j + c} does not hold the moved states")
        del up, down
    if X.dtype == object:
        distinct = len(set(map(tuple, X.tolist()))) == n
    else:
        # sorted, equal points are adjacent
        Xs = X[np.lexsort(X.T)]
        distinct = not np.all(Xs[1:] == Xs[:-1], axis=1).any()
    if not distinct:
        raise CertificateError("the enumerated coset repeats a point")


def transition_counts(spec: CayleyWalkSpec, nb: np.ndarray):
    """den * P for the lazy Cayley walk with neighbour table nb, as a
    canonical int64 CSR array (duplicates summed, indices sorted), and
    den. The table is certified first: every state is hit exactly 2k
    times, so the counts are doubly stochastic, and each move pairs
    with its inverse, nb[nb[:, 2j], 2j + 1] = i, so they are symmetric.
    Memory O(n k). Needs k >= 1."""
    import scipy.sparse as sp
    n, width = nb.shape
    k = width // 2
    if n and not 0 <= nb.min() <= nb.max() < n:
        raise CertificateError("neighbour table does not index the state set")
    den, (hold_w, move_w) = clear_denominators([spec.laziness, (1 - spec.laziness) / (2 * k)])
    if not np.all(np.bincount(nb.ravel(), minlength=n) == 2 * k):
        raise CertificateError("a state is not hit 2k times: the walk is not doubly stochastic")
    idx = np.arange(n)
    for j in range(k):
        if not np.array_equal(nb[nb[:, 2 * j], 2 * j + 1], idx):
            raise CertificateError(
                f"moves +-h_{j} are not an involution pairing: the walk is not symmetric")
    itype = np.int32 if n * (width + 1) < 2**31 else np.int64
    cols = np.empty((n, width + 1), dtype=itype)
    cols[:, 0] = idx
    cols[:, 1:] = nb
    data = np.full((n, width + 1), move_w, dtype=np.int64)
    data[:, 0] = hold_w
    counts = sp.csr_array((data.ravel(), cols.ravel(),
                           np.arange(0, n * (width + 1) + 1, width + 1, dtype=itype)),
                          shape=(n, n))
    counts.sum_duplicates()
    return counts, den


def transition_matrix(spec: CayleyWalkSpec, states: Sequence[tuple[int, ...]],
                      dense_limit: int = DENSE_LIMIT_DEFAULT) -> DenseTransition:
    """Dense P for the lazy Cayley walk on a state set closed under the
    generators (a coset): ``transition_counts`` densified, the dense
    oracle of the walk matrix. Entries are exact rationals with common
    denominator; symmetry and double stochasticity are certified on the
    table and re-checked here on the dense counts."""
    n = len(states)
    if n > dense_limit:
        raise CapExceeded(f"{n} states > dense limit {dense_limit}")
    states = list(states)
    if not spec.generators:
        return DenseTransition(np.eye(n, dtype=np.int64), 1)
    counts, den = transition_counts(spec, _neighbours(spec, states))
    dt = DenseTransition(counts.toarray(), den)
    if not dt.is_symmetric():
        raise CertificateError("Cayley walk matrix must be symmetric")
    if not dt.is_doubly_stochastic():
        raise CertificateError("Cayley walk matrix must be doubly stochastic")
    return dt


def spectral_gap(P: np.ndarray) -> float:
    """delta = 1 - max |lambda| over non-principal eigenvalues of the
    symmetric stochastic matrix P; 1 by convention for a single state."""
    n = P.shape[0]
    if n <= 1:
        return 1.0
    lam = np.linalg.eigvalsh(P)
    # principal eigenvalue is the largest (=1); drop one copy of it
    rest = np.abs(np.delete(lam, np.argmax(lam)))
    return float(1.0 - rest.max())


def character_gap(kb: KernelBasis, laziness: Fraction = Fraction(1, 3)) -> float:
    """spectral_gap of the lazy walk on K's cyclic generators in O(k),
    with no eigensolve. The generators are independent of orders u_j,
    so each character c of K is an eigenvector with eigenvalue
    L + (1 - L)/k * sum_j cos(2 pi c_j / u_j). The largest non-principal
    one is 1 - (1 - L)/k * 2 sin^2(pi / u_max), the sine form keeping
    full relative precision on long cycles; the smallest puts
    c_j = floor(u_j / 2) on every cycle. 1 for a trivial kernel."""
    if math.prod(kb.orders) != kb.kernel_order:
        raise CertificateError("cyclic generator orders do not multiply to |K|")
    if kb.kernel_order == 1:
        return 1.0
    k = len(kb.orders)
    w = float((1 - Fraction(laziness)) / k)
    lowest = float(laziness) + w * sum(math.cos(2 * math.pi * (u // 2) / u)
                                       for u in kb.orders)
    return min(2 * w * math.sin(math.pi / max(kb.orders)) ** 2, 1 - abs(lowest))


def log_sobolev_lower(kb: KernelBasis) -> Fraction:
    """Conservative lower bound 1/(2 k u_max^2) on the log-Sobolev
    constant of the product-of-cycles walk (k generators, largest cycle
    order u_max); 1 by convention for a trivial kernel."""
    k = len(kb.generators)
    u_max = max(kb.orders, default=1)
    if k == 0 or u_max <= 1:
        return Fraction(1)
    return Fraction(1, 2 * k * u_max * u_max)


def cyclic_metric(v: Sequence[int], w: Sequence, moduli: Sequence[int]) -> Fraction:
    """Weighted cyclic displacement sum_i |w_i| * max(v_i, a_i - v_i)
    over the support of v (coordinates with v_i != 0 mod a_i), the form
    the one-step cost-change bounds use."""
    total = Fraction(0)
    for vi, wi, ai in zip(v, w, moduli):
        vi = vi % ai
        if vi:
            total += abs(Fraction(wi)) * max(vi, ai - vi)
    return total


def cyclic_norm_max(generators: Sequence[Sequence[int]], w: Sequence,
                    moduli: Sequence[int]) -> Fraction:
    """max_j cyclic_metric(h_j, w); upper-bounds the one-step change of
    the linear cost along any single move, hence sqrt of the
    pseudo-Lipschitz norm."""
    return max((cyclic_metric(h, w, moduli) for h in generators), default=Fraction(0))


def max_move_variation(iv: np.ndarray, nb: np.ndarray) -> int:
    """max_x sum_c (iv[x] - iv[nb[x, c]])^2 over the states of an
    (n, 2k) neighbour table, for an integer array iv, in ``int_dtype``:
    no value formed exceeds max |iv| nor 2k (max - min)^2."""
    lo, hi = int(iv.min()), int(iv.max())
    iv = iv.astype(int_dtype(max(-lo, hi, nb.shape[1] * (hi - lo) ** 2) + 1))
    total = np.zeros(len(iv), dtype=iv.dtype)
    for c in range(nb.shape[1]):
        diff = iv - iv[nb[:, c]]
        total += diff * diff
    return int(total.max())


def pseudo_lipschitz(f: Callable[[tuple[int, ...]], Fraction],
                     spec: CayleyWalkSpec,
                     states: Sequence[tuple[int, ...]]) -> tuple[Fraction, Optional[Fraction]]:
    """Exact ||f||_P = max_x E_y[(f(x) - f(y))^2] over one walk step,
    plus the generator bound (max_j cyclic norm)^2 when f is a
    ``LinearCost``, its weights over its den. Returns (exact, bound); the
    bound is None for any other f. The state set must be closed under
    the generators (ValueError otherwise)."""
    states = list(states)
    k = len(spec.generators)
    best = Fraction(0)
    if k and states:
        nb = _neighbours(spec, states)
        den, values = clear_denominators([Fraction(f(s)) for s in states])
        iv = np.array(values, dtype=object)
        move_w = (1 - spec.laziness) / (2 * k)
        best = move_w * Fraction(max_move_variation(iv, nb), den * den)
    bound = None
    if isinstance(f, LinearCost):
        b = cyclic_norm_max(spec.generators, f.weights, spec.moduli) / f.den
        bound = b * b
        if best > bound:
            raise CertificateError("cyclic bound violated by exact pseudo-Lipschitz norm")
    return best, bound


def metropolis_step(state: tuple[int, ...], beta: float, spec: CayleyWalkSpec,
                    cost: LinearCost) -> tuple[int, ...]:
    """Propose one lazy Cayley move and accept with probability
    min(1, exp(-beta * (cost(y) - cost(x)))). Detailed balance holds for
    pi_beta proportional to exp(-beta cost); beta = 0 is the plain walk."""
    return tuple(walk(spec, state, 1, cost, beta)[0])

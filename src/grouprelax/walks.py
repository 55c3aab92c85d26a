"""Feasibility-preserving random walks on the kernel coset.

Lazy product-of-cycles Cayley walk, expander generator sampling, a
Metropolis filter tilting the stationary law toward low cost, and the
walk-level diagnostics (dense transition matrix, spectral gap,
log-Sobolev lower bound, pseudo-Lipschitz norm, cyclic metric).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DenseLimitExceeded
from .kernel import KernelBasis

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


def _move(state, h, a, moduli):
    return tuple((x + a * g) % m for x, g, m in zip(state, h, moduli))


def step(state: tuple[int, ...], spec: CayleyWalkSpec) -> tuple[int, ...]:
    """One walk step; with the default laziness 1/3 this is exactly
    'pick a generator uniformly, pick a in {-1, 0, +1} uniformly'."""
    if not spec.generators:
        return state
    if spec.rng.random() < spec.laziness:
        return state
    h = spec.generators[spec.rng.randrange(len(spec.generators))]
    a = 1 if spec.rng.random() < 0.5 else -1
    return _move(state, h, a, spec.moduli)


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
    """Exact dense transition matrix P = counts / den over an explicit
    state list (int64 numerators over one common denominator)."""

    states: list[tuple[int, ...]]
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


def transition_matrix(spec: CayleyWalkSpec, states: Sequence[tuple[int, ...]],
                      dense_limit: int = DENSE_LIMIT_DEFAULT) -> DenseTransition:
    """Dense P for the lazy Cayley walk on a state set closed under the
    generators (a coset). Entries are exact rationals with common
    denominator; symmetry and double stochasticity hold by construction
    and are re-checked here."""
    n = len(states)
    if n > dense_limit:
        raise DenseLimitExceeded(f"{n} states > dense limit {dense_limit}")
    states = list(states)
    index = {s: i for i, s in enumerate(states)}
    k = len(spec.generators)
    if k == 0:
        dt = DenseTransition(states, np.eye(n, dtype=np.int64), 1)
        return dt
    move_w = (1 - spec.laziness) / (2 * k)
    den = (spec.laziness.denominator * move_w.denominator) // math.gcd(
        spec.laziness.denominator, move_w.denominator
    )
    hold = int(spec.laziness * den)
    per_move = int(move_w * den)
    counts = np.zeros((n, n), dtype=np.int64)
    for i, s in enumerate(states):
        counts[i, i] += hold
        for h in spec.generators:
            for a in (1, -1):
                t = _move(s, h, a, spec.moduli)
                j = index.get(t)
                if j is None:
                    raise ValueError("state set is not closed under the generators")
                counts[i, j] += per_move
    dt = DenseTransition(states, counts, den)
    assert dt.is_symmetric(), "Cayley walk matrix must be symmetric"
    assert dt.is_doubly_stochastic()
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


def log_sobolev_lower(kb_or_k, u_max: Optional[int] = None) -> Fraction:
    """Conservative lower bound 1/(2 k u_max^2) on the log-Sobolev
    constant of the product-of-cycles walk (k generators, largest cycle
    order u_max); 1 by convention for a trivial kernel."""
    if isinstance(kb_or_k, KernelBasis):
        k = len(kb_or_k.generators)
        u_max = max(kb_or_k.orders, default=1)
    else:
        k = int(kb_or_k)
        if u_max is None:
            raise ValueError("u_max required")
    if k == 0 or u_max <= 1:
        return Fraction(1)
    return Fraction(1, 2 * k * u_max * u_max)


def cyclic_metric(v: Sequence[int], w: Sequence, moduli: Sequence[int],
                  strict: bool = False) -> Fraction:
    """Weighted cyclic displacement sum_i |w_i| * max(v_i, a_i - v_i)
    over the support of v (coordinates with v_i != 0 mod a_i).

    strict=True sums over every coordinate instead, which makes the
    value of 0 positive; the support-restricted form is the default and
    is what the one-step cost-change bounds use.
    """
    total = Fraction(0)
    for vi, wi, ai in zip(v, w, moduli):
        vi = vi % ai
        if vi == 0 and not strict:
            continue
        total += abs(Fraction(wi)) * max(vi, ai - vi)
    return total


def cyclic_norm_max(generators: Sequence[Sequence[int]], w: Sequence,
                    moduli: Sequence[int]) -> Fraction:
    """max_j cyclic_metric(h_j, w); upper-bounds the one-step change of
    the linear cost along any single move, hence sqrt of the
    pseudo-Lipschitz norm."""
    return max((cyclic_metric(h, w, moduli) for h in generators), default=Fraction(0))


def pseudo_lipschitz(f: Callable[[tuple[int, ...]], Fraction],
                     spec: CayleyWalkSpec,
                     states: Sequence[tuple[int, ...]],
                     weights: Optional[Sequence] = None) -> tuple[Fraction, Fraction]:
    """Exact ||f||_P = max_x E_y[(f(x) - f(y))^2] over one walk step,
    plus the generator bound (max_j cyclic norm)^2 when weights (the
    linear cost on coordinates) are given. Returns (exact, bound); the
    bound is None without weights."""
    k = len(spec.generators)
    best = Fraction(0)
    if k:
        move_w = (1 - spec.laziness) / (2 * k)
        for s in states:
            fs = Fraction(f(s))
            acc = Fraction(0)
            for h in spec.generators:
                for a in (1, -1):
                    d = fs - Fraction(f(_move(s, h, a, spec.moduli)))
                    acc += move_w * d * d
            if acc > best:
                best = acc
    bound = None
    if weights is not None:
        b = cyclic_norm_max(spec.generators, weights, spec.moduli)
        bound = b * b
        assert best <= bound, "cyclic bound violated by exact pseudo-Lipschitz norm"
    return best, bound


def metropolis_step(state: tuple[int, ...], beta: float, spec: CayleyWalkSpec,
                    f: Callable[[tuple[int, ...]], Fraction]) -> tuple[int, ...]:
    """Propose one lazy Cayley move and accept with probability
    min(1, exp(-beta * (f(y) - f(x)))). Detailed balance holds for
    pi_beta proportional to exp(-beta f); beta = 0 is the plain walk."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    y = step(state, spec)
    if y == state or beta == 0:
        return y
    delta = float(f(y) - f(state))
    if delta <= 0 or spec.rng.random() < math.exp(-beta * delta):
        return y
    return state


def metropolis_matrix(spec: CayleyWalkSpec, states: Sequence[tuple[int, ...]],
                      f: Callable[[tuple[int, ...]], Fraction], beta: float,
                      dense_limit: int = DENSE_LIMIT_DEFAULT) -> np.ndarray:
    """Dense Metropolis transition matrix (float); rejected mass folds
    into the diagonal."""
    n = len(states)
    if n > dense_limit:
        raise DenseLimitExceeded(f"{n} states > dense limit {dense_limit}")
    states = list(states)
    index = {s: i for i, s in enumerate(states)}
    k = len(spec.generators)
    P = np.zeros((n, n))
    if k == 0:
        return np.eye(n)
    move_w = float((1 - spec.laziness) / (2 * k))
    fv = [float(f(s)) for s in states]
    for i, s in enumerate(states):
        P[i, i] += float(spec.laziness)
        for h in spec.generators:
            for a in (1, -1):
                j = index[_move(s, h, a, spec.moduli)]
                acc = min(1.0, math.exp(-beta * (fv[j] - fv[i]))) if j != i else 1.0
                P[i, j] += move_w * acc
                P[i, i] += move_w * (1.0 - acc)
    return P


def tv_to_uniform(P: np.ndarray, t: int, start: int = 0) -> float:
    """Total-variation distance of the t-step distribution (from the
    given start state) to uniform, via the symmetric eigendecomposition."""
    n = P.shape[0]
    lam, Q = np.linalg.eigh(P)
    dist = Q @ (lam**t * Q[start, :])
    return float(0.5 * np.abs(dist - 1.0 / n).sum())

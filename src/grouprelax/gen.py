"""Instance generators: CUTGEN1-style cutting stock and the planted
family with known group-relaxation structure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, EmptyWidthBand
from .exact import IntMatrix
from .lp import EQ, GE, ILPInstance

PATTERN_CAP_DEFAULT = 5000


@dataclass
class CutStockSpec:
    m: int                 # item types
    v2: float              # upper width fraction
    dbar: float            # mean demand
    v1: float = 0.01
    L: int = 1000
    seed: int = 0
    pattern_cap: int = PATTERN_CAP_DEFAULT

    def __post_init__(self):
        if self.m < 1 or self.L < 1:
            raise ValueError("m and L must be positive")
        if not (0 < self.v1 <= self.v2 <= 1):
            raise ValueError("need 0 < v1 <= v2 <= 1")


def _demand_split(m: int, total: int, rng: random.Random) -> list[int]:
    # each item gets at least 1; spread the rest uniformly
    if total < m:
        raise ValueError("total demand below one per item")
    d = [1] * m
    for _ in range(total - m):
        d[rng.randrange(m)] += 1
    return d


def _maximal_patterns(widths: list[int], L: int, cap: int) -> list[tuple[int, ...]]:
    """All patterns a with a.w <= L that cannot take one more of any
    item. Depth-first over items (widths sorted descending)."""
    m = len(widths)
    w_min = min(widths)
    out: list[tuple[int, ...]] = []
    pattern = [0] * m

    def rec(i: int, remaining: int):
        if i == m:
            if remaining < w_min:  # nothing else fits: maximal
                out.append(tuple(pattern))
                if len(out) > cap:
                    raise CapExceeded(f"enumerated {len(out)} patterns, cap is {cap}")
            return
        top = remaining // widths[i]
        for a in range(top, -1, -1):
            pattern[i] = a
            rec(i + 1, remaining - a * widths[i])
        pattern[i] = 0

    rec(0, L)
    return out


def cutgen(spec: CutStockSpec) -> ILPInstance:
    """Cutting stock: minimize rolls over all maximal cutting patterns
    subject to covering each demand. Deterministic per seed."""
    lo = max(1, math.ceil(spec.v1 * spec.L))
    hi = math.floor(spec.v2 * spec.L)
    if lo > hi:
        raise EmptyWidthBand(f"width band [{lo}, {hi}] is empty")
    rng = random.Random(spec.seed)
    widths = sorted((rng.randint(lo, hi) for _ in range(spec.m)), reverse=True)
    total = round(spec.m * spec.dbar)
    demands = _demand_split(spec.m, total, rng)
    patterns = _maximal_patterns(widths, spec.L, spec.pattern_cap)
    A = IntMatrix([[p[i] for p in patterns] for i in range(spec.m)])
    name = f"cutgen_m{spec.m}_L{spec.L}_v{spec.v2}_d{spec.dbar}_s{spec.seed}"
    return ILPInstance(
        name=name,
        A=A,
        b=demands,
        c=[Fraction(1)] * len(patterns),
        row_sense=[GE] * spec.m,
        var_names=[f"p{k+1}" for k in range(len(patterns))],
    )


def _random_lower_unit(n: int, rng: random.Random, sign: int = -1) -> IntMatrix:
    # unit lower-triangular; with sign=-1 the off-diagonals are
    # nonpositive, so the inverse is nonnegative (I - N, N >= 0 nilpotent)
    M = IntMatrix.identity(n)
    for i in range(1, n):
        for j in range(i):
            M[i, j] = sign * rng.randint(0, 2)
    return M


def planted(t: int, m: int, ell: int, seed: int = 0,
            style: str = "identity") -> tuple[ILPInstance, dict]:
    """Equality-form ILP whose group relaxation has known structure:
    basis block with invariant factors all t^2, nonbasic block of order
    t, zero basic costs and unit nonbasic costs. The kernel and range
    groups both have order t^m and the group optimum is m*ell, attained
    at the unique coset point with all coordinates ell.
    """
    if t < 2 or m < 1 or not (1 <= ell < t):
        raise ValueError("need t >= 2, m >= 1, 1 <= ell < t")
    if style not in ("identity", "random-lower-unit"):
        raise ValueError(f"unknown style {style!r}")
    rng = random.Random(seed)
    if style == "identity":
        U = V = Up = IntMatrix.identity(m)
    else:
        # U, V need a nonnegative basis inverse; U' needs nonnegative
        # entries so b = ell*t*U'1 stays nonnegative and the feasible
        # point reduces to ell*1 exactly
        U = _random_lower_unit(m, rng, sign=-1)
        V = _random_lower_unit(m, rng, sign=-1)
        Up = _random_lower_unit(m, rng, sign=+1)
    R = IntMatrix([[t * t if i == j else 0 for j in range(m)] for i in range(m)])
    T = IntMatrix([[t if i == j else 0 for j in range(m)] for i in range(m)])
    AB = U @ R @ V
    AN = Up @ T
    A = IntMatrix([AB.data[i] + AN.data[i] for i in range(m)])
    b = Up.matvec([ell * t] * m)
    c = [Fraction(0)] * m + [Fraction(1)] * m
    inst = ILPInstance(
        name=f"planted_t{t}_m{m}_l{ell}_{style}_s{seed}",
        A=A,
        b=b,
        c=c,
        row_sense=[EQ] * m,
    )
    meta = {
        "opt_lp": Fraction(0),
        "opt_b": Fraction(m * ell),
        "k_order": t**m,
        "g_order": t**m,
        "kstar_order": 1,
        "generator_orders": [t] * m,
    }
    return inst, meta

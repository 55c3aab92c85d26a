"""Test references for the walk layer: the walk on an opaque Fraction-valued
cost callable, and the dense Metropolis matrix and total-variation
distance. ``grouprelax.walks.walk`` carries the cost of a ``LinearCost``
as an int instead; given the same spec, start, steps, cost and beta it
must make the same RNG draws and return the same state, cost and counts.
"""

import math
from typing import Callable, Optional, Sequence

import numpy as np

from grouprelax.errors import CapExceeded
from grouprelax.walks import DENSE_LIMIT_DEFAULT, CayleyWalkSpec


def walk(spec: CayleyWalkSpec, x: Sequence[int], n: int,
         f: Optional[Callable] = None, beta: float = 0.0):
    """Run n steps from state x, reduced mod the moduli on entry. With f
    and beta > 0 each non-null proposal y is accepted with probability
    min(1, exp(-beta * float(f(y) - f(x)))); f(x) is carried, so f runs
    once per non-null proposal, always on a tuple.

    Returns (state as a list, f(state) or None without f, proposals,
    accepted)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    moduli = spec.moduli
    x = [v % m for v, m in zip(x, moduli)]
    supports = spec._supports
    k = len(supports)
    filtered = f is not None and beta > 0
    fx = None
    proposals = accepted = 0
    if k:
        rand, randrange = spec.rng.random, spec.rng.randrange
        hold = spec._hold
        for _ in range(n):
            if rand() < hold:
                continue
            support = supports[randrange(k)]
            a = 1 if rand() < 0.5 else -1
            if not support:
                continue
            if not filtered:
                for i, h in support:
                    x[i] = (x[i] + a * h) % moduli[i]
                continue
            y = x.copy()
            for i, h in support:
                y[i] = (y[i] + a * h) % moduli[i]
            if fx is None:
                fx = f(tuple(x))
            fy = f(tuple(y))
            proposals += 1
            delta = float(fy - fx)
            if delta <= 0 or rand() < math.exp(-beta * delta):
                x, fx = y, fy
                accepted += 1
    if f is not None and fx is None:
        fx = f(tuple(x))
    return x, fx, proposals, accepted


def _move(state, h, a, moduli):
    return tuple((x + a * g) % m for x, g, m in zip(state, h, moduli))


def metropolis_matrix(spec: CayleyWalkSpec, states, f, beta: float,
                      dense_limit: int = DENSE_LIMIT_DEFAULT) -> np.ndarray:
    """Dense Metropolis transition matrix (float); rejected mass folds
    into the diagonal."""
    n = len(states)
    if n > dense_limit:
        raise CapExceeded(f"{n} states > dense limit {dense_limit}")
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

"""Bounded vector potentials with finite symbol-dependence depth.

A potential of depth m assigns a vector in R^d to every admissible m-word;
its value on an infinite sequence depends only on the first m symbols, so
all Birkhoff sums over cylinders are exact up to the trailing m-1 windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidWordError


@dataclass(frozen=True)
class PotentialVector:
    """d-dimensional potential determined by the first ``depth`` symbols."""

    dim: int
    depth: int
    eval: Callable[[tuple], np.ndarray]
    bound: float
    # depth-1 only: the values of an integer array of K edges as a (K, dim)
    # array, equal to ``eval`` edge by edge; :meth:`table` reads it
    eval_edges: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1 or self.depth < 1:
            raise ValueError("dim and depth must be >= 1")
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")

    def value(self, mword: Sequence[int]) -> np.ndarray:
        w = tuple(int(s) for s in mword)
        if len(w) != self.depth:
            raise InvalidWordError(
                f"potential of depth {self.depth} evaluated on word of length {len(w)}")
        v = np.asarray(self.eval(w), dtype=float).reshape(self.dim)
        if np.abs(v).max(initial=0.0) > self.bound + 1e-12:
            raise ValueError(f"potential value {v} exceeds declared bound {self.bound}")
        return v

    def table(self, N: int) -> np.ndarray:
        """Dense (N+1, dim) lookup over single symbols; depth-1 only.
        Row 0 is unused padding so edge k indexes row k."""
        if self.depth != 1:
            raise ValueError("symbol table only defined for depth-1 potentials")
        out = np.zeros((N + 1, self.dim))
        if self.eval_edges is not None:
            out[1:] = self.eval_edges(np.arange(1, N + 1))
        else:
            out[1:] = np.reshape([self.eval((k,)) for k in range(1, N + 1)],
                                 (N, self.dim))
        over = np.abs(out) > self.bound + 1e-12
        if over.any():
            k = int(over.any(axis=1).argmax())
            raise ValueError(f"potential value {out[k]} on edge {k} exceeds declared bound {self.bound}")
        return out


def depth1(fn: Callable[[int], Sequence[float]], dim: int, bound: float) -> PotentialVector:
    """Depth-1 potential from a per-symbol function."""
    return PotentialVector(dim=dim, depth=1,
                           eval=lambda w: np.asarray(fn(w[0]), dtype=float),
                           bound=bound)


def from_table(values: dict, dim: Optional[int] = None) -> PotentialVector:
    """Depth-1 potential from an explicit symbol table ``{k: vector}``."""
    tab = {int(k): np.atleast_1d(np.asarray(v, dtype=float)) for k, v in values.items()}
    if not tab:
        raise ValueError("empty table")
    d = dim if dim is not None else len(next(iter(tab.values())))
    for k, v in tab.items():
        if k < 1:
            raise ValueError(f"edge {k} is not a positive edge index")
        if v.size != d:
            raise ValueError(f"value of edge {k} has length {v.size}, not {d}")
        if not np.isfinite(v).all():
            raise ValueError(f"value of edge {k} is not finite: {v.tolist()}")
    bound = max(float(np.abs(v).max()) for v in tab.values())
    keys = np.array(sorted(tab))
    rows = np.array([tab[k] for k in keys.tolist()])

    def missing(k):
        return InvalidWordError(f"no potential value declared for edge {k}")

    def ev(w):
        k = w[0]
        if k not in tab:
            raise missing(k)
        return tab[k]

    def ev_edges(ks):
        at = np.minimum(np.searchsorted(keys, ks), keys.size - 1)
        absent = keys[at] != ks
        if absent.any():
            raise missing(int(ks[absent.argmax()]))
        return rows[at]

    return PotentialVector(dim=d, depth=1, eval=ev, bound=bound,
                           eval_edges=ev_edges)


def mod_cycle(tables: Sequence[Sequence[float]]) -> PotentialVector:
    """Depth-1 potential whose i-th component is ``tables[i][k % len]``;
    defined for every positive edge index."""
    tabs = [tuple(float(x) for x in t) for t in tables]
    if any(len(t) == 0 for t in tabs):
        raise ValueError("each component table must be nonempty")
    d = len(tabs)
    bound = max(max(abs(x) for x in t) for t in tabs)
    arrays = [np.array(t) for t in tabs]

    def ev(w):
        k = w[0]
        return np.array([t[k % len(t)] for t in tabs])

    def ev_edges(ks):
        return np.stack([a[ks % a.size] for a in arrays], axis=1)

    return PotentialVector(dim=d, depth=1, eval=ev, bound=bound,
                           eval_edges=ev_edges)


def zero(dim: int = 1) -> PotentialVector:
    return PotentialVector(dim=dim, depth=1,
                           eval=lambda w: np.zeros(dim), bound=0.0,
                           eval_edges=lambda ks: np.zeros((ks.size, dim)))


def constant(values: Sequence[float]) -> PotentialVector:
    v = np.atleast_1d(np.asarray(values, dtype=float))
    return PotentialVector(dim=len(v), depth=1,
                           eval=lambda w: v, bound=float(np.abs(v).max()),
                           eval_edges=lambda ks: np.tile(v, (ks.size, 1)))


def depth_m(fn: Callable[[tuple], Sequence[float]], dim: int, depth: int,
            bound: float) -> PotentialVector:
    """General finite-depth potential from a function of the first m symbols."""
    return PotentialVector(dim=dim, depth=depth,
                           eval=lambda w: np.asarray(fn(w), dtype=float),
                           bound=bound)


def cycle_birkhoff(J: PotentialVector, cycle) -> np.ndarray:
    """Birkhoff sum of J over one period of the periodic extension of the
    cycle; exact because the potential has finite depth."""
    syms = tuple(int(s) for s in cycle)
    if not syms:
        raise InvalidWordError("cycle must be nonempty")
    p = len(syms)
    total = np.zeros(J.dim)
    for i in range(p):
        window = tuple(syms[(i + j) % p] for j in range(J.depth))
        total += J.value(window)
    return total

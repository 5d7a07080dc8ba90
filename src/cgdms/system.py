"""System descriptors: graph + incidence + contraction family + tail data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .families import MapFamily, MoebiusCFFamily, SimilarityFamily
from .symbolic import IncidenceMatrix, Multigraph

HULL_ITERATIONS = 120  # interval self-map iterations of the attractor hull


@dataclass(frozen=True)
class TailRule:
    """Two-sided power-law control of the per-edge derivative norms:

        c_lower * k**-exponent  <=  sup|phi_k'|  <=  c_upper * k**-exponent.

    Drives the finiteness-threshold computation and tail-weight bounds for
    truncated sums.
    """

    exponent: float
    c_upper: float = 1.0
    c_lower: float = 1.0

    def __post_init__(self):
        if self.exponent <= 1.0:
            raise ValueError("tail exponent must exceed 1 for summability")
        if not (0.0 < self.c_lower <= self.c_upper):
            raise ValueError("need 0 < c_lower <= c_upper")

    @property
    def theta(self) -> float:
        """Series convergence threshold of sum_k (sup|phi_k'|)**beta."""
        return 1.0 / self.exponent

    def tail_weight(self, beta: float, N: int) -> float:
        """Upper bound on sum_{k>N} (sup|phi_k'|)**beta via the integral
        test; +inf when the series diverges."""
        p = self.exponent * beta
        if p <= 1.0:
            return math.inf
        return (self.c_upper ** beta) * (N ** (1.0 - p)) / (p - 1.0)


class SystemDescriptor:
    """A graph directed system ready for pressure computations.

    Immutable after construction.  Limit-set hulls are cached per symbol
    set; they tighten cylinder brackets for full-shift systems (the
    attractor hull is computed by iterating the interval self-map of the
    union of edge images).
    """

    def __init__(self, graph: Multigraph, incidence: IncidenceMatrix,
                 family: MapFamily, tail_rule: Optional[TailRule] = None,
                 name: str = "system"):
        self.graph = graph
        self.incidence = incidence
        self.family = family
        self.tail_rule = tail_rule
        self.name = name
        self._hull_cache: dict = {}

    @property
    def alphabet_size(self) -> Optional[int]:
        return self.graph.n_edges

    @property
    def is_finite(self) -> bool:
        return self.graph.n_edges is not None

    def effective_truncation(self, N: Optional[int]) -> int:
        if self.is_finite:
            return self.graph.n_edges if N is None else min(N, self.graph.n_edges)
        if N is None:
            raise ValueError("infinite alphabet requires an explicit truncation")
        return N

    def hull(self, N: int) -> tuple:
        """Interval hull of the limit set truncated to edges 1..N."""
        return self.support_hull(range(1, N + 1))

    def support_hull(self, symbols) -> tuple:
        """Interval hull of the limit set of the subsystem spanned by the
        given symbols (single-vertex full shifts only; otherwise the
        ambient domain)."""
        key = tuple(sorted(set(int(e) for e in symbols)))
        if key in self._hull_cache:
            return self._hull_cache[key]
        dom = self.family.domain()
        if not self.incidence.full_shift or len(self.graph.vertices) != 1:
            self._hull_cache[key] = dom
            return dom
        a, b = dom
        for _ in range(HULL_ITERATIONS):
            lo = math.inf
            hi = -math.inf
            for e in key:
                ia, ib = self.family.image(e, (a, b))
                lo = min(lo, ia)
                hi = max(hi, ib)
            if (lo, hi) == (a, b):  # a fixed point: later iterates repeat it
                break
            a, b = lo, hi
        # pad outward so float drift cannot make the hull too small
        pad = 1e-12 * max(1.0, abs(a), abs(b))
        hull = (a - pad, b + pad)
        self._hull_cache[key] = hull
        return hull

    def __repr__(self):
        size = self.alphabet_size if self.is_finite else "inf"
        return f"SystemDescriptor({self.name!r}, edges={size}, family={self.family.kind})"


def similarity_system(ratios, offsets=None, flips=None, incidence=None,
                      domain=(0.0, 1.0), name: str = "similarity") -> SystemDescriptor:
    """Finite iterated function system of similarities on an interval."""
    fam = SimilarityFamily(ratios, offsets=offsets, flips=flips, domain=domain)
    graph = Multigraph.single_vertex(n_edges=fam.n_edges)
    if incidence is None:
        inc = IncidenceMatrix.full(graph)
    else:
        inc = IncidenceMatrix.from_dense(incidence, graph)
        if not inc.has_infinite_word(len(incidence)):
            raise ValueError("incidence is nilpotent: no infinite word is admissible")
    return SystemDescriptor(graph, inc, fam, tail_rule=None, name=name)


def moebius_cf_system(name: str = "moebius-cf") -> SystemDescriptor:
    """The full continued-fraction system ``x -> 1/(x+k)``, k in N.

    Countably infinite full shift; the per-edge derivative norms equal
    k**-2 exactly, which the tail rule records with both constants 1.
    """
    fam = MoebiusCFFamily()
    graph = Multigraph.single_vertex(n_edges=None)
    inc = IncidenceMatrix.full(graph)
    return SystemDescriptor(graph, inc, fam,
                            tail_rule=TailRule(exponent=2.0), name=name)


def truncated_cf_system(n_edges: int, name: Optional[str] = None) -> SystemDescriptor:
    """Continued-fraction maps restricted to the alphabet {1..n_edges}."""
    fam = _BoundedCF(n_edges)
    graph = Multigraph.single_vertex(n_edges=n_edges)
    inc = IncidenceMatrix.full(graph)
    return SystemDescriptor(graph, inc, fam, tail_rule=None,
                            name=name or f"moebius-cf-{n_edges}")


class _BoundedCF(MoebiusCFFamily):
    """Continued-fraction family with a finite declared alphabet."""

    def __init__(self, n_edges: int):
        if n_edges < 1:
            raise ValueError("need at least one edge")
        self.n_edges = int(n_edges)

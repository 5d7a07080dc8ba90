"""Directed multigraphs, incidence matrices, admissible words, connectors.

Edges are identified with positive integers, and a word is a tuple of
them (the empty word is ``()``).  Infinite edge sets are never
materialized: every operation takes an explicit truncation bound N and only
touches edges 1..N.

The window tables of :mod:`cgdms.kernel` extend admissibility symbol by
symbol and take their Perron classes from the classes of symbols, so only
the table of a potential of depth m >= 2 builds a grid of symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import InvalidWordError, NotIrreducibleError


@dataclass(frozen=True)
class Multigraph:
    """Finite vertex set with a countable family of directed edges.

    ``n_edges is None`` means the edge set is infinite; callers must then
    always pass a truncation bound.
    """

    vertices: tuple
    initial: Callable[[int], object]
    terminal: Callable[[int], object]
    n_edges: Optional[int] = None

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("vertex set must be nonempty")

    def check_edge(self, e: int) -> None:
        if not isinstance(e, (int, np.integer)) or e < 1:
            raise InvalidWordError(f"edge index must be a positive integer, got {e!r}")
        if self.n_edges is not None and e > self.n_edges:
            raise InvalidWordError(f"edge {e} out of range (n_edges={self.n_edges})")

    @classmethod
    def single_vertex(cls, n_edges: Optional[int] = None) -> "Multigraph":
        """All edges are loops at one vertex (ordinary iterated function systems)."""
        return cls(vertices=(0,), initial=lambda e: 0, terminal=lambda e: 0,
                   n_edges=n_edges)


class IncidenceMatrix:
    """0/1 matrix over edge pairs deciding which edge may follow which.

    One of two representations, checked when built: the full shift
    (:meth:`full`; every pair allowed, over any alphabet, infinite ones
    included) or a dense square 0/1 array over the whole finite alphabet
    (:meth:`from_dense`; an all-ones array is the full shift).  A word is
    admissible when every consecutive pair has entry 1, and the class
    answers that for single pairs (:meth:`entry`), whole word tables
    (:meth:`admits`), every word of one length from those one symbol
    shorter (:meth:`extend_admits`), closed cycles
    (:func:`enumerate_cycles`) and the irreducible classes of symbols that
    carry them (:meth:`classes`).
    ``entry(u, v) == 1`` requires the terminal vertex of u to equal the
    initial vertex of v.
    """

    def __init__(self, graph: Multigraph, dense: Optional[np.ndarray] = None):
        self.graph = graph
        self.full_shift = dense is None or bool(dense.all())
        self._dense = None if self.full_shift else dense.astype(bool)

    @classmethod
    def full(cls, graph: Optional[Multigraph] = None) -> "IncidenceMatrix":
        return cls(graph if graph is not None else Multigraph.single_vertex())

    @classmethod
    def from_dense(cls, matrix, graph: Optional[Multigraph] = None) -> "IncidenceMatrix":
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("incidence matrix must be square")
        if not np.isin(m, (0, 1)).all():
            raise ValueError("incidence entries must be 0 or 1")
        g = graph if graph is not None else Multigraph.single_vertex(n_edges=m.shape[0])
        if m.shape[0] != g.n_edges:
            raise ValueError(f"incidence matrix is {m.shape[0]}x{m.shape[0]} "
                             f"but there are {g.n_edges} edges")
        for u, v in np.argwhere(m) + 1:
            if g.terminal(u) != g.initial(v):
                raise ValueError(
                    f"entry({u},{v})=1 but terminal({u}) != initial({v})")
        return cls(g, m)

    def entry(self, u: int, v: int) -> int:
        self.graph.check_edge(u)
        self.graph.check_edge(v)
        return 1 if self.full_shift else int(self._dense[u - 1, v - 1])

    def admits(self, syms: np.ndarray) -> np.ndarray:
        """Admissibility of each column word of a (length, M) array of
        symbols in 1..n_edges; all true on a full shift, without reading
        the symbols."""
        ok = np.ones(syms.shape[1], dtype=bool)
        if not self.full_shift:
            for i in range(syms.shape[0] - 1):
                ok &= self._dense[syms[i] - 1, syms[i + 1] - 1]
        return ok

    def extend_admits(self, ok: np.ndarray, N: int) -> np.ndarray:
        """Admissibility of every (L+1)-word over 1..N from that of every
        L-word, ``ok`` (L >= 1), both in natural code order (first symbol
        most significant): a word is admissible when its tail is and its
        first symbol may precede the tail's first.  All true on a full
        shift."""
        if self.full_shift:
            return np.ones(N * ok.size, dtype=bool)
        return (self._dense[:N, :N, None] & ok.reshape(1, N, -1)).ravel()

    def classes(self, N: int) -> list:
        """The irreducible classes of symbols 1..N that carry a cycle, as
        masks ordered by their least symbol: the strongly connected
        components of the N x N block with an edge inside, read off its
        transitive closure.  The full shift is one class of every symbol."""
        if self.full_shift:
            return [np.ones(N, dtype=bool)]
        reach = self._dense[:N, :N]  # paths of 1 to 2**k edges after k squarings
        for _ in range(int(N).bit_length()):  # until 2**k > N
            r = reach.astype(float)
            reach = reach | (r @ r > 0)
        cyclic = (reach & reach.T)[np.diagonal(reach)]  # class of each cyclic symbol
        # distinct rows in reverse lexicographic order: by least symbol
        return list(np.unique(cyclic, axis=0)[::-1])

    def has_infinite_word(self, N: int) -> bool:
        """Whether an infinite word over 1..N is admissible: a cycle."""
        return bool(self.classes(N))

    def successors(self, u: int, N: int) -> tuple:
        return tuple(v for v in range(1, N + 1) if self.entry(u, v))

    def dense_block(self, N: int) -> np.ndarray:
        """The upper-left N x N block as a dense 0/1 array (1-based edges)."""
        self.graph.check_edge(N)
        if self.full_shift:
            return np.ones((N, N), dtype=np.int8)
        return self._dense[:N, :N].astype(np.int8)


def is_admissible(word, A: IncidenceMatrix) -> bool:
    """True iff every consecutive pair of the word satisfies ``entry == 1``.

    Empty and length-1 words are admissible by vacuity.  Unknown edge
    indices raise :class:`InvalidWordError`.
    """
    syms = tuple(word)
    for s in syms:
        A.graph.check_edge(s)
    return all(A.entry(syms[i], syms[i + 1]) for i in range(len(syms) - 1))


def closed_cycle(word, A: IncidenceMatrix) -> tuple:
    """The word's symbols as a tuple of ints, checked to close into an
    admissible cycle (its last symbol may be followed by its first).

    Raises :class:`InvalidWordError` for an empty word, an unknown edge or
    an inadmissible transition, which the message names.
    """
    syms = tuple(int(s) for s in word)
    if not syms:
        raise InvalidWordError("cycle must be nonempty")
    ring = syms + (syms[0],)
    for i in range(len(syms)):
        if not A.entry(ring[i], ring[i + 1]):
            raise InvalidWordError(
                f"word {syms} does not close into an admissible cycle "
                f"({ring[i]} -> {ring[i+1]} inadmissible)")
    return syms


def enumerate_words(A: IncidenceMatrix, n: int, N: int) -> Iterator[tuple]:
    """Yield the admissible words of length n over edges 1..N, as tuples
    in lexicographic order, each exactly once."""
    if n < 1 or N < 1:
        raise ValueError("word length and truncation must be >= 1")
    succ = {u: A.successors(u, N) for u in range(1, N + 1)}

    def rec(prefix):
        if len(prefix) == n:
            yield prefix
            return
        choices = succ[prefix[-1]] if prefix else range(1, N + 1)
        for v in choices:
            yield from rec(prefix + (v,))

    yield from rec(())


def enumerate_cycles(A: IncidenceMatrix, max_period: int,
                     N: int) -> Iterator[tuple]:
    """Yield the admissible words over 1..N of length 1..max_period whose
    last symbol may be followed by their first (the periodic orbits), as
    tuples ordered by period and then lexicographically."""
    for p in range(1, max_period + 1):
        for w in enumerate_words(A, p, N):
            if A.entry(w[-1], w[0]):
                yield w


def count_words(A: IncidenceMatrix, n: int, N: int) -> int:
    """Number of admissible length-n words over 1..N via matrix powers."""
    m = A.dense_block(N).astype(object)
    v = np.ones(N, dtype=object)
    for _ in range(n - 1):
        v = m @ v
    return int(v.sum())


@dataclass(frozen=True)
class IrreducibilityWitness:
    """Finite connector set W certifying finite irreducibility below a
    truncation bound: every edge pair (u, v) <= N admits some w in W with
    u·w·v admissible."""

    connectors: tuple
    truncation: int

    def verify(self, A: IncidenceMatrix, N: Optional[int] = None) -> bool:
        N = self.truncation if N is None else N
        return all(any(is_admissible((u, *w, v), A) for w in self.connectors)
                   for u in range(1, N + 1) for v in range(1, N + 1))


def find_irreducibility_witness(A: IncidenceMatrix, N: int, max_len: int,
                                allow_empty: bool = True) -> IrreducibilityWitness:
    """Greedy cover of all edge pairs <= N by connector words of length
    <= max_len.

    Pairs are walked in lexicographic order; a pair first tries connectors
    already chosen, then adds the first connector in order of length and
    then of :func:`enumerate_words`, so the lexicographically smallest
    shortest one.  The empty word is considered unless ``allow_empty`` is
    False.  Raises :class:`NotIrreducibleError` naming the first pair with
    no connector in range.
    """
    if N < 1 or max_len < 0:
        raise ValueError("need N >= 1 and max_len >= 0")
    chosen: list[tuple] = []

    def shortest_connector(u, v):
        for length in range(0 if allow_empty else 1, max_len + 1):
            words = enumerate_words(A, length, N) if length else [()]
            for w in words:
                if is_admissible((u, *w, v), A):
                    return w
        return None

    for u in range(1, N + 1):
        for v in range(1, N + 1):
            if any(is_admissible((u, *w, v), A) for w in chosen):
                continue
            w = shortest_connector(u, v)
            if w is None:
                raise NotIrreducibleError((u, v), max_len)
            chosen.append(w)
    return IrreducibilityWitness(connectors=tuple(chosen), truncation=N)

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdms.errors import InvalidWordError, NotIrreducibleError
from cgdms.symbolic import (IncidenceMatrix, Multigraph, count_words,
                            enumerate_cycles, enumerate_words,
                            find_irreducibility_witness, is_admissible)

FULL = IncidenceMatrix.full()
FLIP = IncidenceMatrix.from_dense([[0, 1], [1, 0]])


def brute_force_words(matrix, n, N):
    """Oracle: admissibility checked pair by pair over the full product."""
    out = []
    for cand in itertools.product(range(1, N + 1), repeat=n):
        if all(matrix[cand[i] - 1][cand[i + 1] - 1] for i in range(n - 1)):
            out.append(cand)
    return out


class TestIsAdmissible:
    def test_full_shift_admits_everything(self):
        assert is_admissible((1, 2, 1), FULL)

    def test_empty_word_vacuous(self):
        assert is_admissible((), FULL)
        assert is_admissible((), FLIP)

    def test_forbidden_pair(self):
        assert not is_admissible((1, 1), FLIP)
        assert is_admissible((1, 2), FLIP)

    def test_unknown_edge_rejected(self):
        g = Multigraph.single_vertex(n_edges=2)
        A = IncidenceMatrix.full(g)
        with pytest.raises(InvalidWordError):
            is_admissible((1, 3), A)
        with pytest.raises(InvalidWordError):
            is_admissible((0,), A)


class TestEnumerateWords:
    def test_full_shift_count(self):
        assert len(list(enumerate_words(FULL, 3, 2))) == 8
        assert len(list(enumerate_words(FULL, 2, 3))) == 9

    def test_alternating_matrix(self):
        # frozen from the exhaustive check over all 8 candidates
        words = [tuple(w) for w in enumerate_words(FLIP, 3, 2)]
        assert words == [(1, 2, 1), (2, 1, 2)]
        assert words == brute_force_words([[0, 1], [1, 0]], 3, 2)

    def test_lexicographic_order(self):
        words = [tuple(w) for w in enumerate_words(FULL, 2, 3)]
        assert words == sorted(words)

    def test_every_word_admissible(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            N = int(rng.integers(2, 5))
            m = rng.integers(0, 2, size=(N, N))
            m[0, :] = 1  # keep some transitions alive
            A = IncidenceMatrix.from_dense(m)
            for w in enumerate_words(A, 4, N):
                assert is_admissible(w, A)

    def test_counts_match_matrix_powers(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            N = int(rng.integers(2, 6))
            m = (rng.random((N, N)) < 0.7).astype(int)
            A = IncidenceMatrix.from_dense(m)
            for n in (1, 2, 3, 5):
                assert len(list(enumerate_words(A, n, N))) == count_words(A, n, N)

    def test_matrix_power_recursion_deep(self):
        # transfer recursion agrees with one-step extension counting
        rng = np.random.default_rng(13)
        for _ in range(5):
            N = int(rng.integers(2, 6))
            m = (rng.random((N, N)) < 0.6).astype(int)
            A = IncidenceMatrix.from_dense(m)
            dense = np.array(m)
            counts = np.ones(N, dtype=object)
            for n in range(1, 10):
                nxt = dense.T.astype(object) @ counts
                assert count_words(A, n + 1, N) == int(nxt.sum())
                counts = nxt


@st.composite
def incidence_and_words(draw):
    """A random 0/1 matrix of side 2-4 and a (length, M) word table over
    its alphabet."""
    N = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=N, max_size=N),
                         min_size=N, max_size=N))
    length = draw(st.integers(1, 5))
    M = draw(st.integers(1, 12))
    syms = draw(st.lists(st.integers(1, N), min_size=length * M,
                         max_size=length * M))
    return rows, np.array(syms, dtype=np.int64).reshape(length, M)


class TestIncidenceQuestions:
    """Word tables and cycles agree with the pairwise ``entry`` oracle."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(incidence_and_words())
    def test_admits_matches_entry(self, case):
        rows, syms = case
        A = IncidenceMatrix.from_dense(rows)
        expect = [all(A.entry(int(w[i]), int(w[i + 1])) for i in range(len(w) - 1))
                  for w in syms.T]
        assert A.admits(syms).tolist() == expect

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(incidence_and_words(), st.integers(0, 4))
    def test_cycles_match_brute_force(self, case, max_period):
        rows, _ = case
        N = len(rows)
        A = IncidenceMatrix.from_dense(rows)
        expect = [w for p in range(1, max_period + 1)
                  for w in itertools.product(range(1, N + 1), repeat=p)
                  if all(rows[w[i] - 1][w[(i + 1) % p] - 1] for i in range(p))]
        assert list(enumerate_cycles(A, max_period, N)) == expect

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(incidence_and_words())
    def test_extend_admits_matches_the_grid(self, case):
        """Admissibility of every word one symbol longer, from that of the
        shorter words, equals :meth:`admits` on the grid of all words."""
        rows, _ = case
        N = len(rows)
        A = IncidenceMatrix.from_dense(rows)

        def grid(L):
            return np.array(list(itertools.product(range(1, N + 1), repeat=L)),
                            dtype=np.int64).T

        ok = np.ones(N, dtype=bool)
        for L in range(2, 6):
            ok = A.extend_admits(ok, N)
            assert ok.tolist() == A.admits(grid(L)).tolist()
        assert FULL.extend_admits(np.ones(9, dtype=bool), 3).all()

    def test_full_shift_admits_without_reading(self):
        # symbols outside any alphabet are not looked at
        assert FULL.admits(np.full((3, 4), -7)).all()

    @pytest.mark.parametrize("matrix", ([[1, 2], [1, 0]], [[1, 0.5], [1, 1]],
                                        [[1, 1, 1], [1, 1, 1]]))
    def test_malformed_dense_rejected(self, matrix):
        with pytest.raises(ValueError):
            IncidenceMatrix.from_dense(matrix)

    def test_side_must_match_alphabet(self):
        with pytest.raises(ValueError, match="3 edges"):
            IncidenceMatrix.from_dense([[1, 1], [1, 0]],
                                       Multigraph.single_vertex(n_edges=3))
        with pytest.raises(ValueError):
            IncidenceMatrix.from_dense([[1, 1], [1, 0]], Multigraph.single_vertex())

    def test_count_past_alphabet(self):
        with pytest.raises(InvalidWordError):
            count_words(FLIP, 2, 3)


@st.composite
def class_incidences(draw):
    """An incidence of side 1-5: a random 0/1 matrix, or one of the shapes
    whose classes are easy to get wrong: nilpotent (strictly upper
    triangular), reducible (no edge from the last symbols back to the
    first), a permutation (cycles without self-loops) or self-loops only."""
    N = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(
        ["random", "nilpotent", "reducible", "permutation", "loops"]))
    if kind == "permutation":
        return np.eye(N, dtype=int)[draw(st.permutations(range(N)))]
    if kind == "loops":
        return np.diag(draw(st.lists(st.integers(0, 1), min_size=N, max_size=N)))
    m = np.array(draw(st.lists(st.integers(0, 1), min_size=N * N,
                               max_size=N * N))).reshape(N, N)
    if kind == "nilpotent":
        return np.triu(m, 1)
    if kind == "reducible":
        cut = draw(st.integers(0, N))
        m[cut:, :cut] = 0
    return m


def reachable(m, s):
    """Oracle: the symbols (0-based) that a path of one edge or more leads
    to from s, by breadth-first search."""
    seen, todo = set(), deque([s])
    while todo:
        for v in np.flatnonzero(m[todo.popleft()]).tolist():
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


class TestClasses:
    """The classes of symbols that carry a cycle against reachability."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(class_incidences())
    def test_classes_match_reachability(self, m):
        """At every truncation N, the classes are the sets of symbols on a
        cycle that reach each other, as disjoint masks ordered by their
        least symbol."""
        A = IncidenceMatrix.from_dense(m)
        for N in range(1, len(m) + 1):
            reach = [reachable(m[:N, :N], s) for s in range(N)]
            want = {frozenset(v for v in reach[s] if s in reach[v])
                    for s in range(N) if s in reach[s]}
            got = A.classes(N)
            assert all(c.shape == (N,) and c.dtype == bool for c in got)
            assert {frozenset(np.flatnonzero(c).tolist()) for c in got} == want
            assert len(got) == len(want)
            firsts = [int(np.flatnonzero(c)[0]) for c in got]
            assert firsts == sorted(firsts)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(class_incidences())
    def test_infinite_word_matches_the_matrix_power(self, m):
        """An infinite word is admissible exactly when the boolean power
        B**N of the N x N block is nonzero, the rule this one replaced."""
        A = IncidenceMatrix.from_dense(m)
        for N in range(1, len(m) + 1):
            B = m[:N, :N].astype(bool)
            assert A.has_infinite_word(N) == bool(np.linalg.matrix_power(B, N).any())

    def test_full_shift_is_one_class(self):
        assert [c.tolist() for c in FULL.classes(3)] == [[True] * 3]
        assert FULL.has_infinite_word(3)
        nil = IncidenceMatrix.from_dense([[0, 1], [0, 0]])
        assert nil.classes(2) == [] and not nil.has_infinite_word(2)


class TestIrreducibilityWitness:
    def test_full_shift_empty_connector(self):
        w = find_irreducibility_witness(FULL, 3, 2)
        assert w.connectors == ((),)
        assert w.verify(FULL)

    def test_alternating_cover(self):
        w = find_irreducibility_witness(FLIP, 2, 1)
        lens = sorted(len(c) for c in w.connectors)
        assert lens == [0, 1, 1]
        assert set(tuple(c) for c in w.connectors) == {(), (1,), (2,)}
        assert w.verify(FLIP)

    def test_replay_certifies_all_pairs(self):
        rng = np.random.default_rng(3)
        m = (rng.random((4, 4)) < 0.5).astype(int)
        m[:, 0] = 1
        m[0, :] = 1
        A = IncidenceMatrix.from_dense(m)
        w = find_irreducibility_witness(A, 4, 3)
        assert w.verify(A)

    def test_disconnected_components_error(self):
        A = IncidenceMatrix.from_dense([[1, 0], [0, 1]])
        with pytest.raises(NotIrreducibleError) as err:
            find_irreducibility_witness(A, 2, 3)
        assert err.value.pair == (1, 2)

    def test_strict_mode_excludes_empty(self):
        w = find_irreducibility_witness(FULL, 2, 2, allow_empty=False)
        assert all(len(c) >= 1 for c in w.connectors)
        assert w.verify(FULL)

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda N: st.lists(
               st.lists(st.integers(0, 1), min_size=N, max_size=N),
               min_size=N, max_size=N)),
           st.integers(0, 3), st.booleans())
    def test_matches_breadth_first_search(self, rows, max_len, allow_empty):
        """The connectors, or the pair named by NotIrreducibleError, equal
        those of a greedy cover whose shortest connectors come from a
        breadth-first search in lexicographic order."""
        A = IncidenceMatrix.from_dense(rows)
        N = len(rows)
        try:
            got = find_irreducibility_witness(A, N, max_len, allow_empty).connectors
        except NotIrreducibleError as exc:
            got = exc.pair
        assert got == _bfs_witness(A, N, max_len, allow_empty)


def _bfs_witness(A, N, max_len, allow_empty):
    """Oracle: the greedy cover with a breadth-first connector search;
    the connectors, or the first pair that none joins."""
    def shortest(u, v):
        for length in range(0 if allow_empty else 1, max_len + 1):
            if length == 0:
                if A.entry(u, v):
                    return ()
                continue
            queue = deque([()])
            for _ in range(length):
                nxt = deque()
                while queue:
                    prefix = queue.popleft()
                    prev = prefix[-1] if prefix else u
                    nxt.extend(prefix + (s,) for s in range(1, N + 1)
                               if A.entry(prev, s))
                queue = nxt
            for cand in queue:
                if A.entry(cand[-1], v):
                    return cand
        return None

    chosen = []
    for u in range(1, N + 1):
        for v in range(1, N + 1):
            if any(is_admissible((u, *w, v), A) for w in chosen):
                continue
            w = shortest(u, v)
            if w is None:
                return (u, v)
            chosen.append(w)
    return tuple(chosen)


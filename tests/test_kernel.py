"""PressureKernel with depth-2 and depth-3 potentials: the trailing-window
code.

A depth-m potential leaves the last m-1 windows of every word without a
full argument; both kernel modes bracket them by the inf/sup over
admissible completions.  The brute-force sums here visit every word with
``itertools``, take each word's derivative at the fixed point of its
composed map, and resolve the trailing windows by the same inf/sup over
completions, so they must lie inside the enumerate bracket, which in turn
lies inside the dp brackets.  The Gibbs quotients of ``moments`` must be
the derivatives of the anchored ``value``, trailing windows included.
The dp recursion must also reproduce, bit for bit, the recursion it
replaced, which is written out here as the reference, and the sign test
that certification asks must answer as the fully converged bounds do.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from cgdms import potentials
from cgdms.kernel import (EXACT_CAP, PERRON_ITER_CAP, PERRON_LAZY,
                          PressureKernel, WindowTransfer, _pick, _words)
from cgdms.system import similarity_system, truncated_cf_system
from cgdms.thermo import BETA_FLOOR, _certifies, _root

N_WORDS = 8
T = np.array([0.7, -0.4])
BETAS = (0.0, 0.6, 1.3)
EPS = 1e-12


def _j2(w):
    a, b = w
    return [0.3 * (a - b) + 0.1 * a * b, 0.2 * (a == b) - 0.1 * b]


J2 = potentials.depth_m(_j2, dim=2, depth=2, bound=5.0)


def _j3(w):
    a, b, c = w
    return [0.2 * (a - c) + 0.1 * a * b * c, 0.15 * (a == c) - 0.05 * b]


J3 = potentials.depth_m(_j3, dim=2, depth=3, bound=5.0)


def _cf_maps():
    return (lambda k, x: 1.0 / (x + k),
            lambda k, x: -2.0 * math.log(x + k))


def _golden_maps():
    offsets = (0.0, 0.5)
    return (lambda k, x: offsets[k - 1] + 0.5 * x,
            lambda k, x: math.log(0.5))


CASES = {
    "cf2": (truncated_cf_system(2), _cf_maps(), lambda a, b: True),
    "golden-mean": (
        similarity_system([0.5, 0.5], offsets=[0.0, 0.5],
                          incidence=[[1, 1], [1, 0]]),
        _golden_maps(), lambda a, b: not (a == 2 and b == 2)),
}


def _brute_force(maps, admissible, J, beta):
    """(lower, upper) stage-n sums over every admissible word."""
    phi, dlog = maps
    m = J.depth

    def ok(w):
        return all(admissible(w[i], w[i + 1]) for i in range(len(w) - 1))

    lows, highs = [], []
    for w in itertools.product((1, 2), repeat=N_WORDS):
        if not ok(w):
            continue
        x = 0.5
        for _ in range(200):
            for k in reversed(w):
                x = phi(k, x)
        geo = 0.0
        y = x
        for k in reversed(w):
            geo += dlog(k, y)
            y = phi(k, y)
        full = sum(float(T @ J.value(w[i:i + m])) for i in range(N_WORDS - m + 1))
        # each trailing window of length l < m, over its admissible
        # completions to an m-word
        low = high = full + beta * geo
        for l in range(1, m):
            tail = [float(T @ J.value(w[-l:] + c))
                    for c in itertools.product((1, 2), repeat=m - l)
                    if ok(w[-l:] + c)]
            low += min(tail)
            high += max(tail)
        lows.append(low)
        highs.append(high)

    def logsum(v):
        m = max(v)
        return (m + math.log(math.fsum(math.exp(x - m) for x in v))) / N_WORDS

    return logsum(lows), logsum(highs)


# (case, potential): the depth-3 potential reads two-symbol suffixes and
# three-symbol digit blocks of the word codes
BRUTE_CASES = {name: (name, J2) for name in CASES}
BRUTE_CASES.update({f"{name}-depth3": (name, J3) for name in CASES})


@pytest.mark.parametrize("name", sorted(BRUTE_CASES))
def test_enumerate_bracket_contains_brute_force(name):
    case, J = BRUTE_CASES[name]
    sys, maps, admissible = CASES[case]
    kern = PressureKernel(sys, J, n=N_WORDS, window=N_WORDS)
    assert kern.mode == "enumerate"
    for beta in BETAS:
        lo, hi = kern.values(T, beta)
        blo, bhi = _brute_force(maps, admissible, J, beta)
        assert blo <= bhi
        assert lo <= blo + EPS and bhi <= hi + EPS, (beta, lo, blo, bhi, hi)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("window", (2, 3))
def test_dp_brackets_contain_enumerate(name, window):
    sys = CASES[name][0]
    enum = PressureKernel(sys, J2, n=N_WORDS, window=N_WORDS)
    assert enum.mode == "enumerate"
    dp = PressureKernel(sys, J2, n=N_WORDS, window=window)
    assert dp.mode == "dp" and dp.window == window
    for beta in BETAS:
        lo, hi = enum.values(T, beta)
        dlo, dhi = dp.values(T, beta)
        assert dlo <= lo + EPS and hi <= dhi + EPS, (beta, dlo, lo, hi, dhi)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("window", (None, 2, 3, N_WORDS))
def test_values_are_the_two_bounds(name, window):
    kern = PressureKernel(CASES[name][0], J2, n=N_WORDS, window=window)
    for beta in BETAS:
        assert kern.values(T, beta) == (kern.bound(T, beta, "lower"),
                                        kern.bound(T, beta, "upper"))


MOD23_J = potentials.mod_cycle([[-1.0, 1.0], [0.0, 1.0, -1.0]])
# (system, word length, window): enumerate mode, then two dp-mode kernels
DERIV_CASES = {
    "cf2-enumerate": (truncated_cf_system(2), N_WORDS, None),
    "cf3-dp-window4": (truncated_cf_system(3), 12, 4),
    "golden-mean-dp-window3": (CASES["golden-mean"][0], N_WORDS, 3),
}
FD_STEP = 1e-5


@pytest.mark.parametrize("J", (MOD23_J, J2), ids=("depth1", "depth2"))
@pytest.mark.parametrize("name", sorted(DERIV_CASES))
def test_moments_are_the_derivatives_of_value(name, J):
    """The J quotient is the t-gradient and the I quotient minus the
    beta-derivative of the anchored value, trailing windows included."""
    sys, n, window = DERIV_CASES[name]
    kern = PressureKernel(sys, J, n=n, window=window)
    assert kern.mode == ("enumerate" if window is None else "dp")
    for beta in BETAS:
        val, jq, iq = kern.moments(T, beta)
        assert val == kern.value(T, beta)
        for i in range(T.size):
            e = np.zeros(T.size)
            e[i] = FD_STEP
            fd = (kern.value(T + e, beta) - kern.value(T - e, beta)) / (2 * FD_STEP)
            assert abs(jq[i] - fd) < 1e-7, (beta, i, jq[i], fd)
        fd = (kern.value(T, beta + FD_STEP)
              - kern.value(T, beta - FD_STEP)) / (2 * FD_STEP)
        assert abs(iq + fd) < 1e-7, (beta, iq, -fd)


@pytest.mark.parametrize("J", (MOD23_J, J3), ids=("depth1", "depth3"))
def test_enumerate_value_matches_fsum_oracle(J):
    """On the golden-mean incidence the anchored value is the log of the
    fsum of every admissible word's weight: its exact J sum plus, for each
    trailing window, the largest completion, plus beta times the upper end
    of its log-derivative bracket in the flat table."""
    sys, _, admissible = CASES["golden-mean"]
    kern = PressureKernel(sys, J, n=N_WORDS, window=N_WORDS)
    assert kern.mode == "enumerate"
    m = J.depth

    def ok(w):
        return all(admissible(a, b) for a, b in zip(w, w[1:]))

    words = [w for w in itertools.product((1, 2), repeat=N_WORDS) if ok(w)]
    table = kern._table
    assert table["ld_hi"].size == len(words)
    for beta in BETAS:
        exps = []
        for w, ld in zip(words, table["ld_hi"]):
            e = sum(float(T @ J.value(w[i:i + m])) for i in range(N_WORDS - m + 1))
            for l in range(1, m):
                e += max(float(T @ J.value(w[-l:] + c))
                         for c in itertools.product((1, 2), repeat=m - l)
                         if ok(w[-l:] + c))
            exps.append(e + beta * ld)
        top = max(exps)
        oracle = (top + math.log(math.fsum(math.exp(e - top) for e in exps))) / N_WORDS
        value = kern.value(T, beta)
        # the oracle adds each word's exponent in another order
        assert abs(value - oracle) <= 4 * math.ulp(oracle), (beta, value, oracle)
        assert kern.moments(T, beta)[0] == value


# -- the transfer step against the recursion it replaced -------------------

def _advance(T, N):
    """The former transfer step: values on (state, next symbol) pairs,
    shape (S, N, ...), summed over the symbol leaving the window."""
    S = T.shape[0]
    return T.reshape(N, S // N, N, *T.shape[2:]).sum(axis=0).reshape(S, *T.shape[2:])


class _Reference:
    """The dp recursion as written before the transfer-order step: window
    tables in natural code order, one (S, N) product per step, a stacked
    (S, N, d+1) gradient accumulator, and Perron brackets from fresh
    iterates on each call, or with ``warm`` from the iterates its last warm
    call left.  It reads only the potential tables of ``kern``."""

    def __init__(self, kern):
        tab, N, q, m = kern.tables, kern.N, kern.window, kern.J.depth
        fam, inc = kern.sys.family, kern.sys.incidence
        self.kern, self.tab = kern, tab
        syms = _words(N, q)
        self.valid = inc.admits(syms)
        self.ld = fam.vec_suffix_then_head(syms, tab.hull)
        self.jcode = np.arange(N ** q) // N ** (q - m)
        self.state_valid = inc.admits(syms[:-1, ::N])
        self.part_ld = {l: fam.vec_suffix_then_head(_words(N, l), tab.hull)
                        for l in range(1, q)}
        S = N ** (q - 1)
        c = np.flatnonzero(self.valid)
        src, dst = c // N, c % S
        graph = csr_matrix((np.ones(c.size), (src, dst)), shape=(S, S))
        lab = connected_components(graph, connection="strong")[1]
        masks = [lab == k for k in np.unique(lab[src[lab[src] == lab[dst]]])]
        self.classes = [(slice(None) if mk.all() else mk, mk.astype(float))
                        for mk in masks]
        self.warm = [(live, v.copy()) for live, v in self.classes]

    def weights(self, t, beta, which):
        w = self.tab.j_dot(t)[self.jcode] + beta * _pick(*self.ld, which)
        w[~self.valid] = -math.inf
        finite = w[np.isfinite(w)]
        if finite.size == 0:
            return -math.inf, np.zeros((w.size // self.kern.N, self.kern.N))
        base = float(finite.max())
        return base, np.exp(w - base).reshape(-1, self.kern.N)

    def logsum(self, t, beta, which, grad=False):
        tab, kern = self.tab, self.kern
        N, q, n, d = kern.N, kern.window, kern.n, kern.J.dim
        base, eW = self.weights(t, beta, which)
        if base == -math.inf:
            return -math.inf, None, None
        if grad:
            jwin = tab.jvals[self.jcode]
            nld = -_pick(*self.ld, which)
        if q == 1:
            z = float(eW.sum())
            value = n * (base + math.log(z)) / n
            if not grad:
                return value, None, None
            jq = (jwin * eW.reshape(-1, 1)).sum(axis=0) / z
            return value, jq, float((nld * eW.reshape(-1)).sum()) / z
        V = self.state_valid.astype(float)
        S = V.size
        if grad:
            dW = np.concatenate((jwin.reshape(S, N, d), nld.reshape(S, N, 1)), axis=2)
            A = np.zeros((S, d + 1))
        logoff = 0.0
        for _ in range(n - (q - 1)):
            Vn = _advance(V[:, None] * eW, N)
            mx = Vn.max()
            if mx <= 0.0 or not math.isfinite(mx):
                return -math.inf, None, None
            if grad:
                A = _advance((A[:, None, :] + V[:, None, None] * dW)
                             * eW[:, :, None], N) / mx
            V = Vn / mx
            logoff += math.log(mx) + base
        u = tab.j_dot(t)
        scodes = np.arange(S)
        term = np.zeros(S)
        dT = np.zeros((S, d + 1)) if grad else None
        for l in range(1, q):
            sub = scodes % (N ** l)
            ld = _pick(*self.part_ld[l], which)
            jlo, jhi, clo, chi = tab.part_j_bounds(l, u)
            term = term + _pick(jlo, jhi, which)[sub] + beta * ld[sub]
            if grad:
                jl = tab.jvals[clo[sub]]
                dT[:, :d] += jl if clo is chi else _pick(jl, tab.jvals[chi[sub]], which)
                dT[:, d] -= ld[sub]
        tmax = float(term.max())
        E = np.exp(term - tmax)
        z = float((V * E).sum())
        value = (logoff + tmax + math.log(z)) / n
        if not grad:
            return value, None, None
        A = A + V[:, None] * dT
        jq = (A[:, :d] * E[:, None]).sum(axis=0) / z / n
        return value, jq, float((A[:, d] * E).sum()) / z / n

    def perron(self, eW, live, v):
        lo, hi, spread = 0.0, math.inf, math.inf
        for _ in range(PERRON_ITER_CAP):
            u = _advance(v[:, None] * eW, self.kern.N)[live]
            r = u / v[live]
            rlo, rhi = float(r.min()), float(r.max())
            lo, hi = max(lo, rlo), min(hi, rhi)
            if rhi - rlo >= spread or rhi == 0.0:
                break
            spread = rhi - rlo
            u += PERRON_LAZY * rhi * v[live]
            v[live] = np.maximum(u / u.max(), np.finfo(float).tiny)
        return lo, hi

    def limit_bound(self, t, beta, side, warm=False):
        which = {"lower": "inf", "upper": "sup", "mid": "mid"}[side]
        base, eW = self.weights(t, beta, which)
        if self.kern.window == 1:
            lo = hi = float(eW.sum())
        else:
            brackets = [self.perron(eW, live, v if warm else v.copy())
                        for live, v in (self.warm if warm else self.classes)]
            lo = max((b[0] for b in brackets), default=0.0)
            hi = max((b[1] for b in brackets), default=0.0)
        with np.errstate(divide="ignore"):
            return base + float(np.log(_pick(lo, hi, which)))


UPPER_TRIANGULAR = similarity_system([0.5, 0.3], offsets=[0.0, 0.6],
                                     incidence=[[1, 1], [0, 1]])
# (system, potential, word length, window): the cf windows of the
# benchmarks, Markov systems whose states are masked or whose Perron
# classes are not the whole state set, and a depth-2 potential
STEP_CASES = {
    "cf2-window16": (truncated_cf_system(2), MOD23_J, 20, 16),
    "cf3-n12": (truncated_cf_system(3), MOD23_J, 12, None),
    "cf5-window6": (truncated_cf_system(5), MOD23_J, 10, 6),
    "cf24-window3": (truncated_cf_system(24), MOD23_J, 10, 3),
    "golden-mean": (CASES["golden-mean"][0], MOD23_J, 12, 3),
    "upper-triangular": (UPPER_TRIANGULAR, MOD23_J, 12, 3),
    "cf3-depth2": (truncated_cf_system(3), J2, 12, 4),
    "golden-mean-depth2": (CASES["golden-mean"][0], J2, 12, 3),
    "similarity-window1": (similarity_system([0.5, 0.3]), MOD23_J, 10, 1),
}
STEP_POINTS = ((T, 0.0), (T, 0.8), (np.array([-0.3, 0.2]), 1.3))


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_transfer_step_matches_former_recursion(name):
    """Stage values, both bounds and all three limit brackets are the
    former recursion's bit for bit, from fresh Perron iterates and from one
    start warmed through every call; the Gibbs quotients, which the batched
    accumulator reassociates, agree to 1e-13 relative."""
    sys, J, n, window = STEP_CASES[name]
    kern = PressureKernel(sys, J, n=n, window=window)
    assert kern.mode == "dp"
    ref = _Reference(kern)
    start = kern.transfer.start()
    for t, beta in STEP_POINTS:
        val = kern.value(t, beta)
        assert val == ref.logsum(t, beta, "mid")[0]
        assert kern.values(t, beta) == (ref.logsum(t, beta, "inf")[0],
                                        ref.logsum(t, beta, "sup")[0])
        assert kern.bound(t, beta, "lower") == ref.logsum(t, beta, "inf")[0]
        assert kern.bound(t, beta, "upper") == ref.logsum(t, beta, "sup")[0]
        for side in ("lower", "upper", "mid"):
            assert kern.transfer.limit_bound(t, beta, side) == ref.limit_bound(t, beta, side)
            assert (kern.transfer.limit_bound(t, beta, side, start=start)
                    == ref.limit_bound(t, beta, side, warm=True))
        mval, jq, iq = kern.moments(t, beta)
        _, rjq, riq = ref.logsum(t, beta, "mid", grad=True)
        assert mval == val
        for got, want in zip([*jq, iq], [*rjq, riq]):
            assert abs(got - want) <= 1e-13 * abs(want), (got, want)


# deepest window drawn per truncation, so that N**q stays at most 1024
PROPERTY_WINDOWS = {2: 10, 3: 6, 4: 5, 5: 4}


@st.composite
def dp_cases(draw):
    """A dp kernel on N in 2..5 symbols, window q >= 2 and word length
    q+1..q+4: the full continued-fraction shift, or similarity maps on
    the golden-mean incidence (the last symbol never repeats), with a
    depth-1 or depth-2 table potential of random values in [0.1, 2]."""
    N = draw(st.integers(2, 5))
    q = draw(st.integers(2, PROPERTY_WINDOWS[N]))
    n = draw(st.integers(q + 1, q + 4))
    if draw(st.booleans()):
        sys = truncated_cf_system(N)
    else:
        inc = np.ones((N, N), dtype=int)
        inc[-1, -1] = 0
        sys = similarity_system([0.9 / N] * N, incidence=inc.tolist())
    depth, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    vals = draw(st.lists(st.floats(0.1, 2.0), min_size=N ** depth * d,
                         max_size=N ** depth * d))
    table = dict(zip(itertools.product(range(1, N + 1), repeat=depth),
                     np.reshape(vals, (-1, d))))
    J = potentials.depth_m(lambda w: table[tuple(w)], dim=d, depth=depth,
                           bound=2.0)
    t = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    return PressureKernel(sys, J, n=n, window=q), t, draw(st.floats(0.0, 2.0))


@settings(max_examples=40, deadline=None)
@given(dp_cases())
def test_transfer_step_matches_former_recursion_on_random_cases(case):
    """The contract of the fixed cases above, on drawn CF windows, Markov
    similarity windows and depth-1 or depth-2 potentials: the dp sums are
    the former recursion's bit for bit, the Gibbs quotients agree to 1e-13
    relative."""
    kern, t, beta = case
    assert kern.mode == "dp"
    ref = _Reference(kern)
    lower, upper = ref.logsum(t, beta, "inf")[0], ref.logsum(t, beta, "sup")[0]
    assert kern.value(t, beta) == ref.logsum(t, beta, "mid")[0]
    assert kern.values(t, beta) == (lower, upper)
    assert kern.bound(t, beta, "lower") == lower
    assert kern.bound(t, beta, "upper") == upper
    _, jq, iq = kern.moments(t, beta)
    _, rjq, riq = ref.logsum(t, beta, "mid", grad=True)
    for got, want in zip([*jq, iq], [*rjq, riq]):
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def _searched_classes(transfer):
    """The irreducible classes with a cycle, found by a strongly connected
    component search over the (q-1)-gram state graph, as (states, Perron
    start) pairs."""
    N, S = transfer.N, transfer.N ** (transfer.window - 1)
    c = np.flatnonzero(transfer.valid.reshape(N, N, -1).transpose(0, 2, 1).ravel())
    src, dst = c // N, c % S
    graph = csr_matrix((np.ones(c.size), (src, dst)), shape=(S, S))
    lab = connected_components(graph, connection="strong")[1]
    masks = [lab == k for k in np.unique(lab[src[lab[src] == lab[dst]]])]
    return [(slice(None) if mk.all() else mk, mk.astype(float)) for mk in masks]


def _same_classes(transfer, want):
    """The classes of ``transfer`` are the states of ``want``, and its
    fresh Perron iterates are their starts."""
    got = list(zip(transfer._classes, transfer.start()))
    assert len(got) == len(want)
    for (live, v), (wlive, wv) in zip(got, want):
        if isinstance(wlive, slice):
            assert live == slice(None)
        else:
            assert np.array_equal(live, wlive)
        assert np.array_equal(v, wv)


@pytest.mark.parametrize("name", sorted(n for n, c in STEP_CASES.items() if c[3] != 1))
def test_classes_match_the_component_search(name):
    """A full shift is one class of every state without a search; the
    Markov transfers split as the search splits them: the golden mean into
    one class that leaves out the state 22, the upper-triangular incidence
    into two classes."""
    sys, J, n, window = STEP_CASES[name]
    tr = PressureKernel(sys, J, n=n, window=window).transfer
    assert tr.all_valid == sys.incidence.full_shift
    _same_classes(tr, _searched_classes(tr))
    if not tr.all_valid:
        sizes = [int(v.sum()) for v in tr.start()]
        assert sizes == {"golden-mean": [3], "golden-mean-depth2": [3],
                         "upper-triangular": [1, 1]}[name]


MEMO_CASES = {
    "enumerate": (truncated_cf_system(2), J2, N_WORDS, None),
    "dp": (truncated_cf_system(3), J2, 12, 4),
}


@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_per_t_memos_are_not_stale(name):
    """Evaluated at t1, t2, t1 in turn, a kernel answers each point as a
    freshly built kernel does, bit for bit.  (Limit bounds have their own
    test below.)"""
    sys, J, n, window = MEMO_CASES[name]
    kern = PressureKernel(sys, J, n=n, window=window)
    assert kern.mode == name
    t1, t2 = T, np.array([-0.3, 0.2])

    def evaluations(k, t):
        out = [k.value(t, 0.6), k.values(t, 0.6), k.bound(t, 1.3, "upper")]
        val, jq, iq = k.moments(t, 0.6)
        return out + [val, jq.tolist(), iq]

    for t in (t1, t2, t1):
        assert evaluations(kern, t) == evaluations(
            PressureKernel(sys, J, n=n, window=window), t)


LIMIT_CALLS = {
    "lower": lambda tr, t: tr.limit_bound(t, 0.6, "lower"),
    "upper": lambda tr, t: tr.limit_bound(t, 0.6, "upper"),
    "mid": lambda tr, t: tr.limit_bound(t, 0.6, "mid", rtol=1e-9),
    "sign-lower": lambda tr, t: tr.limit_sign(t, 0.6, "lower"),
    "sign-upper": lambda tr, t: tr.limit_sign(t, 0.6, "upper"),
}


def test_limit_answers_do_not_depend_on_earlier_calls():
    """A window transfer answers each limit call as a freshly built one
    does, bit for bit, whatever was asked of it before: cf3 at window 4
    with the depth-2 J2, where an 'upper' bound warmed by a 'lower' call
    read 0.43375495292600813.  A start passed in carries the warm start
    instead, and leaves the transfer's own answers alone."""
    sys = truncated_cf_system(3)

    def fresh():
        return WindowTransfer(sys, J2, 3, 4)

    want = {name: call(fresh(), T) for name, call in LIMIT_CALLS.items()}
    assert want["upper"] == 0.43375495292600835
    tr, other = fresh(), np.array([-0.3, 0.2])
    for order in (list(LIMIT_CALLS), list(LIMIT_CALLS)[::-1]):
        for name in order:
            assert LIMIT_CALLS[name](tr, T) == want[name], name
            tr.limit_bound(other, 1.3, "mid")
    start = tr.start()
    tr.limit_bound(T, 0.6, "lower", start=start)
    assert tr.limit_bound(T, 0.6, "upper", start=start) == 0.43375495292600813
    assert tr.limit_bound(T, 0.6, "upper") == want["upper"]


def _full_certifies(transfer, t, est, half):
    """The certification test answered from two fully converged limit
    bounds, as it was before it asked only for their signs."""
    left = max(est - half, BETA_FLOOR)
    lower = transfer.limit_bound(t, left, "lower")
    lo_ok = lower >= 0.0 if left == BETA_FLOOR else lower > 0.0
    return lo_ok and transfer.limit_bound(t, est + half, "upper") < 0.0


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_sign_certification_matches_full_limit_bounds(name):
    """On a fresh transfer, the early-stopping sign test certifies exactly
    when the fully converged bounds do, at the mid root and away from it,
    with and without the floor."""
    sys, J, n, window = STEP_CASES[name]
    kern = PressureKernel(sys, J, n=n, window=window)

    def fresh():
        return WindowTransfer(sys, J, kern.N, kern.window)

    seen = set()
    for t, beta in STEP_POINTS:
        ests = [beta]
        probe = fresh()
        if probe.limit_bound(t, BETA_FLOOR, "mid") > 0.0:
            ests.append(_root(lambda b: probe.limit_bound(t, b, "mid")))
        for est in ests:
            for half in (1e-9, 1e-4, 1e-2, 0.3, 2.0):
                got = _certifies(fresh(), t, est, half) is not None
                assert got == _full_certifies(fresh(), t, est, half), (t, est, half)
                seen.add(got)
    assert seen == {True, False}


# -- distortion-free systems stage their sums by the window transfer -------

def test_distortion_free_layout():
    """A similarity system takes the dp recursion at its clamped window
    (1 on the full shift, 2 on the golden-mean incidence) where its words
    would fit; a window equal to the word length still enumerates."""
    sim = similarity_system([0.4, 0.3])
    golden = CASES["golden-mean"][0]
    for sys, q in ((sim, 1), (golden, 2)):
        kern = PressureKernel(sys, MOD23_J, n=16)
        assert (kern.mode, kern.window) == ("dp", q)
        assert PressureKernel(sys, MOD23_J, n=16, window=16).mode == "enumerate"
    # the clamp is the word length: enumerate, as before
    assert PressureKernel(golden, MOD23_J, n=2).mode == "enumerate"


@st.composite
def distortion_free_cases(draw):
    """A similarity system on N in 2..4 maps, on the full shift or an
    irreducible Markov incidence, a depth-1 table potential of dim 1..2,
    and a word length n past the clamped window with N**n <= EXACT_CAP."""
    N = draw(st.integers(2, 4))
    ratios = draw(st.lists(st.floats(0.05, 0.9 / N), min_size=N, max_size=N))
    if draw(st.booleans()):
        sys = similarity_system(ratios)
    else:
        rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=N, max_size=N),
                             min_size=N, max_size=N))
        reach = np.linalg.matrix_power(np.eye(N, dtype=int) + rows, N - 1)
        assume((reach > 0).all())  # irreducible
        sys = similarity_system(ratios, incidence=rows)
    d = draw(st.integers(1, 2))
    vals = draw(st.lists(st.floats(-2.0, 2.0), min_size=N * d, max_size=N * d))
    J = potentials.from_table({k + 1: vals[k * d:(k + 1) * d] for k in range(N)})
    q = WindowTransfer.clamp(sys, J, 1)
    top = max(L for L in range(1, 18) if N ** L <= EXACT_CAP)
    n = draw(st.integers(q + 1, top))
    t = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    return sys, J, n, q, t, draw(st.floats(0.0, 2.0))


def _close(got, want):
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(distortion_free_cases())
def test_distortion_free_dp_matches_enumeration(case):
    """The automatic kernel of a distortion-free system runs dp at the
    clamped window, and its bounds, anchored value and Gibbs quotients are
    those of enumeration (``window=n``) within 1e-13 relative."""
    sys, J, n, q, t, beta = case
    kern = PressureKernel(sys, J, n=n)
    enum = PressureKernel(sys, J, n=n, window=n)
    assert (kern.mode, kern.window) == ("dp", q)
    assert enum.mode == "enumerate"
    for got, want in zip(kern.values(t, beta), enum.values(t, beta)):
        assert _close(got, want), (got, want)
    assert _close(kern.value(t, beta), enum.value(t, beta))
    val, jq, iq = kern.moments(t, beta)
    eval_, ejq, eiq = enum.moments(t, beta)
    for got, want in zip([val, *jq, iq], [eval_, *ejq, eiq]):
        assert _close(got, want), (got, want)

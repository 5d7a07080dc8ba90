"""PressureKernel with depth-2 and depth-3 potentials: the trailing-window
code.

A depth-m potential leaves the last m-1 windows of every word without a
full argument; the kernel brackets them by the inf/sup over admissible
completions.  The brute-force sums here visit every word with
``itertools`` and resolve the trailing windows by the same inf/sup over
completions.  Sums that take each word's derivative at the fixed point of
its composed map lie inside those of its exact per-word derivative
bracket, which in turn lie inside the kernel's bracket at every window.
The Gibbs quotients of ``moments`` must be the derivatives of the
anchored ``value``, trailing windows included.  The transfer recursion
must also reproduce, bit for bit, the recursion it replaced, which is
written out here as the reference, and the sign test that certification
asks must answer as the fully converged bounds do.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from cgdms import potentials
from cgdms.kernel import (EXACT_CAP, PERRON_ITER_CAP, PERRON_LAZY,
                          PressureKernel, WindowTransfer, _part_j_bounds, _pick)
from cgdms.symbolic import IncidenceMatrix
from cgdms.system import SystemDescriptor, similarity_system, truncated_cf_system
from cgdms.thermo import BETA_FLOOR, ROOT_XTOL, _certifies, _ends, _sign_bracket

N_WORDS = 8
T = np.array([0.7, -0.4])
BETAS = (0.0, 0.6, 1.3)
EPS = 1e-12


def _words(N, length):
    """Every word of ``length`` symbols over 1..N as the columns of an
    array, in natural code order (first symbol most significant)."""
    return np.indices((N,) * length).reshape(length, -1) + 1


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


def _fixed_point_ld(maps):
    """log|phi_w'| at the fixed point of each word's composed map, as a
    bracket of zero width."""
    phi, dlog = maps

    def ld(w):
        x = 0.5
        for _ in range(200):
            for k in reversed(w):
                x = phi(k, x)
        geo = 0.0
        for k in reversed(w):
            geo += dlog(k, x)
            x = phi(k, x)
        return geo, geo

    return ld


def _exact_ld(sys, N=2):
    """The exact bracket of log|phi_w'| over the hull of the kernel's
    tables, one word at a time from the family's closed form."""
    hull = sys.hull(N)
    return lambda w: sys.family.word_log_deriv_range(w, hull)


def _logsum(v, n):
    top = max(v, default=-math.inf)
    if top == -math.inf:
        return top
    return (top + math.log(math.fsum(math.exp(x - top) for x in v))) / n


def _brute_force(admissible, J, t, beta, ld, n=N_WORDS, N=2):
    """(lower, upper, mid) stage-n sums over every admissible word w: the
    exact <t, J> sum of w plus beta times the ends of its bracket ``ld(w)``,
    each trailing window of length l < m bracketed by the inf/sup over its
    admissible completions to an m-word (-inf without one, so the word
    weighs 0); 'mid' weighs each word at the midpoint of its two
    exponents."""
    m = J.depth

    def ok(w):
        return all(admissible(a, b) for a, b in zip(w, w[1:]))

    lows, highs = [], []
    for w in itertools.product(range(1, N + 1), repeat=n):
        if not ok(w):
            continue
        full = sum(float(t @ J.value(w[i:i + m])) for i in range(n - m + 1))
        lo, hi = ld(w)
        low, high = full + beta * lo, full + beta * hi
        for l in range(1, m):
            tail = [float(t @ J.value(w[-l:] + c))
                    for c in itertools.product(range(1, N + 1), repeat=m - l)
                    if ok(w[-l:] + c)]
            low += min(tail, default=-math.inf)
            high += max(tail, default=-math.inf)
        lows.append(low)
        highs.append(high)
    return (_logsum(lows, n), _logsum(highs, n),
            _logsum([0.5 * (a + b) for a, b in zip(lows, highs)], n))


# (case, potential): the depth-3 potential reads two-symbol suffixes and
# three-symbol digit blocks of the word codes
BRUTE_CASES = {name: (name, J2) for name in CASES}
BRUTE_CASES.update({f"{name}-depth3": (name, J3) for name in CASES})


@pytest.mark.parametrize("name", sorted(BRUTE_CASES))
def test_enumerate_bracket_contains_brute_force(name):
    """The sums of exact per-word brackets, enumerated here, contain those
    of the fixed-point derivatives and lie inside the kernel's bracket at
    the longest window that words of this length take: window=n runs at
    n-1."""
    case, J = BRUTE_CASES[name]
    sys, maps, admissible = CASES[case]
    kern = PressureKernel(sys, J, n=N_WORDS, window=N_WORDS)
    assert kern.window == N_WORDS - 1
    for beta in BETAS:
        lo, hi = kern.values(T, beta)
        elo, ehi, _ = _brute_force(admissible, J, T, beta, _exact_ld(sys))
        blo, bhi, _ = _brute_force(admissible, J, T, beta, _fixed_point_ld(maps))
        assert elo <= blo + EPS and bhi <= ehi + EPS, (beta, elo, blo, bhi, ehi)
        assert lo <= elo + EPS and ehi <= hi + EPS, (beta, lo, elo, ehi, hi)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("window", (2, 3))
def test_dp_brackets_contain_enumerate(name, window):
    """The kernel's brackets at windows 2 and 3 contain the sums of exact
    per-word brackets, enumerated here."""
    sys, _, admissible = CASES[name]
    dp = PressureKernel(sys, J2, n=N_WORDS, window=window)
    assert dp.window == window
    for beta in BETAS:
        lo, hi, _ = _brute_force(admissible, J2, T, beta, _exact_ld(sys))
        dlo, dhi = dp.values(T, beta)
        assert dlo <= lo + EPS and hi <= dhi + EPS, (beta, dlo, lo, hi, dhi)


@st.composite
def brute_cases(draw):
    """A system on N in 2..3 symbols, the full continued-fraction shift or
    similarity maps on a random incidence with an infinite word, a depth-1
    or depth-2 table potential of values in [-2, 2], and a word length
    from the clamped window to 7 symbols (6 at N = 3)."""
    N = draw(st.integers(2, 3))
    if draw(st.booleans()):
        sys = truncated_cf_system(N)
    else:
        rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=N, max_size=N),
                             min_size=N, max_size=N))
        # a word of N+1 symbols repeats one, so its cycle runs forever
        assume(np.linalg.matrix_power(np.array(rows), N).any())
        ratios = draw(st.lists(st.floats(0.05, 0.9 / N), min_size=N, max_size=N))
        sys = similarity_system(ratios, incidence=rows)
    depth = draw(st.integers(1, 2))
    vals = draw(st.lists(st.floats(-2.0, 2.0), min_size=N ** depth, max_size=N ** depth))
    table = dict(zip(itertools.product(range(1, N + 1), repeat=depth), vals))
    J = potentials.depth_m(lambda w: [table[tuple(w)]], dim=1, depth=depth,
                           bound=2.0)
    n = draw(st.integers(WindowTransfer.clamp(sys, J, 1), 7 if N == 2 else 6))
    t = np.array([draw(st.floats(-1.0, 1.0))])
    return sys, J, n, N, t, draw(st.floats(0.0, 2.0))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(brute_cases())
def test_every_window_contains_exact_per_word_brackets(case):
    """Every window from the clamp to the word length brackets the stage
    sums of exact per-word brackets, enumerated here: a window that
    reaches the word length runs at n-1, or at the clamp when that is n."""
    sys, J, n, N, t, beta = case
    lo, hi, _ = _brute_force(sys.incidence.entry, J, t, beta, _exact_ld(sys, N), n, N)
    clamp = WindowTransfer.clamp(sys, J, 1)
    for window in range(clamp, n + 1):
        kern = PressureKernel(sys, J, n=n, window=window)
        assert kern.window == (window if window < n else max(clamp, n - 1))
        klo, khi = kern.values(t, beta)
        assert klo <= lo + EPS and hi <= khi + EPS, (window, klo, lo, hi, khi)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("window", (None, 2, 3, N_WORDS))
def test_values_are_the_two_bounds(name, window):
    kern = PressureKernel(CASES[name][0], J2, n=N_WORDS, window=window)
    for beta in BETAS:
        assert kern.values(T, beta) == (kern.bound(T, beta, "lower"),
                                        kern.bound(T, beta, "upper"))


MOD23_J = potentials.mod_cycle([[-1.0, 1.0], [0.0, 1.0, -1.0]])
# (system, word length, window): cf2's automatic window at a length whose
# words fit within EXACT_CAP (n-1, named for the per-word enumeration
# that this layout used to run), then two explicit windows
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
    assert kern.window == (n - 1 if window is None else window)
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


def _close(got, want):
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("J", (MOD23_J, J3), ids=("depth1", "depth3"))
def test_enumerate_value_matches_fsum_oracle(J):
    """On the golden-mean incidence, whose similarity brackets are exact,
    the kernel's two bounds and its anchored value are, within 1e-13
    relative, the logs of the fsums over every admissible word, enumerated
    here: its exact J sum plus each trailing window's smallest, largest or
    middle completion, plus beta times its log-derivative."""
    sys, _, admissible = CASES["golden-mean"]
    kern = PressureKernel(sys, J, n=N_WORDS, window=N_WORDS)
    for beta in BETAS:
        lo, hi, mid = _brute_force(admissible, J, T, beta, _exact_ld(sys))
        klo, khi = kern.values(T, beta)
        value = kern.value(T, beta)
        assert _close(klo, lo) and _close(khi, hi), (beta, klo, lo, khi, hi)
        assert _close(value, mid), (beta, value, mid)
        assert kern.moments(T, beta)[0] == value


# -- the transfer step against the recursion it replaced -------------------

def _advance(T, N):
    """The former transfer step: values on (state, next symbol) pairs,
    shape (S, N, ...), summed over the symbol leaving the window."""
    S = T.shape[0]
    return T.reshape(N, S // N, N, *T.shape[2:]).sum(axis=0).reshape(S, *T.shape[2:])


def _j_bounds(u, l, N, m):
    """(inf, sup, inf code, sup code) of <t, J> over the admissible
    completions of l-words, as :func:`_part_j_bounds` gives them for l < m;
    from l = m on, the first m symbols fix the value."""
    if l >= m:
        code = np.arange(N ** l) // (N ** (l - m))
        return u[code], u[code], code, code
    return _part_j_bounds(u, l, N)


class _Reference:
    """The dp recursion as written before the transfer-order step: window
    tables in natural code order, one (S, N) product per step, a stacked
    (S, N, d+1) gradient accumulator, and Perron brackets from fresh
    iterates on each call, or with ``warm`` from the iterates its last warm
    call left.  It reads only the potential table of ``kern``'s transfer."""

    def __init__(self, kern):
        tab, N, q, m = kern.transfer, kern.N, kern.window, kern.J.depth
        fam, inc, hull = kern.sys.family, kern.sys.incidence, kern.sys.hull(N)
        self.kern, self.tab = kern, tab
        syms = _words(N, q)
        self.valid = inc.admits(syms)
        self.ld = fam.vec_suffix_then_head(syms, hull)
        self.jcode = np.arange(N ** q) // N ** (q - m)
        self.state_valid = inc.admits(syms[:-1, ::N])
        self.part_ld = {l: fam.vec_suffix_then_head(_words(N, l), hull)
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
        w = self.tab.j_dot(t)[0][self.jcode] + beta * _pick(*self.ld, which)
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
        u = tab.j_dot(t)[0]
        scodes = np.arange(S)
        term = np.zeros(S)
        dT = np.zeros((S, d + 1)) if grad else None
        for l in range(1, q):
            sub = scodes % (N ** l)
            ld = _pick(*self.part_ld[l], which)
            jlo, jhi, clo, chi = _j_bounds(u, l, N, kern.J.depth)
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
    """The classes of ``transfer`` are the states of ``want``, in any order
    (the order reaches no bound: ``limit_bound`` takes the largest over the
    classes), each read whole exactly when it is every state, and its fresh
    Perron iterates are their starts."""
    def keys(pairs):
        return sorted((b"all" if isinstance(live, slice) else live.tobytes(),
                       v.tobytes()) for live, v in pairs)

    assert keys(zip(transfer._classes, transfer.start())) == keys(want)


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


@st.composite
def markov_transfers(draw):
    """A window transfer of similarity maps on a random incidence of side
    2-4 that admits an infinite word, at a window from 2 to 4."""
    N = draw(st.integers(2, 4))
    inc = np.array(draw(st.lists(st.integers(0, 1), min_size=N * N,
                                 max_size=N * N))).reshape(N, N)
    assume(np.linalg.matrix_power(inc.astype(bool), N).any())
    sys = similarity_system([0.9 / N] * N, incidence=inc.tolist())
    return WindowTransfer(sys, potentials.zero(1), N, draw(st.integers(2, 4)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(markov_transfers())
def test_classes_match_the_search_on_random_incidences(tr):
    """The classes read from the incidence's classes of symbols are the
    component search's on the state graph, on drawn incidences and
    windows: reducible ones, periodic ones and full shifts among them."""
    _same_classes(tr, _searched_classes(tr))


POTENTIAL_TABLE_CASES = {
    "table": (truncated_cf_system(5), potentials.from_table(
        {k: [0.1 * k, -0.2 * k] for k in range(1, 6)})),
    "mod-cycle": (truncated_cf_system(7), MOD23_J),
    "zero-golden-mean": (CASES["golden-mean"][0], potentials.zero(1)),
    "per-symbol": (truncated_cf_system(4),
                   potentials.depth1(lambda k: [k % 3, 1.0 / k], dim=2, bound=2.0)),
    "depth2-golden-mean": (CASES["golden-mean"][0], J2),
    "depth3": (truncated_cf_system(3), J3),
}


@pytest.mark.parametrize("name", sorted(POTENTIAL_TABLE_CASES))
def test_potential_table_is_the_per_word_values(name):
    """The transfer's potential table holds J.value of each admissible
    m-word, in natural code order, and zero on the others, which ``mvalid``
    marks false: at depth 1 it is one ``PotentialVector.table`` call."""
    sys, J = POTENTIAL_TABLE_CASES[name]
    N = sys.effective_truncation(None if sys.is_finite else 7)
    tr = WindowTransfer(sys, J, N, 1)
    syms = _words(N, J.depth)
    ok = sys.incidence.admits(syms)
    want = np.array([J.value(w) if a else np.zeros(J.dim)
                     for w, a in zip(syms.T, ok)])
    assert np.array_equal(tr.mvalid, ok)
    assert np.array_equal(tr.jvals, want)


# named as DERIV_CASES are
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
    assert kern.window == (n - 1 if window is None else window)
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
    "mid": lambda tr, t: tr.limit_bound(t, 0.6, "mid"),
    "sign-lower": lambda tr, t: tr.limit_sign(t, 0.6, "lower"),
    "sign-upper": lambda tr, t: tr.limit_sign(t, 0.6, "upper"),
}


@st.composite
def markov_limit_cases(draw):
    """A window transfer on N in 2..4 symbols over a random incidence with
    an infinite word: continued-fraction maps or similarities, a depth-1
    or depth-2 table potential of dim 1..2 and values in [-1, 1], window
    2 or 3 (at least the depth), and a point t in [-1, 1]**d, beta in
    [0, 2]."""
    N = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=N, max_size=N),
                         min_size=N, max_size=N))
    # a word of N+1 symbols repeats one, so its cycle runs forever
    assume(np.linalg.matrix_power(np.array(rows), N).any())
    if draw(st.booleans()):
        family = truncated_cf_system(N).family
    else:
        ratios = draw(st.lists(st.floats(0.05, 0.9 / N), min_size=N, max_size=N))
        family = similarity_system(ratios).family
    graph = truncated_cf_system(N).graph
    sys = SystemDescriptor(graph, IncidenceMatrix.from_dense(rows, graph), family)
    depth, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=N ** depth * d,
                         max_size=N ** depth * d))
    table = dict(zip(itertools.product(range(1, N + 1), repeat=depth),
                     np.reshape(vals, (-1, d))))
    J = potentials.depth_m(lambda w: table[tuple(w)], dim=d, depth=depth,
                           bound=1.0)
    q = draw(st.integers(max(2, depth), 3))
    t = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    return WindowTransfer(sys, J, N, q), t, draw(st.floats(0.0, 2.0))


def _mp_log_radius(transfer, t, beta, which):
    """The log of the spectral radius, at 50 digits, of the window matrix
    whose weights take the ``which`` ('inf' or 'sup') end of their
    log-derivative brackets, built one window at a time from the family's
    scalar primitives: window w weighs the step from state w[:-1] to state
    w[1:] by exp(<t, J(w[:m])> + beta * ld), ld bracketing log|phi'_{w_1}|
    over phi_{w_2..w_q}(hull)."""
    sys, J, N, q = transfer.sys, transfer.J, transfer.N, transfer.window
    fam, hull, S = sys.family, sys.hull(N), N ** (q - 1)

    def code(word):
        return sum((k - 1) * N ** i for i, k in enumerate(reversed(word)))

    with mpmath.workdps(50):
        M = mpmath.zeros(S, S)
        for w in itertools.product(range(1, N + 1), repeat=q):
            if all(sys.incidence.entry(a, b) for a, b in zip(w, w[1:])):
                ld = fam.deriv_log_range(w[0], fam.word_image(w[1:], hull))
                x = float(t @ J.value(w[:J.depth]))
                ld = ld[0] if which == "inf" else ld[1]
                M[code(w[:-1]), code(w[1:])] = mpmath.exp(
                    mpmath.mpf(x) + beta * mpmath.mpf(ld))
        radius = max(abs(e) for e in mpmath.eig(M, left=False, right=False))
        return float(mpmath.log(radius))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(markov_limit_cases())
def test_limit_bounds_contain_the_high_precision_radius(case):
    """'lower' is at most the log of the 50-digit spectral radius of the
    inf-weight window matrix and 'upper' at least that of the sup-weight
    one, each within 1e-12 relative."""
    tr, t, beta = case
    lower, upper = tr.limit_bound(t, beta, "lower"), tr.limit_bound(t, beta, "upper")
    r_inf, r_sup = (_mp_log_radius(tr, t, beta, w) for w in ("inf", "sup"))
    assert lower <= r_inf + 1e-12 * max(1.0, abs(r_inf)), (lower, r_inf)
    assert r_sup - 1e-12 * max(1.0, abs(r_sup)) <= upper, (r_sup, upper)


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


@pytest.mark.parametrize("name", ["cf3-n12", "cf3-depth2", "golden-mean",
                                  "similarity-window1"])
def test_buffers_do_not_alias_across_calls(name):
    """A table writes its weights, and a kernel its closure and iterates,
    into buffers of its own: limit bounds, signs, one coupled step and the
    stage values at beta1, then beta2, then beta1 again on one kernel are
    those of fresh kernels, bit for bit."""
    sys, J, n, window = STEP_CASES[name]

    def fresh():
        return PressureKernel(sys, J, n=n, window=window)

    def answers(kern, beta):
        tr = kern.transfer
        return ([tr.limit_bound(T, beta, side) for side in ("lower", "mid", "upper")]
                + [tr.limit_sign(T, beta, side) for side in ("lower", "upper")]
                + [tr.limit_step(T, beta, tr.start()), kern.values(T, beta),
                   kern.value(T, beta)])

    kern = fresh()
    for beta in (0.6, 1.3, 0.6):
        assert answers(kern, beta) == answers(fresh(), beta), beta


def _full_certifies(transfer, t, est, half):
    """The certification test answered from two fully converged limit
    bounds, as it was before it asked only for their signs."""
    left, right = _ends(est, half)
    lower = transfer.limit_bound(t, left, "lower")
    lo_ok = lower >= 0.0 if left == BETA_FLOOR else lower > 0.0
    return lo_ok and transfer.limit_bound(t, right, "upper") < 0.0


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
            # the mid root by brentq, the reference finder
            mid = lambda b: probe.limit_bound(t, b, "mid")
            ests.append(brentq(mid, BETA_FLOOR, _sign_bracket(mid)[1], xtol=ROOT_XTOL))
        for est in ests:
            for half in (1e-9, 1e-4, 1e-2, 0.3, 2.0):
                got = _certifies(fresh(), t, est, half) is not None
                assert got == _full_certifies(fresh(), t, est, half), (t, est, half)
                seen.add(got)
    assert seen == {True, False}


# -- distortion-free systems stage their sums by the window transfer -------

def test_distortion_free_layout():
    """A similarity system takes the recursion at its clamped window (1 on
    the full shift, 2 on the golden-mean incidence); a window that reaches
    the word length falls back to n-1, a clamp equal to the word length
    runs one transfer step, and one past it is refused."""
    sim = similarity_system([0.4, 0.3])
    golden = CASES["golden-mean"][0]
    for sys, q in ((sim, 1), (golden, 2)):
        assert PressureKernel(sys, MOD23_J, n=16).window == q
        assert PressureKernel(sys, MOD23_J, n=16, window=16).window == 15
    assert PressureKernel(sim, MOD23_J, n=1).window == 1
    assert PressureKernel(golden, MOD23_J, n=2).window == 2
    with pytest.raises(ValueError, match="shorter than its clamped window 2"):
        PressureKernel(golden, MOD23_J, n=1)


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


def _every_word(sys, J, n, t, beta):
    """(value, J quotient, I quotient) of the stage-n sum of a depth-1
    similarity system over every admissible word, fsums over arrays of all
    of them: a word's exact log-derivative is the sum of its log ratios,
    and the quotients are the Gibbs means of its J sum and of -ld, over n."""
    N = len(sys.family.ratios)
    syms = _words(N, n)
    syms = syms[:, sys.incidence.admits(syms)] - 1
    jvals = np.array([J.value((k,)) for k in range(1, N + 1)])
    logr = np.log(sys.family.ratios)
    jsum, ld = jvals[syms[0]], logr[syms[0]]
    for row in syms[1:]:
        jsum, ld = jsum + jvals[row], ld + logr[row]
    e = jsum @ t + beta * ld
    w = np.exp(e - e.max())
    z = math.fsum(w)
    jq = [math.fsum(w * jsum[:, i]) / z / n for i in range(t.size)]
    return (e.max() + math.log(z)) / n, jq, -math.fsum(w * ld) / z / n


@settings(max_examples=60, deadline=None)
@given(distortion_free_cases())
def test_distortion_free_dp_matches_enumeration(case):
    """The automatic kernel of a distortion-free system runs the recursion
    at the clamped window, and its bounds, anchored value and Gibbs
    quotients are those of every word, enumerated here, within 1e-13
    relative."""
    sys, J, n, q, t, beta = case
    kern = PressureKernel(sys, J, n=n)
    assert kern.window == q
    value, ejq, eiq = _every_word(sys, J, n, t, beta)
    for got in (*kern.values(t, beta), kern.value(t, beta)):
        assert _close(got, value), (got, value)
    val, jq, iq = kern.moments(t, beta)
    for got, want in zip([val, *jq, iq], [value, *ejq, eiq]):
        assert _close(got, want), (got, want)

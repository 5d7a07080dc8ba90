"""The kernel's window and trailing tables, and the family's word brackets,
come from one recursion on word length.  Here each is checked, bit for
bit, against the symbol-grid construction it replaced, written out below:
every word as a column of a (length, N**length) array, the continuants of
the continued-fraction family run left to right, the generic family
composed right to left with its interval primitives, and admissibility
read off the grid.  Similarity word sums are added from the last symbol to
the first, the order the recursion uses.
"""

import tracemalloc

import numpy as np
import pytest

from cgdms import potentials
from cgdms.config import build_system
from cgdms.families import MoebiusCFFamily, SimilarityFamily
from cgdms.kernel import PressureKernel, WindowTransfer
from cgdms.system import similarity_system, truncated_cf_system

# every node of the expression grammar (as in tests/test_families.py),
# wrapped so that the images stay inside a positive domain
EVERY_NODE = "-(x*k - 2)/(k+1) + log(x+k)^2 - exp(-x)*(x+1)^0.5 + x^(k/2)"
SYSTEMS = {
    "cf2": truncated_cf_system(2),
    "cf3": truncated_cf_system(3),
    "cf5": truncated_cf_system(5),
    "cf24": truncated_cf_system(24),
    "custom-cf": build_system({
        "kind": "custom-1d", "map_expr": "1/(x+k)",
        "abs_deriv_expr": "(x+k)^-2", "contraction_bound": 0.5,
        "contraction_prefactor": 2.0, "edges": 3}),
    "custom-every-node": build_system({
        "kind": "custom-1d", "map_expr": f"1/(k + 2 + exp({EVERY_NODE}))",
        "abs_deriv_expr": f"exp({EVERY_NODE})/(k+2)^2",
        "contraction_bound": 0.5, "edges": 3, "domain": [0.1, 1.0]}),
    "golden-mean": similarity_system([0.5, 0.5], offsets=[0.0, 0.5],
                                     incidence=[[1, 1], [1, 0]]),
    "upper-triangular": similarity_system([0.5, 0.3], offsets=[0.0, 0.6],
                                          incidence=[[1, 1], [0, 1]]),
}
DEPTH1 = potentials.mod_cycle([[-1.0, 1.0], [0.0, 1.0, -1.0]])
DEPTH2 = potentials.depth_m(
    lambda w: [0.3 * (w[0] - w[1]) + 0.1 * w[0] * w[1], 0.2 * (w[0] == w[1])],
    dim=2, depth=2, bound=5.0)
DEPTH3 = potentials.depth_m(
    lambda w: [0.2 * (w[0] - w[2]) + 0.1 * w[0] * w[1] * w[2], 0.05 * w[1]],
    dim=2, depth=3, bound=5.0)

# (system, potential, window) of the window tables
WINDOW_CASES = {
    "cf2-window1": ("cf2", DEPTH1, 1),
    "cf2-window2": ("cf2", DEPTH1, 2),
    "cf2-window16": ("cf2", DEPTH1, 16),
    "cf3-window10": ("cf3", DEPTH1, 10),
    "cf3-depth2": ("cf3", DEPTH2, 5),
    "cf3-depth3": ("cf3", DEPTH3, 6),
    "cf5-window6": ("cf5", DEPTH1, 6),
    "cf24-window3": ("cf24", DEPTH1, 3),
    "custom-cf-window6": ("custom-cf", DEPTH1, 6),
    "custom-every-node-window5": ("custom-every-node", DEPTH1, 5),
    "golden-mean-window2": ("golden-mean", DEPTH1, 2),
    "golden-mean-depth3": ("golden-mean", DEPTH3, 8),
    "upper-triangular-window3": ("upper-triangular", DEPTH1, 3),
    "upper-triangular-depth2": ("upper-triangular", DEPTH2, 6),
}
# (system, word length) of the word brackets; the ids name the per-word
# enumeration tables, and their potentials, that were built from them
ENUM_CASES = {
    "cf2-n12": ("cf2", 12),
    "cf3-n8": ("cf3", 8),
    "cf3-depth2": ("cf3", 7),
    "cf3-depth3": ("cf3", 6),
    "cf5-n5": ("cf5", 5),
    "cf24-n3": ("cf24", 3),
    "custom-cf-n6": ("custom-cf", 6),
    "custom-every-node-n5": ("custom-every-node", 5),
    "golden-mean-n12": ("golden-mean", 12),
    "golden-mean-depth3": ("golden-mean", 10),
    "upper-triangular-n10": ("upper-triangular", 10),
}


def _grid(N, L):
    """Every L-word over 1..N as the columns of an (L, N**L) array, first
    symbol most significant."""
    codes = np.arange(N ** L)
    return np.array([codes // N ** (L - 1 - i) % N + 1 for i in range(L)],
                    dtype=np.int64).reshape(L, N ** L)


def _continuants(rows):
    """(p, p1, q, q1) of each column word, left to right."""
    M = rows.shape[1]
    p, p1, q, q1 = np.zeros(M), np.ones(M), np.ones(M), np.zeros(M)
    for k in rows.astype(float):
        p, p1 = k * p + p1, p
        q, q1 = k * q + q1, q
    return p, p1, q, q1


def _heads(fam, syms, tail):
    """Per column: the range of log|phi'_{w_1}| over phi_{w_2..w_L}(tail)."""
    M = syms.shape[1]
    if isinstance(fam, MoebiusCFFamily):
        a, b = tail
        if syms.shape[0] == 1:
            ylo, yhi = np.full(M, a), np.full(M, b)
        else:
            p, p1, q, q1 = _continuants(syms[1:])
            x0 = (p + p1 * a) / (q + q1 * a)
            x1 = (p + p1 * b) / (q + q1 * b)
            ylo, yhi = np.minimum(x0, x1), np.maximum(x0, x1)
        k = syms[0].astype(float)
        return -2.0 * np.log(yhi + k), -2.0 * np.log(ylo + k)
    if isinstance(fam, SimilarityFamily):
        s = fam._logr[syms[0]]
        return s, s
    iv = tail
    for k in syms[:0:-1]:
        iv = fam.image(k, iv)
    return tuple(np.broadcast_to(v, M).astype(float)
                 for v in fam.deriv_log_range(syms[0], iv))


def _words(fam, syms, tail):
    """Per column: the enclosure of log|phi_w'| over tail."""
    if isinstance(fam, MoebiusCFFamily):
        _, _, q, q1 = _continuants(syms)
        a, b = tail
        return -2.0 * np.log(q + q1 * b), -2.0 * np.log(q + q1 * a)
    if isinstance(fam, SimilarityFamily):
        s = fam._logr[syms[-1]]
        for k in syms[-2::-1]:
            s = fam._logr[k] + s
        return s, s
    lo = hi = 0.0
    iv = tail
    for k in syms[::-1]:
        dlo, dhi = fam.deriv_log_range(k, iv)
        lo, hi = lo + dlo, hi + dhi
        iv = fam.image(k, iv)
    return lo, hi


def _equal(got, want):
    return got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(WINDOW_CASES))
def test_window_table_is_the_grid_construction(name):
    system, J, q = WINDOW_CASES[name]
    sysd = SYSTEMS[system]
    N = sysd.effective_truncation(None)
    tr = WindowTransfer(sysd, J, N, q)
    assert tr.window == q
    syms, hull = _grid(N, q), sysd.hull(N)
    codes = np.arange(N ** q)
    order = codes if q == 1 else codes.reshape(N, -1, N).transpose(0, 2, 1).ravel()
    lo, hi = _heads(sysd.family, syms, hull)
    assert _equal(tr.ld["inf"], lo[order]) and _equal(tr.ld["sup"], hi[order])
    assert _equal(tr.ld["mid"], 0.5 * (lo + hi)[order])
    assert _equal(tr.valid, sysd.incidence.admits(syms)[order])
    assert _equal(tr.state_valid, sysd.incidence.admits(syms[:-1, ::N]))
    assert _equal(tr.jcode, order // N ** (q - J.depth))


@pytest.mark.parametrize("name", sorted(WINDOW_CASES))
def test_trailing_tables_are_the_grid_construction(name):
    system, J, q = WINDOW_CASES[name]
    sysd = SYSTEMS[system]
    N = sysd.effective_truncation(None)
    kern = PressureKernel(sysd, J, n=q + 3, N=N, window=q)
    assert kern.mode == "dp" and kern.window == q
    assert sorted(kern._trail_ld) == list(range(1, q))
    for l, ld in kern._trail_ld.items():
        lo, hi = _heads(sysd.family, _grid(N, l), sysd.hull(N))
        assert _equal(ld["inf"], lo) and _equal(ld["sup"], hi), l
        assert _equal(ld["mid"], 0.5 * (lo + hi)), l


@pytest.mark.parametrize("name", sorted(ENUM_CASES))
def test_enumerate_table_is_the_grid_construction(name):
    """The family's word recursion (:meth:`MapFamily.vec_word_log_deriv`)
    brackets every admissible word as the grid construction does."""
    system, n = ENUM_CASES[name]
    sysd = SYSTEMS[system]
    N = sysd.effective_truncation(None)
    syms = _grid(N, n)
    words = syms[:, sysd.incidence.admits(syms)]
    hull = sysd.hull(N)
    lo, hi = (np.broadcast_to(v, words.shape[1:])
              for v in _words(sysd.family, words, hull))
    got = sysd.family.vec_word_log_deriv(words, hull)
    assert _equal(got[0], lo) and _equal(got[1], hi)


@pytest.mark.parametrize("q", (1, 2, 6))
def test_custom_window_table_costs_q_primitive_calls(q):
    """One ``image`` call per tail level and one ``deriv_log_range`` call,
    each over a whole level of words."""
    sysd = SYSTEMS["custom-cf"]
    fam, calls = sysd.family, []
    sysd.hull(3)
    for name in ("image", "deriv_log_range"):
        prim = getattr(fam, name)
        setattr(fam, name, lambda e, iv, prim=prim, name=name:
                calls.append(name) or prim(e, iv))
    try:
        WindowTransfer(sysd, DEPTH1, 3, q)
    finally:
        del fam.image, fam.deriv_log_range
    assert calls == ["image"] * (q - 1) + ["deriv_log_range"]


@pytest.mark.parametrize("build", [
    lambda sysd: WindowTransfer(sysd, potentials.zero(1), 2, 16),
    lambda sysd: PressureKernel(sysd, potentials.zero(1), n=16, N=2),
], ids=("transfer-window16", "enumerate-n16"))
def test_table_build_memory(build):
    """The window-16 tables, and those of the stage kernel at word length
    16 (window 15; the id names the per-word table of 2**16 words that it
    once built), are built without a symbol grid: the traced allocation
    peak stays below 6 MB (the grid construction peaked at 14.6 and
    12.5 MB)."""
    sysd = truncated_cf_system(2)
    build(sysd)  # hull, imports and caches outside the measurement
    tracemalloc.start()
    try:
        obj = build(sysd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obj is not None
    assert peak < 6 * 2 ** 20, peak / 2 ** 20


def _warm_peak(call) -> int:
    """The traced allocation peak, in bytes, of a second call of ``call``
    (beta 0.7, then 0.8)."""
    call(0.7)
    tracemalloc.start()
    try:
        call(0.8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("J", [potentials.zero(1), DEPTH1], ids=("zero", "mod-cycle"))
def test_warm_values_peak_below_one_table(J):
    """A warm ``values`` call on cf3 at word length 12 (window 11) writes
    its weights, closure and iterates into buffers that the table and the
    kernel own: its traced allocation peak stays below one window table of
    3**11 doubles.  With a fresh array for each of them it peaked at three
    tables' worth, 4.25 MB."""
    kern = PressureKernel(SYSTEMS["cf3"], J, n=12, N=3)
    assert kern.window == 11
    t = np.zeros(J.dim) + 0.3
    peak = _warm_peak(lambda beta: kern.values(t, beta))
    assert peak < 8 * 3 ** 11, peak / 2 ** 20


STAGE_SHAPES = {"cf2-window15": ("cf2", 2, 16), "cf3-window11": ("cf3", 3, 12)}
# the traced peak of each warm call, in state vectors of N**(q-1) doubles
WARM_PEAKS = {"value": 1.0, "values": 1.0, "limit_step": 1.0, "moments": 7.5}


@pytest.mark.parametrize("method", sorted(WARM_PEAKS))
@pytest.mark.parametrize("name", sorted(STAGE_SHAPES))
def test_warm_call_peaks(name, method):
    """Warm evaluations step into the table's own step buffers, close over
    the trailing windows by a closure planned once, and keep the moments'
    accumulator in buffers of the kernel.  So ``value`` and ``values``
    peak below one state vector (0.02 on cf2, 0.23 on cf3), and so does
    a coupled Perron step, whose Collatz-Wielandt ratios go to the step's
    sums buffer (0.02, 0.01); ``moments`` peaks at its final products,
    2(d+1) state vectors with d = 2 (6.0 on cf2, 5.3 on cf3).  With a
    step output and its transposing copy per step, and arrays made per
    step, they peaked at 2.0, 2.0, 2.02 and 19.5 (cf2) or 23 (cf3)."""
    system, N, n = STAGE_SHAPES[name]
    kern = PressureKernel(SYSTEMS[system], DEPTH1, n=n, N=N)
    assert kern.window == n - 1
    t, tr = np.array([0.3, 0.3]), kern.transfer
    start = tr.start()
    calls = {"value": kern.value, "values": kern.values, "moments": kern.moments,
             "limit_step": lambda t, beta: tr.limit_step(t, beta, start)}
    peak = _warm_peak(lambda beta: calls[method](t, beta))
    assert peak < WARM_PEAKS[method] * 8 * N ** (n - 2), peak / (8 * N ** (n - 2))

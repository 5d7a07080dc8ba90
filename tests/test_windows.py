"""The one window policy: :meth:`WindowTransfer.windows` against the
formulas of the helpers that it replaced, written out here as the oracle,
and the windows of the stage kernel, the certifying transfer of
``BetaSolver`` and the Bowen transfer, which all read it."""

import pytest

from cgdms import potentials
from cgdms.kernel import DP_WINDOW_CAP, EXACT_CAP, PressureKernel, WindowTransfer
from cgdms.multifractal import BetaSolver
from cgdms.system import moebius_cf_system, similarity_system, truncated_cf_system
from cgdms.thermo import bowen_dimension

J2 = potentials.depth_m(lambda w: [0.1 * w[0] - 0.2 * w[1]], dim=1, depth=2,
                        bound=1.0)
GOLDEN = similarity_system([0.5, 0.5], offsets=[0.0, 0.5], incidence=[[1, 1], [1, 0]])
SIMILARITY = similarity_system([0.4, 0.3])
# (system, potential): distorted and distortion-free, full shift and
# Markov, depth 1 and 2
SYSTEMS = {
    "cf": (moebius_cf_system(), potentials.zero(1)),
    "cf-depth2": (moebius_cf_system(), J2),
    "golden-mean": (GOLDEN, potentials.zero(1)),
    "similarity-depth2": (SIMILARITY, J2),
}


def _deepest(N, cap):
    q = 0
    while N ** (q + 1) <= cap:
        q += 1
    return q


def _clamp(sys, J, q):
    return max(q, J.depth, 1 if sys.incidence.full_shift else 2)


def _certify(sys, J, N, level, window=None):
    """The clamped ``window``, or absent one the window of refinement
    ``level``: the clamp of a distortion-free family, else ``level`` while
    N**level stays within EXACT_CAP, else the deepest window below it
    within DP_WINDOW_CAP."""
    if window is None:
        window = 1
        if not sys.family.distortion_free:
            window = (level if N ** min(level, 40) <= EXACT_CAP else max(
                1, min(level - 1, _deepest(N, DP_WINDOW_CAP))))
    return _clamp(sys, J, window)


def _stage(sys, J, n, N, window=None):
    """The certifying window, or the clamp of n-1 when that reaches n;
    None when even that clamp is past n."""
    window = _certify(sys, J, N, n, window)
    if window >= n:
        window = _clamp(sys, J, max(1, n - 1))
        if window > n:
            return None
    return window


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_windows_match_the_replaced_formulas(name):
    """On N in {2, 3, 5, 24, 1449, 200000}, n in 1..40 and every window
    of None and 1..25, ``certify`` is the oracle's certifying window and
    ``stage`` its stage window, or past n where the oracle has none."""
    sys, J = SYSTEMS[name]
    for N in (2, 3, 5, 24, 1449, 200000):
        for n in range(1, 41):
            for window in (None, *range(1, 26)):
                stage, certify = WindowTransfer.windows(sys, J, N, n, window)
                case = (N, n, window)
                assert certify == _certify(sys, J, N, n, window), case
                want = _stage(sys, J, n, N, window)
                assert stage == want if want is not None else stage > n, case


def test_truncation_one_takes_the_caps_of_truncation_two():
    """At N = 1 tables go up to window 21 and automatic windows up to 19;
    below that the automatic window is the word length."""
    sys, J = SYSTEMS["cf"]
    assert WindowTransfer.deepest_window(1) == WindowTransfer.deepest_window(2) == 21
    assert WindowTransfer.windows(sys, J, 1, 19) == (18, 19)
    assert WindowTransfer.windows(sys, J, 1, 10 ** 6) == (19, 19)
    WindowTransfer.check_size(1, 21)
    with pytest.raises(ValueError, match="too large"):
        WindowTransfer.check_size(1, 22)


BUILT = {
    "cf2": (truncated_cf_system(2), potentials.zero(1)),
    "cf3-depth2": (truncated_cf_system(3), J2),
    "golden-mean": (GOLDEN, potentials.zero(1)),
    "similarity-depth2": (SIMILARITY, J2),
}


@pytest.mark.parametrize("name", sorted(BUILT))
@pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("window", (None, 1, 2, 4, 7))
def test_built_windows_are_the_policy(name, n, window):
    """The stage kernel runs at ``stage`` (refusing words shorter than
    it), and ``BetaSolver`` certifies at ``certify``, as ``bowen_dimension``
    does on the zero potential."""
    sys, J = BUILT[name]
    N = sys.effective_truncation(None)
    stage, certify = WindowTransfer.windows(sys, J, N, n, window)
    if stage > n:
        with pytest.raises(ValueError, match="shorter than its clamped window"):
            PressureKernel(sys, J, n=n, window=window)
    else:
        assert PressureKernel(sys, J, n=n, window=window).window == stage
        assert BetaSolver(sys, J, n=n, window=window).transfer.window == certify
    zero = potentials.zero(1)
    bowen = bowen_dimension(sys, n, tol=0.9, window=window)
    assert bowen.window == WindowTransfer.windows(sys, zero, N, n, window)[1]

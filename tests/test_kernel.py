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
"""

import itertools
import math

import numpy as np
import pytest

from cgdms import potentials
from cgdms.kernel import PressureKernel
from cgdms.system import similarity_system, truncated_cf_system

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
    kern = PressureKernel(sys, J, n=N_WORDS)
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
    enum = PressureKernel(sys, J2, n=N_WORDS)
    dp = PressureKernel(sys, J2, n=N_WORDS, window=window)
    assert dp.mode == "dp" and dp.window == window
    for beta in BETAS:
        lo, hi = enum.values(T, beta)
        dlo, dhi = dp.values(T, beta)
        assert dlo <= lo + EPS and hi <= dhi + EPS, (beta, dlo, lo, hi, dhi)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("window", (None, 2, 3))
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
    kern = PressureKernel(sys, J, n=N_WORDS)
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

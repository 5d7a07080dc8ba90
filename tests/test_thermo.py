import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cgdms import kernel, potentials
from cgdms.errors import BracketBudgetError
from cgdms.kernel import PressureKernel, WindowTransfer
from cgdms.system import (SystemDescriptor, TailRule, moebius_cf_system,
                          similarity_system, truncated_cf_system)
from cgdms.thermo import (BETA_FLOOR, ROOT_HI_HINT, ROOT_XTOL, PressureQuery,
                          _certifies, _ends, _sign_bracket, _zero,
                          anchored_pressure_root,
                          bowen_dimension, certified_pressure_zero,
                          classify_regularity, estimate_theta,
                          pressure_bracket, thermo_report)

J0 = potentials.zero(1)
SIM_HALF = similarity_system([0.5, 0.5], offsets=[0.0, 0.5])
SIM_THIRD = similarity_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3])
CF2 = truncated_cf_system(2)
GOLDEN = similarity_system([0.5, 0.5], offsets=[0.0, 0.5],
                           incidence=[[1, 1], [1, 0]])
LOG_PHI_OVER_LOG_2 = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
# dim E(1,2) (Jenkinson-Pollicott)
DIM_E2 = 0.53128050627720514


def spectral_root(incidence, ratios):
    """s solving rho(A_ij r_j**s) = 1, from numpy eigenvalues and brentq."""
    A = np.asarray(incidence, float)
    r = np.asarray(ratios, float)
    rho = lambda s: max(abs(np.linalg.eigvals(A * r[None, :] ** s))) - 1.0
    return brentq(rho, 0.0, 10.0, xtol=1e-15)


@st.composite
def markov_similarity(draw):
    """0/1 incidence on 2-4 states, every row nonzero (columns may be zero,
    so transient states occur), with ratios in [0.15, 0.45]."""
    m = draw(st.integers(2, 4))
    rows = [draw(st.lists(st.integers(0, 1), min_size=m, max_size=m).filter(any))
            for _ in range(m)]
    ratios = draw(st.lists(st.floats(0.15, 0.45), min_size=m, max_size=m))
    return rows, ratios


def oracle_cf_pressure(N, n, beta, hull):
    """Independent word-sum oracle: pointwise chain rule at the hull
    endpoints (monotone), compensated accumulation, no kernel code."""
    a, b = hull
    los, his = [], []
    for word in itertools.product(range(1, N + 1), repeat=n):
        acc = 0.0
        y = a
        for k in reversed(word):
            acc += -2.0 * math.log(y + k)
            y = 1.0 / (y + k)
        sup_ld = acc
        acc = 0.0
        y = b
        for k in reversed(word):
            acc += -2.0 * math.log(y + k)
            y = 1.0 / (y + k)
        inf_ld = acc
        his.append(beta * sup_ld)
        los.append(beta * inf_ld)
    lse = lambda v: max(v) + math.log(math.fsum(math.exp(x - max(v)) for x in v))
    return lse(los) / n, lse(his) / n


def query(beta, n, N, t=(0.0,)):
    return PressureQuery(t_coeff=t, beta_coeff=beta, word_length=n, truncation=N)


def counted_steps(monkeypatch) -> list:
    """A one-item list that counts the transfer steps from now on."""
    steps, step = [0], kernel._step

    def counting_step(v, ET, out):
        steps[0] += 1
        return step(v, ET, out)

    monkeypatch.setattr(kernel, "_step", counting_step)
    return steps


def brentq_zero(f, xtol=ROOT_XTOL):
    """The reference zero of a pressure function f decreasing in beta:
    scipy's brentq to ``xtol`` on the bracket of :func:`_sign_bracket`,
    reading the two bracket ends from the values already computed."""
    bracket = _sign_bracket(f)
    if bracket is None:
        return BETA_FLOOR
    flo, hi, fhi = bracket
    ends = {BETA_FLOOR: flo, hi: fhi}
    return float(brentq(lambda b: ends[b] if b in ends else f(b),
                        BETA_FLOOR, hi, xtol=xtol, maxiter=256))


def full_precision_zero(transfer, t, tol):
    """(enclosure, estimate, required_n) of the certification with its
    estimate solved to ROOT_XTOL by brentq on fully converged 'mid' bounds:
    the first est +/- (tol/2) * 2**k that certifies, and required_n None
    when k = 0."""
    est = brentq_zero(lambda b: transfer.limit_bound(t, b, "mid"))
    half = 0.5 * tol
    for k in range(61):
        enc = _certifies(transfer, t, est, half * 2.0 ** k)
        if enc is not None:
            break
    if k == 0:
        return enc, est, None
    rate = transfer.sys.family.contraction_bound
    return enc, est, transfer.window + math.ceil(
        math.log(enc.width / tol) / math.log(1.0 / rate))


class TestPressureBracket:
    def test_full_two_shift_log2(self):
        for n in (1, 3, 6):
            br = pressure_bracket(SIM_HALF, J0, query(0.0, n, 2))
            assert br.lower == pytest.approx(math.log(2), abs=1e-14)
            assert br.upper == pytest.approx(math.log(2), abs=1e-14)

    def test_similarity_beta_one_zero(self):
        br = pressure_bracket(SIM_HALF, J0, query(1.0, 5, 2))
        assert br.lower == pytest.approx(0.0, abs=1e-13)
        assert br.upper == pytest.approx(0.0, abs=1e-13)

    def test_cf2_strictly_negative_at_one(self):
        br = pressure_bracket(CF2, J0, query(1.0, 10, 2))
        assert br.upper < 0.0

    def test_matches_independent_oracle(self):
        """The stage bracket contains the oracle's sums of exact per-word
        brackets: it refines them to window n-1 only, so it is wider,
        about twice as wide here, except at beta = 0, where every weight
        is exact."""
        hull = CF2.hull(2)
        for beta, n in ((1.0, 6), (0.5, 5), (0.0, 4)):
            lo, hi = oracle_cf_pressure(2, n, beta, hull)
            br = pressure_bracket(CF2, J0, query(beta, n, 2))
            assert br.window == n - 1
            assert br.lower <= lo + 1e-12 and hi <= br.upper + 1e-12
            assert br.upper - br.lower <= 2.5 * (hi - lo) + 1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            query(-0.5, 5, 2)

    def test_monotone_in_beta(self):
        prev = None
        for beta in (0.0, 0.25, 0.5, 1.0, 2.0):
            br = pressure_bracket(CF2, J0, query(beta, 8, 2))
            if prev is not None:
                assert br.lower <= prev.lower + 1e-12
                assert br.upper <= prev.upper + 1e-12
            prev = br

    def test_monotone_in_truncation(self):
        cf4 = truncated_cf_system(4)
        vals = []
        for N in (2, 3, 4):
            vals.append(pressure_bracket(cf4, J0, query(0.8, 6, N)))
        assert vals[0].upper <= vals[1].upper <= vals[2].upper + 1e-12
        assert vals[0].lower <= vals[1].lower <= vals[2].lower + 1e-12

    def test_midpoint_convexity_probe(self):
        # upper endpoint is midpoint-convex in beta within bracket width
        for b1, b2 in ((0.2, 1.0), (0.5, 1.5)):
            brm = pressure_bracket(CF2, J0, query((b1 + b2) / 2, 8, 2))
            br1 = pressure_bracket(CF2, J0, query(b1, 8, 2))
            br2 = pressure_bracket(CF2, J0, query(b2, 8, 2))
            width = max(br1.upper - br1.lower, br2.upper - br2.lower)
            assert brm.upper <= 0.5 * (br1.upper + br2.upper) + width + 1e-12

    def test_stage_doubling_consistency(self):
        br1 = pressure_bracket(CF2, J0, query(0.7, 6, 2))
        br2 = pressure_bracket(CF2, J0, query(0.7, 12, 2))
        gap = br1.upper - br1.lower
        assert br2.lower >= br1.lower - gap - 1e-12
        assert br2.upper <= br1.upper + gap + 1e-12

    def test_similarity_brackets_coincide_across_stages(self):
        vals = [pressure_bracket(SIM_HALF, J0, query(0.37, n, 2)) for n in (2, 5, 9)]
        for br in vals:
            assert br.upper == pytest.approx(br.lower, abs=1e-13)
            assert br.lower == pytest.approx(vals[0].lower, abs=1e-12)

    def test_dp_bracket_contains_enumeration(self):
        """Windows 2 to 4 bracket the oracle's enumeration of exact
        per-word brackets."""
        for window in (2, 3, 4):
            kern_dp = PressureKernel(CF2, J0, n=8, N=2, window=window)
            for beta in (0.3, 0.8):
                dlo, dhi = kern_dp.values(np.zeros(1), beta)
                elo, ehi = oracle_cf_pressure(2, 8, beta, CF2.hull(2))
                assert dlo <= elo + 1e-12
                assert dhi >= ehi - 1e-12

    def test_dp_respects_markov_incidence(self):
        # gated transitions: the golden-mean shift over two similarities
        gated = similarity_system([0.4, 0.4], offsets=[0.0, 0.6],
                                  incidence=[[1, 1], [1, 0]])
        kern_long = PressureKernel(gated, J0, n=10, N=2, window=10)
        kern_dp = PressureKernel(gated, J0, n=10, N=2, window=3)
        # zero-distortion family: windows 9 and 3 agree up to rounding, and
        # the count growth is the golden-mean word count
        lo, hi = kern_long.values(np.zeros(1), 0.0)
        dlo, dhi = kern_dp.values(np.zeros(1), 0.0)
        fib = [1, 2]
        for _ in range(10):
            fib.append(fib[-1] + fib[-2])
        assert lo == pytest.approx(math.log(fib[10]) / 10, abs=1e-12)
        assert dlo <= lo + 1e-12 and dhi >= hi - 1e-12
        assert dhi - dlo < 1e-12

    def test_tail_bound_reporting(self):
        # finite alphabet fully covered: zero tail
        br = pressure_bracket(SIM_HALF, J0, query(0.5, 4, 2))
        assert br.tail_bound == 0.0
        # infinite alphabet with a declared rule: finite bound, shrinking in N
        cf = moebius_cf_system()
        b8 = pressure_bracket(cf, J0, query(1.0, 4, 8))
        b16 = pressure_bracket(cf, J0, query(1.0, 4, 16))
        assert 0 < b16.tail_bound < b8.tail_bound < math.inf
        # divergent regime: +inf flagged
        bdiv = pressure_bracket(cf, J0, query(0.25, 4, 8))
        assert math.isinf(bdiv.tail_bound)

    def test_workers_do_not_change_results(self):
        for workers in (1, 4, 8):
            br = pressure_bracket(CF2, J0, query(0.9, 10, 2), workers=workers)
            base = pressure_bracket(CF2, J0, query(0.9, 10, 2), workers=1)
            assert br.lower == base.lower
            assert br.upper == base.upper


class TestBowenDimension:
    @pytest.mark.parametrize("tol", (1e-11, 1e-12, 1e-13))
    def test_enclosure_width_is_at_most_tol_exactly(self, tol):
        """Three similarities at window 4, ratios 0.2+0.005i, 0.3+0.003i
        and 0.15 for i < 40: every enclosure is at most tol wide in exact
        arithmetic, though est -/+ tol/2 rounds to floats more than tol
        apart for most of them, and it holds the estimate."""
        for i in range(40):
            sysd = similarity_system([0.2 + 0.005 * i, 0.3 + 0.003 * i, 0.15])
            res = bowen_dimension(sysd, 4, tol=tol, window=4)
            enc = res.enclosure
            assert Fraction(enc.hi) - Fraction(enc.lo) <= Fraction(tol), (i, enc)
            assert enc.lo <= res.estimate <= enc.hi

    def test_two_thirds_similarity_closed_form(self):
        res = bowen_dimension(SIM_THIRD, 8, tol=1e-9)
        exact = math.log(2) / math.log(3)
        assert exact in res.enclosure
        assert res.enclosure.width <= 1e-9

    def test_single_map_dimension_zero(self):
        sim1 = similarity_system([0.5], offsets=[0.0])
        res = bowen_dimension(sim1, 6, tol=1e-9)
        assert 0.0 in res.enclosure
        assert res.enclosure.width <= 1e-9

    def test_random_similarity_matches_moran_root(self):
        # oracle: the closed Bowen equation sum r_e^t = 1
        rng = np.random.default_rng(23)
        for _ in range(4):
            ratios = rng.uniform(0.15, 0.45, size=3)
            offs = [0.0, 0.5, 0.9]
            sysd = similarity_system(ratios.tolist(), offsets=offs)
            root = brentq(lambda t: sum(r ** t for r in ratios) - 1.0, 0.0, 1.0)
            res = bowen_dimension(sysd, 6, tol=1e-9)
            assert abs(res.estimate - root) < 1e-9
            assert root in res.enclosure.padded(1e-12)

    def test_cf2_enclosures_nest_and_contain(self):
        d12 = bowen_dimension(CF2, 12, tol=1e-3)
        d16 = bowen_dimension(CF2, 16, tol=5e-4)
        assert 0.5313 in d12.enclosure
        assert 0.5313 in d16.enclosure
        assert d12.enclosure.contains(d16.enclosure)
        assert d16.enclosure.width <= 2e-3

    def test_golden_mean_markov_closed_form(self):
        res = bowen_dimension(GOLDEN, 16, tol=1e-9)
        assert LOG_PHI_OVER_LOG_2 in res.enclosure
        assert res.enclosure.width <= 1e-9

    def test_reducible_incidence_dominant_block(self):
        # edge 3 is transient: the dimension is that of {1, 2},
        # the root of .3**s + .4**s = 1
        sysd = similarity_system([0.3, 0.4, 0.5], offsets=[0.0, 0.35, 0.5],
                                 incidence=[[1, 1, 0], [1, 1, 0], [1, 1, 1]])
        res = bowen_dimension(sysd, 8, tol=1e-9)
        assert 0.6580505190330872 in res.enclosure
        assert res.enclosure.width <= 1e-9

    def test_cf2_limit_bracket_contains_e2(self):
        start = time.perf_counter()
        res = bowen_dimension(CF2, 16, tol=1e-8)
        assert time.perf_counter() - start < 2.0
        assert DIM_E2 in res.enclosure
        assert res.enclosure.width <= 1e-8

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(markov_similarity())
    def test_random_markov_matches_spectral_root(self, case):
        rows, ratios = case
        assume(max(abs(np.linalg.eigvals(np.asarray(rows, float)))) > 1.0 + 1e-9)
        res = bowen_dimension(similarity_system(ratios, incidence=rows), 6,
                              tol=1e-9)
        assert spectral_root(rows, ratios) in res.enclosure.padded(1e-12)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(markov_similarity())
    def test_sign_certification_matches_full_limit_bounds(self, case):
        """Certification asks only for two signs and stops each Perron
        iteration once its sign is settled; on a fresh transfer it answers
        as the fully converged bounds do."""
        rows, ratios = case
        assume(max(abs(np.linalg.eigvals(np.asarray(rows, float)))) > 1.0 + 1e-9)
        sysd = similarity_system(ratios, incidence=rows)
        t = np.zeros(1)

        def fresh():
            return WindowTransfer(sysd, J0, len(rows), 6)

        est = bowen_dimension(sysd, 6, tol=1e-9).estimate
        for shift in (0.0, 1e-3, -0.3):
            for half in (1e-12, 1e-9, 1e-4, 0.05, 1.0):
                tr = fresh()
                left, right = _ends(est + shift, half)
                lower = tr.limit_bound(t, left, "lower")
                full = ((lower >= 0.0 if left == BETA_FLOOR else lower > 0.0)
                        and tr.limit_bound(t, right, "upper") < 0.0)
                got = _certifies(fresh(), t, est + shift, half) is not None
                assert got == full, (shift, half)

    def test_certification_stops_once_the_sign_is_settled(self, monkeypatch):
        """cf3 at window 10: each of the two certification brackets makes
        at most 3 transfer steps (a full Perron bracket takes about 30), and
        the whole solve at most 25 (141 with a full-precision estimate, 44
        with brentq over early-stopped 'mid' bounds)."""
        steps, per_bracket = counted_steps(monkeypatch), []
        sign = WindowTransfer.limit_sign

        def counting_sign(self, *args, **kwargs):
            before = steps[0]
            result = sign(self, *args, **kwargs)
            per_bracket.append(steps[0] - before)
            return result

        monkeypatch.setattr(WindowTransfer, "limit_sign", counting_sign)
        res = bowen_dimension(truncated_cf_system(3), 10, tol=1e-3)
        assert res.window == 10 and res.enclosure.width <= 1e-3
        assert len(per_bracket) == 2 and max(per_bracket) <= 3, per_bracket
        assert steps[0] <= 25, steps[0]

    def test_deep_window_estimate_step_budget(self, monkeypatch):
        """cf2 at window 19, tol 1e-10: the enclosure holds dim E2, and its
        estimate makes at most 45 transfer steps (105 with brentq over
        early-stopped 'mid' bounds).  The two sign checks are counted apart:
        window 19's own width is 7.2e-11, so each sign has a margin of
        about tol/7 in beta, and they take about 41 steps whatever the
        estimate."""
        steps, signs = counted_steps(monkeypatch), [0]
        sign = WindowTransfer.limit_sign

        def counting_sign(self, *args, **kwargs):
            before = steps[0]
            result = sign(self, *args, **kwargs)
            signs[0] += steps[0] - before
            return result

        monkeypatch.setattr(WindowTransfer, "limit_sign", counting_sign)
        transfer = WindowTransfer(CF2, J0, 2, 19)
        enc, est = certified_pressure_zero(transfer, np.zeros(1), 1e-10)
        assert DIM_E2 in enc and enc.width <= 1e-10
        assert steps[0] - signs[0] <= 45, (steps[0], signs[0])

    def test_budget_error_carries_best(self):
        with pytest.raises(BracketBudgetError) as err:
            bowen_dimension(CF2, 4, tol=1e-9)
        assert err.value.best is not None
        assert 0.5313 in err.value.best.padded(5e-3)
        assert err.value.required_n is not None

    def test_budget_advice_under_the_table_cap(self):
        """A needed window that the table cap admits is advised as it is."""
        with pytest.raises(BracketBudgetError) as err:
            bowen_dimension(CF2, 4, tol=1e-6)
        needed = err.value.required_n
        assert needed <= WindowTransfer.deepest_window(2) == 21
        assert str(err.value) == ("could not certify width 1e-06 at window 4; "
                                  f"roughly window {needed} would be needed")

    def test_budget_advice_against_the_table_cap(self):
        """At truncation 2 the automatic window choice stops at window 19,
        below the table cap's 21; a needed window 21 is advised as it is,
        since an explicit window can reach it."""
        with pytest.raises(BracketBudgetError) as err:
            bowen_dimension(CF2, 20, tol=3e-11)
        assert err.value.required_n == 21
        assert str(err.value) == ("could not certify width 3e-11 at window 19; "
                                  "roughly window 21 would be needed")


class TestRoot:
    """Each root solve evaluates the pressure at most once per beta, and
    each certification probes one beta in one run of Perron steps."""

    CF24 = truncated_cf_system(24)
    MOD_J = potentials.mod_cycle([[-1.0, 1.0], [0.0, 1.0, -1.0]])
    T = np.array([0.3, -0.2])

    def test_stage_root_evaluates_each_beta_once(self):
        kern = PressureKernel(self.CF24, self.MOD_J, n=10, window=3)
        value, betas = kern.value, []

        def counting(t, b):
            betas.append(b)
            return value(t, b)

        kern.value = counting
        root = anchored_pressure_root(kern, self.T)
        assert len(betas) == len(set(betas))
        # the right end of the bracket is the last doubling of ROOT_HI_HINT,
        # and brentq on that bracket lands within ROOT_XTOL of the root
        hi = max(betas)
        assert math.log2(hi / ROOT_HI_HINT).is_integer() and kern.value(self.T, hi) < 0.0
        assert abs(root - brentq(lambda b: kern.value(self.T, b), BETA_FLOOR, hi,
                                 xtol=ROOT_XTOL, maxiter=256)) <= ROOT_XTOL

    def test_stage_root_takes_inverse_quadratic_steps(self):
        """Anchored stage values are exact probes, so the zero finder steps
        by inverse quadratic interpolation through the last three: on ten
        points of cf24 with the mod-cycle J at window 3 a root takes at
        most 8.5 stage values on average (9.5 with secant steps alone)."""
        kern = PressureKernel(self.CF24, self.MOD_J, n=10, window=3)
        value, calls = kern.value, [0]

        def counting(t, b):
            calls[0] += 1
            return value(t, b)

        kern.value = counting
        points = [self.T, *np.random.default_rng(0).uniform(-0.5, 0.5, (9, 2))]
        for t in points:
            anchored_pressure_root(kern, t)
        assert calls[0] / len(points) <= 8.5, calls[0] / len(points)

    def test_zero_stops_at_adjacent_floats(self):
        """A sign change between two adjacent floats past 64, where the float
        spacing passes ROOT_XTOL and no beta gives 0, ends the solve there
        rather than after PROBE_CAP probes."""
        c, betas = 100.1, []

        def probe(b):
            betas.append(b)
            v = 1.0 if b < c else -1.0
            return v, v, v

        root = _zero(probe, ROOT_XTOL)
        assert math.nextafter(c, -math.inf) <= root <= math.nextafter(c, math.inf)
        assert len(betas) < 100

    def test_limit_root_evaluates_each_beta_once(self):
        """The estimate probes the bracket ends until their signs settle,
        and every other beta once: no beta is probed again after the
        estimate has moved on."""
        transfer = WindowTransfer(self.CF24, self.MOD_J, 24, 3)
        step, betas = transfer.limit_step, []

        def counting(t, b, start):
            betas.append(b)
            return step(t, b, start)

        transfer.limit_step = counting
        enc, est = certified_pressure_zero(transfer, self.T, 0.2)
        runs = [b for b, _ in itertools.groupby(betas)]
        assert len(runs) == len(set(runs)) and len(runs) > 2, betas
        assert enc.lo <= est <= enc.hi


class TestEstimatePrecision:
    """A certification solves its estimate only to a share of its
    tolerance, and certifies it as a full-precision estimate is."""

    CF3 = truncated_cf_system(3)
    CF24 = truncated_cf_system(24)
    MOD_J = potentials.mod_cycle([[0, 1], [0, 0, 1]])

    def test_beta_step_budget(self, monkeypatch):
        """cf3 at window 6 with the mod-cycle J, tol 0.05: a full-precision
        estimate took about 130 Perron steps, brentq over early-stopped
        'mid' bounds 27."""
        transfer = WindowTransfer(self.CF3, self.MOD_J, 3, 6)
        steps = counted_steps(monkeypatch)
        enc, est = certified_pressure_zero(transfer, np.array([0.3, -0.2]), 0.05)
        assert enc.width <= 0.05 and enc.lo <= est <= enc.hi
        assert steps[0] <= 20, steps[0]

    @pytest.mark.parametrize("case", [
        (CF2, J0, 2, 10, (0.0,), 1e-4),
        (CF2, J0, 2, 4, (0.0,), 1e-9),
        (CF3, J0, 3, 10, (0.0,), 1e-3),
        (CF24, MOD_J, 24, 4, (-0.5, 0.4), 3e-3),
        (CF24, MOD_J, 24, 4, (-0.5, 0.4), 1e-3),
        (GOLDEN, J0, 2, 2, (0.0,), 1e-9),
    ], ids=["cf2", "cf2-budget", "cf3", "cf24", "cf24-budget", "golden"])
    def test_matches_full_precision_solve(self, case):
        """The estimate lies within tol/1000 of the full-precision one, and
        the outcome, width and required window are the same."""
        sysd, J, N, q, t, tol = case
        t = np.asarray(t, dtype=float)
        enc, est, needed = full_precision_zero(WindowTransfer(sysd, J, N, q), t, tol)
        try:
            got, got_est = certified_pressure_zero(WindowTransfer(sysd, J, N, q), t, tol)
            got_needed = None
        except BracketBudgetError as err:
            got, got_est, got_needed = err.best, None, err.required_n
        assert got_needed == needed
        assert got.width == pytest.approx(enc.width, rel=0, abs=2 * math.ulp(enc.hi))
        assert abs(got.mid - enc.mid) <= tol / 1000
        if needed is None:
            assert abs(got_est - est) <= tol / 1000


def moran_root(ratios):
    """s solving sum r**s = 1, from brentq."""
    return brentq(lambda s: sum(r ** s for r in ratios) - 1.0, 0.0, 10.0, xtol=1e-15)


class TestCoupledEstimate:
    """The estimate moves beta and one Perron iterate together, and stops
    once Collatz-Wielandt ends certify a bracket of the 'mid' zero at most
    tol * 2**-10 wide."""

    PERIOD2 = similarity_system([0.5, 0.4], incidence=[[0, 1], [1, 0]])
    # two classes of symbols, {1, 2} and {3, 4}; 2 -> 3 leaves the first
    TWO_CLASSES = similarity_system([0.3, 0.4, 0.35, 0.45],
                                    incidence=[[1, 1, 1, 0], [1, 1, 0, 0],
                                               [0, 0, 1, 1], [0, 0, 1, 1]])
    MOD_J = potentials.mod_cycle([[0, 1], [0, 0, 1]])

    @pytest.mark.parametrize("sysd,N,q", [
        (similarity_system([0.5], offsets=[0.0]), 1, 1),
        (PERIOD2, 2, 2),
        (PERIOD2, 2, 6),
    ], ids=["one-map", "period-2", "period-2-window6"])
    def test_zero_at_the_floor(self, sysd, N, q):
        """One map, and two maps that must alternate: the pressure is 0 at
        the floor, where the estimate lands exactly, and the enclosure
        starts there."""
        transfer = WindowTransfer(sysd, J0, N, q)
        enc, est = certified_pressure_zero(transfer, np.zeros(1), 1e-9)
        assert est == BETA_FLOOR == enc.lo and enc.width <= 1e-9

    def test_root_errors_keep_their_messages(self):
        """A pressure already negative at the floor (cf2 at window 4 with
        J = -5), and one that no doubling of ROOT_HI_HINT turns negative
        (two maps with J = 1 at t = 1e30), raise the errors of
        :func:`_sign_bracket` in its words, from a certified zero and a
        stage root alike."""
        low = (CF2, potentials.from_table({1: [-5.0], 2: [-5.0]}), 4)
        high = (similarity_system([0.5, 0.4]),
                potentials.from_table({1: [1.0], 2: [1.0]}), 1)
        for (sysd, J, q), t, message in (
                (low, np.ones(1), "pressure already negative at beta=0.0; "
                                  "the zero lies below the supported domain"),
                (high, np.array([1e30]), "pressure never becomes negative")):
            transfer = WindowTransfer(sysd, J, 2, q)
            kern = PressureKernel(sysd, J, n=8, N=2, window=q)
            for solve in (lambda: certified_pressure_zero(transfer, t, 1e-6),
                          lambda: anchored_pressure_root(kern, t)):
                with pytest.raises(BracketBudgetError) as err:
                    solve()
                assert str(err.value) == message

    @pytest.mark.parametrize("case", [
        (TWO_CLASSES, J0, 4, 4, (0.0,), 1e-9),
        (similarity_system([0.3, 0.4, 0.5]), J0, 3, 1, (0.0,), 1e-12),
        (truncated_cf_system(3), MOD_J, 3, 6, (0.3, -0.2), 0.05),
    ], ids=["two-classes", "window-1", "mod-cycle-t"])
    def test_edge_case_matches_full_precision_solve(self, monkeypatch, case):
        """A reducible incidence whose two classes carry their own zeros
        (the larger one is the pressure's), window 1, which has no states
        and takes no Perron step, and a mod-cycle beta at t != 0: the
        enclosure is the full-precision solve's, and its estimate lies
        within tol/1000 of that one's."""
        sysd, J, N, q, t, tol = case
        t = np.asarray(t, dtype=float)
        enc, est, _ = full_precision_zero(WindowTransfer(sysd, J, N, q), t, tol)
        steps = counted_steps(monkeypatch)
        got, got_est = certified_pressure_zero(WindowTransfer(sysd, J, N, q), t, tol)
        assert got.width == pytest.approx(enc.width, rel=0, abs=2 * math.ulp(enc.hi))
        assert abs(got_est - est) <= tol / 1000
        if q == 1:
            assert steps[0] == 0
        if J is J0:
            ratios = sysd.family.ratios
            root = (max(moran_root(ratios[:2]), moran_root(ratios[2:])) if N == 4
                    else moran_root(ratios))
            assert root in got.padded(1e-12)


class TestTheta:
    def test_finite_alphabet_zero(self):
        th = estimate_theta(SIM_HALF)
        assert th.determined
        assert th.enclosure.lo == th.enclosure.hi == 0.0

    def test_cf_weight_rule_half(self):
        th = estimate_theta(moebius_cf_system())
        assert th.determined
        assert 0.5 in th.enclosure
        assert th.enclosure.width <= 1e-9

    def test_cubic_rule_third(self):
        # oracle: sum k^(-3 beta) flips between divergence and convergence
        # around beta = 1/3 by the integral test
        ks = np.arange(1, 200001, dtype=float)
        assert (ks ** (-3 * (1 / 3 + 0.05))).sum() < 8.0
        assert (ks ** (-3 * (1 / 3 - 0.05))).sum() > 10.0
        sysd = SystemDescriptor(
            moebius_cf_system().graph, moebius_cf_system().incidence,
            moebius_cf_system().family, tail_rule=TailRule(exponent=3.0))
        th = estimate_theta(sysd)
        assert abs(th.enclosure.mid - 1 / 3) < 1e-9

    def test_no_rule_undetermined(self):
        bare = SystemDescriptor(moebius_cf_system().graph,
                                moebius_cf_system().incidence,
                                moebius_cf_system().family, tail_rule=None)
        th = estimate_theta(bare)
        assert not th.determined
        assert th.enclosure is None


class TestRegularity:
    def test_cf_cofinitely_regular(self):
        label, notes = classify_regularity(moebius_cf_system())
        assert label == "co-finitely-regular"

    def test_finite_irreducible_strongly_regular(self):
        label, notes = classify_regularity(SIM_THIRD)
        assert label == "strongly-regular"
        assert any("not applicable" in n for n in notes)

    def test_single_map_regular_only(self):
        label, _ = classify_regularity(similarity_system([0.5], offsets=[0.0]))
        assert label == "regular"

    def test_reducible_with_polynomial_word_count_regular(self):
        # n+1 words of length n: p(0) = 0, so the system is not strongly
        # regular although it has more than one word per length
        sys = similarity_system([0.5, 0.3], offsets=[0.0, 0.6],
                                incidence=[[1, 1], [0, 1]])
        label, notes = classify_regularity(sys)
        assert label == "regular"
        assert any("p(0) = 0" in n for n in notes)

    def test_nilpotent_incidence_rejected(self):
        # no infinite admissible word: the limit set is empty
        with pytest.raises(ValueError, match="nilpotent"):
            similarity_system([0.5, 0.3], offsets=[0.0, 0.6],
                              incidence=[[0, 1], [0, 0]])

    def test_golden_mean_p0_lower_bounds_limit_pressure(self):
        label, notes = classify_regularity(GOLDEN)
        assert label == "strongly-regular"
        note = next(n for n in notes if "lower=" in n)
        lower = float(note.split("lower=")[1].split(")")[0])
        # printed to 6 significant digits; p(0) = log(phi) = 0.4812118...
        log_phi = math.log((1 + math.sqrt(5)) / 2)
        assert log_phi - 1e-6 < lower <= log_phi + 5e-7

    def test_report_dimension_above_theta(self):
        rep = thermo_report(CF2, 10, tol=1e-4)
        assert rep.hausdorff_dim.hi >= (rep.theta.lo if rep.theta else 0.0)
        assert rep.regularity == "strongly-regular"

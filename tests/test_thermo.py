import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cgdms import potentials
from cgdms.errors import BracketBudgetError
from cgdms.kernel import PressureKernel, WindowTransfer
from cgdms.system import (SystemDescriptor, TailRule, moebius_cf_system,
                          similarity_system, truncated_cf_system)
from cgdms.thermo import (BETA_FLOOR, ROOT_HI_HINT, ROOT_XTOL, PressureQuery,
                          anchored_pressure_root, bowen_dimension,
                          certified_pressure_zero, classify_regularity,
                          estimate_theta, pressure_bracket, thermo_report)

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
        hull = CF2.hull(2)
        for beta, n in ((1.0, 6), (0.5, 5), (0.0, 4)):
            lo, hi = oracle_cf_pressure(2, n, beta, hull)
            br = pressure_bracket(CF2, J0, query(beta, n, 2))
            assert br.lower == pytest.approx(lo, abs=1e-12)
            assert br.upper == pytest.approx(hi, abs=1e-12)

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
        for window in (2, 3, 4):
            kern_dp = PressureKernel(CF2, J0, n=8, N=2, window=window)
            kern_ex = PressureKernel(CF2, J0, n=8, N=2, window=8)
            assert kern_ex.mode == "enumerate" and kern_dp.mode == "dp"
            for beta in (0.3, 0.8):
                dlo, dhi = kern_dp.values(np.zeros(1), beta)
                elo, ehi = kern_ex.values(np.zeros(1), beta)
                assert dlo <= elo + 1e-12
                assert dhi >= ehi - 1e-12

    def test_dp_respects_markov_incidence(self):
        # gated transitions: the golden-mean shift over two similarities
        gated = similarity_system([0.4, 0.4], offsets=[0.0, 0.6],
                                  incidence=[[1, 1], [1, 0]])
        kern_ex = PressureKernel(gated, J0, n=10, N=2, window=10)
        kern_dp = PressureKernel(gated, J0, n=10, N=2, window=3)
        # zero-distortion family: dp and enumeration agree exactly, and
        # the count growth is the golden-mean word count
        lo, hi = kern_ex.values(np.zeros(1), 0.0)
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

    def test_budget_error_carries_best(self):
        with pytest.raises(BracketBudgetError) as err:
            bowen_dimension(CF2, 4, tol=1e-9)
        assert err.value.best is not None
        assert 0.5313 in err.value.best.padded(5e-3)
        assert err.value.required_n is not None


class TestRoot:
    """Each root solve evaluates the pressure at most once per beta."""

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
        # and brentq on that bracket gives the root bit for bit
        hi = max(betas)
        assert math.log2(hi / ROOT_HI_HINT).is_integer() and kern.value(self.T, hi) < 0.0
        assert root == brentq(lambda b: kern.value(self.T, b), BETA_FLOOR, hi,
                              xtol=ROOT_XTOL, maxiter=256)

    def test_limit_root_evaluates_each_beta_once(self):
        transfer = WindowTransfer(self.CF24, self.MOD_J, 24, 3)
        bound, mids = transfer.limit_bound, []

        def counting(t, b, side):
            if side == "mid":
                mids.append(b)
            return bound(t, b, side)

        transfer.limit_bound = counting
        enc, est = certified_pressure_zero(transfer, self.T, 0.2)
        assert len(mids) == len(set(mids))
        assert enc.lo <= est <= enc.hi


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

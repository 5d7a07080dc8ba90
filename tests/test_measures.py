import math

import mpmath
import numpy as np
import pytest

from cgdms import measures, potentials
from cgdms.config import build_system
from cgdms.errors import InvalidWordError
from cgdms.measures import (BernoulliSpec, Q_of_bernoulli, Q_of_periodic,
                            construct_generic_word, cylinder_mass,
                            semicontinuity_counterexample)
from cgdms.system import (moebius_cf_system, similarity_system,
                          truncated_cf_system)

LOG2 = math.log(2.0)
SIM = similarity_system([0.5, 0.5], offsets=[0.0, 0.5])
J01 = potentials.from_table({1: [0.0], 2: [1.0]})
CF = moebius_cf_system()
CF24 = truncated_cf_system(24)
MOD23_J = potentials.mod_cycle([[-1.0, 1.0], [0.0, 1.0, -1.0]])
CF_CUSTOM = build_system({"kind": "custom-1d", "map_expr": "1/(x+k)",
                          "abs_deriv_expr": "(x+k)^-2",
                          "contraction_bound": 0.5,
                          "contraction_prefactor": 2.0})

# closed-form cycle data: x* of the (1)-cycle solves x^2 + x - 1 = 0, and
# the per-period geometric sum is 2*log(x* + 1) = 2*log((sqrt5 + 1)/2);
# the (2,1)-cycle point solves 2x^2 + 2x - 1 = 0 with two-period sum
# 2*log(2 + sqrt3)
GOLDEN_I = 2.0 * math.log((math.sqrt(5.0) + 1.0) / 2.0)
CYCLE21_I = 2.0 * math.log(2.0 + math.sqrt(3.0))


class TestQOfPeriodic:
    def test_golden_cycle(self):
        summ = Q_of_periodic(CF, MOD23_J, (1,))
        assert summ.I_mean.lo <= GOLDEN_I <= summ.I_mean.hi
        assert summ.I_mean.width < 1e-12
        for e in summ.Q_value:
            assert abs(e.mid - 1.0 / GOLDEN_I) < 1e-10
        assert abs(1.0 / GOLDEN_I - 1.039) < 5e-4

    def test_similarity_half_cycle(self):
        summ = Q_of_periodic(SIM, J01, (2,))
        assert summ.Q_value[0].mid == pytest.approx(1.0 / LOG2, abs=1e-14)
        assert summ.I_mean.width == 0.0

    def test_cycle_two_one_closed_form(self):
        summ = Q_of_periodic(CF, MOD23_J, (2, 1))
        assert summ.I_mean.lo * 2 <= CYCLE21_I <= summ.I_mean.hi * 2
        assert summ.I_mean.width < 1e-12
        # potential values cancel over this period
        for e in summ.Q_value:
            assert abs(e.mid) < 1e-12

    def test_long_orbit_quotient_inside_enclosure(self):
        # empirical Birkhoff quotients over m periods stay in the enclosure
        J = potentials.from_table({1: [0.0], 2: [1.0], 3: [0.5]})
        summ = Q_of_periodic(truncated_cf_system(3), J, (2, 1))
        per_J = 1.0  # J(2) + J(1)
        for m in (1, 2, 5, 20, 100):
            quot = (m * per_J) / (m * CYCLE21_I)
            assert summ.Q_value[0].lo - 1e-12 <= quot <= summ.Q_value[0].hi + 1e-12

    def test_q_range_bound(self):
        bound = MOD23_J.bound
        for cycle in ((1,), (2,), (3, 1), (2, 2, 1)):
            summ = Q_of_periodic(CF, MOD23_J, cycle)
            inf_I = summ.I_mean.lo
            for e in summ.Q_value:
                assert max(abs(e.lo), abs(e.hi)) <= bound / inf_I + 1e-9

    def test_non_cyclable_rejected(self):
        gated = similarity_system([0.4, 0.4], offsets=[0.0, 0.6],
                                  incidence=[[1, 1], [0, 1]])
        with pytest.raises(InvalidWordError):
            Q_of_periodic(gated, J01, (1, 2))


def _heavy_log_sum(r, p):
    """mpmath value of the sum of 1/(k log(k+1)^2) over k = p*j + r, j >= 0.
    The terms with j < 2000 are summed exactly and the rest by
    Euler-Maclaurin, the integral after the substitution x = e^u; the
    extrapolations of ``mpmath.nsum`` miss this slowly converging series
    (by 0.11 and 0.014 at p = 1)."""
    with mpmath.workdps(30):
        def term(j):
            k = p * j + r
            return 1 / (k * mpmath.log(k + 1) ** 2)

        jc = 2000
        head = mpmath.fsum(term(j) for j in range(jc))
        x0 = mpmath.log(p * jc + r)
        # int_jc^inf term(j) dj = (1/p) int_{p*jc+r}^inf dx / (x log(x+1)^2)
        integral = mpmath.quad(lambda u: 1 / mpmath.log(mpmath.exp(u) + 1) ** 2,
                               [x0, 2 * x0, 100, mpmath.inf]) / p
        em = (term(jc) / 2 - mpmath.diff(term, jc, 1) / 12
              + mpmath.diff(term, jc, 3) / 720)
        return head + integral + em


class TestQOfBernoulli:
    def test_uniform_similarity_exact(self):
        spec = BernoulliSpec.finite({1: 0.5, 2: 0.5})
        summ = Q_of_bernoulli(SIM, J01, spec)
        assert summ.I_mean.lo == summ.I_mean.hi == pytest.approx(LOG2)
        assert summ.J_mean[0].mid == pytest.approx(0.5)
        assert summ.entropy == pytest.approx(LOG2, abs=1e-12)

    def test_degenerate_single_symbol_matches_periodic(self):
        spec = BernoulliSpec.finite({1: 1.0})
        summ = Q_of_bernoulli(CF, MOD23_J, spec)
        assert summ.I_mean.lo <= GOLDEN_I <= summ.I_mean.hi
        assert summ.entropy == 0.0

    def test_entropy_bounded_by_log_support(self):
        rng = np.random.default_rng(41)
        for size in (2, 4, 6):
            w = rng.random(size)
            w /= w.sum()
            # exact renormalization so the constructor's 1e-12 gate holds
            probs = {k + 1: float(p) for k, p in enumerate(w)}
            total = math.fsum(probs.values())
            probs = {k: p / total for k, p in probs.items()}
            spec = BernoulliSpec.finite(probs)
            exact = -math.fsum(p * math.log(p) for p in probs.values())
            assert spec.entropy == pytest.approx(exact, abs=1e-12)
            assert spec.entropy <= math.log(size) + 1e-12

    def test_heavy_rule_diverges_and_contains_zero(self):
        spec = BernoulliSpec.named("heavy-log")
        summ = Q_of_bernoulli(CF, MOD23_J, spec)
        assert math.isinf(summ.I_mean.hi)
        assert summ.I_mean.lo > 0
        for e in summ.Q_value:
            assert e.lo <= 0.0 <= e.hi
        assert math.isinf(spec.entropy)

    def test_inverse_square_rule_finite(self):
        spec = BernoulliSpec.named("inverse-square")
        summ = Q_of_bernoulli(CF, MOD23_J, spec)
        assert math.isfinite(summ.I_mean.hi)
        assert 0 < summ.I_mean.lo < summ.I_mean.hi < 3.0

    def test_rule_branch_on_custom_family_matches_closed_form(self):
        """A custom family coding the CF maps reads the closed form's
        partial sums.  Past the cutoff, the exact sup I_k <= 2 log(k+1) is
        the CF family's alone: the custom one bounds sup I_k by its tail
        rule, 2 log k + log(D / c_lower), and without a rule by +inf."""
        spec = BernoulliSpec.named("inverse-square")
        K = 2000
        closed = Q_of_bernoulli(CF, MOD23_J, spec, rule_cutoff=K)
        tailed = build_system({"kind": "custom-1d", "map_expr": "1/(x+k)",
                               "abs_deriv_expr": "(x+k)^-2",
                               "contraction_bound": 0.5,
                               "contraction_prefactor": 2.0,
                               "distortion_constant": 4.0,
                               "tail": {"exponent": 2}})
        custom = Q_of_bernoulli(tailed, MOD23_J, spec, rule_cutoff=K)
        assert custom.J_mean == closed.J_mean
        assert custom.I_mean.lo == pytest.approx(closed.I_mean.lo, rel=1e-12)
        S = measures.BASEL_SUM
        cf_tail = 2.0 / S * (math.log(K + 1.0) / K + math.log(1.0 + 1.0 / K))
        rule_tail = (2.0 * (math.log(K) + 1.0) + math.log(4.0)) / (K * S)
        assert custom.I_mean.hi == pytest.approx(
            closed.I_mean.hi - cf_tail + rule_tail, rel=1e-12)
        untailed = Q_of_bernoulli(CF_CUSTOM, MOD23_J, spec, rule_cutoff=K)
        assert untailed.I_mean.lo == custom.I_mean.lo
        assert untailed.I_mean.hi == math.inf

    def test_rule_tail_follows_the_declared_tail_rule(self):
        """|phi_k'| = (k+1)^-3 has I_k = 3 log(k+1), above the CF bound
        2 log(k+1).  The enclosure holds the true mean: the partial sum to
        10^7 plus the integral test's tail range (mpmath.nsum misses this
        series by 4e-3)."""
        sysd = build_system({"kind": "custom-1d", "map_expr": "x*(k+1)^-3",
                             "abs_deriv_expr": "(k+1)^-3",
                             "contraction_bound": 0.125,
                             "tail": {"exponent": 3, "c_upper": 1,
                                      "c_lower": 0.125}})
        summ = Q_of_bernoulli(sysd, MOD23_J, BernoulliSpec.named("inverse-square"))
        K = 10 ** 7
        parts = []
        for a in range(1, K + 1, 10 ** 6):
            ks = np.arange(a, min(a + 10 ** 6, K + 1), dtype=float)
            parts.append(math.fsum((np.log(ks + 1.0) / ks ** 2).tolist()))
        part = math.fsum(parts)
        # sum_{k>K} log(k+1)/k^2 lies between the integrals from K+1 and K
        tail = lambda x: math.log(x + 1.0) / x + math.log(1.0 + 1.0 / x)
        S = measures.BASEL_SUM
        true_lo, true_hi = 3 * (part + tail(K + 1)) / S, 3 * (part + tail(K)) / S
        assert summ.I_mean.lo <= true_lo <= true_hi <= summ.I_mean.hi
        assert summ.I_mean.hi - true_hi < 1e-4

    def test_heavy_log_normalizer_bounds_the_series(self):
        """The masses 1/(k log(k+1)^2)/norm sum to at most 1, and by less
        than 1e-7 of slack."""
        exact = _heavy_log_sum(1, 1)
        norm = measures._heavy_norm()
        assert exact <= norm <= exact + 1e-7
        assert norm == pytest.approx(3.3877355, abs=1e-7)

    def test_heavy_log_J_enclosure_contains_the_mean(self):
        """J is -1 on the edges 1 mod 100 and 1 elsewhere, so the mass
        beyond the cutoff moves the mean by about the tail mass; the
        enclosure's tail_mass must cover it."""
        J = potentials.mod_cycle([[1.0, -1.0] + [1.0] * 98])
        exact = _heavy_log_sum(1, 1)
        mean = float(1 - 2 * _heavy_log_sum(1, 100) / exact)
        summ = Q_of_bernoulli(CF, J, BernoulliSpec.named("heavy-log"))
        assert summ.J_mean[0].lo <= mean <= summ.J_mean[0].hi, (summ.J_mean, mean)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            BernoulliSpec.finite({1: 0.5, 2: 0.6})
        with pytest.raises(ValueError):
            BernoulliSpec.finite({1: -0.1, 2: 1.1})


class TestGenericWord:
    def test_single_cycle_target_degenerates(self):
        target = Q_of_periodic(SIM, J01, (2, 1)).Q_value[0].mid
        rep = construct_generic_word(SIM, J01, [target],
                                     [2.0 ** -k for k in range(1, 8)],
                                     max_period=2, truncation=2)
        assert rep.status == "complete"
        assert len(rep.checkpoints) == 7
        for cp in rep.checkpoints:
            assert cp.error <= cp.epsilon

    def test_midpoint_target_alternating_blocks(self):
        target = 0.5 / LOG2
        rep = construct_generic_word(SIM, J01, [target],
                                     [2.0 ** -k for k in range(1, 7)],
                                     max_period=2, truncation=2)
        assert rep.status == "complete"
        errors = [cp.error for cp in rep.checkpoints]
        assert all(cp.error <= cp.epsilon for cp in rep.checkpoints)
        assert errors[-1] <= max(errors[0], 1e-12)

    def test_budget_caps_the_cycle_pool(self, monkeypatch):
        calls = []
        monkeypatch.setattr(measures, "Q_of_periodic",
                            lambda *a: calls.append(a) or Q_of_periodic(*a))
        construct_generic_word(SIM, J01, [0.5 / LOG2], [0.5], budget=1,
                               max_period=3, truncation=2)
        assert len(calls) == 1

    def test_unreachable_target_partial(self):
        rep = construct_generic_word(SIM, J01, [10.0], [0.5, 0.25],
                                     max_period=2, truncation=2)
        assert rep.status == "partial"
        assert rep.checkpoints == ()
        assert math.isinf(rep.achieved)


class TestCounterexample:
    def test_large_parameter_strict_gap(self):
        res = semicontinuity_counterexample(100.0, [1000, 10000, 100000])
        assert res.verdict == "strict-gap"
        for row in res.rows:
            assert row.I_lower >= 150.0
            assert not row.valid_probability  # log n < 100 here
        assert res.limit_I.hi <= 3.0

    def test_small_parameter_inconclusive(self):
        res = semicontinuity_counterexample(0.1, [1000, 10000])
        assert res.verdict == "inconclusive"
        for row in res.rows:
            assert row.valid_probability
            assert row.I_lower <= row.I_upper

    def test_valid_regime_rows_are_enclosures(self):
        # for moderate M and large n the vectors are genuine measures
        res = semicontinuity_counterexample(2.0, [50, 500, 5000])
        for row in res.rows:
            assert row.valid_probability
            assert row.I_lower <= row.I_upper
            # the top-symbol floor tracks 2M as n grows
            assert row.I_lower > 2.0 * 2.0 * 0.5

    def test_lower_floor_tracks_parameter(self):
        resA = semicontinuity_counterexample(3.0, [10 ** 6])
        resB = semicontinuity_counterexample(5.0, [10 ** 9])
        assert abs(resA.rows[0].I_lower - 2 * 3.0) < 2.5
        assert abs(resB.rows[0].I_lower - 2 * 5.0) < 2.5

    def test_cylinder_mass_converges(self):
        # fixed-cylinder masses approach the inverse-square limit at the
        # logarithmic rate set by c_n = 1 - M/log n
        for k in (1, 2, 5):
            limit = k ** -2.0 / (math.pi ** 2 / 6.0)
            errs = []
            for n in (10 ** 3, 10 ** 6, 10 ** 12):
                mass = cylinder_mass(2.0, n, k)
                c_n = 1.0 - 2.0 / math.log(n)
                assert mass == pytest.approx(c_n * limit, abs=1e-12)
                errs.append(abs(mass - limit))
            assert errs[2] < errs[1] < errs[0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            semicontinuity_counterexample(-1.0, [100])
        with pytest.raises(ValueError):
            semicontinuity_counterexample(1.0, [1])


class TestPotentialTable:
    def test_rows_are_the_symbol_values(self):
        tab = MOD23_J.table(7)
        assert tab.shape == (8, 2) and not tab[0].any()
        for k in range(1, 8):
            assert np.array_equal(tab[k], MOD23_J.value((k,)))

    def test_bound_violation_names_the_edge(self):
        J = potentials.depth1(lambda k: [0.5 * k], dim=1, bound=1.2)
        J.table(2)
        with pytest.raises(ValueError, match="edge 3 exceeds declared bound"):
            J.table(5)

    @pytest.mark.parametrize("J,N", (
        (MOD23_J, 50000), (potentials.zero(3), 7),
        (potentials.constant([0.5, -2.0]), 7),
        (potentials.from_table({1: [0.25, -0.0], 2: [-1.5, 3.0], 3: [0.1, 0.2]}), 3)),
        ids=("mod-cycle", "zero", "constant", "from-table"))
    def test_array_path_equals_the_edge_loop(self, J, N):
        loop = np.reshape([J.eval((k,)) for k in range(1, N + 1)], (N, J.dim))
        tab = J.table(N)[1:]
        assert J.eval_edges is not None
        assert np.array_equal(tab, loop)
        assert np.array_equal(np.signbit(tab), np.signbit(loop))

    def test_undeclared_table_edge_is_named(self):
        J = potentials.from_table({1: [0.0], 3: [1.0]})
        J.table(1)
        with pytest.raises(InvalidWordError, match="edge 2"):
            J.table(3)
        with pytest.raises(InvalidWordError, match="edge 3"):
            J01.table(4)

    def test_malformed_table_rejected(self):
        with pytest.raises(ValueError, match="length 1, not 2"):
            potentials.from_table({1: [0.0, 1.0], 2: [1.0]})
        with pytest.raises(ValueError, match="edge 0"):
            potentials.from_table({0: [0.0], 1: [1.0]})

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cgdms import measures, multifractal, potentials
from cgdms.multifractal import (FD_HESS_STEP, BetaSolver, estimate_KL, estimate_M,
                                grad_beta, hessian_beta,
                                independence_certificate, legendre,
                                solve_beta, spectrum_scan)
from cgdms.system import similarity_system, truncated_cf_system
from cgdms.thermo import bowen_dimension

LOG2 = math.log(2.0)
SIM = similarity_system([0.5, 0.5], offsets=[0.0, 0.5])
J01 = potentials.from_table({1: [0.0], 2: [1.0]})
CF2 = truncated_cf_system(2)
CF24 = truncated_cf_system(24)
MOD23_J = potentials.mod_cycle([[-1.0, 1.0], [0.0, 1.0, -1.0]])
J2 = potentials.depth_m(
    lambda w: [0.3 * (w[0] - w[1]) + 0.1 * w[0] * w[1],
               0.2 * (w[0] == w[1]) - 0.1 * w[1]],
    dim=2, depth=2, bound=5.0)


def beta_exact(t):
    """Closed form for the two-map half-ratio system with J = (0, 1)."""
    return math.log(1.0 + math.exp(t)) / LOG2


def beta_prime_exact(t):
    return math.exp(t) / ((1.0 + math.exp(t)) * LOG2)


class TestSolveBeta:
    @pytest.mark.parametrize("t", [-3.0, -1.0, 0.0, 0.5, 2.0, 3.0])
    def test_similarity_closed_form(self, t):
        bp = solve_beta(SIM, J01, (t,), 1e-8, n=24)
        assert abs(bp.estimate - beta_exact(t)) < 1e-10
        assert beta_exact(t) in bp.beta
        assert bp.beta.width <= 1e-8

    def test_beta_zero_equals_bowen(self):
        bp = solve_beta(CF2, potentials.zero(1), (0.0,), 1e-4, n=12)
        bw = bowen_dimension(CF2, 12, tol=1e-4)
        assert abs(bp.estimate - bw.estimate) < 1e-6
        assert bp.beta.lo <= bw.enclosure.hi and bw.enclosure.lo <= bp.beta.hi

    def test_golden_mean_markov_at_zero(self):
        golden = similarity_system([0.5, 0.5], offsets=[0.0, 0.5],
                                   incidence=[[1, 1], [1, 0]])
        exact = math.log((1 + math.sqrt(5)) / 2) / LOG2
        bp = solve_beta(golden, J01, (0.0,), 1e-8, n=24)
        assert abs(bp.estimate - exact) < 1e-10
        assert exact in bp.beta
        assert bp.beta.width <= 1e-8

    def test_solver_decides_the_certification_window(self):
        """With a solver, n and window of the call are not read: the
        enclosure comes from the solver's certifying kernel."""
        cf3 = truncated_cf_system(3)
        s = BetaSolver(cf3, MOD23_J, n=10, window=3)
        bp = solve_beta(cf3, MOD23_J, (0.0, 0.0), 0.05, n=24, window=5, solver=s)
        assert (bp.window, bp.stages, bp.truncation) == (3, 10, 3)
        assert s.certifier().window == 3

    def test_depth_two_window_one_is_window_two(self):
        """The certifying transfer clamps window 1 up to the potential
        depth, as the stage kernel does, and certifies what window 2 does."""
        cf3 = truncated_cf_system(3)
        one = solve_beta(cf3, J2, (0.2, -0.1), 0.1, n=10, window=1)
        assert one == solve_beta(cf3, J2, (0.2, -0.1), 0.1, n=10, window=2)
        assert one.window == 2

    def test_gibbs_means_reported(self):
        bp = solve_beta(SIM, J01, (0.0,), 1e-8, n=24)
        jmean, imean = bp.gibbs_means
        assert jmean[0] == pytest.approx(0.5, abs=1e-12)
        assert imean == pytest.approx(LOG2, abs=1e-12)


class TestGradBeta:
    def test_closed_form_derivative_at_zero(self):
        gr = grad_beta(SIM, J01, (0.0,), 1e-6, n=24)
        assert gr.primary[0] == pytest.approx(beta_prime_exact(0.0), abs=1e-10)
        assert not gr.flagged

    @pytest.mark.parametrize("t", [-2.0, 1.0])
    def test_closed_form_derivative(self, t):
        gr = grad_beta(SIM, J01, (t,), 1e-6, n=24)
        assert gr.primary[0] == pytest.approx(beta_prime_exact(t), abs=1e-8)

    def test_estimators_cross_check(self):
        gr = grad_beta(CF24, MOD23_J, (0.0, 0.0), 1e-4, n=10)
        for g, f in zip(gr.gibbs, gr.finite_diff):
            assert abs(g - f) < 1e-6

    def test_symmetric_system_zero_gradient(self):
        # two identical maps, potential antisymmetric under swapping them
        J_anti = potentials.from_table({1: [-1.0], 2: [1.0]})
        gr = grad_beta(SIM, J_anti, (0.0,), 1e-8, n=24)
        assert abs(gr.primary[0]) < 1e-12

    @pytest.mark.parametrize("sys, n, window", [
        (truncated_cf_system(3), 12, 4),   # dp mode
        (CF2, 8, None),                    # enumerate mode
    ], ids=("cf3-dp", "cf2-enumerate"))
    def test_depth_two_potential_not_flagged(self, sys, n, window):
        # the Gibbs quotient differentiates the trailing windows too
        gr = grad_beta(sys, J2, (0.7, -0.4), 1e-6, n=n, window=window)
        assert not gr.flagged, (gr.gibbs, gr.finite_diff)


class TestHessianBeta:
    def test_closed_form_second_derivative(self):
        hs = hessian_beta(SIM, J01, (0.0,), n=24)
        assert hs.matrix[0][0] == pytest.approx(0.25 / LOG2, abs=1e-5)
        assert hs.positive_definite

    def test_constant_potential_degenerate(self):
        Jc = potentials.constant([0.7])
        hs = hessian_beta(SIM, Jc, (0.0,), n=24)
        assert abs(hs.matrix[0][0]) < 1e-7
        assert not hs.positive_definite

    def test_mod_table_positive_definite(self):
        hs = hessian_beta(CF24, MOD23_J, (0.0, 0.0), n=10)
        assert hs.positive_definite
        H = np.array(hs.matrix)
        assert np.allclose(H, H.T)

    def test_hessian_differences_the_exact_gradient(self, monkeypatch):
        """A fresh solver's Hessian solves one root, at t, and takes 2d
        moment passes away from t (the 2d^2+1-root second differences of the
        root took 9 roots at d=2), and agrees with those second differences."""
        t = np.array([0.3, -0.2])
        roots, points = [], []
        anchored = multifractal.anchored_pressure_root

        def counting_root(*args):
            roots.append(1)
            return anchored(*args)

        monkeypatch.setattr(multifractal, "anchored_pressure_root", counting_root)
        fresh = BetaSolver(CF24, MOD23_J, n=10, window=3)
        moments = fresh.kern.moments

        def counting_moments(tt, beta):
            points.append(tuple(tt))
            return moments(tt, beta)

        fresh.kern.moments = counting_moments
        H = fresh.hessian(t)
        assert len(roots) == 1
        assert len([p for p in points if p != tuple(t)]) == 4
        assert np.array_equal(H, H.T)

        # the second-difference root stencil the Hessian replaced
        solver = BetaSolver(CF24, MOD23_J, n=10, window=3)
        h = FD_HESS_STEP * max(1.0, float(np.abs(t).max()))
        e = h * np.eye(2)
        b = lambda v: solver.root(t + v)
        H_old = np.empty((2, 2))
        for i in range(2):
            H_old[i, i] = (b(e[i]) + b(-e[i]) - 2 * b(0 * e[i])) / h ** 2
        H_old[0, 1] = H_old[1, 0] = (b(e[0] + e[1]) - b(e[0] - e[1])
                                     - b(-e[0] + e[1]) + b(-e[0] - e[1])) / (4 * h ** 2)
        assert np.abs(H - H_old).max() < 1e-5

    def test_second_hessian_is_memoized(self):
        solver = BetaSolver(CF24, MOD23_J, n=10, window=3)
        H = solver.hessian((0.3, -0.2))
        calls = []
        for name in ("value", "values", "bound", "moments"):
            setattr(solver.kern, name, lambda *a, name=name: calls.append(name))
        assert solver.hessian(np.array([0.3, -0.2])) is H
        assert calls == []
        assert not H.flags.writeable

    def test_two_dim_similarity_closed_form(self):
        """Three similarities with a 2-D table potential: beta solves the
        Moran equation sum_k exp(<t, J_k>) r_k**beta = 1, and its Hessian,
        off-diagonal term included, is the central difference of the
        closed-form gradient sum_k w_k J_k / sum_k w_k (-log r_k)."""
        r = np.array([0.5, 0.3, 0.15])
        Jk = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        sim3 = similarity_system(r.tolist(), offsets=[0.0, 0.5, 0.85])
        J = potentials.from_table({k + 1: v for k, v in enumerate(Jk.tolist())})

        def grad(t):
            beta = brentq(lambda b: np.exp(Jk @ t) @ r ** b - 1.0, 0.0, 10.0,
                          xtol=1e-15)
            w = np.exp(Jk @ t) * r ** beta
            return w @ Jk / (w @ -np.log(r))

        t, h = np.array([0.4, -0.3]), 1e-4
        H_ref = np.array([grad(t + e) - grad(t - e) for e in h * np.eye(2)]) / (2 * h)
        H = BetaSolver(sim3, J, n=8).hessian(t)
        assert abs(H_ref[0, 1]) > 0.01
        assert np.abs(H - H_ref).max() < 1e-5


class TestIndependence:
    def test_mod_table_cycles_independent(self):
        cert = independence_certificate(CF24, MOD23_J, [(1,), (2,), (3,)])
        assert cert.status == "independent"
        assert cert.rows == ((1.0, 1.0), (-1.0, -1.0), (1.0, 0.0))

    def test_proportional_components_witness(self):
        J2 = potentials.depth1(lambda k: [1.0 if k % 2 else -1.0,
                                          2.0 if k % 2 else -2.0],
                               dim=2, bound=2.0)
        cert = independence_certificate(CF24, J2, [(1,), (2,), (3,)])
        assert cert.status == "dependent-witness"
        w = np.array(cert.witness)
        # annihilator of (x, 2x) rows is proportional to (2, -1)
        assert abs(w[0] / w[1] + 2.0) < 1e-9

    def test_constant_scalar_dependent_direction(self):
        Jc = potentials.constant([1.0])
        cert = independence_certificate(CF24, Jc, [(1,), (2,), (3,)])
        assert cert.status in ("dependent-witness", "inconclusive")
        assert cert.rank == 0

    def test_two_cycles_inconclusive_in_dim_two(self):
        cert = independence_certificate(CF24, MOD23_J, [(1,), (3,)])
        assert cert.status == "inconclusive"

    def test_non_cyclable_word_rejected(self):
        from cgdms.errors import InvalidWordError
        from cgdms.system import similarity_system
        base = similarity_system([0.4, 0.4], offsets=[0.0, 0.6],
                                 incidence=[[1, 1], [0, 1]])
        with pytest.raises(InvalidWordError):
            independence_certificate(base, J01, [(2, 1)])

    def test_cycle_null_shift_leaves_rows_unchanged(self):
        # adding a two-symbol telescoping increment keeps every cycle sum
        rng = np.random.default_rng(31)
        h = {k: rng.normal() for k in range(1, 25)}

        def shifted(w):
            base = MOD23_J.value((w[0],))
            return base + np.array([h[w[0]] - h[w[1]], 0.0])

        J_shift = potentials.depth_m(shifted, dim=2, depth=2, bound=10.0)
        c1 = independence_certificate(CF24, MOD23_J, [(1,), (2,), (3,)])
        c2 = independence_certificate(CF24, J_shift, [(1,), (2,), (3,)])
        assert np.allclose(np.array(c1.rows), np.array(c2.rows), atol=1e-12)
        assert c2.status == "independent"


class TestLegendre:
    def test_at_gradient_of_zero(self):
        solver = BetaSolver(SIM, J01, n=24)
        a0 = solver.grad(np.zeros(1))
        sp = legendre(SIM, J01, a0, 1e-8, n=24)
        assert sp.status == "interior"
        assert sp.beta_hat == pytest.approx(beta_exact(0.0), abs=1e-8)
        assert abs(sp.minimizer_t[0]) < 1e-6

    def test_closed_form_inversion(self):
        alpha = 0.25
        u = alpha * LOG2
        tstar = math.log(u / (1 - u))
        expected = beta_exact(tstar) - tstar * alpha
        sp = legendre(SIM, J01, (alpha,), 1e-9, n=24)
        assert sp.status == "interior"
        assert sp.beta_hat == pytest.approx(expected, abs=1e-8)
        assert sp.minimizer_t[0] == pytest.approx(tstar, abs=1e-5)

    def test_outside_value_is_minus_infinity(self):
        sp = legendre(SIM, J01, (5.0,), 1e-6, n=24)
        assert sp.status == "outside"
        assert sp.beta_hat == -math.inf
        sp2 = legendre(CF24, MOD23_J, (10.0, 10.0), 1e-6, n=10)
        assert sp2.status == "outside"

    def test_duality_identity(self):
        solver = BetaSolver(SIM, J01, n=24)
        for alpha in (0.3, 0.7, 1.0):
            sp = legendre(SIM, J01, (alpha,), 1e-9, n=24)
            assert sp.status == "interior"
            t = np.array(sp.minimizer_t)
            lhs = solver.root(t)
            rhs = sp.beta_hat + float(t[0]) * alpha
            assert abs(lhs - rhs) < 2e-9

    def test_envelope_bounds(self):
        hd = solve_beta(SIM, J01, (0.0,), 1e-8, n=24).estimate
        for alpha in (0.2, 0.6, 1.1):
            sp = legendre(SIM, J01, (alpha,), 1e-9, n=24)
            assert sp.status == "interior"
            assert -1e-9 <= sp.beta_hat <= hd + 1e-9

    def test_spectrum_concavity_along_line(self):
        alphas = np.linspace(0.2, 1.2, 9)
        pts, _ = spectrum_scan(SIM, J01, [(a,) for a in alphas], 1e-9, n=24)
        vals = [p.beta_hat for p in pts]
        for i in range(1, len(vals) - 1):
            assert vals[i] >= 0.5 * (vals[i - 1] + vals[i + 1]) - 1e-8

    def test_maximum_at_dimension(self):
        solver = BetaSolver(SIM, J01, n=24)
        a0 = float(solver.grad(np.zeros(1))[0])
        alphas = sorted(set(np.linspace(0.15, 1.25, 11).tolist() + [a0]))
        pts, _ = spectrum_scan(SIM, J01, [(a,) for a in alphas], 1e-9, n=24)
        best = max(pts, key=lambda p: p.beta_hat)
        assert best.alpha[0] == pytest.approx(a0, abs=1e-9)
        assert best.beta_hat == pytest.approx(1.0, abs=1e-8)

    def test_empty_grid(self):
        pts, surface = spectrum_scan(SIM, J01, [], 1e-6, n=24,
                                     t_grid=[(0.0,), (1.0,)])
        assert pts == []
        assert len(surface) == 2

    def test_concavity_and_envelope_in_dim_two(self):
        # collinear interior targets: midpoint concavity of the conjugate
        # and the dimension envelope
        solver = BetaSolver(CF24, MOD23_J, n=10)
        hd = solver.root(np.zeros(2))
        center = solver.grad(np.zeros(2))
        direction = np.array([0.08, -0.05])
        vals = []
        for s in (-1.0, 0.0, 1.0):
            a = center + s * direction
            sp = legendre(CF24, MOD23_J, a, 1e-8, n=10)
            assert sp.status == "interior"
            assert -1e-9 <= sp.beta_hat <= hd + 1e-9
            vals.append(sp.beta_hat)
        assert vals[1] >= 0.5 * (vals[0] + vals[2]) - 1e-8

    def test_degenerate_potential_flagged_non_convex(self):
        sp = legendre(SIM, potentials.constant([0.5]), (0.4,), 1e-6,
                      n=16, max_iter=10)
        assert "non-strictly-convex" in sp.flags
        assert sp.status == "unresolved"
        sp_ok = legendre(SIM, J01, (0.5,), 1e-6, n=24)
        assert sp_ok.flags == ()


class TestEstimateM:
    def test_similarity_interval_range(self):
        grid = [(t,) for t in np.linspace(-6, 6, 13)]
        res = estimate_M(SIM, J01, grid, tol=1e-6, n=24)
        grads = [g[0] for _, g in res.points]
        assert all(0.0 < g < 1.0 / LOG2 for g in grads)
        # the range endpoints are approached but not attained
        assert min(grads) < 0.01 and max(grads) > 1.0 / LOG2 - 0.01

    def test_mod_table_zero_in_M(self):
        grid = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]
        res = estimate_M(CF24, MOD23_J, grid, tol=1e-6, n=10)
        assert res.zero_in_M
        assert res.grad_norm <= 1e-6
        assert not res.degenerate

    def test_minimizer_is_legendre_at_zero(self):
        grid = [(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
        res = estimate_M(CF24, MOD23_J, grid, tol=1e-6, n=10, window=3)
        sp = legendre(CF24, MOD23_J, (0.0, 0.0), 1e-6,
                      solver=BetaSolver(CF24, MOD23_J, n=10, window=3))
        assert sp.status == "interior"
        assert res.minimizer == sp.minimizer_t
        assert res.grad_norm == sp.grad_error
        assert res.beta_min == sp.beta_hat

    def test_zero_potential_degenerate(self):
        res = estimate_M(SIM, potentials.zero(1), [(0.0,), (1.0,)],
                         tol=1e-6, n=12)
        assert res.degenerate
        assert not res.zero_in_M


class TestEstimateKL:
    def test_similarity_cycle_endpoints(self):
        res = estimate_KL(SIM, J01,
                          bernoulli_specs=[measures.BernoulliSpec.finite(
                              {1: 0.5, 2: 0.5})],
                          cycles=[(1,), (2,), (1, 2)])
        k = dict(zip([(1,), (2,), (1, 2)], res.K_points))
        assert k[(2,)][0] == pytest.approx(1.0 / LOG2, abs=1e-10)
        assert k[(1,)][0] == pytest.approx(0.0, abs=1e-12)
        assert res.inclusion["K_inside"]

    def test_mod_table_inclusion(self):
        from cgdms.symbolic import enumerate_words

        solver = BetaSolver(CF24, MOD23_J, n=10)
        m_pts = [tuple(solver.grad(np.array(t)).tolist())
                 for t in [(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (0.0, 1.0),
                           (-1.0, 1.0), (1.0, -1.0), (0.0, 0.0)]]
        # short cycles plus single-symbol runs: gradients near the boundary
        # of the range are only hulled once heavily concentrated orbits are
        # sampled
        cycles = [tuple(w) for p in (1, 2, 3)
                  for w in enumerate_words(CF24.incidence, p, 6)]
        for k in (5, 10, 20):
            cycles += [(1,) * k + (3,), (2,) * k + (6,), (1,) * k + (2,),
                       (2,) * k + (1,), (3,) * k + (1,), (4,) * k + (1,)]
        res = estimate_KL(CF24, MOD23_J,
                          bernoulli_specs=[measures.BernoulliSpec.finite(
                              {k: 1 / 6 for k in range(1, 7)})],
                          cycles=cycles, m_points=m_pts, hull_pad=1e-6)
        assert res.inclusion["M_inside"]
        assert res.inclusion["K_inside"]

    def test_uniform_bernoulli_inside_gradient_hull(self):
        # the quotient of the equidistribution on {1..6} falls inside the
        # hull of sampled gradient points
        from scipy.spatial import ConvexHull

        solver = BetaSolver(CF24, MOD23_J, n=10)
        grid = [(a, b) for a in (-2.0, 0.0, 2.0) for b in (-2.0, 0.0, 2.0)]
        m_pts = np.array([solver.grad(np.array(t)) for t in grid])
        q = measures.Q_of_bernoulli(
            CF24, MOD23_J,
            measures.BernoulliSpec.finite({k: 1 / 6 for k in range(1, 7)}))
        qmid = np.append(np.array([e.mid for e in q.Q_value]), 1.0)
        hull = ConvexHull(m_pts)
        assert (hull.equations @ qmid <= 1e-9).all()

"""The implicit pressure-zero surface beta(t), its Legendre transform, and
the attainable value sets of Birkhoff quotients.

beta(t) is the zero in beta of the pressure of <t,J> - beta*I.  Enclosures
bracket the limit pressure with the window transfer matrix; roots,
gradients, Hessians and Newton steps come from one :class:`BetaSolver`
over the anchored stage-n value P, whose exact gradient is the weighted
word-sum quotient.  The Hessian needs no root beyond the one at t: the
implicit-function identity turns it into differences of the gradient of
P along the tangent directions of the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BracketBudgetError
from .kernel import PressureKernel, WindowTransfer
from .potentials import PotentialVector, cycle_birkhoff
from .symbolic import closed_cycle, enumerate_cycles
from .system import SystemDescriptor
from .thermo import anchored_pressure_root, certified_pressure_zero, estimate_theta
from .util import Enclosure

ARMIJO_C = 1e-4
BACKTRACK = 0.5
FD_GRAD_STEP = 1e-4
FD_HESS_STEP = 5e-3
DEFAULT_STAGES = 128
PD_TOL = 1e-8          # smallest Hessian eigenvalue counted as positive
ESCAPE_NORM = 256.0    # |t| past which a stalled objective is a boundary limit
# independence certificate: relative rank cutoff, and the short cycles a
# dependence witness must annihilate to within VERIFY_TOL
RANK_TOL = 1e-9
PROBE_PERIOD = 3
PROBE_TRUNCATION = 8
VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class BetaPoint:
    """One certified sample of the pressure-zero surface."""

    t: tuple
    beta: Enclosure
    estimate: float
    gibbs_means: Optional[tuple] = None  # (J mean vector, I mean)
    stages: int = 0
    window: int = 0
    truncation: int = 0
    flags: tuple = ()


@dataclass(frozen=True)
class SpectrumPoint:
    """Legendre-transform sample at one target quotient value."""

    alpha: tuple
    beta_hat: float
    minimizer_t: Optional[tuple]
    status: str  # interior | boundary-limit | outside | unresolved
    grad_error: float = math.nan
    iterations: int = 0
    flags: tuple = ()


@dataclass(frozen=True)
class GradResult:
    primary: tuple        # the Gibbs-quotient gradient
    finite_diff: tuple
    flagged: bool
    beta_estimate: float
    gibbs_means: tuple

    @property
    def gibbs(self) -> tuple:
        """The Gibbs-quotient gradient: another name for ``primary``."""
        return self.primary


@dataclass(frozen=True)
class HessianResult:
    matrix: tuple
    eigenvalues: tuple
    positive_definite: bool


@dataclass(frozen=True)
class CertificateResult:
    status: str  # independent | dependent-witness | inconclusive
    witness: Optional[tuple]
    rank: int
    rows: tuple


@dataclass(frozen=True)
class MEstimate:
    points: tuple          # ((t, grad), ...)
    zero_in_M: bool
    minimizer: Optional[tuple]
    grad_norm: float
    beta_min: float
    degenerate: bool
    notes: tuple = ()


@dataclass(frozen=True)
class KLEstimate:
    L_points: tuple
    K_points: tuple
    inclusion: dict


def _key(t) -> tuple:
    """The memo key of a point t: its coordinates as a tuple of floats."""
    return tuple(np.atleast_1d(np.asarray(t, dtype=float)).tolist())


class BetaSolver:
    """The one root/gradient/Hessian engine of the multifractal layer.

    Roots, exact gradients and Hessians are memoized per t; the Hessian
    takes the root and moment pass of the gradient at t plus 2d moment
    passes at nearby (t, beta), and no further root.  The solver also owns
    the window transfer that certifies beta.  Differentiation steps are
    pinned constants so results are reproducible.
    """

    def __init__(self, sys: SystemDescriptor, J: PotentialVector, *,
                 n: int = DEFAULT_STAGES, N: Optional[int] = None,
                 window: Optional[int] = None):
        self.sys, self.J, self._window = sys, J, window
        self.kern = PressureKernel(sys, J, n=n, N=N, window=window)
        self._limit: Optional[WindowTransfer] = None
        self._cache: dict = {}
        self._grads: dict = {}
        self._hess: dict = {}

    def certifier(self) -> WindowTransfer:
        """The window transfer whose bracket certifies beta, at the window
        of :meth:`~cgdms.kernel.WindowTransfer.window_at` (``window``, or
        the choice of refinement level n): the stage kernel's own transfer
        when it runs dp at that window, else one built on first use."""
        if self._limit is None:
            kern, own = self.kern, self.kern.transfer
            q = WindowTransfer.window_at(self.sys, self.J, kern.N, kern.n, self._window)
            self._limit = (own if own is not None and own.window == q
                           else WindowTransfer(self.sys, self.J, kern.N, q))
        return self._limit

    def root(self, t) -> float:
        """beta solving the anchored stage pressure at t.

        The starting bracket is fixed rather than warm-started so that
        results cannot depend on call order.
        """
        key = _key(t)
        if key not in self._cache:
            self._cache[key] = anchored_pressure_root(self.kern, np.asarray(key))
        return self._cache[key]

    def grad(self, t) -> np.ndarray:
        """Weighted word-sum quotient: the exact gradient of the anchored
        stage root at t."""
        return self.grad_with_means(t)[0]

    def grad_with_means(self, t):
        """(gradient, root, (J mean, I mean)) at t, from one moment pass
        per t; the arrays are shared with the memo and read-only."""
        key = _key(t)
        if key not in self._grads:
            beta = self.root(key)
            _, jq, iq = self.kern.moments(np.asarray(key), beta)
            g = jq / iq
            g.flags.writeable = jq.flags.writeable = False
            self._grads[key] = (g, beta, (jq, iq))
        return self._grads[key]

    def fd_grad(self, t) -> np.ndarray:
        """Central differences of the root with step FD_GRAD_STEP: the
        audit estimate of :meth:`grad`."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        h = FD_GRAD_STEP * max(1.0, float(np.abs(t).max()))
        return np.array([self.root(t + e) - self.root(t - e)
                         for e in h * np.eye(t.size)]) / (2 * h)

    def hessian(self, t) -> np.ndarray:
        """Hessian of the anchored stage root at t, with no root solve
        beyond the memoized one at t.

        P(t, beta(t)) = 0 differentiated twice along u_i = (e_i, d_i beta)
        gives d_ij beta = u_i . (D2 P) u_j / I, with grad P = (J mean,
        -I mean) from :meth:`~cgdms.kernel.PressureKernel.moments` and I
        the I mean at the root.  (D2 P) u_j is the central difference of
        grad P along u_j with step h = FD_HESS_STEP * max(1, |t|_inf), at
        (t +/- h e_j, beta +/- h d_j beta): 2d moment passes.  Those betas
        may fall below BETA_FLOOR; the kernel evaluates any beta, and
        nothing here is a certified bound.  Symmetrized, memoized per t
        and read-only.
        """
        key = _key(t)
        if key not in self._hess:
            g, beta, (_, iq) = self.grad_with_means(key)
            t = np.asarray(key)
            d = t.size
            h = FD_HESS_STEP * max(1.0, float(np.abs(t).max()))
            D = np.empty((d, d + 1))  # row j: 2h (D2 P) u_j
            for j, (e, db) in enumerate(zip(h * np.eye(d), h * g)):
                _, jp, ip = self.kern.moments(t + e, beta + db)
                _, jm, im = self.kern.moments(t - e, beta - db)
                D[j, :d], D[j, d] = jp - jm, im - ip
            H = D @ np.vstack([np.eye(d), g]) / (2 * h * iq)
            H = 0.5 * (H + H.T)
            H.flags.writeable = False
            self._hess[key] = H
        return self._hess[key]


def solve_beta(sys: SystemDescriptor, J: PotentialVector, t, tol: float = 1e-8,
               *, n: int = DEFAULT_STAGES, N: Optional[int] = None,
               window: Optional[int] = None,
               solver: Optional[BetaSolver] = None) -> BetaPoint:
    """Certified enclosure (width <= tol) plus point estimate of beta(t).

    Both come from the limit pressure bracketed by the window transfer
    matrix of :meth:`BetaSolver.certifier`; the Gibbs means are read from
    the stage-n kernel at its anchored root.  ``solver``, when given,
    alone decides n, N and window; otherwise one is built from them.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size != J.dim:
        raise ValueError(f"t has dim {t.size}, potential dim {J.dim}")
    if solver is None:
        solver = BetaSolver(sys, J, n=n, N=N, window=window)
    limit = solver.certifier()
    enc, est = certified_pressure_zero(limit, t, tol)
    _, _, (jq, iq) = solver.grad_with_means(t)
    flags = []
    theta = estimate_theta(sys)
    if theta.determined and theta.enclosure is not None and not sys.is_finite:
        if enc.lo <= theta.enclosure.hi:
            flags.append("enclosure reaches the finiteness threshold")
    return BetaPoint(t=tuple(t.tolist()), beta=enc, estimate=est,
                     gibbs_means=(tuple(jq.tolist()), float(iq)),
                     stages=solver.kern.n, window=limit.window,
                     truncation=limit.N, flags=tuple(flags))


def grad_beta(sys: SystemDescriptor, J: PotentialVector, t, tol: float = 1e-6,
              *, n: int = DEFAULT_STAGES, N: Optional[int] = None,
              window: Optional[int] = None,
              solver: Optional[BetaSolver] = None) -> GradResult:
    """Two estimators of the gradient of beta at t, cross-checked.

    (ii) the Gibbs-weighted quotient of word sums (primary) and (i) central
    finite differences of the anchored root (audit).  Both differentiate
    exactly the same stage value, at every potential depth.  Disagreement
    beyond 10*tol marks the result flagged.  ``solver``, when given, alone
    decides n, N and window.
    """
    if solver is None:
        solver = BetaSolver(sys, J, n=n, N=N, window=window)
    gq, beta_n, means = solver.grad_with_means(t)
    fd = solver.fd_grad(t)
    flagged = bool(np.abs(gq - fd).max() > 10.0 * tol)
    return GradResult(primary=tuple(gq.tolist()), finite_diff=tuple(fd.tolist()),
                      flagged=flagged, beta_estimate=beta_n,
                      gibbs_means=(tuple(means[0].tolist()), float(means[1])))


def hessian_beta(sys: SystemDescriptor, J: PotentialVector, t, *,
                 n: int = DEFAULT_STAGES, N: Optional[int] = None,
                 window: Optional[int] = None) -> HessianResult:
    """Hessian of beta with an eigenvalue report: :meth:`BetaSolver.hessian`,
    one root and 2d+1 moment passes on a fresh solver.  Positive definite
    means every eigenvalue exceeds PD_TOL."""
    H = BetaSolver(sys, J, n=n, N=N, window=window).hessian(t)
    eigs = np.linalg.eigvalsh(H)
    return HessianResult(matrix=tuple(map(tuple, H.tolist())),
                         eigenvalues=tuple(eigs.tolist()),
                         positive_definite=bool(eigs.min() > PD_TOL))


# ---------------------------------------------------------------------------
# cohomological independence over periodic words
# ---------------------------------------------------------------------------

def independence_certificate(sys: SystemDescriptor, J: PotentialVector,
                             periodic_words: Sequence) -> CertificateResult:
    """Test whether the potential components are independent in the sense
    that no nontrivial combination has bounded Birkhoff sums.

    Periodic words force any bounded combination to annihilate the
    differences of per-period normalized Birkhoff vectors, so a full-rank
    affine span certifies independence.  Rank deficiency only suggests
    dependence: the candidate annihilator is re-verified on every short
    cycle below the probe bounds and reported as a dependence witness only
    when it survives exactly; otherwise the result is inconclusive.
    """
    rows = []
    for w in periodic_words:
        syms = closed_cycle(w, sys.incidence)
        rows.append(cycle_birkhoff(J, syms) / len(syms))
    rows = np.array(rows)
    d = J.dim
    if len(rows) < 2:
        return CertificateResult("inconclusive", None, 0,
                                 tuple(map(tuple, rows.tolist())))
    diffs = rows[1:] - rows[0]
    svals = np.linalg.svd(diffs, compute_uv=False)
    smax = float(svals.max(initial=0.0))
    rank = int((svals > RANK_TOL * max(1.0, smax)).sum())
    if rank >= d:
        return CertificateResult("independent", None, rank,
                                 tuple(map(tuple, rows.tolist())))
    # candidate annihilator of the row differences
    _, _, vt = np.linalg.svd(np.vstack([diffs, np.zeros((1, d))]))
    alpha = vt[-1]
    idx = int(np.argmax(np.abs(alpha)))
    if alpha[idx] < 0:
        alpha = -alpha
    N = sys.effective_truncation(PROBE_TRUNCATION)
    base = rows[0]
    for syms in enumerate_cycles(sys.incidence, PROBE_PERIOD, N):
        v = cycle_birkhoff(J, syms) / len(syms)
        if abs(float(np.dot(alpha, v - base))) > VERIFY_TOL:
            return CertificateResult("inconclusive", tuple(alpha.tolist()),
                                     rank, tuple(map(tuple, rows.tolist())))
    return CertificateResult("dependent-witness", tuple(alpha.tolist()), rank,
                             tuple(map(tuple, rows.tolist())))


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def _legendre_newton(solver: BetaSolver, alpha: np.ndarray, tol: float,
                     max_iter: int, hd_hint: float):
    """Damped Newton from t = 0 on grad beta = alpha with Armijo-backtracked
    descent fallback on g(t) = beta(t) - <t, alpha>.

    Returns (status, g, t, gradient error, iterations)."""
    t = np.zeros(alpha.size)
    g_prev = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        gval = solver.root(t) - float(np.dot(t, alpha))
        resid = solver.grad(t) - alpha
        err = float(np.abs(resid).max())
        if err <= tol:
            return "interior", gval, t, err, it
        if gval < -0.25 * max(1.0, hd_hint):
            # heuristic outside verdict: g keeps falling along a ray
            if _descends_along_ray(solver, alpha, t, gval):
                return "outside", -math.inf, None, err, it
        if float(np.linalg.norm(t)) > ESCAPE_NORM and abs(gval - g_prev) < 0.1 * tol:
            return "boundary-limit", gval, t, err, it
        try:
            step = np.linalg.solve(solver.hessian(t), resid)
        except np.linalg.LinAlgError:
            step = resid
        if not np.all(np.isfinite(step)) or float(np.dot(step, resid)) <= 0.0:
            step = resid  # gradient direction of g
        # Armijo backtracking on g
        slope = -float(np.dot(resid, step))
        s = 1.0
        for _ in range(40):
            tc = t - s * step
            gc = solver.root(tc) - float(np.dot(tc, alpha))
            if gc <= gval + ARMIJO_C * s * slope:
                break
            s *= BACKTRACK
        t = t - s * step
        g_prev = gval
    gval = solver.root(t) - float(np.dot(t, alpha))
    err = float(np.abs(solver.grad(t) - alpha).max())
    return "unresolved", gval, t, err, it


def _descends_along_ray(solver: BetaSolver, alpha, t, gval) -> bool:
    """g falls at three points of the doubling ray from t (or the ray
    leaves |t| <= 1e6).  Nothing is certified: the roots are anchored
    stage-n values, and three samples do not bound g from above."""
    prev = gval
    tt = t.copy()
    for _ in range(3):
        tt = 2.0 * tt
        if float(np.linalg.norm(tt)) > 1e6:
            return True
        g = solver.root(tt) - float(np.dot(tt, alpha))
        if g >= prev:
            return False
        prev = g
    return True


def legendre(sys: SystemDescriptor, J: PotentialVector, alpha, tol: float = 1e-6,
             *, n: int = DEFAULT_STAGES, N: Optional[int] = None,
             window: Optional[int] = None, max_iter: int = 80,
             solver: Optional[BetaSolver] = None) -> SpectrumPoint:
    """Evaluate the concave conjugate at alpha by minimizing
    beta(t) - <t, alpha>, starting from t = 0.

    Status ``interior`` requires the gradient match within tol; an
    objective far below zero that keeps falling along a doubling ray
    yields ``outside`` (value -inf), a heuristic verdict rather than a
    certificate; iterate escape with a stabilized objective yields
    ``boundary-limit``; anything else is ``unresolved``.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if solver is None:
        solver = BetaSolver(sys, J, n=n, N=N, window=window)
    hd_hint = solver.root(np.zeros(J.dim))
    flags = ()
    eigs = np.linalg.eigvalsh(solver.hessian(np.zeros(J.dim)))
    if eigs.min() <= 1e-10:
        # without strict convexity the minimizer need not be unique and
        # the conjugate value is only an upper envelope sample
        flags = ("non-strictly-convex",)
    try:
        status, gval, tstar, err, its = _legendre_newton(
            solver, alpha, tol, max_iter, hd_hint)
    except BracketBudgetError:
        # the search left the domain where the zero stays nonnegative
        flags = flags + ("left-solver-domain",)
        status, gval, tstar, err, its = "unresolved", math.nan, None, math.nan, 0
    return SpectrumPoint(alpha=tuple(alpha.tolist()),
                         beta_hat=gval if status != "outside" else -math.inf,
                         minimizer_t=None if tstar is None else tuple(tstar.tolist()),
                         status=status, grad_error=err, iterations=its,
                         flags=flags)


def spectrum_scan(sys: SystemDescriptor, J: PotentialVector,
                  alphas: Sequence, tol: float = 1e-6, *,
                  n: int = DEFAULT_STAGES, N: Optional[int] = None,
                  window: Optional[int] = None,
                  t_grid: Optional[Sequence] = None):
    """Map the Legendre transform over a grid of target quotients and emit
    companion surface samples (t, beta(t)) when a t-grid is supplied.

    Returns (spectrum_points, surface_rows); per-point failures land in the
    point status, never as a global error.
    """
    solver = BetaSolver(sys, J, n=n, N=N, window=window)
    points = [legendre(sys, J, a, tol, solver=solver) for a in alphas]
    surface = []
    if t_grid is not None:
        for t in t_grid:
            tv = np.atleast_1d(np.asarray(t, dtype=float))
            surface.append((tuple(tv.tolist()), solver.root(tv)))
    return points, surface


def estimate_M(sys: SystemDescriptor, J: PotentialVector, t_grid: Sequence,
               tol: float = 1e-4, *, n: int = DEFAULT_STAGES,
               N: Optional[int] = None, window: Optional[int] = None,
               max_iter: int = 80) -> MEstimate:
    """Sample the gradient range of beta and decide whether 0 belongs to
    it by locating an interior minimizer of beta (:func:`legendre` at 0)."""
    solver = BetaSolver(sys, J, n=n, N=N, window=window)
    pts = []
    for t in t_grid:
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        pts.append((tuple(tv.tolist()), tuple(solver.grad(tv).tolist())))
    grads = np.array([g for _, g in pts]) if pts else np.zeros((0, J.dim))
    degenerate = bool(pts) and bool(np.ptp(grads, axis=0).max(initial=0.0) < 1e-10)
    notes = []
    if degenerate:
        notes.append("gradient cloud collapsed to a point; components are "
                     "not independent and the range is degenerate")
    sp = legendre(sys, J, np.zeros(J.dim), tol, solver=solver, max_iter=max_iter)
    if "left-solver-domain" in sp.flags:
        notes.append("minimizer search left the solver domain")
    zero_in = sp.status == "interior" and sp.grad_error <= tol
    return MEstimate(points=tuple(pts), zero_in_M=bool(zero_in and not degenerate),
                     minimizer=sp.minimizer_t, grad_norm=sp.grad_error,
                     beta_min=sp.beta_hat if sp.minimizer_t is not None else math.nan,
                     degenerate=degenerate, notes=tuple(notes))


def estimate_KL(sys: SystemDescriptor, J: PotentialVector, *,
                bernoulli_specs: Sequence = (), cycles: Sequence = (),
                m_points: Sequence = (), hull_pad: float = 1e-6) -> KLEstimate:
    """Point clouds for the attainable-value sets.

    L is sampled through the measure functional on the supplied Bernoulli
    and periodic-orbit measures, K through periodic Birkhoff quotients;
    the inclusion report checks that supplied gradient samples and every K
    point fall inside the padded hull of the L cloud.
    """
    from . import measures  # late import; measures sits below this module

    L_pts = []
    for spec in bernoulli_specs:
        summ = measures.Q_of_bernoulli(sys, J, spec)
        L_pts.append(tuple(e.mid for e in summ.Q_value))
    K_pts = []
    for c in cycles:
        summ = measures.Q_of_periodic(sys, J, c)
        q = tuple(e.mid for e in summ.Q_value)
        K_pts.append(q)
        L_pts.append(q)  # periodic-orbit measures are invariant measures
    inclusion = _inclusion_report(L_pts, K_pts, [tuple(p) for p in m_points],
                                  hull_pad, J.dim)
    return KLEstimate(L_points=tuple(L_pts), K_points=tuple(K_pts),
                      inclusion=inclusion)


def _inclusion_report(L_pts, K_pts, M_pts, pad, dim) -> dict:
    report = {"hull_points": len(L_pts), "pad": pad}
    if not L_pts:
        report["status"] = "empty L sample"
        return report
    arr = np.array(L_pts, dtype=float)
    if dim == 1:
        lo, hi = float(arr.min()) - pad, float(arr.max()) + pad
        inside = lambda p: lo <= p[0] <= hi
        report["hull"] = (lo, hi)
    else:
        try:
            from scipy.spatial import ConvexHull
            hull = ConvexHull(arr)
            eqs = hull.equations

            def inside(p):
                x = np.append(np.asarray(p, dtype=float), 1.0)
                return bool((eqs @ x <= pad).all())

            report["hull_vertices"] = len(hull.vertices)
        except Exception as exc:  # degenerate clouds: fall back to bounding box
            lo = arr.min(axis=0) - pad
            hi = arr.max(axis=0) + pad
            inside = lambda p: bool(np.all(lo <= p) and np.all(p <= hi))
            report["status"] = f"hull degenerate ({exc}); bounding box used"
    report["K_inside"] = all(inside(p) for p in K_pts)
    report["M_inside"] = all(inside(p) for p in M_pts)
    report["K_outliers"] = [p for p in K_pts if not inside(p)]
    report["M_outliers"] = [p for p in M_pts if not inside(p)]
    return report

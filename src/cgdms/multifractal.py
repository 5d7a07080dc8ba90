"""The implicit pressure-zero surface beta(t), its Legendre transform, and
the attainable value sets of Birkhoff quotients.

For each parameter vector t the scalar beta(t) is the unique zero in beta
of the pressure of <t,J> - beta*I.  Enclosures bracket the limit pressure
with the window transfer matrix; roots, gradients, Hessians and descent
use the anchored smooth value of the stage-n partition sum.  The
gradient is estimated primarily by the weighted word-sum quotient, which
is by construction the exact derivative of the anchored stage value, so
the independent finite-difference estimate of the same root function must
agree with it up to differencing error; a disagreement flags a defect.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BracketBudgetError
from .kernel import PressureKernel, dp_window
from .potentials import PotentialVector, cycle_birkhoff
from .symbolic import closed_cycle, enumerate_words
from .system import SystemDescriptor
from .thermo import anchored_pressure_root, certified_pressure_zero, estimate_theta
from .util import Enclosure

ARMIJO_C = 1e-4
BACKTRACK = 0.5
FD_GRAD_STEP = 1e-4
FD_HESS_STEP = 5e-3
DEFAULT_STAGES = 128


@dataclass(frozen=True)
class BetaPoint:
    """One certified sample of the pressure-zero surface."""

    t: tuple
    beta: Enclosure
    estimate: float
    grad: Optional[tuple] = None
    hessian: Optional[tuple] = None
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
    primary: tuple
    gibbs: tuple
    finite_diff: tuple
    flagged: bool
    beta_estimate: float
    gibbs_means: tuple


@dataclass(frozen=True)
class HessianResult:
    matrix: tuple
    eigenvalues: tuple
    positive_definite: bool
    tolerance: float


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


class BetaSolver:
    """Shared root/gradient/Hessian engine over one anchored kernel.

    Thread-safe; the alpha-point scan may call it concurrently.  All
    numerical differentiation steps are pinned constants so results are
    reproducible.
    """

    def __init__(self, sys: SystemDescriptor, J: PotentialVector, *,
                 n: int = DEFAULT_STAGES, N: Optional[int] = None,
                 window: Optional[int] = None):
        self.sys = sys
        self.J = J
        self.kern = PressureKernel(sys, J, n=n, N=N, window=window)
        self._cache: dict = {}
        self._lock = threading.Lock()

    def root(self, t) -> float:
        """beta solving the anchored stage pressure at t.

        The starting bracket is fixed rather than warm-started so that
        results cannot depend on call order under concurrent scans.
        """
        key = tuple(np.atleast_1d(np.asarray(t, dtype=float)).tolist())
        with self._lock:
            if key in self._cache:
                return self._cache[key]
        val = anchored_pressure_root(self.kern, np.asarray(key))
        with self._lock:
            self._cache[key] = val
        return val

    def grad(self, t) -> np.ndarray:
        """Weighted word-sum quotient: the exact gradient of the anchored
        stage root at t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        beta = self.root(t)
        _, jq, iq = self.kern.moments(t, beta)
        return jq / iq

    def grad_with_means(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        beta = self.root(t)
        _, jq, iq = self.kern.moments(t, beta)
        return jq / iq, beta, (jq, iq)

    def fd_grad(self, t, h: float = FD_GRAD_STEP) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        scale = max(1.0, float(np.abs(t).max()))
        out = np.empty(t.size)
        for i in range(t.size):
            e = np.zeros(t.size)
            e[i] = h * scale
            out[i] = (self.root(t + e) - self.root(t - e)) / (2 * h * scale)
        return out

    def hessian(self, t, h: float = FD_HESS_STEP) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        d = t.size
        scale = max(1.0, float(np.abs(t).max()))
        hh = h * scale
        H = np.empty((d, d))
        b0 = self.root(t)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = hh
            H[i, i] = (self.root(t + ei) + self.root(t - ei) - 2 * b0) / hh ** 2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = hh
                H[i, j] = H[j, i] = (
                    self.root(t + ei + ej) - self.root(t + ei - ej)
                    - self.root(t - ei + ej) + self.root(t - ei - ej)
                ) / (4 * hh ** 2)
        return 0.5 * (H + H.T)


def solve_beta(sys: SystemDescriptor, J: PotentialVector, t, tol: float = 1e-8,
               *, n: int = DEFAULT_STAGES, N: Optional[int] = None,
               window: Optional[int] = None) -> BetaPoint:
    """Certified enclosure (width <= tol) plus point estimate of beta(t).

    Both come from the limit pressure bracketed by the window transfer
    matrix (``window``, or :func:`~cgdms.kernel.dp_window` at level n);
    the Gibbs means are read from the stage-n kernel at its anchored root.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size != J.dim:
        raise ValueError(f"t has dim {t.size}, potential dim {J.dim}")
    N_eff = sys.effective_truncation(N)
    kern = PressureKernel(sys, J, n=n, N=N_eff, window=window)
    q = window or dp_window(sys, J, N_eff, n)
    limit = kern if kern.mode == "dp" and kern.window == q else PressureKernel(
        sys, J, n=q + 1, N=N_eff, window=q)
    enc, est = certified_pressure_zero(limit, t, tol)
    beta_n = anchored_pressure_root(kern, t)
    _, jq, iq = kern.moments(t, beta_n)
    flags = []
    theta = estimate_theta(sys)
    if theta.determined and theta.enclosure is not None and not sys.is_finite:
        if enc.lo <= theta.enclosure.hi:
            flags.append("enclosure reaches the finiteness threshold")
    return BetaPoint(t=tuple(t.tolist()), beta=enc, estimate=est,
                     gibbs_means=(tuple(jq.tolist()), float(iq)),
                     stages=n, window=limit.window,
                     truncation=limit.N, flags=tuple(flags))


def grad_beta(sys: SystemDescriptor, J: PotentialVector, t, tol: float = 1e-6,
              *, n: int = DEFAULT_STAGES, N: Optional[int] = None,
              window: Optional[int] = None) -> GradResult:
    """Two estimators of the gradient of beta at t, cross-checked.

    (ii) the Gibbs-weighted quotient of word sums (primary) and (i) central
    finite differences of the anchored root (audit).  For depth-1
    potentials both differentiate exactly the same stage value; deeper
    potentials leave an order-(depth/length) residual in the comparison.
    Disagreement beyond 10*tol marks the result flagged.
    """
    solver = BetaSolver(sys, J, n=n, N=N, window=window)
    gq, beta_n, means = solver.grad_with_means(t)
    fd = solver.fd_grad(t)
    flagged = bool(np.abs(gq - fd).max() > 10.0 * tol)
    return GradResult(primary=tuple(gq.tolist()), gibbs=tuple(gq.tolist()),
                      finite_diff=tuple(fd.tolist()), flagged=flagged,
                      beta_estimate=beta_n,
                      gibbs_means=(tuple(means[0].tolist()), float(means[1])))


def hessian_beta(sys: SystemDescriptor, J: PotentialVector, t, tol: float = 1e-6,
                 *, n: int = DEFAULT_STAGES, N: Optional[int] = None,
                 window: Optional[int] = None,
                 pd_tol: float = 1e-8) -> HessianResult:
    """Symmetrized second differences of beta with an eigenvalue report."""
    solver = BetaSolver(sys, J, n=n, N=N, window=window)
    H = solver.hessian(t)
    eigs = np.linalg.eigvalsh(H)
    return HessianResult(matrix=tuple(map(tuple, H.tolist())),
                         eigenvalues=tuple(eigs.tolist()),
                         positive_definite=bool(eigs.min() > pd_tol),
                         tolerance=pd_tol)


# ---------------------------------------------------------------------------
# cohomological independence over periodic words
# ---------------------------------------------------------------------------

def independence_certificate(sys: SystemDescriptor, J: PotentialVector,
                             periodic_words: Sequence, *,
                             rank_tol: float = 1e-9,
                             probe_period: int = 3,
                             probe_truncation: int = 8,
                             verify_tol: float = 1e-10) -> CertificateResult:
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
    rank = int((svals > rank_tol * max(1.0, smax)).sum())
    if rank >= d:
        return CertificateResult("independent", None, rank,
                                 tuple(map(tuple, rows.tolist())))
    # candidate annihilator of the row differences
    _, _, vt = np.linalg.svd(np.vstack([diffs, np.zeros((1, d))]))
    alpha = vt[-1]
    idx = int(np.argmax(np.abs(alpha)))
    if alpha[idx] < 0:
        alpha = -alpha
    N = sys.effective_truncation(probe_truncation)
    base = rows[0]
    for p in range(1, probe_period + 1):
        for w in enumerate_words(sys.incidence, p, N):
            syms = tuple(w)
            if not sys.incidence.entry(syms[-1], syms[0]):
                continue
            v = cycle_birkhoff(J, syms) / p
            if abs(float(np.dot(alpha, v - base))) > verify_tol:
                return CertificateResult("inconclusive", tuple(alpha.tolist()),
                                         rank, tuple(map(tuple, rows.tolist())))
    return CertificateResult("dependent-witness", tuple(alpha.tolist()), rank,
                             tuple(map(tuple, rows.tolist())))


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def _legendre_newton(solver: BetaSolver, alpha: np.ndarray, tol: float,
                     t0: np.ndarray, max_iter: int, hd_hint: float,
                     escape_norm: float = 256.0):
    """Damped Newton on grad beta = alpha with Armijo-backtracked descent
    fallback on g(t) = beta(t) - <t, alpha>."""
    t = t0.astype(float).copy()
    g_prev = math.inf
    status = "unresolved"
    it = 0
    for it in range(1, max_iter + 1):
        beta_t = solver.root(t)
        gval = beta_t - float(np.dot(t, alpha))
        resid = solver.grad(t) - alpha
        err = float(np.abs(resid).max())
        if err <= tol:
            return "interior", gval, t, err, it
        if gval < -0.25 * max(1.0, hd_hint):
            # certified descent along a ray settles the outside verdict
            if _certify_outside(solver, alpha, t, gval):
                return "outside", -math.inf, None, err, it
        if float(np.linalg.norm(t)) > escape_norm and abs(gval - g_prev) < 0.1 * tol:
            return "boundary-limit", gval, t, err, it
        H = solver.hessian(t)
        step = None
        try:
            cand = np.linalg.solve(H, resid)
            if np.all(np.isfinite(cand)):
                step = cand
        except np.linalg.LinAlgError:
            step = None
        if step is None or float(np.dot(step, resid)) <= 0.0:
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
    beta_t = solver.root(t)
    gval = beta_t - float(np.dot(t, alpha))
    err = float(np.abs(solver.grad(t) - alpha).max())
    return status, gval, t, err, it


def _certify_outside(solver: BetaSolver, alpha, t, gval) -> bool:
    """g decreases along the doubling ray and is already far negative."""
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
             window: Optional[int] = None,
             t0=None, max_iter: int = 80,
             solver: Optional[BetaSolver] = None) -> SpectrumPoint:
    """Evaluate the concave conjugate at alpha by minimizing
    beta(t) - <t, alpha>.

    Status ``interior`` requires the gradient match within tol; a ray
    along which the objective drops certifiably below zero yields
    ``outside`` (value -inf); iterate escape with a stabilized objective
    yields ``boundary-limit``; anything else is ``unresolved``.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if solver is None:
        solver = BetaSolver(sys, J, n=n, N=N, window=window)
    hd_hint = solver.root(np.zeros(J.dim))
    start = np.zeros(J.dim) if t0 is None else np.atleast_1d(np.asarray(t0, dtype=float))
    flags = ()
    eigs = np.linalg.eigvalsh(solver.hessian(start))
    if eigs.min() <= 1e-10:
        # without strict convexity the minimizer need not be unique and
        # the conjugate value is only an upper envelope sample
        flags = ("non-strictly-convex",)
    try:
        status, gval, tstar, err, its = _legendre_newton(
            solver, alpha, tol, start, max_iter, hd_hint)
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
                  window: Optional[int] = None, workers: int = 1,
                  t_grid: Optional[Sequence] = None):
    """Map the Legendre transform over a grid of target quotients and emit
    companion surface samples (t, beta(t)) when a t-grid is supplied.

    ``workers`` threads share the alpha-targets; the points do not depend
    on their number.  Returns (spectrum_points, surface_rows); per-point
    failures land in the point status, never as a global error.
    """
    solver = BetaSolver(sys, J, n=n, N=N, window=window)
    alphas = [np.atleast_1d(np.asarray(a, dtype=float)) for a in alphas]

    def one(a):
        return legendre(sys, J, a, tol, solver=solver)

    if workers > 1 and len(alphas) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(one, alphas))
    else:
        points = [one(a) for a in alphas]
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
    """Sample the gradient range of beta and certify whether 0 belongs to
    it by locating an interior minimizer of beta."""
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
    hd_hint = solver.root(np.zeros(J.dim))
    try:
        status, gval, tstar, err, _ = _legendre_newton(
            solver, np.zeros(J.dim), tol, np.zeros(J.dim), max_iter, hd_hint)
    except BracketBudgetError as exc:
        notes.append(f"minimizer search left the solver domain: {exc}")
        status, gval, tstar, err = "unresolved", math.nan, None, math.nan
    zero_in = status == "interior" and err <= tol
    return MEstimate(points=tuple(pts), zero_in_M=bool(zero_in and not degenerate),
                     minimizer=None if tstar is None else tuple(tstar.tolist()),
                     grad_norm=err,
                     beta_min=gval if tstar is not None else math.nan,
                     degenerate=degenerate, notes=tuple(notes))


def estimate_KL(sys: SystemDescriptor, J: PotentialVector, *,
                bernoulli_specs: Sequence = (), cycles: Sequence = (),
                m_points: Sequence = (), hull_pad: float = 1e-6,
                mc_samples: int = 0, seed: int = 0) -> KLEstimate:
    """Point clouds for the attainable-value sets.

    L is sampled through the measure functional on the supplied Bernoulli
    and periodic-orbit measures, K through periodic Birkhoff quotients;
    the inclusion report checks that supplied gradient samples and every K
    point fall inside the padded hull of the L cloud.
    """
    from . import measures  # late import; measures sits below this module

    L_pts = []
    for spec in bernoulli_specs:
        summ = measures.Q_of_bernoulli(sys, J, spec, n_mc=mc_samples, seed=seed)
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

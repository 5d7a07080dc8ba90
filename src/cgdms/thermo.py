"""Topological pressure brackets, the finiteness threshold, and the
dimension of the limit set via the pressure zero."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from . import potentials
from .errors import BracketBudgetError
from .kernel import DP_WINDOW_CAP, PressureKernel
from .potentials import PotentialVector
from .system import SystemDescriptor
from .util import Enclosure

BETA_FLOOR = 0.0     # left edge of the bracketed exponent domain
ROOT_HI_HINT = 1.0   # first right end tried when bracketing the root
ROOT_XTOL = 1e-14    # brentq tolerance of the anchored root
STAGE_GROWTH = 4     # word-length factor per certification escalation


@dataclass(frozen=True)
class PressureQuery:
    """Evaluation request for the pressure of <t,J> - beta*I at one stage."""

    t_coeff: tuple
    beta_coeff: float
    word_length: int
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "t_coeff", tuple(float(x) for x in self.t_coeff))
        if self.beta_coeff < 0:
            raise ValueError("beta_coeff must be >= 0; negative exponents are "
                             "outside the bracketed domain")
        if self.word_length < 1:
            raise ValueError("word_length must be >= 1")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")


@dataclass(frozen=True)
class PressureBracket:
    """Certified enclosure of a stage-n pressure sum.

    ``tail_bound`` reports the per-step weight that truncation discards:
    zero when the whole finite alphabet is covered, an integral-test bound
    when a tail rule is declared, +inf otherwise.  The bracket itself is
    always the truncated-system value.
    """

    lower: float
    upper: float
    n: int
    N: int
    tail_bound: float
    window: int
    method: str

    @property
    def enclosure(self) -> Enclosure:
        return Enclosure(self.lower, self.upper)


@dataclass(frozen=True)
class ThetaResult:
    enclosure: Optional[Enclosure]
    determined: bool
    note: str


@dataclass(frozen=True)
class BowenResult:
    enclosure: Enclosure
    estimate: float
    stages: int
    window: int
    truncation: int
    critical: bool = False
    notes: tuple = ()


@dataclass(frozen=True)
class ThermoReport:
    theta: Optional[Enclosure]
    hausdorff_dim: Enclosure
    regularity: str
    notes: tuple = ()


def pressure_bracket(sys: SystemDescriptor, J: Optional[PotentialVector],
                     query: PressureQuery, *, window: Optional[int] = None,
                     workers: int = 1) -> PressureBracket:
    """Bracket the stage-n pressure sum of <t,J> - beta*I over edges <= N.

    The lower endpoint uses per-cylinder infima, the upper endpoint
    suprema; in the fused (dp) mode the returned interval contains the
    per-word interval for the same stage.  ``workers`` is accepted for
    compatibility and ignored: the kernel runs single-threaded.
    """
    if J is None:
        J = potentials.zero(max(1, len(query.t_coeff)))
    if len(query.t_coeff) != J.dim:
        raise ValueError(f"t has dim {len(query.t_coeff)}, potential dim {J.dim}")
    kern = PressureKernel(sys, J, n=query.word_length, N=query.truncation,
                          window=window)
    lo, hi = kern.values(np.asarray(query.t_coeff), query.beta_coeff)
    tail = kern.tail_weight(np.asarray(query.t_coeff), query.beta_coeff)
    return PressureBracket(lower=lo, upper=hi, n=kern.n, N=kern.N,
                           tail_bound=tail, window=kern.window, method=kern.mode)


def estimate_theta(sys: SystemDescriptor) -> ThetaResult:
    """Enclosure of the finiteness threshold of the one-parameter pressure.

    Finite alphabets give [0,0].  Infinite alphabets need a declared tail
    rule; a two-sided power rule with exponent p pins the threshold of
    sum_k (sup|phi_k'|)**beta at exactly 1/p (integral test on both sides),
    reported with a floating-point safety pad.  Without a rule the result
    is undetermined rather than an error.
    """
    if sys.is_finite:
        return ThetaResult(Enclosure(0.0, 0.0), True, "finite alphabet")
    rule = sys.tail_rule
    if rule is None:
        return ThetaResult(None, False, "no tail weight rule declared")
    th = rule.theta
    pad = 1e-12 * max(1.0, th)
    return ThetaResult(Enclosure(th - pad, th + pad), True,
                       f"power rule with exponent {rule.exponent}")


# ---------------------------------------------------------------------------
# certified zero of the pressure in beta
# ---------------------------------------------------------------------------

def anchored_pressure_root(kern: PressureKernel, t) -> float:
    """Root of the anchored stage value in beta; the point estimate that
    certification is built around."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    f = lambda b: kern.value(t, b)
    flo = f(BETA_FLOOR)
    if flo == 0.0:
        return BETA_FLOOR
    if flo < 0.0:
        raise BracketBudgetError(
            f"anchored pressure already negative at beta={BETA_FLOOR}; "
            "the zero lies below the supported domain")
    hi = ROOT_HI_HINT
    fhi = f(hi)
    for _ in range(80):
        if fhi < 0.0:
            break
        hi = BETA_FLOOR + 2.0 * (hi - BETA_FLOOR)
        fhi = f(hi)
    else:
        raise BracketBudgetError("anchored pressure never becomes negative")
    return float(brentq(f, BETA_FLOOR, hi, xtol=ROOT_XTOL, maxiter=256))


def _certifies(kern: PressureKernel, t, est: float,
               half: float) -> Optional[Enclosure]:
    """The enclosure [est - half, est + half], clipped at the floor, if the
    lower bracket is positive on its left end (nonnegative at the floor)
    and the upper bracket negative on its right end; else None."""
    left = max(est - half, BETA_FLOOR)
    lower = kern.bound(t, left, "lower")
    lo_ok = lower >= 0.0 if left == BETA_FLOOR else lower > 0.0
    if lo_ok and kern.bound(t, est + half, "upper") < 0.0:
        return Enclosure(left, est + half)
    return None


def certified_pressure_zero(factory: Callable[[int], PressureKernel], t,
                            tol: float, *, stages0: int,
                            max_stages: int = 1 << 14) -> tuple:
    """Predict-then-certify enclosure of the pressure zero in beta.

    ``factory(stages)`` builds the kernel at a given word length with a
    fixed refinement window.  The anchored root is located first; the
    enclosure [root - tol/2, root + tol/2] is then certified by checking
    that the rigorous lower bracket is positive on the left and the upper
    bracket negative on the right.  Failing sides trigger a geometric
    increase of the word length (the refinement window stays put), per the
    escalation contract.  Returns (enclosure, estimate, kernel_used).

    Raises :class:`BracketBudgetError` with the best widened enclosure
    when the budget is exhausted.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    stages = stages0
    # shaved slightly below tol/2 so the reported width respects tol even
    # after float rounding of the endpoints
    delta = 0.5 * tol * (1.0 - 1e-6)
    last_gap = None
    kern = None
    while True:
        if kern is not None and kern.mode == "dp":
            kern = kern.with_length(stages)  # reuse window tables
        else:
            kern = factory(stages)
        est = anchored_pressure_root(kern, t)
        enc = _certifies(kern, t, est, delta)
        if enc is not None:
            return enc, est, kern
        lo, hi = kern.values(t, est)
        last_gap = hi - lo
        if stages >= max_stages:
            break
        stages = min(stages * STAGE_GROWTH, max_stages)
    # budget exhausted: widen until certified so the error carries something
    widen = delta
    for _ in range(60):
        widen *= 2.0
        best = _certifies(kern, t, est, widen)
        if best is not None:
            needed = int(stages * max(1.0, (last_gap or tol) / tol))
            raise BracketBudgetError(
                f"could not certify width {tol} within {stages} stages; "
                f"roughly {needed} stages would be needed",
                best=best, required_n=needed)
    raise BracketBudgetError(
        f"pressure zero could not be certified at all within {stages} stages",
        best=None, required_n=None)


def bowen_dimension(sys: SystemDescriptor, n: int, N: Optional[int] = None,
                    tol: float = 1e-9, *, workers: int = 1,
                    max_stages: int = 1 << 14) -> BowenResult:
    """Enclosure of the zero of the one-parameter pressure.

    ``n`` fixes the cylinder refinement level; the kernel starts with
    words of exactly that length (per-word enumeration when affordable)
    and, when the distortion gap blocks certification at the requested
    tolerance, keeps the refinement window at n while lengthening the
    words through the fused recursion.  ``workers`` is accepted for
    compatibility and ignored: the kernel runs single-threaded.
    """
    J = potentials.zero(1)
    t = np.zeros(1)
    N_eff = sys.effective_truncation(N)
    # the requested refinement is honored while its window table fits;
    # wider alphabets fall back to the deepest affordable window and lean
    # on word length instead
    win = 1
    while N_eff ** (win + 1) <= DP_WINDOW_CAP and win < n:
        win += 1
    if not sys.incidence.full_shift:
        win = max(win, 2)

    def factory(stages: int) -> PressureKernel:
        return PressureKernel(sys, J, n=stages, N=N_eff, window=win)

    kern0 = factory(n)
    if kern0.value(t, 0.0) < 0.0:
        # pressure already negative at the domain edge: the zero-crossing
        # formulation degenerates and the critical exponent is the edge
        if kern0.bound(t, 0.0, "upper") < 0.0:
            return BowenResult(enclosure=Enclosure(0.0, 0.0), estimate=0.0,
                               stages=kern0.n, window=kern0.window,
                               truncation=kern0.N, critical=True,
                               notes=("pressure certified negative on the whole "
                                      "parameter range; reporting its left edge",))
    enc, est, kern = certified_pressure_zero(factory, t, tol,
                                             stages0=n, max_stages=max_stages)
    return BowenResult(enclosure=enc, estimate=est, stages=kern.n,
                       window=kern.window, truncation=kern.N)


def classify_regularity(sys: SystemDescriptor, probe_ts: Optional[Sequence[float]] = None,
                        *, n: int = 8, N: Optional[int] = None) -> tuple:
    """Classify the system per its pressure behaviour; never guesses.

    Finite alphabets: pressure is finite everywhere, so a certified
    positive value at beta=0 gives strong regularity (the co-finite notion
    is vacuous there and noted as such); a single degenerate orbit is
    merely regular.  Infinite alphabets: divergence of the declared weight
    series at the threshold certifies co-finite regularity; otherwise
    probes look for a certified finite positive pressure.
    """
    notes = []
    theta = estimate_theta(sys)
    if not theta.determined:
        return "undetermined", ("threshold unknown: " + theta.note,)
    if sys.is_finite:
        N_eff = sys.effective_truncation(N)
        q = PressureQuery(t_coeff=(0.0,), beta_coeff=0.0,
                          word_length=n, truncation=N_eff)
        br = pressure_bracket(sys, potentials.zero(1), q)
        if br.lower > 1e-12:
            notes.append("finite alphabet: co-finite condition not applicable")
            notes.append(f"certified 0 < p(0) (lower={br.lower:.6g}) < inf")
            return "strongly-regular", tuple(notes)
        notes.append("finite alphabet with at most one word per length")
        notes.append("pressure zero sits at the left edge of the domain")
        return "regular", tuple(notes)
    rule = sys.tail_rule
    if rule is not None and rule.diverges_at(rule.theta):
        notes.append("declared weight series diverges at the threshold, so every "
                     "co-finite subsystem still blows up there and must cross zero")
        return "co-finitely-regular", tuple(notes)
    # probe for strong regularity: certified positive and finite
    th = theta.enclosure.hi
    probes = probe_ts if probe_ts is not None else [th + d for d in (0.05, 0.1, 0.25, 0.5)]
    N_eff = sys.effective_truncation(N if N is not None else 32)
    for beta in probes:
        if beta <= th:
            continue
        q = PressureQuery(t_coeff=(0.0,), beta_coeff=float(beta),
                          word_length=n, truncation=N_eff)
        br = pressure_bracket(sys, potentials.zero(1), q)
        if br.lower > 0.0 and math.isfinite(br.tail_bound):
            notes.append(f"certified 0 < p({beta}) and finite tail")
            return "strongly-regular", tuple(notes)
    return "undetermined", tuple(notes) or ("no probe certified",)


def thermo_report(sys: SystemDescriptor, n: int, N: Optional[int] = None,
                  tol: float = 1e-6) -> ThermoReport:
    """Threshold, dimension enclosure, and regularity in one record."""
    theta = estimate_theta(sys)
    bowen = bowen_dimension(sys, n, N, tol)
    label, notes = classify_regularity(sys, n=min(n, 10), N=N)
    if theta.enclosure is not None and bowen.enclosure.hi < theta.enclosure.lo:
        notes = notes + ("warning: dimension enclosure fell below the threshold",)
    return ThermoReport(theta=theta.enclosure, hausdorff_dim=bowen.enclosure,
                        regularity=label, notes=tuple(notes) + bowen.notes)

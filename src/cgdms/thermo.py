"""Topological pressure brackets, the finiteness threshold, and the
dimension of the limit set via the zero of the limit pressure."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from . import potentials
from .errors import BracketBudgetError
from .kernel import PressureKernel, WindowTransfer
from .potentials import PotentialVector
from .system import SystemDescriptor
from .util import Enclosure

BETA_FLOOR = 0.0     # left edge of the bracketed exponent domain
ROOT_HI_HINT = 1.0   # first right end tried when bracketing the root
ROOT_XTOL = 1e-14    # brentq tolerance of the pressure roots


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

def _root(f: Callable) -> float:
    """Zero of a pressure function decreasing in beta: brentq after
    doubling the right end from ROOT_HI_HINT until f turns negative.
    brentq reads the two bracket ends from the values already computed,
    so no bracket end is evaluated twice."""
    flo = f(BETA_FLOOR)
    if flo == 0.0:
        return BETA_FLOOR
    if flo < 0.0:
        raise BracketBudgetError(
            f"pressure already negative at beta={BETA_FLOOR}; "
            "the zero lies below the supported domain")
    hi = ROOT_HI_HINT
    fhi = f(hi)
    for _ in range(80):
        if fhi < 0.0:
            break
        hi = BETA_FLOOR + 2.0 * (hi - BETA_FLOOR)
        fhi = f(hi)
    else:
        raise BracketBudgetError("pressure never becomes negative")
    ends = {BETA_FLOOR: flo, hi: fhi}
    return float(brentq(lambda b: ends[b] if b in ends else f(b),
                        BETA_FLOOR, hi, xtol=ROOT_XTOL, maxiter=256))


def anchored_pressure_root(kern: PressureKernel, t) -> float:
    """Root of the anchored stage value in beta."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _root(lambda b: kern.value(t, b))


def _certifies(transfer: WindowTransfer, t, est: float,
               half: float) -> Optional[Enclosure]:
    """The enclosure [est - half, est + half], clipped at the floor, if the
    lower limit bound is positive on its left end (nonnegative at the
    floor) and the upper limit bound negative on its right end; else None."""
    left = max(est - half, BETA_FLOOR)
    lower = transfer.limit_bound(t, left, "lower")
    lo_ok = lower >= 0.0 if left == BETA_FLOOR else lower > 0.0
    if lo_ok and transfer.limit_bound(t, est + half, "upper") < 0.0:
        return Enclosure(left, est + half)
    return None


def certified_pressure_zero(transfer: WindowTransfer, t, tol: float) -> tuple:
    """(enclosure, estimate) of the zero in beta of the limit pressure of
    <t,J> - beta*I over the truncated system, from one window transfer: the
    estimate is the zero of the 'mid' limit bound, certified as
    est +/- tol/2 by :func:`_certifies`.  Failing that, the half-width is
    doubled until it certifies, and :class:`BracketBudgetError` carries
    that enclosure as ``best`` and the window needed for ``tol`` as
    ``required_n``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    est = _root(lambda b: transfer.limit_bound(t, b, "mid"))
    # shaved slightly below tol/2 so the reported width respects tol even
    # after float rounding of the endpoints
    half = 0.5 * tol * (1.0 - 1e-6)
    for k in range(61):
        best = _certifies(transfer, t, est, half * 2.0 ** k)
        if best is not None and k == 0:
            return best, est
        if best is not None:
            rate = transfer.sys.family.contraction_bound
            needed = transfer.window + math.ceil(
                math.log(best.width / tol) / math.log(1.0 / rate))
            raise BracketBudgetError(
                f"could not certify width {tol} at window {transfer.window}; "
                f"roughly window {needed} would be needed",
                best=best, required_n=needed)
    raise BracketBudgetError(
        f"pressure zero could not be certified at all at window {transfer.window}",
        best=None, required_n=None)


def bowen_dimension(sys: SystemDescriptor, n: int, N: Optional[int] = None,
                    tol: float = 1e-9, *, workers: int = 1) -> BowenResult:
    """Enclosure of the zero of the one-parameter limit pressure, bracketed
    by the window transfer matrix of refinement level ``n``
    (:meth:`~cgdms.kernel.WindowTransfer.at_level`).  ``workers`` is
    accepted for compatibility and ignored: the kernel runs single-threaded.
    """
    t = np.zeros(1)
    transfer = WindowTransfer.at_level(sys, potentials.zero(1),
                                       sys.effective_truncation(N), n)
    if transfer.limit_bound(t, 0.0, "upper") < 0.0:
        # pressure already negative at the domain edge: the zero-crossing
        # formulation degenerates and the critical exponent is the edge
        return BowenResult(enclosure=Enclosure(0.0, 0.0), estimate=0.0,
                           stages=n, window=transfer.window,
                           truncation=transfer.N, critical=True,
                           notes=("pressure certified negative on the whole "
                                  "parameter range; reporting its left edge",))
    enc, est = certified_pressure_zero(transfer, t, tol)
    return BowenResult(enclosure=enc, estimate=est, stages=n,
                       window=transfer.window, truncation=transfer.N)


def classify_regularity(sys: SystemDescriptor, *,
                        N: Optional[int] = None) -> tuple:
    """Classify the system per its pressure behaviour; never guesses.

    Finite alphabets: pressure is finite everywhere, so a certified
    positive limit pressure p(0) gives strong regularity (the co-finite
    notion is vacuous there and noted as such); p(0) = 0 is merely
    regular.  p(0) is bracketed by the window transfer matrix at the
    smallest window: at beta=0 every window weight is exactly 1, so any
    window brackets the spectral radius of the incidence.  Infinite
    alphabets: the declared power rule's weight series diverges at its
    threshold 1/exponent (integral test), which certifies co-finite
    regularity.
    """
    theta = estimate_theta(sys)
    if not theta.determined:
        return "undetermined", ("threshold unknown: " + theta.note,)
    if not sys.is_finite:
        return "co-finitely-regular", (
            "declared weight series diverges at the threshold, so every "
            "co-finite subsystem still blows up there and must cross zero",)
    t = np.zeros(1)
    transfer = WindowTransfer.at_level(sys, potentials.zero(1),
                                       sys.effective_truncation(N), 1)
    lower = transfer.limit_bound(t, 0.0, "lower")
    if lower > 1e-12:
        return "strongly-regular", (
            "finite alphabet: co-finite condition not applicable",
            f"certified 0 < p(0) (lower={lower:.6g}) < inf")
    upper = transfer.limit_bound(t, 0.0, "upper")
    return "regular", (
        f"p(0) = 0 (limit bracket [{lower:.6g}, {upper:.6g}])",
        "pressure zero sits at the left edge of the domain")


def thermo_report(sys: SystemDescriptor, n: int, N: Optional[int] = None,
                  tol: float = 1e-6) -> ThermoReport:
    """Threshold, dimension enclosure, and regularity in one record."""
    theta = estimate_theta(sys)
    bowen = bowen_dimension(sys, n, N, tol)
    label, notes = classify_regularity(sys, N=N)
    if theta.enclosure is not None and bowen.enclosure.hi < theta.enclosure.lo:
        notes = notes + ("warning: dimension enclosure fell below the threshold",)
    return ThermoReport(theta=theta.enclosure, hausdorff_dim=bowen.enclosure,
                        regularity=label, notes=tuple(notes) + bowen.notes)

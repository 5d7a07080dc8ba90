"""Topological pressure brackets, the finiteness threshold, and the
dimension of the limit set via the zero of the limit pressure."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import potentials
from .errors import BracketBudgetError
from .kernel import PressureKernel, WindowTransfer
from .potentials import PotentialVector
from .system import SystemDescriptor
from .util import Enclosure

BETA_FLOOR = 0.0     # left edge of the bracketed exponent domain
ROOT_HI_HINT = 1.0   # first right end tried when bracketing the root
ROOT_XTOL = 1e-14    # xtol of the stage roots, and least xtol of an estimate
# share of a certification's tolerance to which its estimate is solved
ESTIMATE_SHARE = 2.0 ** -10
PROBE_CAP = 1000  # probes of one bracket end, and of one zero


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
    suprema, both refined to the kernel's window, so the returned interval
    contains the one of exact per-word brackets for the same stage.
    ``workers`` is accepted for compatibility and ignored: the kernel runs
    single-threaded.
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
                           tail_bound=tail, window=kern.window)


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

def _sign_bracket(f: Callable) -> Optional[tuple]:
    """(flo, hi, fhi) for a pressure function f decreasing in beta: f at
    BETA_FLOOR and at the right end hi, the first of ROOT_HI_HINT doubled
    up to 80 times at which f is negative; None when f(BETA_FLOOR) is 0,
    the zero itself."""
    flo = f(BETA_FLOOR)
    if flo == 0.0:
        return None
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
    return flo, hi, fhi


def _ends(est: float, half: float) -> tuple:
    """(lo, hi) of an enclosure of ``est`` no wider than 2*half: est -/+
    half shaved by 1e-6 relative and rounded to floats, lo clipped at the
    floor, and hi pulled in by ulps until hi - lo <= 2*half holds exactly.
    From about half 5e-10 up the shave spans a few ulps, so no end is
    pulled."""
    shaved = half * (1.0 - 1e-6)
    lo, hi = max(est - shaved, BETA_FLOOR), est + shaved
    while Fraction(hi) - Fraction(lo) > 2 * Fraction(half):
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


def _certifies(transfer: WindowTransfer, t, est: float, half: float,
               start: Optional[list] = None) -> Optional[Enclosure]:
    """The enclosure between the :func:`_ends` of est +/- half if the
    lower limit bound is positive at its left end (nonnegative at the
    floor) and the upper limit bound negative at its right end; else None.
    Only the two signs are asked for (:meth:`WindowTransfer.limit_sign`),
    so each Perron iteration stops once its sign is settled."""
    lo, hi = _ends(est, half)
    if (transfer.limit_sign(t, lo, "lower", strict=lo > BETA_FLOOR, start=start)
            and transfer.limit_sign(t, hi, "upper", start=start)):
        return Enclosure(lo, hi)
    return None


def _zero(probe: Callable, xtol: float) -> float:
    """The zero in beta of a pressure decreasing through it, to within
    xtol: the midpoint of a bracket of it at most ``xtol`` wide (or of two
    adjacent floats), certified by the ends of ``probe(beta)``, a
    (lower, mid, upper) whose 'lower' and 'upper' bound the pressure at
    beta and whose 'mid' estimates it.  Each probe of
    :func:`certified_pressure_zero` is one lazy Perron step per class from
    its start (:meth:`WindowTransfer.limit_step`), so beta and the Perron
    iterate move together; an exact stage value is all three ends at once.

    The pressure is convex in beta, so below the zero of a bracket with a
    negative right end it is positive and above it negative: a lower end
    at or above 0 puts the zero at or above the probe, an upper end at or
    below 0 puts it at or below.  Each bracket end of :func:`_sign_bracket`
    is probed until the running ends of its probes settle the sign, or
    stop closing in; the estimate, kept between those ends, then decides
    the sign, as it decides the zero of the converged bound.  Inside, a
    secant through the last two estimates moves beta.  Where it leaves the
    bracket, the secant through the bracket ends takes over, and bisection
    where that fails too: a bisection moves beta far, and the iterate with
    it.  Each probe lies xtol/4 past the chosen zero, towards the farther
    bracket end, so that probes on both sides of the zero close the
    bracket once the iterate resolves that distance."""
    def settle(beta):
        lo, hi = -math.inf, math.inf
        for _ in range(PROBE_CAP):
            plo, mid, phi = probe(beta)
            if plo <= lo and phi >= hi:  # neither end closes in any more
                break
            lo, hi = max(lo, plo), min(hi, phi)
            if lo >= 0.0 or hi <= 0.0:
                break
        return min(max(mid, lo), hi)

    def secant(x0, f0, x1, f1):
        return x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan

    bracket = _sign_bracket(settle)
    if bracket is None:
        return BETA_FLOOR
    fa, b, fb = bracket
    a = x0 = BETA_FLOOR
    f0, x1, f1, delta = fa, b, fb, 0.25 * xtol
    for _ in range(PROBE_CAP):
        # no float lies inside a bracket of two adjacent floats, which is
        # wider than xtol from beta of about 2**52 * xtol on
        if b - a <= xtol or not a < 0.5 * (a + b) < b:
            break
        for z in (secant(x0, f0, x1, f1), secant(a, fa, b, fb), 0.5 * (a + b)):
            if a < z < b:
                break
        z += delta if b - z > z - a else -delta
        lo, mid, hi = probe(z)
        if lo >= 0.0:
            a, fa = z, mid
        if hi <= 0.0:
            b, fb = z, mid
        x0, f0, x1, f1 = x1, f1, z, mid
    return 0.5 * (a + b)


def anchored_pressure_root(kern: PressureKernel, t) -> float:
    """Root of the anchored stage value in beta, to within ROOT_XTOL: the
    :func:`_zero` of a probe whose three ends are the one exact value, so
    that each beta, a bracket end too, is evaluated once."""
    t = np.atleast_1d(np.asarray(t, dtype=float))

    def probe(b):
        v = kern.value(t, b)
        return v, v, v

    return _zero(probe, ROOT_XTOL)


def certified_pressure_zero(transfer: WindowTransfer, t, tol: float) -> tuple:
    """(enclosure, estimate) of the zero in beta of the limit pressure of
    <t,J> - beta*I over the truncated system, from one window transfer: the
    estimate is the zero of the 'mid' limit bound, certified as
    est +/- tol/2 by :func:`_certifies`, in an enclosure no wider than
    ``tol``.  The two signs hold whatever the estimate, so it is solved
    only to xtol = ESTIMATE_SHARE of ``tol`` (never below ROOT_XTOL), by
    :func:`_zero` on lazy Perron steps, which moves beta and the Perron
    iterate together.
    Both run from one fresh Perron start, whatever was asked of the
    transfer before.  Failing that, the half-width is doubled until it
    certifies, and :class:`BracketBudgetError` carries that enclosure as
    ``best`` and the window needed for ``tol`` as ``required_n``, saying
    when that window is past the deepest that the table cap admits.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    start = transfer.start()
    est = _zero(lambda b: transfer.limit_step(t, b, start),
                max(ROOT_XTOL, tol * ESTIMATE_SHARE))
    half = 0.5 * tol
    for k in range(61):
        best = _certifies(transfer, t, est, half * 2.0 ** k, start)
        if best is not None and k == 0:
            return best, est
        if best is not None:
            rate = transfer.sys.family.contraction_bound
            needed = transfer.window + math.ceil(
                math.log(best.width / tol) / math.log(1.0 / rate))
            advice = f"roughly window {needed} would be needed"
            deepest = WindowTransfer.deepest_window(transfer.N)
            if needed > deepest:
                advice += (f", past window {deepest}, the deepest that the table cap "
                           f"admits at truncation {transfer.N}: by this estimate, "
                           "this tolerance is out of reach at this truncation")
            raise BracketBudgetError(
                f"could not certify width {tol} at window {transfer.window}; "
                + advice, best=best, required_n=needed)
    raise BracketBudgetError(
        f"pressure zero could not be certified at all at window {transfer.window}",
        best=None, required_n=None)


def bowen_dimension(sys: SystemDescriptor, n: int, N: Optional[int] = None,
                    tol: float = 1e-9, *, window: Optional[int] = None,
                    workers: int = 1) -> BowenResult:
    """Enclosure of the zero of the one-parameter limit pressure, bracketed
    by the window transfer matrix at the ``certify`` window of
    :meth:`~cgdms.kernel.WindowTransfer.windows` (``window``, or the choice
    of level ``n``).  ``workers`` is accepted for compatibility and
    ignored: the kernel runs single-threaded.
    """
    t = np.zeros(1)
    J0, N = potentials.zero(1), sys.effective_truncation(N)
    q = WindowTransfer.windows(sys, J0, N, n, window)[1]
    transfer = WindowTransfer(sys, J0, N, q)
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
    J0, N = potentials.zero(1), sys.effective_truncation(N)
    transfer = WindowTransfer(sys, J0, N, WindowTransfer.windows(sys, J0, N, 1)[1])
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
                  tol: float = 1e-6, *, window: Optional[int] = None) -> ThermoReport:
    """Threshold, dimension enclosure, and regularity in one record."""
    theta = estimate_theta(sys)
    bowen = bowen_dimension(sys, n, N, tol, window=window)
    label, notes = classify_regularity(sys, N=N)
    if theta.enclosure is not None and bowen.enclosure.hi < theta.enclosure.lo:
        notes = notes + ("warning: dimension enclosure fell below the threshold",)
    return ThermoReport(theta=theta.enclosure, hausdorff_dim=bowen.enclosure,
                        regularity=label, notes=tuple(notes) + bowen.notes)

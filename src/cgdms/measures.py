"""Invariant measures and their quotient values.

Periodic-orbit measures are evaluated exactly up to a coding enclosure of
the cycle's fixed point; Bernoulli measures combine exact potential means
with per-symbol brackets of the geometric potential.  Nothing here samples
at random.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import MoebiusCFFamily
from .potentials import PotentialVector, cycle_birkhoff
from .symbolic import (closed_cycle, enumerate_cycles,
                       find_irreducibility_witness, is_admissible)
from .system import SystemDescriptor
from .util import Enclosure

BASEL_SUM = math.pi ** 2 / 6.0
# a cycle's coding enclosure: width at which the period map's iteration
# stops, and most iterations
FIX_TOL = 1e-14
FIX_ITERS = 400
# longest connector a generic word glues between blocks
CONNECTOR_LEN = 2
# terms summed exactly by the counterexample's series bounds
SERIES_TERMS = 1000000


@dataclass(frozen=True)
class BernoulliSpec:
    """Product measure from per-symbol weights.

    ``probs`` maps edge index to mass for finitely supported measures;
    ``rule`` names a closed-form infinite-support family with certified
    tail handling ('inverse-square': mass ~ k**-2 normalized by pi^2/6;
    'heavy-log': mass ~ 1/(k*log(k+1)**2), whose weighted geometric sums
    diverge).
    """

    probs: Optional[tuple] = None          # ((k, p), ...) sorted
    rule: Optional[str] = None
    entropy: float = math.nan

    @classmethod
    def finite(cls, probs: dict) -> "BernoulliSpec":
        items = tuple(sorted((int(k), float(p)) for k, p in probs.items()))
        if any(p < 0 for _, p in items):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        h = -math.fsum(p * math.log(p) for _, p in items if p > 0)
        return cls(probs=items, entropy=h)

    @classmethod
    def named(cls, rule: str) -> "BernoulliSpec":
        if rule not in ("inverse-square", "heavy-log"):
            raise ValueError(f"unknown Bernoulli rule {rule!r}")
        return cls(rule=rule, entropy=_rule_entropy(rule))


@functools.lru_cache(maxsize=None)
def _heavy_norm() -> float:
    """An upper bound, within 1e-7, on the sum of 1/(k log(k+1)^2): the
    partial sum to K plus the upper end of the integral test's remainder
    range [1/log(K+2), 1/log K].  The rule's masses then sum to at most 1,
    and ``Q_of_bernoulli``'s ``tail_mass`` covers the rest."""
    K = 200000
    ks = np.arange(1, K + 1, dtype=float)
    partial = math.fsum((1.0 / (ks * np.log(ks + 1.0) ** 2)).tolist())
    return partial + 1.0 / math.log(K)


# edges a named rule reads exactly; the rest is its closed-form tail
RULE_CUTOFF = 50000


def _rule_mass(rule: str, k):
    """Mass of edge k (an int or an integer array) under a named rule."""
    if rule == "inverse-square":
        # float_power matches the scalar k ** -2.0 bit for bit; ** on an
        # integer array does not
        return np.float_power(k, -2.0) / BASEL_SUM
    return 1.0 / (k * np.log(k + 1.0) ** 2) / _heavy_norm()


# config validation builds each named spec; runs in one process share it
@functools.lru_cache(maxsize=None)
def _rule_entropy(rule: str) -> float:
    if rule == "heavy-log":
        # -p log p ~ 1/(k log k), whose sum diverges
        return math.inf
    ps = _rule_mass(rule, np.arange(1, 200001))
    return float(-(ps * np.log(ps)).sum())


@dataclass(frozen=True)
class MeasureSummary:
    Q_value: tuple        # per-component Enclosure
    I_mean: Enclosure
    J_mean: tuple         # per-component Enclosure
    entropy: float


def _divide(j: Enclosure, i: Enclosure) -> Enclosure:
    """Componentwise interval quotient with positive denominator."""
    if i.lo <= 0:
        raise ValueError("geometric mean enclosure must be positive")
    cands = [0.0 if math.isinf(b) else a / b
             for a in (j.lo, j.hi) for b in (i.lo, i.hi)]
    return Enclosure(min(cands), max(cands))


def Q_of_periodic(sys: SystemDescriptor, J: PotentialVector, cycle) -> MeasureSummary:
    """Quotient value of the periodic-orbit measure (the equidistribution
    on one periodic orbit) of a cycle.

    The potential sum over one period is exact; the geometric sum is
    bracketed by evaluating the period word's derivative on the cycle's
    own coding enclosure, obtained by iterating the period map until the
    interval stabilizes, and must be positive."""
    syms = closed_cycle(cycle, sys.incidence)
    p = len(syms)
    fam = sys.family
    iv = fam.domain()
    for _ in range(FIX_ITERS):
        prev, iv = iv, fam.word_image(syms, iv)
        if iv[1] - iv[0] <= FIX_TOL or iv == prev:
            break
    ld_lo, ld_hi = fam.word_log_deriv_range(syms, iv)
    birkhoff_I = Enclosure(-ld_hi, -ld_lo)
    bj = cycle_birkhoff(J, syms)
    if birkhoff_I.lo <= 0.0:
        raise ValueError("per-period geometric sum must be positive")
    I_mean = Enclosure(birkhoff_I.lo / p, birkhoff_I.hi / p)
    J_mean = tuple(Enclosure(v / p, v / p) for v in bj)
    Q = tuple(_divide(Enclosure(v, v), birkhoff_I) for v in bj)
    return MeasureSummary(Q_value=Q, I_mean=I_mean, J_mean=J_mean, entropy=0.0)


def Q_of_bernoulli(sys: SystemDescriptor, J: PotentialVector,
                   spec: BernoulliSpec, rule_cutoff: int = RULE_CUTOFF) -> MeasureSummary:
    """Quotient value of a Bernoulli measure.

    Potential means are exact for depth-1 potentials (weighted symbol
    sums); the geometric mean collects per-symbol brackets.  Closed-form
    infinite rules get integral-test tails; a divergent weighted sum is
    reported as an infinite upper endpoint, which legitimately squeezes
    the quotient enclosure onto zero.
    """
    if J.depth != 1:
        raise ValueError("Bernoulli quotients require a depth-1 potential")
    if spec.rule is not None and sys.is_finite:
        raise ValueError(
            "infinite-support Bernoulli rules need an infinite-alphabet "
            f"system; this one has {sys.alphabet_size} edges")
    if spec.probs is not None:
        items = [(k, p) for k, p in spec.probs if p > 0.0]
        # continuing into the support hull, not the ambient domain, is what
        # makes single-symbol measures exact
        hull = sys.support_hull(k for k, _ in items)
        J_lo = np.zeros(J.dim)
        i_lo = i_hi = 0.0
        for k, p in items:
            ld_lo, ld_hi = sys.family.deriv_log_range(k, hull)
            i_lo -= p * ld_hi
            i_hi -= p * ld_lo
            J_lo = J_lo + p * J.value((k,))
        J_enc = tuple(Enclosure(v, v) for v in J_lo)
        I_enc = Enclosure(i_lo, i_hi)
    else:
        ks = np.arange(1, rule_cutoff + 1)
        ps = _rule_mass(spec.rule, ks)
        jvals = J.table(rule_cutoff)[1:]
        ld_lo, ld_hi = sys.family.vec_suffix_then_head(ks[None, :], sys.family.domain())
        ilos, ihis = -ld_hi, -ld_lo
        tail_mass = 1.0 - math.fsum(ps.tolist())
        tail_mass = max(tail_mass, 0.0)
        jcenter = (ps[:, None] * jvals).sum(axis=0)
        J_enc = tuple(Enclosure(float(c - tail_mass * J.bound),
                                float(c + tail_mass * J.bound)) for c in jcenter)
        i_lo = float(math.fsum((ps * ilos).tolist()))  # dropped tail is >= 0
        i_hi_partial = float(math.fsum((ps * ihis).tolist()))
        i_hi_tail = _rule_I_tail_upper(sys, spec.rule, rule_cutoff)
        I_enc = Enclosure(i_lo, i_hi_partial + i_hi_tail)
    Q = tuple(_divide(j, I_enc) for j in J_enc)
    return MeasureSummary(Q_value=Q, I_mean=I_enc, J_mean=J_enc,
                          entropy=spec.entropy)


def _rule_I_tail_upper(sys: SystemDescriptor, rule: str, K: int) -> float:
    """Upper bound on sum_{k>K} p_k sup I_k (I_k = -log|phi_k'|); +inf for
    the divergent heavy-log rule and for a system without a tail rule.

    Continued fractions have sup I_k <= 2 log(k+1).  A tail rule with
    exponent p gives inf|phi_k'| >= c_lower k**-p / D for the distortion
    constant D, so sup I_k <= p log k + max(0, log(D/c_lower))."""
    if rule != "inverse-square":
        return math.inf
    if isinstance(sys.family, MoebiusCFFamily):
        # sum_{k>K} 2 log(k+1) k^-2 / S <= 2/S * (log(K+1)/K + log(1+1/K))
        return 2.0 / BASEL_SUM * (math.log(K + 1.0) / K + math.log(1.0 + 1.0 / K))
    tail = sys.tail_rule
    if tail is None:
        return math.inf
    # sum_{k>K} log(k) k^-2 <= (log K + 1)/K and sum_{k>K} k^-2 <= 1/K
    c = max(0.0, math.log(sys.family.distortion_constant / tail.c_lower))
    return (tail.exponent * (math.log(K) + 1.0) + c) / (K * BASEL_SUM)


# ---------------------------------------------------------------------------
# generic word construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    index: int
    position: int
    quotient: tuple
    error: float
    epsilon: float


@dataclass(frozen=True)
class GenericWordReport:
    prefix: tuple
    checkpoints: tuple
    status: str            # complete | partial
    achieved: float        # best quotient error reached


def construct_generic_word(sys: SystemDescriptor, J: PotentialVector,
                           target_alpha, schedule: Sequence[float],
                           budget: int = 200000, *,
                           max_period: int = 3,
                           truncation: Optional[int] = None) -> GenericWordReport:
    """Assemble a word whose running Birkhoff quotient converges to the
    target by gluing growing blocks of approximating cycles.

    Cycles are searched among short periodic words below the truncation,
    at most ``budget`` of them, by period and then lexicographically;
    block lengths are chosen so that the next block's one-period sums,
    divided by the accumulated length, fall below the next accuracy
    target.  Connectors, of length at most CONNECTOR_LEN, come from an
    irreducibility witness, smallest first.  If no cycle approximates some
    target accuracy the construction stops and reports partial status with
    the accuracy achieved.
    """
    target = np.atleast_1d(np.asarray(target_alpha, dtype=float))
    N = sys.effective_truncation(truncation if truncation is not None else 6)
    eps = [float(e) for e in schedule]
    if not eps:
        raise ValueError("schedule must be nonempty")
    witness = find_irreducibility_witness(sys.incidence, N, CONNECTOR_LEN)
    fam = sys.family

    # candidate cycles with quotient midpoints
    pool = []
    for syms in itertools.islice(enumerate_cycles(sys.incidence, max_period, N),
                                 budget):
        summ = Q_of_periodic(sys, J, syms)
        qmid = np.array([e.mid for e in summ.Q_value])
        ivec = summ.I_mean.mid * len(syms)
        jvec = np.array([e.mid for e in summ.J_mean]) * len(syms)
        pool.append((syms, qmid, ivec, jvec))

    def pick(eps_k):
        best = None
        for syms, qmid, ivec, jvec in pool:
            err = float(np.abs(qmid - target).max())
            if err <= eps_k / 2 and (best is None or err < best[0] or
                                     (err == best[0] and syms < best[1][0])):
                best = (err, (syms, qmid, ivec, jvec))
        return best[1] if best else None

    def connector(prev_last, nxt_first):
        for w in sorted(witness.connectors, key=lambda w: (len(w), w)):
            if is_admissible((prev_last, *w, nxt_first), sys.incidence):
                return w
        return None

    log_s = math.log(sys.family.contraction_bound)
    prefix: list[int] = []
    checkpoints = []
    status = "complete"
    achieved = math.inf
    for k, eps_k in enumerate(eps, start=1):
        choice = pick(eps_k)
        if choice is None:
            status = "partial"
            break
        syms, qmid, ivec, jvec = choice
        m_k = len(syms)
        if k == 1:
            reps = 1
        else:
            scale = max(abs(ivec), float(np.abs(jvec).max()))
            reps = max(1, math.ceil(scale / ((-log_s) * m_k * eps_k)))
        if prefix:
            conn = connector(prefix[-1], syms[0])
            if conn is None:
                status = "partial"
                break
            prefix.extend(conn)
        prefix.extend(syms * reps)
        # checkpoint: running quotient over the full prefix
        ld_lo, ld_hi = fam.word_log_deriv_range(tuple(prefix), fam.domain())
        i_mid = -0.5 * (ld_lo + ld_hi)
        # trailing potential windows wrap around the prefix: exact for depth 1
        quot = cycle_birkhoff(J, prefix) / i_mid
        err = float(np.abs(quot - target).max())
        achieved = min(achieved, err)
        checkpoints.append(Checkpoint(index=k, position=len(prefix),
                                      quotient=tuple(quot.tolist()),
                                      error=err, epsilon=eps_k))
    return GenericWordReport(prefix=tuple(prefix),
                             checkpoints=tuple(checkpoints),
                             status=status, achieved=achieved)


# ---------------------------------------------------------------------------
# failure of geometric-mean convergence along a weakly convergent sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleRow:
    n: int
    c_n: float
    top_mass: float
    I_lower: float
    I_upper: float
    valid_probability: bool


@dataclass(frozen=True)
class CounterexampleResult:
    rows: tuple
    limit_I: Enclosure
    verdict: str            # strict-gap | inconclusive
    M_param: float


def semicontinuity_counterexample(M_param: float,
                                  n_list: Sequence[int]) -> CounterexampleResult:
    """Table demonstrating that geometric means need not converge along a
    weakly convergent sequence of Bernoulli measures.

    The n-th vector puts mass ``c_n k**-2 / S`` on k < n (S the Basel sum,
    ``c_n = 1 - M/log n``) and the remainder on k = n, so the top symbol
    carries mass about ``M / log n`` and contributes about 2M to the
    geometric mean, while the weak limit (mass ``k**-2 / S``) keeps a
    bounded mean.  Vectors are valid probability vectors only once
    ``log n >= M``; smaller n still evaluate the displayed bound chains
    but are flagged, since some entries turn negative.
    """
    if M_param <= 0:
        raise ValueError("M_param must be positive")
    S = BASEL_SUM
    limit = _limit_I_enclosure()
    rows = []
    for n in n_list:
        n = int(n)
        if n < 2:
            raise ValueError("each n must be >= 2")
        c_n = 1.0 - M_param / math.log(n)
        if n - 1 <= SERIES_TERMS:
            ks = np.arange(1, n, dtype=float)
            part_sq = math.fsum((ks ** -2.0).tolist())
            part_lo = math.fsum((2.0 * np.log(ks) / ks ** 2).tolist())
            part_hi = math.fsum((2.0 * np.log(ks + 1.0) / ks ** 2).tolist())
        else:
            # analytic partial sums with one-sided integral-test remainders
            part_sq = S - 1.0 / n
            full_lo = 2.0 * 0.9375482543158437  # sum_k log(k)/k**2
            tail_lo_upper = 2.0 * (math.log(n) / n ** 2 + (math.log(n) + 1.0) / n)
            part_lo = full_lo - tail_lo_upper
            full_hi = 2.0 * _log_kp1_sum_upper()
            tail_hi_lower = 2.0 * (math.log(n + 1.0) / n + math.log(1.0 + 1.0 / n))
            part_hi = full_hi - tail_hi_lower
        top = 1.0 - c_n / S * part_sq
        lower = c_n / S * part_lo + top * 2.0 * math.log(n)
        upper = c_n / S * part_hi + top * 2.0 * math.log(n + 1.0)
        rows.append(CounterexampleRow(
            n=n, c_n=c_n, top_mass=top, I_lower=lower, I_upper=upper,
            valid_probability=bool(0.0 <= c_n <= 1.0)))
    ok = all(r.I_lower > limit.hi for r in rows)
    verdict = "strict-gap" if ok else "inconclusive"
    return CounterexampleResult(rows=tuple(rows), limit_I=limit,
                                verdict=verdict, M_param=float(M_param))


@functools.lru_cache(maxsize=None)
def _log_kp1_sum_upper() -> float:
    """Upper value of sum_k log(k+1)/k**2 (partial sum plus integral tail)."""
    K = SERIES_TERMS
    ks = np.arange(1, K + 1, dtype=float)
    part = math.fsum((np.log(ks + 1.0) / ks ** 2).tolist())
    return part + math.log(K + 1.0) / K + math.log(1.0 + 1.0 / K)


@functools.lru_cache(maxsize=None)
def _limit_I_enclosure() -> Enclosure:
    """Geometric mean of the inverse-square Bernoulli measure."""
    ks = np.arange(1, SERIES_TERMS + 1, dtype=float)
    lo = math.fsum((2.0 * np.log(ks) / ks ** 2).tolist()) / BASEL_SUM
    hi = 2.0 * _log_kp1_sum_upper() / BASEL_SUM
    return Enclosure(lo, hi)


def cylinder_mass(M_param: float, n: int, k: int) -> float:
    """Mass the n-th counterexample vector puts on the depth-1 cylinder of
    k; converges to the inverse-square limit as n grows."""
    c_n = 1.0 - M_param / math.log(n)
    if k > n:
        return 0.0
    if k < n:
        return c_n / BASEL_SUM * k ** -2.0
    ks = np.arange(1, n, dtype=float)
    return 1.0 - c_n / BASEL_SUM * math.fsum((ks ** -2.0).tolist())

"""Cylinder-weighted pressure sums: stage-n word sums, and the window
transfer matrix that brackets the limit pressure.

:class:`PressureKernel` evaluates stage-n sums, (1/n)-normalized log sums
over admissible length-n words, lower using per-cylinder infima and upper
using suprema.  Its brackets are refined only to a window depth q,
shorter than the word unless the window clamp equals it, and the sum is a
transfer recursion over (q-1)-gram states on the kernel's own
:class:`WindowTransfer`, so its interval contains the one of exact
per-word brackets.  A distortion-free (similarity) family's
brackets are already exact at the clamped window (the potential depth,
and 2 on a Markov incidence), where the two intervals agree up to
rounding.  :meth:`WindowTransfer.windows` chooses the window of every
table, the stage kernel's and the certifying transfer's.

:class:`WindowTransfer` is the only limit-bracket object:
log rho(L_inf) <= P <= log rho(L_sup) for its window matrix L, each radius
bounded by Collatz-Wielandt ratios per irreducible class of states.  The
state graph is the (q-1)-block presentation of the incidence, so those
classes are read from the incidence's classes of symbols, without a search
over states; on a full shift it is a de Bruijn graph, one class of every
state.  It owns the window clamps, the table cap and the potential table,
and holds none of the trailing windows that only stage sums read.
A table is immutable once built, its caches and buffers aside: a limit
call warm-starts from the Perron iterates its caller passes
(:meth:`WindowTransfer.start`), so one table serves a whole command, and
one lazy Perron step at a time (:meth:`WindowTransfer.limit_step`) lets a
root solve move beta while its iterate converges.  A table owns the
buffer that its weights are written into and the two that every
transfer step writes (:func:`_step`); a stage kernel owns those of its
closure, iterates and derivative accumulator, and plans the closure's
views once per weight side.  So neither a warm stage value nor a warm
Perron step on a class of every state allocates a state-sized array (a
class given by a mask gathers its states).  The weights
and steps that one evaluation returns are valid until the table's next,
so tables are not for concurrent threads.

Every window and trailing table comes from one recursion on word length
(:func:`_levels`): the family's per-word state of all L-words, in natural
code order, is extended to all (L+1)-words by one leading symbol, and
:class:`~cgdms.symbolic.IncidenceMatrix` extends their admissibility the
same way.  So no table builds a grid of symbols at a depth-1 potential;
the table of a potential of depth m >= 2 is built on the grid of its
m-words.

The closure over the trailing windows comes from the same kind of
recursion on suffix length: the closure of the l-suffixes is that of the
(l-1)-suffixes, repeated over one leading symbol, plus the bounds of the
l-suffixes.  No stage sum gathers by suffix codes.

Each reduction takes its weights at the infimum, supremum or midpoint of
their brackets and, on request, carries their t- and beta-derivatives,
which gives the Gibbs moments as exact derivatives of the anchored value.
The <t, J> tables are kept for the last t, since a root solve or a
pressure grid evaluates one t at many beta.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np

from .potentials import PotentialVector
from .system import SystemDescriptor

# max truncation**n at which the automatic window of level n is n itself
# (:meth:`WindowTransfer.windows`)
EXACT_CAP = 1 << 17
DP_WINDOW_CAP = 1 << 19  # max truncation**window of an automatic window
TABLE_CAP = DP_WINDOW_CAP * 4  # max truncation**window of any window table
# max state-steps of one dp stage recursion, about 1 s at 8 ns a state-step
STAGE_STEP_CAP = 1 << 27
# state-steps charged at least per stage step: its fixed cost, about 8 us
STEP_FLOOR = 1 << 10
# the point of the weight brackets that each limit bound side reads
_SIDE = {"lower": "inf", "upper": "sup", "mid": "mid"}
PERRON_LAZY = 0.1        # weight of v in the Perron step v <- vL + c*hi*v
PERRON_ITER_CAP = 1000   # Perron steps per irreducible class and bracket
_TINY = np.finfo(float).tiny  # floor of the Perron iterates
# largest truncation whose transfer steps copy column by column (:func:`_step`):
# measured faster than one strided copy up to N = 4, about even at N = 5
# and 6, slower from N = 7 on (9.5 against 0.8 us at N = 24, 576 states)
_COLUMN_COPY_N = 5


def _levels(sys: SystemDescriptor, N: int, hull: tuple, top: int):
    """The tables of the L-words over 1..N for L = 0, 1, ..., top, by one
    recursion on word length.  Yields (ok, state) per level: ``ok`` the
    admissibility of every L-word in natural code order (first symbol most
    significant) and ``state`` the family's per-word arrays over ``hull``
    (:meth:`~cgdms.families.MapFamily.word_step`) in the same order, for
    every word.  Level L+1 extends each word of level L by one leading
    symbol."""
    fam, inc = sys.family, sys.incidence
    ok, state = np.ones(1, dtype=bool), fam.word_start(hull)
    yield ok, state
    for L in range(1, top + 1):
        nxt = np.ones(N, dtype=bool) if L == 1 else inc.extend_admits(ok, N)
        state = fam.word_step(np.arange(1, N + 1)[:, None], state)
        state = tuple(np.broadcast_to(s, (N, ok.size)).ravel() for s in state)
        ok = nxt
        yield ok, state


def _head_brackets(fam, tails: tuple, hull: tuple, N: int) -> tuple:
    """(lo, hi) of log|phi_k'| over phi_w(hull), flattened, for each
    leading symbol k in 1..N (the leading axis) and each word w whose
    family state ``tails`` holds (arrays of any one shape)."""
    k = np.arange(1, N + 1).reshape((N,) + (1,) * tails[0].ndim)
    shape = (N, *tails[0].shape)
    return tuple(np.broadcast_to(x, shape).ravel()
                 for x in fam.head_bracket(k, tails, hull))


def _pick(lo, hi, which: str):
    """The infimum ('inf'), supremum ('sup') or midpoint ('mid') of a
    bracket pair."""
    if which == "inf":
        return lo
    if which == "sup":
        return hi
    return 0.5 * (lo + hi)


class _Sides(dict):
    """The 'inf' and 'sup' points of a bracket pair, by name, and its 'mid'
    point, built on first read: only an anchored value or an estimate reads
    it."""

    def __missing__(self, which):
        if which != "mid":
            raise KeyError(which)
        mid = self["mid"] = _pick(self["inf"], self["sup"], "mid")
        return mid


def _step(v: np.ndarray, ET: np.ndarray, out: tuple) -> np.ndarray:
    """One transfer step: values on the (q-1)-gram states, summed over the
    symbol leaving the window, into values on the next states.  ``ET`` holds
    the window weights in transfer order, (N, N, R) with R = N**(q-2):
    ET[a, b, r] weighs the window of first symbol a, middle (q-2)-gram r and
    next symbol b, so that a step reads states (a, r) and writes (r, b).

    ``out`` is the table's pair of step buffers
    (:attr:`WindowTransfer._step_out`): the sums are written, r fastest as
    the reduction lays them out, into the (N, R) one and copied in state
    order into the (R, N) one, whose flat view is returned; it is valid
    until the table's next step.  Up to _COLUMN_COPY_N symbols the copy
    goes column by column, as one strided copy would run an inner loop
    only N long; past it, one copy is faster."""
    N, _, R = ET.shape
    sums, nxt = out
    np.einsum("ar,abr->br", v.reshape(N, R), ET, out=sums)
    if N <= _COLUMN_COPY_N:
        for b in range(N):
            nxt[:, b] = sums[b]
    else:
        np.copyto(nxt, sums.T)
    return nxt.ravel()


def _transfer_order(N: int, q: int) -> np.ndarray:
    """Window codes in the transfer order of :func:`_step`: the code at
    position (a, b, r) of an (N, N, N**(q-2)) array; the natural order when
    q = 1, which has no states."""
    codes = np.arange(N ** q)
    return codes if q == 1 else codes.reshape(N, -1, N).transpose(0, 2, 1).ravel()


def _perron_bracket(ET: np.ndarray, out: tuple, live, v: np.ndarray,
                    settled=None, steps: int = PERRON_ITER_CAP) -> tuple:
    """Collatz-Wielandt bracket (lo, hi) of the spectral radius of the
    window transfer matrix on the irreducible class ``live`` (a mask or
    every state): min (vL)_i/v_i <= rho <= max (vL)_i/v_i for v > 0.  The
    step v <- vL + c*hi*v keeps the Perron vector, is aperiodic on periodic
    classes and updates ``v`` in place as the next call's warm start; it
    stops once the spread stops shrinking, once ``settled(lo, hi)`` holds
    for the running bracket, or after ``steps`` steps.  The steps run in
    ``out``, the table's step buffers: the ratios are written to the sums
    buffer, free once a step has copied it out, which then takes the lazy
    term, and the new iterate is normalized and floored in place."""
    lo, hi, spread = 0.0, math.inf, math.inf
    for _ in range(steps):
        vl = v[live]
        u = _step(v, ET, out)[live]
        r = np.divide(u, vl, out=out[0].reshape(-1)[:u.size])
        rlo, rhi = float(r.min()), float(r.max())
        lo, hi = max(lo, rlo), min(hi, rhi)
        if rhi - rlo >= spread or rhi == 0.0 or (settled and settled(lo, hi)):
            break
        spread = rhi - rlo
        u += np.multiply(vl, PERRON_LAZY * rhi, out=r)
        u /= u.max()
        # floored so every iterate stays positive on the class
        v[live] = np.maximum(u, _TINY, out=u)
    return lo, hi


def _part_j_bounds(u: np.ndarray, l: int, N: int) -> tuple:
    """(inf, sup, inf code, sup code) of <t, J> over the admissible
    completions of the l-words, l < m, from its values ``u`` on the m-words
    (:meth:`WindowTransfer.j_dot`): the codes are those of the m-words
    attaining the bounds, whose J are the bounds' t-derivatives."""
    grid = u.reshape(N ** l, -1)
    blk = grid.shape[1]
    rows = np.arange(grid.shape[0])
    top = grid.argmax(axis=1)
    masked = np.where(np.isneginf(grid), math.inf, grid)
    low = masked.argmin(axis=1)
    sup = grid[rows, top]
    inf = np.where(np.isinf(sup) & (sup < 0), -math.inf, masked[rows, low])
    return inf, sup, rows * blk + low, rows * blk + top


class WindowTransfer:
    """The window transfer matrix of one system, potential, truncation N
    and window q: the weights of the admissible q-symbol windows over
    (q-1)-gram states, laid out in the transfer order of :func:`_step`,
    and the Collatz-Wielandt bracket of its spectral radius, which brackets
    the limit pressure.  A :class:`PressureKernel` runs its stage
    recursion on one, which never reads the Perron classes; each certified
    quantity is bracketed on it from a Perron start of its own.

    The window table is written in transfer order straight from level q-1
    of :func:`_levels`: the states of the (q-1)-word tails r b, read as
    (b, r), meet every leading symbol a, and no other level is kept.  A
    ``trailing`` dict is filled, from the lower levels of the same
    recursion, with the log-derivative ranges of the l-cylinders, l < q,
    keyed by l: the trailing windows that only a stage sum reads.

    ``jvals`` holds J on the depth-m words in natural code order (at depth 1
    one :meth:`~cgdms.potentials.PotentialVector.table`), zero on the
    inadmissible ones, which ``mvalid`` marks false."""

    def __init__(self, sys: SystemDescriptor, J: PotentialVector, N: int,
                 q: int, trailing: Optional[dict] = None):
        q = self.clamp(sys, J, q)
        self.check_size(N, q)
        self.sys, self.J, self.N, self.window = sys, J, N, q
        m = J.depth
        if m == 1:
            self.jvals, self.mvalid = J.table(N)[1:], np.ones(N, dtype=bool)
        else:  # the one grid of symbols: the m-words as columns, in code order
            msyms = np.indices((N,) * m).reshape(m, -1) + 1
            self.mvalid = sys.incidence.admits(msyms)
            self.jvals = np.zeros((N ** m, J.dim))
            for code in np.flatnonzero(self.mvalid):
                self.jvals[code] = J.value(msyms[:, code])
        hull = sys.hull(N)
        for L, (ok, tails) in enumerate(_levels(sys, N, hull, q - 1)):
            if trailing is not None and L < q - 1:
                lo, hi = _head_brackets(sys.family, tails, hull, N)
                trailing[L + 1] = _Sides(inf=lo, sup=hi)
        self.state_valid = ok  # admissible (q-1)-gram states
        if q == 1:  # no states: the windows are the symbols
            valid = np.ones(N, dtype=bool)
        else:
            valid = sys.incidence.extend_admits(ok, N).reshape(N, -1, N).transpose(0, 2, 1)
            tails = tuple(np.ascontiguousarray(s.reshape(-1, N).T) for s in tails)
        self.valid = valid.ravel()
        self.all_valid = bool(self.valid.all())
        lo, hi = _head_brackets(sys.family, tails, hull, N)
        self.ld = _Sides(inf=lo, sup=hi)
        del tails
        self._w = np.empty(self.valid.size)  # the weights of the last evaluation
        self._jkey = None

    @staticmethod
    def clamp(sys: SystemDescriptor, J: PotentialVector, q: int) -> int:
        """The window ``q`` raised to the potential depth, and to 2 on a
        Markov incidence, whose states must remember the last symbol."""
        return max(q, J.depth, 1 if sys.incidence.full_shift else 2)

    @staticmethod
    def check_size(N: int, q: int) -> None:
        """ValueError when a window table of N**q entries passes the cap:
        when q is past :meth:`deepest_window`, so that no huge power of N
        is computed."""
        if q > WindowTransfer.deepest_window(N):
            raise ValueError(f"window table too large: {N}**{q}")

    @staticmethod
    def deepest_window(N: int, cap: int = TABLE_CAP) -> int:
        """The deepest window whose table of N**q entries stays within
        ``cap`` at truncation N, by default the deepest that
        :meth:`check_size` admits.  At N = 1 a table has one entry but
        takes q levels to build, so the caps are those of N = 2."""
        N, q = max(N, 2), 0
        while N ** (q + 1) <= cap:
            q += 1
        return q

    @classmethod
    def windows(cls, sys: SystemDescriptor, J: PotentialVector, N: int, n: int,
                window: Optional[int] = None) -> tuple:
        """(stage, certify): the windows of the stage-n kernel over edges
        <= N and of the transfer that certifies the limit, the one window
        policy of every table.  ``certify`` is the clamped ``window``, or
        absent one the clamp for a distortion-free family, whose brackets
        are exact there; otherwise n while N**n stays within EXACT_CAP,
        else n-1, and never past the deepest window within DP_WINDOW_CAP
        (19 at N = 1 and 2).  ``stage`` is ``certify`` unless that reaches
        n, then the clamp of n-1, which may pass n
        (:meth:`PressureKernel.check_length`)."""
        if window is None:
            window = 1
            if not sys.family.distortion_free:
                window = min(n if N ** min(n, 40) <= EXACT_CAP else n - 1,
                             cls.deepest_window(N, DP_WINDOW_CAP))
        certify = cls.clamp(sys, J, window)
        return (certify if certify < n else cls.clamp(sys, J, n - 1)), certify

    @cached_property
    def jcode(self) -> np.ndarray:
        """The code of each window's first m symbols, in transfer order."""
        N, q = self.N, self.window
        return _transfer_order(N, q) // (N ** (q - self.J.depth))

    @cached_property
    def _invalid(self) -> np.ndarray:
        """The inadmissible windows, in transfer order."""
        return ~self.valid

    def j_dot(self, t) -> tuple:
        """(<t, J> on the depth-m words, -inf on inadmissible ones, and the
        same values on the windows in transfer order, the J of each
        window's first m symbols, or None where every value is 0), kept for
        the last t, as a root solve evaluates one t at many beta; values
        that overflow are left to :meth:`weights`."""
        key = t.tobytes()
        if self._jkey != key:
            with np.errstate(over="ignore", invalid="ignore"):
                u = self.jvals @ t
            u[~self.mvalid] = -math.inf
            # adding 0 changes no weight
            self._jkey, self._ju = key, (u, u[self.jcode] if u.any() else None)
        return self._ju

    def weights(self, t, beta, which):
        """(base, ew): window weights exp(w - base) at the ``which`` point
        of their brackets, in transfer order, base being the largest
        admissible log weight w (-inf, with zero weights, when every w is
        -inf).  ArithmeticError when an admissible w is +inf or NaN, which
        no weight scale represents.

        ``ew`` is the table's own buffer, written in place by every call:
        it is valid until the table's next evaluation, so a table is not
        for concurrent threads."""
        w = np.multiply(self.ld[which], beta, out=self._w)
        ju = self.j_dot(t)[1]
        if ju is not None:
            w += ju
        if not self.all_valid:
            np.copyto(w, -math.inf, where=self._invalid)
        base = float(w.max())
        if not base < math.inf:
            raise ArithmeticError(
                f"a log weight <t, J> + beta*log|phi'| is +inf or NaN at "
                f"t={t.tolist()}, beta={beta}")
        if base == -math.inf:
            w.fill(0.0)
        else:
            np.exp(np.subtract(w, base, out=w), out=w)
        return base, w

    @cached_property
    def _step_out(self) -> tuple:
        """The two state-sized buffers of :func:`_step`, made on the first
        step: (N, R) for the sums, (R, N) for the next states."""
        N, S = self.N, self.state_valid.size
        return np.empty((N, S // N)), np.empty((S // N, N))

    @cached_property
    def _classes(self) -> list:
        """The states (a mask, or every state) of each irreducible class of
        (q-1)-gram states with a cycle: rho is the largest of their radii,
        whatever the transient states.  The state graph is the (q-1)-block
        presentation of the incidence, so a class is the admissible grams
        over one :meth:`~cgdms.symbolic.IncidenceMatrix.classes` of symbols;
        with every window admissible, one class of every state."""
        if self.all_valid:
            return [slice(None)]
        masks = []
        for sym in self.sys.incidence.classes(self.N):
            live = sym  # the grams whose symbols all lie in the class
            for _ in range(self.window - 2):
                live = (sym[:, None] & live).ravel()
            live = live & self.state_valid
            # a class of every state is read whole, without gathers
            masks.append(slice(None) if live.all() else live)
        return masks

    def start(self) -> list:
        """Fresh Perron iterates of the classes, 1 on their states: the
        ``start`` that limit calls warm-start from and update in place."""
        return [np.ones(self.state_valid.size) if isinstance(live, slice)
                else live.astype(float) for live in self._classes]

    def _walk(self, t, beta, side: str, settled, start,
              steps: int = PERRON_ITER_CAP) -> tuple:
        """(base, brackets) at the ``side`` point of the weights: their log
        scale and the lazy Collatz-Wielandt brackets (lo, hi) of the
        classes in order, from ``start`` (fresh when None), each stopped
        early by ``settled`` or after ``steps`` steps; at window 1 the one
        bracket is the weights' sum."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        base, ew = self.weights(t, beta, _SIDE[side])
        if self.window == 1:
            z = float(ew.sum())
            return base, [(z, z)]
        ET, out = ew.reshape(self.N, self.N, -1), self._step_out
        return base, (_perron_bracket(ET, out, live, v, settled, steps)
                      for live, v in zip(self._classes,
                                         self.start() if start is None else start))

    @staticmethod
    def _largest(brackets) -> tuple:
        """The largest lower and upper ends over the classes' brackets: those
        of the radius of the whole matrix; 0 without a class."""
        return tuple(map(max, zip(*(list(brackets) or [(0.0, 0.0)]))))

    def limit_bound(self, t, beta, side: str,
                    start: Optional[list] = None) -> float:
        """The limit pressure of <t,J> - beta*I over the truncated system
        (beta >= 0) lies in [log rho(L_inf), log rho(L_sup)] for the window
        transfer matrix L.  'lower' and 'upper' are those endpoints, each
        radius bounded by Collatz-Wielandt ratios; 'mid' is the log of the
        midpoint ratio of the midpoint-weight matrix, the point estimate."""
        base, brackets = self._walk(t, beta, side, None, start)
        lo, hi = self._largest(brackets)
        with np.errstate(divide="ignore"):
            return base + float(np.log(_pick(lo, hi, _SIDE[side])))

    def limit_step(self, t, beta, start: list) -> tuple:
        """(lower, mid, upper) after one lazy Perron step per class from
        ``start``, which the step advances: 'lower' and 'upper' bound the
        log radius of the midpoint-weight matrix by the Collatz-Wielandt
        ratios of that one step, and 'mid' is the log of their midpoint,
        :meth:`limit_bound`'s 'mid' once the iterate has converged.  A root
        solve that moves beta between steps converges its Perron iterate
        and its root together."""
        base, brackets = self._walk(t, beta, "mid", None, start, steps=1)
        lo, hi = self._largest(brackets)
        with np.errstate(divide="ignore"):
            return tuple(base + float(np.log(x))
                         for x in (lo, _pick(lo, hi, "mid"), hi))

    def limit_sign(self, t, beta, side: str, strict: bool = True,
                   start: Optional[list] = None) -> bool:
        """Whether :meth:`limit_bound` is above 0 for 'lower' (at or above
        0 unless ``strict``) or below 0 for 'upper', with the answer of full
        convergence: a class's Perron iteration ends as soon as its running
        Collatz-Wielandt bracket settles the sign, since its lower end only
        rises and its upper end only falls.  The lower bound is the largest
        class bound, so one settled class answers yes; the upper bound
        needs every class settled."""
        def settled(lo, hi):
            with np.errstate(divide="ignore"):
                p = base + float(np.log(lo if side == "lower" else hi))
            return p < 0.0 if side == "upper" else (p > 0.0 if strict else p >= 0.0)

        base, brackets = self._walk(t, beta, side, settled, start)
        test = any if side == "lower" else all
        return test(settled(*b) for b in brackets)


class PressureKernel:
    """Evaluates bracketed and anchored stage-n pressure sums for one
    system, potential, truncation, word length, and window depth, by the
    transfer recursion on its own :class:`WindowTransfer`."""

    # the one evaluation mode, the window recursion; bench/tracing.py reads it
    mode = "dp"

    def __init__(self, sys: SystemDescriptor, J: PotentialVector, *,
                 n: int, N: Optional[int] = None, window: Optional[int] = None):
        if n < 1:
            raise ValueError("word length must be >= 1")
        N = sys.effective_truncation(N)
        self.sys, self.J, self.n, self.N = sys, J, n, N
        self.window = WindowTransfer.windows(sys, J, N, n, window)[0]
        self.check_length(J, n, self.window)
        # per side: the window derivatives and closure plans, and the
        # closure's J bounds and derivatives with the t they are for
        self._derivs, self._plans, self._jbounds, self._dTs = {}, {}, {}, {}
        # log-derivative ranges of the trailing l-cylinders, l < q, from the
        # transfer's own recursion
        self._trail_ld: dict = {}
        self.transfer = WindowTransfer(sys, J, N, self.window, self._trail_ld)

    @cached_property
    def _buffers(self) -> tuple:
        """(V0, pair): the start of the stage recursion, 1 on the admissible
        states, which no evaluation writes, and two state-sized buffers for
        the closure over the trailing windows, the recursion's iterates and
        the final products of :meth:`_logsum`."""
        V0 = self.transfer.state_valid.astype(float)
        return V0, np.empty((2, V0.size))

    @cached_property
    def _grad_buffers(self) -> tuple:
        """(M, G, A, A2, prod): the buffers of the derivative recursion of
        :meth:`moments`, made on its first call: the weights as one (b, a)
        matrix per middle r, the weights times their derivatives (a, r, b,
        k), the accumulator (S, d+1), and a step's product and sum
        (r, b, k)."""
        N, S, d = self.N, self.transfer.state_valid.size, self.J.dim
        R = S // N
        return (np.empty((R, N, N)), np.empty((N, R, N, d + 1)),
                np.empty((S, d + 1)), np.empty((R, N, d + 1)),
                np.empty((R, N, d + 1)))

    @staticmethod
    def check_length(J: PotentialVector, n: int, q: int) -> None:
        """ValueError when words of length n are shorter than the stage
        window q, a clamp past n (:meth:`WindowTransfer.windows`)."""
        if q > n:
            raise ValueError(
                f"words of length {n} are shorter than its clamped window "
                f"{q} (the potential depth {J.depth}, and 2 on a Markov "
                "incidence); raise the length")

    # unused in the package; bench/tracing.py looks it up by name
    def with_length(self, n: int) -> "PressureKernel":
        """Same tables, longer words."""
        clone = object.__new__(PressureKernel)
        clone.__dict__.update(self.__dict__)
        clone.n = n
        return clone

    def _window_derivs(self, which) -> np.ndarray:
        """(N**q, d+1): the t- and -beta-derivatives (J and -ld) of the
        window log weights at ``which``, in natural window order; kept per
        side."""
        if which not in self._derivs:
            tr = self.transfer
            order = _transfer_order(self.N, self.window)
            dW = np.empty((order.size, self.J.dim + 1))
            dW[order, :-1] = tr.jvals[tr.jcode]
            dW[order, -1] = -tr.ld[which]
            self._derivs[which] = dW
        return self._derivs[which]

    def _plan(self, which: str) -> list:
        """The closure over the trailing windows at ``which``, planned once
        per side: per l = 1..q-1, (prev, ld, out, spare), the closure of the
        (l-1)-suffixes read over one leading symbol, the log-derivative
        bounds of the l-suffixes, and the views of the buffer pair that the
        closures alternate between, all shaped (leading symbol, rest of the
        J head, the others) as in :meth:`_logsum`."""
        if which not in self._plans:
            N, m, pair = self.N, self.J.depth, self._buffers[1]
            prev, plan = np.zeros(1), []
            for l in range(1, self.window):
                k = min(l, m)
                shape = (N, N ** (k - 1), N ** (l - k))
                out, spare = (pair[i][:N ** l].reshape(shape)
                              for i in (l % 2, 1 - l % 2))
                plan.append((prev.reshape(1, *shape[1:]),
                             self._trail_ld[l][which].reshape(shape), out, spare))
                prev = out
            self._plans[which] = plan
        return self._plans[which]

    def _closure_j(self, t, which: str) -> list:
        """The J bounds at ``which`` of the l-suffixes, l = 1..q-1, each
        shaped (leading symbol, rest of the J head, 1) against
        :meth:`_plan`; from l = m on, the bound of the first m symbols.
        Kept per side for the last t."""
        key, hit = t.tobytes(), self._jbounds.get(which)
        if hit is None or hit[0] != key:
            u, N, m = self.transfer.j_dot(t)[0], self.N, self.J.depth
            head = _pick(u, u, which).reshape(N, -1, 1)
            hit = self._jbounds[which] = (key, [
                _pick(*_part_j_bounds(u, l, N)[:2], which).reshape(N, -1, 1)
                if l < m else head for l in range(1, self.window)])
        return hit[1]

    def _closure_derivs(self, t, which: str) -> np.ndarray:
        """(S, d+1): the t- and -beta-derivatives of the closure at
        ``which``, by the same recursion on suffix length: per l-suffix the
        J of the completion its J bound picks, and -ld.  Free of beta, and
        of t at depth 1, whose bounds pick no completion: kept per side,
        and for the last t at depth >= 2."""
        N, m, d, tr = self.N, self.J.depth, self.J.dim, self.transfer
        key, hit = t.tobytes() if m > 1 else None, self._dTs.get(which)
        if hit is None or hit[0] != key:
            u = tr.j_dot(t)[0]
            dT = np.zeros((1, d + 1))
            for l, (_, ld, _, _) in enumerate(self._plan(which), start=1):
                if l < m:
                    clo, chi = _part_j_bounds(u, l, N)[2:]
                    jl = _pick(tr.jvals[clo], tr.jvals[chi], which)
                else:
                    jl = tr.jvals
                prev = dT.reshape(1, *ld.shape[1:], d + 1)
                dT = np.empty((*ld.shape, d + 1))
                dT[..., :d] = prev[..., :d] + jl.reshape(N, -1, 1, d)
                dT[..., d] = prev[..., d] - ld
                dT = dT.reshape(-1, d + 1)
            hit = self._dTs[which] = (key, dT)
        return hit[1]

    def _logsum(self, t, beta, which: str, grad: bool = False) -> tuple:
        """(value, J quotient, I quotient): the stage-n normalized log sum
        with every weight taken at the 'inf', 'sup' or 'mid' point of its
        bracket, and with ``grad`` its derivatives in t and -beta (None
        without).

        A transfer recursion over (q-1)-gram states with the window weights
        at the ``which`` point of their brackets, closed by the trailing
        windows.  With ``grad`` a (S, d+1) accumulator, advanced by the same
        steps as batched products, carries the t- and -beta-derivatives (J
        and -ld) of the same weights.

        The closure adds, on each state, the bounds of its l-suffixes for
        l = 1..q-1 in that order.  It is built by recursion on l: the
        closure of the l-suffixes is that of the (l-1)-suffixes repeated
        over one leading symbol, plus the J bound and beta times the
        log-derivative bound of each l-suffix, whose J bound from l = m on
        is that of its first m symbols, repeated over the rest.  The views
        of each level are planned once per side (:meth:`_plan`), so a level
        costs three ufunc calls."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tr, N, q, n, d = self.transfer, self.N, self.window, self.n, self.J.dim
        base, ew = tr.weights(t, beta, which)
        if base == -math.inf:
            return -math.inf, None, None
        if grad:
            dW = self._window_derivs(which)
        if q == 1:  # no state memory and no trailing windows
            z = float(ew.sum())
            value = n * (base + math.log(z)) / n
            if not grad:
                return value, None, None
            jq = (dW[:, :d] * ew[:, None]).sum(axis=0) / z
            return value, jq, float((dW[:, d] * ew).sum()) / z
        ET = ew.reshape(N, N, -1)
        R = ET.shape[2]
        V, pair = self._buffers
        S, out = V.size, tr._step_out
        # trailing windows of lengths 1..q-1 on each state's last symbols:
        # the closures alternate between the pair of buffers
        plan = self._plan(which)
        for (prev, ld, cl, spare), jb in zip(plan, self._closure_j(t, which)):
            np.add(prev, jb, out=cl)
            cl += np.multiply(ld, beta, out=spare)
        term = plan[-1][2].ravel()
        if grad:
            dT = self._closure_derivs(t, which)
            # the weights as one (b, a) matrix per middle r, and the weights
            # times their derivatives in natural order, (a, r, b, k)
            M, G, A, A2, prod = self._grad_buffers
            np.copyto(M, ET.transpose(2, 1, 0))
            np.multiply(ET.transpose(0, 2, 1)[..., None],
                        dW.reshape(N, R, N, d + 1), out=G)
            A.fill(0.0)
        # the recursion from V, each normalized iterate written to the buffer
        # that the closure left free
        logoff = 0.0
        for _ in range(n - (q - 1)):
            Vn = _step(V, ET, out)
            mx = Vn.max()
            if mx <= 0.0 or not math.isfinite(mx):
                return -math.inf, None, None
            if grad:
                np.matmul(M, A.reshape(N, R, d + 1).transpose(1, 0, 2), out=A2)
                A2 += np.einsum("ar,arbk->rbk", V.reshape(N, R), G, out=prod)
                np.divide(A2.reshape(S, d + 1), mx, out=A)
            V = np.divide(Vn, mx, out=pair[q % 2])
            logoff += math.log(mx) + base
        tmax = float(term.max())
        E = np.exp(np.subtract(term, tmax, out=term), out=term)
        # the products overwrite E unless the quotients read it
        z = float((V * E if grad else np.multiply(V, E, out=E)).sum())
        value = (logoff + tmax + math.log(z)) / n
        if not grad:
            return value, None, None
        A = A + V[:, None] * dT
        jq = (A[:, :d] * E[:, None]).sum(axis=0) / z / n
        return value, jq, float((A[:, d] * E).sum()) / z / n

    # -- public evaluations -----------------------------------------------
    def values(self, t, beta) -> tuple:
        """Certified (lower, upper) of the stage-n normalized log sum."""
        return (self._logsum(t, beta, "inf")[0], self._logsum(t, beta, "sup")[0])

    def bound(self, t, beta, side: str) -> float:
        """One certified endpoint ('lower' or 'upper') without computing
        the other; half the cost of :meth:`values` during bisection."""
        return self._logsum(t, beta, "inf" if side == "lower" else "sup")[0]

    def value(self, t, beta) -> float:
        """Anchored point value: every weight at the midpoint of its
        bracket."""
        return self._logsum(t, beta, "mid")[0]

    def moments(self, t, beta):
        """(value, J quotient, I quotient) under the anchored weights.

        One reduction yields all three, so the value is :meth:`value` bit
        for bit and the quotients are the exact partial derivatives of it
        with respect to t and -beta, at every potential depth: a trailing
        window contributes the J of the completion its anchored bound
        picks.  Finite differences of the anchored root and these
        quotients agree up to differencing error by construction.
        """
        return self._logsum(t, beta, "mid", grad=True)

    def tail_weight(self, t, beta) -> float:
        """Per-step weight neglected beyond the truncation: 0 once the
        whole (finite) alphabet is covered, a declared-rule integral bound
        otherwise, +inf absent a rule."""
        if self.sys.is_finite and self.N >= self.sys.alphabet_size:
            return 0.0
        rule = self.sys.tail_rule
        if rule is None:
            return math.inf
        t = np.atleast_1d(np.asarray(t, dtype=float))
        jtop = float(np.abs(t).sum()) * self.J.bound
        return math.exp(jtop) * rule.tail_weight(beta, self.N)

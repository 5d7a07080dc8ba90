"""Fused word-sum kernels for cylinder-weighted pressure sums.

Two evaluation modes share one result contract (values are (1/n)-normalized
log sums over admissible length-n words, lower using per-cylinder infima
and upper using suprema):

* ``enumerate``: every word is visited once with an exact per-word bracket;
  feasible while truncation**length stays below a cap.  One flat table
  holds every admissible word; a call scales the words' weights by their
  largest and reduces them with one vectorized compensated sum.

* ``dp``: cylinder brackets are refined only to a fixed window depth q and
  the sum is driven by a transfer recursion over (q-1)-gram states.  The
  resulting interval always contains the enumerate-mode interval for the
  same length.  The same window transfer matrix brackets the limit
  pressure: log rho(L_inf) <= P <= log rho(L_sup), with rho bounded by
  Collatz-Wielandt ratios (:meth:`PressureKernel.limit_bound`).

Each mode has one reduction, which takes its per-word or per-window
weights at the infimum, supremum or midpoint of their brackets; bounds,
anchored point values and bracket pairs are all that reduction.  On
request the same reduction also carries the t- and beta-derivatives of
those weights, which gives the Gibbs moments as exact derivatives of the
anchored value.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .potentials import PotentialVector
from .system import SystemDescriptor
from .util import compensated_sum

EXACT_CAP = 1 << 17      # max truncation**length for per-word enumeration
DP_WINDOW_CAP = 1 << 19  # max truncation**window for fused-mode tables
# default weight of anchored point values: the exact per-word suprema when
# enumerating, bracket midpoints in the transfer recursion
_ANCHOR = {"enumerate": "sup", "dp": "mid"}
PERRON_LAZY = 0.1        # weight of v in the Perron step v <- vL + c*hi*v
PERRON_ITER_CAP = 1000   # Perron steps per irreducible class and bracket


def _words(N: int, length: int) -> np.ndarray:
    """Every word of ``length`` symbols as the columns of a (length,
    N**length) array: column c holds the base-N digits of c, first symbol
    most significant, symbols 1-based."""
    syms = np.empty((length, N ** length), dtype=np.int64)
    for i in range(length):
        syms[i].reshape(N ** i, N, -1)[...] = np.arange(1, N + 1)[:, None]
    return syms


def _pick(lo, hi, which: str):
    """The infimum ('inf'), supremum ('sup') or midpoint ('mid') of a
    bracket pair."""
    if which == "inf":
        return lo
    if which == "sup":
        return hi
    return 0.5 * (lo + hi)


def _advance(T: np.ndarray, N: int) -> np.ndarray:
    """One transfer step: values on (state, next symbol) pairs, shape
    (S, N, ...), summed over the symbol leaving the window into values on
    the next (q-1)-gram states, shape (S, ...)."""
    S = T.shape[0]
    return T.reshape(N, S // N, N, *T.shape[2:]).sum(axis=0).reshape(S, *T.shape[2:])


def _perron_bracket(eW: np.ndarray, live: np.ndarray, v: np.ndarray,
                    N: int) -> tuple:
    """Collatz-Wielandt bracket (lo, hi) of the spectral radius of the
    window transfer matrix on the irreducible class ``live`` (a mask or
    every state): min (vL)_i/v_i <= rho <= max (vL)_i/v_i for v > 0.  The
    step v <- vL + c*hi*v keeps the Perron vector, is aperiodic on periodic
    classes and updates ``v`` in place as the next call's warm start; it
    stops once the spread stops shrinking."""
    lo, hi, spread = 0.0, math.inf, math.inf
    for _ in range(PERRON_ITER_CAP):
        u = _advance(v[:, None] * eW, N)[live]
        r = u / v[live]
        rlo, rhi = float(r.min()), float(r.max())
        lo, hi = max(lo, rlo), min(hi, rhi)
        if rhi - rlo >= spread or rhi == 0.0:
            break
        spread = rhi - rlo
        u += PERRON_LAZY * rhi * v[live]
        # floored so every iterate stays positive on the class
        v[live] = np.maximum(u / u.max(), np.finfo(float).tiny)
    return lo, hi


def dp_window(sys: SystemDescriptor, J: PotentialVector, N: int,
              level: int) -> int:
    """Window depth of the transfer recursion at refinement ``level``.
    Exact (distortion-free) brackets need only potential depth and Markov
    memory; otherwise it is ``level`` while its words could be enumerated,
    else the deepest window below ``level`` whose table fits."""
    q = 1
    if not sys.family.distortion_free:
        q = level if N ** min(level, 40) <= EXACT_CAP else 1
        while N ** (q + 1) <= DP_WINDOW_CAP and q + 1 < level:
            q += 1
    return max(q, J.depth, 1 if sys.incidence.full_shift else 2)


def limit_kernel(sys: SystemDescriptor, J: PotentialVector, N: int,
                 q: int) -> "PressureKernel":
    """A dp-mode kernel at window ``q`` for :meth:`PressureKernel.limit_bound`:
    any word length past the window gives one, and only its window tables
    are read."""
    return PressureKernel(sys, J, n=q + 1, N=N, window=q)


class _Tables:
    """Potential tables for one (system, N, window) choice, plus the
    window geometry of the transfer recursion when ``windows`` is set."""

    def __init__(self, sys: SystemDescriptor, J: PotentialVector, N: int,
                 q: int, windows: bool):
        if J.depth > q:
            raise ValueError(
                f"window depth {q} shorter than potential depth {J.depth}")
        if N ** q > DP_WINDOW_CAP * 4:
            raise ValueError(f"window table too large: {N}**{q}")
        self.hull = sys.hull(N)
        fam = sys.family
        inc = sys.incidence

        # potential values on admissible depth-m words
        m = J.depth
        msyms = _words(N, m)
        mvalid = inc.admits(msyms)
        jvals = np.zeros((N ** m, J.dim))
        for code in range(N ** m):
            if mvalid[code]:
                jvals[code] = J.value(tuple(msyms[:, code]))
        self.jvals = jvals
        self.mvalid = mvalid

        # trailing (partial) windows of each length l: potential codes for
        # l >= m, where the value is exact; below that the completion range
        # is resolved at call time from jvals.  Enumeration only reads the
        # l < m entries.
        self.part = {l: {"prefix_block": N ** (m - l)} for l in range(1, m)}
        if not windows:
            return

        # full windows of depth q
        codes = np.arange(N ** q)
        syms = _words(N, q)
        self.win_valid = inc.admits(syms)
        self.win_ld_lo, self.win_ld_hi = fam.vec_suffix_then_head(syms, self.hull)
        self.win_jcode = codes // (N ** (q - m))  # first-m-symbol codes
        # admissible (q-1)-gram states, read off the windows ending in 1
        self.state_valid = inc.admits(syms[:-1, ::N])

        # log-derivative ranges over the trailing l-cylinders, l < q
        for l in range(1, q):
            pc = np.arange(N ** l)
            entry = self.part.setdefault(l, {})
            if l >= m:
                entry["jcode"] = pc // (N ** (l - m))
            entry["ld_lo"], entry["ld_hi"] = fam.vec_suffix_then_head(
                _words(N, l), self.hull)

    # -- potential projections -------------------------------------------
    def j_dot(self, t: np.ndarray) -> np.ndarray:
        """<t, J> on admissible depth-m words; -inf marks inadmissible."""
        u = self.jvals @ t
        u[~self.mvalid] = -math.inf
        return u

    def part_j_bounds(self, l: int, u: np.ndarray):
        """(inf, sup, inf code, sup code) of <t, J> over admissible
        completions of l-words: the two bounds and the codes of the depth-m
        words attaining them, whose ``jvals`` rows are the t-derivatives of
        the bounds."""
        entry = self.part[l]
        if "jcode" in entry:
            code = entry["jcode"]
            v = u[code]
            return v, v, code, code
        blk = entry["prefix_block"]
        grid = u.reshape(-1, blk)
        rows = np.arange(grid.shape[0])
        top = grid.argmax(axis=1)
        masked = np.where(np.isneginf(grid), math.inf, grid)
        low = masked.argmin(axis=1)
        sup = grid[rows, top]
        inf = np.where(np.isinf(sup) & (sup < 0), -math.inf, masked[rows, low])
        return inf, sup, rows * blk + low, rows * blk + top


class PressureKernel:
    """Evaluates bracketed and anchored pressure sums for one system,
    potential, truncation, word length, and window depth."""

    def __init__(self, sys: SystemDescriptor, J: PotentialVector, *,
                 n: int, N: Optional[int] = None, window: Optional[int] = None):
        if n < 1:
            raise ValueError("word length must be >= 1")
        N = sys.effective_truncation(N)
        if window is None:
            window = n if N ** min(n, 40) <= EXACT_CAP else dp_window(sys, J, N, n)
        window = min(window, n)
        window = max(window, J.depth)
        if not sys.incidence.full_shift and window < 2 and n > 1:
            window = 2
        self.sys = sys
        self.J = J
        self.n = n
        self.N = N
        self.window = window
        self.mode = "enumerate" if (window == n and N ** n <= EXACT_CAP) else "dp"
        if self.mode == "dp" and window >= n:
            window = max(1, n - 1, J.depth)
            if window >= n:
                raise ValueError(
                    f"words of length {n} with potential depth {J.depth} admit "
                    "no window shorter than the word; raise the length or "
                    "shrink the truncation")
            self.window = window
        self.tables = _Tables(sys, J, N, window, windows=self.mode == "dp")
        if self.mode == "enumerate":
            self._build_exact()

    # unused in the package; bench/tracing.py looks it up by name
    def with_length(self, n: int) -> "PressureKernel":
        """Same tables, longer words; only meaningful in dp mode."""
        clone = object.__new__(PressureKernel)
        clone.__dict__.update(self.__dict__)
        clone.n = n
        if clone.mode == "enumerate" and n != self.n:
            raise ValueError("cannot change length of an enumerate-mode kernel")
        return clone

    # ------------------------------------------------------------------
    # enumerate mode
    # ------------------------------------------------------------------
    def _build_exact(self):
        """The flat word table: per admissible word, in lexicographic
        order, its log-derivative bracket, exact potential sum and the
        codes of its trailing windows.  Words are decoded one first-symbol
        block at a time, which bounds the transient symbol grid."""
        N, n, tab = self.N, self.n, self.tables
        fam = self.sys.family
        tails = _words(N, n - 1).T
        block = tails.shape[0]
        blocks = []
        for first in range(N):
            # Fortran order fixes the summation order of vec_word_log_deriv;
            # boolean column selection keeps it
            rows = np.empty((block, n), dtype=np.int64)
            rows[:, 0] = first + 1
            rows[:, 1:] = tails
            syms = rows.T
            valid = self.sys.incidence.admits(syms)
            if not valid.all():
                syms = syms[:, valid]
            if syms.shape[1]:
                blocks.append((first * block + np.flatnonzero(valid),
                               *fam.vec_word_log_deriv(syms, tab.hull)))
        if not blocks:  # no admissible word of this length
            blocks.append((np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)))
        codes, ld_lo, ld_hi = (np.concatenate(c) for c in zip(*blocks))
        self._table = {
            "ld_lo": ld_lo, "ld_hi": ld_hi,
            "jsum": self._word_jsums()[codes],
            # trailing windows: the codes of the suffixes of length l < m
            "tcodes": {l: codes % N ** l for l in range(1, self.J.depth)},
        }
        # a one-element list read only by bench/tracing.py, which counts
        # the enumerated words over its entries
        self._parts = [self._table]

    def _word_jsums(self) -> np.ndarray:
        """Exact potential sums of every length-n word, indexed by word
        code: its windows i = 0..n-m, window i covering symbols i..i+m-1,
        added left to right.  A word of length L is its (L-1)-symbol head
        plus one symbol, and its last window is its last m symbols, so each
        length takes one broadcast addition; inadmissible m-grams read 0."""
        N, n, m, d = self.N, self.n, self.J.depth, self.J.dim
        jvals = self.tables.jvals
        s = jvals
        for L in range(m + 1, n + 1):
            s = (s.reshape(N ** (L - m), N ** (m - 1), 1, d)
                 + jvals.reshape(1, N ** (m - 1), N, d)).reshape(N ** L, d)
        return s

    def _enum_logsum(self, t, beta, which, grad):
        """Per-word reduction over the flat table: every word's exponent at
        the ``which`` point of its bracket, scaled by the largest and summed
        in one compensated sum.  With ``grad`` the same sum carries the same
        weights times the t- and -beta-derivatives of their exponents, as
        the columns of one (M, d+2) array: the word's J sum plus the J of
        the trailing completions attaining the picked bound (their mean at
        'mid'), and -ld.  Column 0 is the weight itself, summed exactly as
        without ``grad``."""
        tab, tbl, d = self.tables, self._table, self.J.dim
        u = tab.j_dot(t)
        trail = {l: tab.part_j_bounds(l, u) for l in tbl["tcodes"]}
        base = tbl["jsum"] @ t

        def exponents(side):
            e = base + beta * _pick(tbl["ld_lo"], tbl["ld_hi"], side)
            for l, code in tbl["tcodes"].items():
                e = e + _pick(trail[l][0], trail[l][1], side)[code]
            return e

        w = (_pick(exponents("inf"), exponents("sup"), which) if which == "mid"
             else exponents(which))
        mx = float(w.max(initial=-math.inf))
        if mx == -math.inf:
            return -math.inf, None, None
        wts = np.exp(w - mx)
        if not grad:
            return (mx + math.log(compensated_sum(wts))) / self.n, None, None
        dj = tbl["jsum"]
        for l, code in tbl["tcodes"].items():
            _, _, clo, chi = trail[l]
            dj = dj + _pick(tab.jvals[clo], tab.jvals[chi], which)[code]
        cols = np.empty((wts.size, d + 2), order="F")
        cols[:, 0] = wts
        np.multiply(wts[:, None], dj, out=cols[:, 1:d + 1])
        np.multiply(wts, -_pick(tbl["ld_lo"], tbl["ld_hi"], which), out=cols[:, d + 1])
        sums = compensated_sum(cols)
        scale = sums[0] * self.n
        return ((mx + math.log(sums[0])) / self.n, sums[1:d + 1] / scale,
                float(sums[d + 1] / scale))

    # ------------------------------------------------------------------
    # dp mode
    # ------------------------------------------------------------------
    def _dp_weights(self, t, beta, which):
        """(base, eW): window weights exp(w - base) on (state, next symbol)
        pairs, base being the largest admissible log weight w."""
        tab = self.tables
        w = tab.j_dot(t)[tab.win_jcode] + beta * _pick(
            tab.win_ld_lo, tab.win_ld_hi, which)
        w[~tab.win_valid] = -math.inf
        finite = w[np.isfinite(w)]
        if finite.size == 0:
            return -math.inf, np.zeros((w.size // self.N, self.N))
        base = float(finite.max())
        return base, np.exp(w - base).reshape(-1, self.N)

    def _dp_logsum(self, t, beta, which, grad):
        """Transfer recursion over (q-1)-gram states with the window weights
        at the ``which`` point of their brackets, closed by the trailing
        windows.  With ``grad`` a stacked (S, d+1) accumulator, advanced by
        the same steps, carries the t- and -beta-derivatives (J and -ld) of
        the same weights."""
        tab, N, q, n, d = self.tables, self.N, self.window, self.n, self.J.dim
        base, eW = self._dp_weights(t, beta, which)
        if base == -math.inf:
            return -math.inf, None, None
        if grad:
            jwin = tab.jvals[tab.win_jcode]
            nld = -_pick(tab.win_ld_lo, tab.win_ld_hi, which)
        if q == 1:  # no state memory and no trailing windows
            z = float(eW.sum())
            value = n * (base + math.log(z)) / n
            if not grad:
                return value, None, None
            jq = (jwin * eW.reshape(-1, 1)).sum(axis=0) / z
            return value, jq, float((nld * eW.reshape(-1)).sum()) / z
        V = tab.state_valid.astype(float)
        S = V.size
        if grad:
            dW = np.concatenate((jwin.reshape(S, N, d), nld.reshape(S, N, 1)), axis=2)
            A = np.zeros((S, d + 1))
        logoff = 0.0
        for _ in range(n - (q - 1)):
            Vn = _advance(V[:, None] * eW, N)
            mx = Vn.max()
            if mx <= 0.0 or not math.isfinite(mx):
                return -math.inf, None, None
            if grad:
                A = _advance((A[:, None, :] + V[:, None, None] * dW) * eW[:, :, None], N) / mx
            V = Vn / mx
            logoff += math.log(mx) + base
        # trailing windows of lengths 1..q-1 on each state's last symbols
        u = tab.j_dot(t)
        scodes = np.arange(S)
        term = np.zeros(S)
        dT = np.zeros((S, d + 1)) if grad else None
        for l in range(1, q):
            sub = scodes % (N ** l)
            entry = tab.part[l]
            ld = _pick(entry["ld_lo"], entry["ld_hi"], which)
            jlo, jhi, clo, chi = tab.part_j_bounds(l, u)
            term = term + _pick(jlo, jhi, which)[sub] + beta * ld[sub]
            if grad:
                jl = tab.jvals[clo[sub]]  # one code where the window is exact
                dT[:, :d] += jl if clo is chi else _pick(jl, tab.jvals[chi[sub]], which)
                dT[:, d] -= ld[sub]
        tmax = float(term.max())
        E = np.exp(term - tmax)
        z = float((V * E).sum())
        value = (logoff + tmax + math.log(z)) / n
        if not grad:
            return value, None, None
        A = A + V[:, None] * dT
        jq = (A[:, :d] * E[:, None]).sum(axis=0) / z / n
        return value, jq, float((A[:, d] * E).sum()) / z / n

    @cached_property
    def _classes(self) -> list:
        """(states, Perron iterate) of each irreducible class of (q-1)-gram
        states with a cycle: rho of the transfer matrix is the largest of
        their radii, whatever its transient states."""
        S = self.N ** (self.window - 1)
        c = np.flatnonzero(self.tables.win_valid)
        src, dst = c // self.N, c % S  # window code -> (state, next state)
        graph = csr_matrix((np.ones(c.size), (src, dst)), shape=(S, S))
        lab = connected_components(graph, connection="strong")[1]
        masks = [lab == k for k in np.unique(lab[src[lab[src] == lab[dst]]])]
        # a class of every state is read whole, without gathers
        return [(slice(None) if m.all() else m, m.astype(float)) for m in masks]

    def limit_bound(self, t, beta, side: str) -> float:
        """The limit pressure of <t,J> - beta*I over the truncated system
        (beta >= 0) lies in [log rho(L_inf), log rho(L_sup)] for the window
        transfer matrix L.  'lower' and 'upper' are those endpoints, each
        radius bounded by Collatz-Wielandt ratios; 'mid' is the log of the
        midpoint ratio of the midpoint-weight matrix, the point estimate."""
        if self.mode != "dp":
            raise ValueError("limit bounds need a dp-mode kernel")
        which = {"lower": "inf", "upper": "sup", "mid": "mid"}[side]
        t = np.atleast_1d(np.asarray(t, dtype=float))
        base, eW = self._dp_weights(t, beta, which)
        if self.window == 1:
            # no state memory: L is the 1x1 sum of the weights
            lo = hi = float(eW.sum())
        else:
            brackets = [_perron_bracket(eW, live, v, self.N)
                        for live, v in self._classes]
            lo = max((b[0] for b in brackets), default=0.0)
            hi = max((b[1] for b in brackets), default=0.0)
        with np.errstate(divide="ignore"):
            return base + float(np.log(_pick(lo, hi, which)))

    # ------------------------------------------------------------------
    # public evaluations
    # ------------------------------------------------------------------
    def _logsum(self, t, beta, which: str, grad: bool = False) -> tuple:
        """(value, J quotient, I quotient): the stage-n normalized log sum
        with every weight taken at the 'inf', 'sup' or 'mid' point of its
        bracket, and with ``grad`` its derivatives in t and -beta (None
        without)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        reduce = self._dp_logsum if self.mode == "dp" else self._enum_logsum
        return reduce(t, beta, which, grad)

    def values(self, t, beta) -> tuple:
        """Certified (lower, upper) of the stage-n normalized log sum."""
        return (self._logsum(t, beta, "inf")[0], self._logsum(t, beta, "sup")[0])

    def bound(self, t, beta, side: str) -> float:
        """One certified endpoint ('lower' or 'upper') without computing
        the other; half the cost of :meth:`values` during bisection."""
        return self._logsum(t, beta, "inf" if side == "lower" else "sup")[0]

    def value(self, t, beta) -> float:
        """Anchored point value: sup weights in enumerate mode (the exact
        per-word suprema), bracket midpoints in dp mode."""
        return self._logsum(t, beta, _ANCHOR[self.mode])[0]

    def moments(self, t, beta):
        """(value, J quotient, I quotient) under the anchored weights.

        One reduction yields all three, so the value is :meth:`value`
        bit for bit (in enumerate mode the weights are column 0 of the one
        compensated sum, which reduces every column independently) and the
        quotients are the exact partial derivatives of it with respect to
        t and -beta, at every potential depth: a trailing window
        contributes the J of the completion its anchored bound picks.
        Finite differences of the anchored root and these quotients agree
        up to differencing error by construction.
        """
        return self._logsum(t, beta, _ANCHOR[self.mode], grad=True)

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

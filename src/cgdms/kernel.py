"""Fused word-sum kernels for cylinder-weighted pressure sums.

Two evaluation modes share one result contract (values are (1/n)-normalized
log sums over admissible length-n words, lower using per-cylinder infima
and upper using suprema):

* ``enumerate``: every word is visited once with an exact per-word bracket;
  feasible while truncation**length stays below a cap.  Words are grouped
  by first symbol; each group is reduced in lexicographic order with
  compensated summation and the groups are combined in symbol order.

* ``dp``: cylinder brackets are refined only to a fixed window depth q and
  the sum is driven by a transfer recursion over (q-1)-gram states.  The
  resulting interval always contains the enumerate-mode interval for the
  same length, and the length can be pushed far beyond enumeration limits,
  which is what shrinks the bracket gap.

Each mode has one reduction, which takes its per-word or per-window
weights at the infimum, supremum or midpoint of their brackets; bounds,
anchored point values and bracket pairs are all that reduction.  The same
tables drive first-moment accumulators for Gibbs-type averages.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .potentials import PotentialVector
from .system import SystemDescriptor
from .util import combine_partition_sums

EXACT_CAP = 1 << 17      # max truncation**length for per-word enumeration
DP_WINDOW_CAP = 1 << 19  # max truncation**window for fused-mode tables
# default weight of anchored point values: the exact per-word suprema when
# enumerating, bracket midpoints in the transfer recursion
_ANCHOR = {"enumerate": "sup", "dp": "mid"}


def _symbol_grid(N: int, length: int, codes: np.ndarray) -> np.ndarray:
    """Decode base-N codes into (length, M) symbol rows, first symbol most
    significant, symbols 1-based."""
    syms = np.empty((length, codes.size), dtype=np.int64)
    c = codes.copy()
    for i in range(length - 1, -1, -1):
        syms[i] = c % N + 1
        c //= N
    return syms


def _pick(lo, hi, which: str):
    """The infimum ('inf'), supremum ('sup') or midpoint ('mid') of a
    bracket pair."""
    if which == "inf":
        return lo
    if which == "sup":
        return hi
    return 0.5 * (lo + hi)


def _pair_valid(syms: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Admissibility of each column word under a dense 0/1 block."""
    ok = np.ones(syms.shape[1], dtype=bool)
    for i in range(syms.shape[0] - 1):
        ok &= dense[syms[i] - 1, syms[i + 1] - 1].astype(bool)
    return ok


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
        dense = sys.incidence.dense_block(N)

        # potential values on admissible depth-m words
        m = J.depth
        msyms = _symbol_grid(N, m, np.arange(N ** m))
        mvalid = _pair_valid(msyms, dense)
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
        syms = _symbol_grid(N, q, codes)
        self.win_valid = _pair_valid(syms, dense)
        self.win_ld_lo, self.win_ld_hi = fam.vec_suffix_then_head(syms, self.hull)
        self.win_jcode = codes // (N ** (q - m))  # first-m-symbol codes

        # log-derivative ranges over the trailing l-cylinders, l < q
        for l in range(1, q):
            pc = np.arange(N ** l)
            entry = self.part.setdefault(l, {})
            if l >= m:
                entry["jcode"] = pc // (N ** (l - m))
            entry["ld_lo"], entry["ld_hi"] = fam.vec_suffix_then_head(
                _symbol_grid(N, l, pc), self.hull)

    # -- potential projections -------------------------------------------
    def j_dot(self, t: np.ndarray) -> np.ndarray:
        """<t, J> on admissible depth-m words; -inf marks inadmissible."""
        u = self.jvals @ t
        u[~self.mvalid] = -math.inf
        return u

    def part_j_bounds(self, l: int, u: np.ndarray):
        """(inf, sup) of <t, J> over admissible completions of l-words."""
        entry = self.part[l]
        if "jcode" in entry:
            v = u[entry["jcode"]]
            return v, v
        blk = entry["prefix_block"]
        grid = u.reshape(-1, blk)
        sup = grid.max(axis=1)
        with np.errstate(invalid="ignore"):
            inf = np.where(np.isneginf(grid), math.inf, grid).min(axis=1)
        inf = np.where(np.isinf(sup) & (sup < 0), -math.inf, inf)
        return inf, sup


class PressureKernel:
    """Evaluates bracketed and anchored pressure sums for one system,
    potential, truncation, word length, and window depth."""

    def __init__(self, sys: SystemDescriptor, J: PotentialVector, *,
                 n: int, N: Optional[int] = None, window: Optional[int] = None):
        if n < 1:
            raise ValueError("word length must be >= 1")
        N = sys.effective_truncation(N)
        if window is None:
            if N ** min(n, 40) <= EXACT_CAP:
                window = n
            elif sys.family.distortion_free:
                # brackets are exact at any depth; only potential depth and
                # Markov memory force a window
                window = max(J.depth, 1 if sys.incidence.full_shift else 2)
            else:
                window = 1
                while N ** (window + 1) <= DP_WINDOW_CAP and window + 1 < n:
                    window += 1
                window = max(window, J.depth, 2 if not sys.incidence.full_shift else 1)
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
        N, n, tab = self.N, self.n, self.tables
        fam = self.sys.family
        dense = self.sys.incidence.dense_block(N)
        m = self.J.depth
        self._parts = []
        block = N ** (n - 1)
        for first in range(1, N + 1):
            codes = np.arange((first - 1) * block, first * block)
            syms = _symbol_grid(N, n, codes)
            valid = _pair_valid(syms, dense)
            if not valid.any():
                self._parts.append(None)
                continue
            syms = syms[:, valid]
            ld_lo, ld_hi = fam.vec_word_log_deriv(syms, tab.hull)
            # exact potential windows: starts 1..n-m+1; window i covers
            # symbols i..i+m-1; encode each as an m-gram code
            M = syms.shape[1]
            jd = self.J.dim
            jsum = np.zeros((M, jd))
            wcodes = np.zeros((n - m + 1, M), dtype=np.int64)
            for i in range(n - m + 1):
                code = np.zeros(M, dtype=np.int64)
                for j in range(m):
                    code = code * N + (syms[i + j] - 1)
                wcodes[i] = code
                jsum += tab.jvals[code]
            # trailing windows: suffix of length l = n - i + 1 < m
            tcodes = {}
            for l in range(1, m):
                code = np.zeros(M, dtype=np.int64)
                for j in range(n - l, n):
                    code = code * N + (syms[j] - 1)
                tcodes[l] = code
            self._parts.append({
                "ld_lo": ld_lo, "ld_hi": ld_hi, "jsum": jsum,
                "tcodes": tcodes,
            })

    def _exact_exponents(self, part, t, beta):
        base = part["jsum"] @ t
        lo = base + beta * part["ld_lo"]
        hi = base + beta * part["ld_hi"]
        if part["tcodes"]:
            u = self.tables.j_dot(t)
            for l, code in part["tcodes"].items():
                jlo, jhi = self.tables.part_j_bounds(l, u)
                lo = lo + jlo[code]
                hi = hi + jhi[code]
        return lo, hi

    @staticmethod
    def _lse_decomp(v: np.ndarray):
        if v.size == 0:
            return (-math.inf, 0.0)
        mx = float(v.max())
        if mx == -math.inf:
            return (-math.inf, 0.0)
        return (mx, math.fsum(np.exp(v - mx).tolist()))

    # ------------------------------------------------------------------
    # dp mode
    # ------------------------------------------------------------------
    def _dp_weight(self, t, beta, which):
        tab = self.tables
        u = tab.j_dot(t)
        jw = u[tab.win_jcode]
        w = jw + beta * _pick(tab.win_ld_lo, tab.win_ld_hi, which)
        w[~tab.win_valid] = -math.inf
        return w

    def _dp_terminal(self, t, beta, which):
        """Per-state log weight of the trailing truncated windows."""
        tab = self.tables
        N, q = self.N, self.window
        Sm1 = N ** (q - 1)
        term = np.zeros(Sm1)
        u = tab.j_dot(t)
        scodes = np.arange(Sm1)
        for l in range(1, q):
            sub = scodes % (N ** l)
            entry = tab.part[l]
            ld = _pick(entry["ld_lo"], entry["ld_hi"], which)
            jpart = _pick(*tab.part_j_bounds(l, u), which)
            term = term + jpart[sub] + beta * ld[sub]
        return term

    def _dp_run(self, t, beta, which):
        N, q, n = self.N, self.window, self.n
        Sm1 = N ** (q - 1)
        w = self._dp_weight(t, beta, which)
        finite = w[np.isfinite(w)]
        if finite.size == 0:
            return -math.inf
        base = float(finite.max())
        eW = np.exp(w - base).reshape(Sm1, N)
        if q == 1:
            total = float(eW.sum())
            logz = n * (base + math.log(total))
            # q == 1 has no state memory and no trailing windows
            return logz / n
        init_codes = np.arange(Sm1)
        init_syms = _symbol_grid(N, q - 1, init_codes)
        dense = self.sys.incidence.dense_block(N)
        V = _pair_valid(init_syms, dense).astype(float)
        logoff = 0.0
        rest = N ** (q - 2)
        for _ in range(n - (q - 1)):
            T = V[:, None] * eW
            Vn = T.reshape(N, rest, N).sum(axis=0).reshape(-1)
            mx = Vn.max()
            if mx <= 0.0 or not math.isfinite(mx):
                return -math.inf
            V = Vn / mx
            logoff += math.log(mx) + base
        term = self._dp_terminal(t, beta, which)
        tmax = float(term.max())
        total = float((V * np.exp(term - tmax)).sum())
        return (logoff + tmax + math.log(total)) / self.n

    def _dp_moments(self, t, beta):
        """Anchored partition value plus first-moment quotients."""
        N, q, n = self.N, self.window, self.n
        tab = self.tables
        Sm1 = N ** (q - 1)
        w = self._dp_weight(t, beta, "mid")
        base = float(w[np.isfinite(w)].max())
        eW = np.exp(w - base).reshape(Sm1, N)
        ld_mid = _pick(tab.win_ld_lo, tab.win_ld_hi, "mid").reshape(Sm1, N)
        jfull = tab.jvals[tab.win_jcode].reshape(Sm1, N, self.J.dim)
        if q == 1:
            z = float(eW.sum())
            jq = (tab.jvals[tab.win_jcode] * np.exp(w - base)[:, None]).sum(axis=0) / z
            ldm = _pick(tab.win_ld_lo, tab.win_ld_hi, "mid")
            iq = float((-(ldm) * np.exp(w - base)).sum()) / z
            return base + math.log(z), jq, iq
        init_codes = np.arange(Sm1)
        init_syms = _symbol_grid(N, q - 1, init_codes)
        dense = self.sys.incidence.dense_block(N)
        V = _pair_valid(init_syms, dense).astype(float)
        AJ = np.zeros((Sm1, self.J.dim))
        AI = np.zeros(Sm1)
        logoff = 0.0
        rest = N ** (q - 2)
        for _ in range(n - (q - 1)):
            T = V[:, None] * eW
            AJT = (AJ[:, None, :] + V[:, None, None] * jfull) * eW[:, :, None]
            AIT = (AI[:, None] + V[:, None] * (-ld_mid)) * eW
            Vn = T.reshape(N, rest, N).sum(axis=0).reshape(-1)
            AJn = AJT.reshape(N, rest, N, self.J.dim).sum(axis=0).reshape(-1, self.J.dim)
            AIn = AIT.reshape(N, rest, N).sum(axis=0).reshape(-1)
            mx = Vn.max()
            V, AJ, AI = Vn / mx, AJn / mx, AIn / mx
            logoff += math.log(mx) + base
        # trailing windows, anchored at midpoints
        term = self._dp_terminal(t, beta, "mid")
        u = tab.j_dot(t)
        scodes = np.arange(Sm1)
        TJ = np.zeros((Sm1, self.J.dim))
        TI = np.zeros(Sm1)
        for l in range(1, q):
            sub = scodes % (N ** l)
            entry = tab.part[l]
            ldm = _pick(entry["ld_lo"], entry["ld_hi"], "mid")
            TI += -ldm[sub]
            if "jcode" in entry:
                TJ += tab.jvals[entry["jcode"][sub]]
            else:
                blk = entry["prefix_block"]
                grid = tab.jvals.reshape(-1, blk, self.J.dim)
                msk = tab.mvalid.reshape(-1, blk)
                sums = np.where(msk[:, :, None], grid, 0.0).sum(axis=1)
                cnts = np.maximum(msk.sum(axis=1), 1)[:, None]
                TJ += (sums / cnts)[sub]
        wt = V * np.exp(term - term.max())
        z = float(wt.sum())
        jq = ((AJ + V[:, None] * TJ) * np.exp(term - term.max())[:, None]).sum(axis=0) / z / n
        iq = float(((AI + V * TI) * np.exp(term - term.max())).sum()) / z / n
        logz = (logoff + term.max() + math.log(z)) / n
        return logz, jq, iq

    # ------------------------------------------------------------------
    # public evaluations
    # ------------------------------------------------------------------
    def _logsum(self, t, beta, which: str) -> float:
        """The stage-n normalized log sum with every weight taken at the
        'inf', 'sup' or 'mid' point of its bracket."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.mode == "dp":
            return self._dp_run(t, beta, which)
        sums = []
        for part in self._parts:
            if part is not None:
                lo, hi = self._exact_exponents(part, t, beta)
                sums.append(self._lse_decomp(_pick(lo, hi, which)))
        return combine_partition_sums(sums) / self.n

    def values(self, t, beta) -> tuple:
        """Certified (lower, upper) of the stage-n normalized log sum."""
        return (self._logsum(t, beta, "inf"), self._logsum(t, beta, "sup"))

    def bound(self, t, beta, side: str) -> float:
        """One certified endpoint ('lower' or 'upper') without computing
        the other; half the cost of :meth:`values` during bisection."""
        return self._logsum(t, beta, "inf" if side == "lower" else "sup")

    def value(self, t, beta, anchor: Optional[str] = None) -> float:
        """Anchored point value: sup weights in enumerate mode (the exact
        per-word suprema), bracket midpoints in dp mode."""
        return self._logsum(t, beta, anchor or _ANCHOR[self.mode])

    def moments(self, t, beta):
        """(value, J quotient, I quotient) under the anchored weights.

        The quotients are the exact partial derivatives of the anchored
        stage-n log sum with respect to t and -beta, normalized by n, so
        finite differences of the anchored root and these quotients agree
        up to differencing error by construction.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.mode == "enumerate":
            def work(part):
                lo, hi = self._exact_exponents(part, t, beta)
                mx = float(hi.max()) if hi.size else -math.inf
                if mx == -math.inf:
                    return (-math.inf, 0.0, np.zeros(self.J.dim + 1))
                wts = np.exp(hi - mx)
                wsum = math.fsum(wts.tolist())
                njd = np.empty(self.J.dim + 1)
                for i in range(self.J.dim):
                    njd[i] = math.fsum((wts * part["jsum"][:, i]).tolist())
                njd[self.J.dim] = math.fsum((wts * (-part["ld_hi"])).tolist())
                return (mx, wsum, njd)

            parts = [work(p) for p in self._parts if p is not None]
            logz = combine_partition_sums([(m, w) for m, w, _ in parts]) / self.n
            m0 = max(m for m, _, _ in parts if m > -math.inf)
            wtot = math.fsum(w * math.exp(m - m0) for m, w, _ in parts if m > -math.inf)
            acc = np.zeros(self.J.dim + 1)
            for m, _, a in parts:
                if m > -math.inf:
                    acc += a * math.exp(m - m0)
            acc /= wtot * self.n
            return logz, acc[:self.J.dim], float(acc[self.J.dim])
        return self._dp_moments(t, beta)

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

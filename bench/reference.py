"""Independent reference values for the benchmark checks.

Nothing here imports ``cgdms``: every value is computed from first
principles so that the benchmark can judge the program's enclosures.

* Continued-fraction pressures, dimensions and weighted beta(t) come from a
  Chebyshev collocation of the transfer operator
  ``(L f)(x) = sum_k c_k (x+k)**(-2 beta) f(1/(x+k))`` on [0, 1]; its
  leading eigenvalue is exp(P).
* Similarity systems use the Moran equation ``sum_k c_k r_k**beta = 1``
  (full shifts) or the spectral radius of ``A_ij r_j**beta`` (Markov
  incidence), and the explicit gradient of beta(t) for Legendre values.
* Stage-n word sums are brute-forced over every word, with each word's
  derivative taken at the fixed point of its composed map.

Run ``python3 bench/reference.py`` for the self-test and the seed-free
reference values, and ``python3 bench/reference.py --seed N`` to print
every reference value the checks use for that seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
from scipy.optimize import brentq

# Jenkinson-Pollicott (Adv. Math. 2018): dim E_{1,2} = 0.531280506277205...
E12_DIGITS = 0.531280506277205
COLLOCATION_NODES = 48


# ---------------------------------------------------------------------------
# continued fractions: Chebyshev collocation of the transfer operator
# ---------------------------------------------------------------------------

def _cheb_nodes(m: int):
    j = np.arange(m)
    x = 0.5 * (1.0 - np.cos(np.pi * j / (m - 1)))
    w = (-1.0) ** j
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _lagrange_rows(y: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis of the nodes x evaluated at the points y."""
    diff = y[:, None] - x[None, :]
    exact = diff == 0.0
    diff[exact] = 1.0
    rows = w[None, :] / diff
    rows /= rows.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    rows[hit] = exact[hit].astype(float)
    return rows


class CFTransfer:
    """Collocated transfer operators of ``x -> 1/(x+k)``, k = 1..N, with
    per-symbol log weights ``logc[k-1]``."""

    def __init__(self, N: int, m: int = COLLOCATION_NODES):
        self.N = N
        x, w = _cheb_nodes(m)
        ks = np.arange(1, N + 1, dtype=float)
        self.xk = x[:, None] + ks[None, :]               # (m, N)
        # basis rows at the images 1/(x_i + k), stacked per symbol
        self.basis = np.stack(
            [_lagrange_rows(1.0 / self.xk[:, k], x, w) for k in range(N)],
            axis=1)                                       # (m, N, m)
        self.logxk = np.log(self.xk)

    def pressure(self, beta: float, logc=None) -> float:
        logc = np.zeros(self.N) if logc is None else np.asarray(logc, float)
        coef = np.exp(logc[None, :] - 2.0 * beta * self.logxk)   # (m, N)
        A = np.einsum("ik,ikj->ij", coef, self.basis)
        lam = np.linalg.eigvals(A)
        top = lam[np.argmax(lam.real)]
        return math.log(top.real)

    def zero(self, logc=None) -> float:
        """beta with pressure 0 (the dimension when logc is None)."""
        f = lambda b: self.pressure(b, logc)
        lo, hi = 0.0, 1.0
        while f(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
        return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def mod_cycle_logc(tables, t, N: int) -> np.ndarray:
    """<t, J(k)> for the mod-cycle potential J_i(k) = tables[i][k % len]."""
    return np.array([sum(ti * tab[k % len(tab)] for ti, tab in zip(t, tables))
                     for k in range(1, N + 1)])


# ---------------------------------------------------------------------------
# similarity systems
# ---------------------------------------------------------------------------

def moran_beta(ratios, logc=None) -> float:
    """Root of sum_k exp(logc_k) r_k**beta = 1 (full shift)."""
    lr = np.log(np.asarray(ratios, float))
    logc = np.zeros(lr.size) if logc is None else np.asarray(logc, float)
    f = lambda b: float(np.logaddexp.reduce(logc + b * lr))
    lo, hi = -1.0, 1.0
    while f(lo) < 0.0:
        lo *= 2.0
    while f(hi) > 0.0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def markov_similarity_dimension(ratios, incidence) -> float:
    """Root of the spectral radius of A_ij r_j**s = 1."""
    A = np.asarray(incidence, float)
    r = np.asarray(ratios, float)
    f = lambda s: math.log(max(abs(np.linalg.eigvals(A * r[None, :] ** s))))
    return brentq(f, 0.0, 8.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def similarity_pressure(ratios, values, t, beta) -> float:
    """Limit pressure of <t,J> - beta*I for a full-shift similarity system
    with a depth-1 table potential (values[k] is J at edge k+1)."""
    logc = np.asarray(values, float) @ np.asarray(t, float)
    return float(np.logaddexp.reduce(logc + beta * np.log(ratios)))


def similarity_grad(ratios, values, t) -> np.ndarray:
    """Gradient of beta(t): Gibbs mean of J over Gibbs mean of -log r."""
    J = np.asarray(values, float)
    lr = np.log(np.asarray(ratios, float))
    logc = J @ np.asarray(t, float)
    b = moran_beta(ratios, logc)
    p = np.exp(logc + b * lr)
    return (p @ J) / float(p @ (-lr))


def similarity_legendre(ratios, values, alpha: float) -> float:
    """inf_t beta(t) - t*alpha for a one-component potential."""
    g = lambda t: float(similarity_grad(ratios, values, [t])[0]) - alpha
    lo, hi = -1.0, 1.0
    while g(lo) > 0.0:
        lo *= 2.0
    while g(hi) < 0.0:
        hi *= 2.0
    ts = brentq(g, lo, hi, xtol=1e-14)
    return moran_beta(ratios, np.asarray(values, float)[:, 0] * ts) - ts * alpha


# ---------------------------------------------------------------------------
# brute-force stage-n word sums at fixed points
# ---------------------------------------------------------------------------

def _words(N: int, n: int) -> np.ndarray:
    codes = np.arange(N ** n)
    syms = np.empty((n, codes.size), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        syms[i] = codes % N + 1
        codes = codes // N
    return syms


def cf_fixed_point_sum(N: int, n: int, beta: float, logc=None) -> float:
    """(1/n) log sum_w exp(S_n logc(w)) |phi_w'(x_w)|**beta over all
    length-n words, x_w the fixed point of phi_w."""
    syms = _words(N, n)
    a = np.ones(syms.shape[1])
    b = np.zeros_like(a)
    c = np.zeros_like(a)
    d = np.ones_like(a)
    for i in range(n):
        k = syms[i].astype(float)
        # [[a, b], [c, d]] @ [[0, 1], [1, k]]
        a, b, c, d = b, a + k * b, d, c + k * d
    x = ((a - d) + np.sqrt((d - a) ** 2 + 4.0 * b * c)) / (2.0 * c)
    expo = -2.0 * beta * np.log(c * x + d)
    if logc is not None:
        expo = expo + np.asarray(logc, float)[syms - 1].sum(axis=0)
    return float(np.logaddexp.reduce(expo)) / n


def similarity_fixed_point_sum(ratios, values, t, beta, n: int) -> float:
    """Stage-n word sum of a full-shift similarity system (derivatives are
    constant, so every point of the cylinder is a fixed point's value)."""
    N = len(ratios)
    syms = _words(N, n)
    per = np.asarray(values, float) @ np.asarray(t, float) \
        + beta * np.log(np.asarray(ratios, float))
    return float(np.logaddexp.reduce(per[syms - 1].sum(axis=0))) / n


# ---------------------------------------------------------------------------
# self-test and printing
# ---------------------------------------------------------------------------

def self_test() -> float:
    """Collocated dim E_{1,2} minus the published digits."""
    return CFTransfer(2).zero() - E12_DIGITS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None,
                    help="also print every seeded reference of the workloads")
    args = ap.parse_args(argv)
    err = self_test()
    print(f"self-test: collocated dim E_(1,2) - {E12_DIGITS} = {err:.3e}")
    fixed = {
        "dim_cf2": CFTransfer(2).zero(),
        "dim_cf3": CFTransfer(3).zero(),
        "dim_cf5": CFTransfer(5).zero(),
        "dim_golden_mean": markov_similarity_dimension(
            [0.5, 0.5], [[1, 1], [1, 0]]),
        "log_phi_over_log_2": math.log((1 + math.sqrt(5)) / 2) / math.log(2),
    }
    print(json.dumps(fixed, indent=2))
    if args.seed is not None:
        import workloads  # the benchmark's own workload generator
        for name in workloads.WORKLOADS:
            refs = {op.label: op.reference()
                    for op in workloads.build(name, args.seed)}
            print(json.dumps({name: refs}, indent=2, default=float))
    return 0 if abs(err) <= 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())

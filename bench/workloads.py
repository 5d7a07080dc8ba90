"""Seeded command lists of the three benchmark workloads.

Each workload is a fixed list of ``cgdms`` CLI operations.  The seed moves
values (similarity ratios, potential tables, beta grids, t-points,
t-grid extents and 1-D alpha-targets) but never sizes (alphabets, word lengths, windows, grid
point counts, tolerances), so the cost of a workload hardly depends on the
seed.  Every operation carries a ``reference`` that computes, with
``reference.py`` and without ``cgdms``, the values its checks need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

MOD_TABLES = [[-1.0, 1.0], [0.0, 1.0, -1.0]]
MOD_CYCLE = {"kind": "mod-cycle", "tables": MOD_TABLES}
BINARY_J = {"kind": "table", "values": {"1": [0.0], "2": [1.0]}}
GOLDEN_INCIDENCE = [[1, 1], [1, 0]]
# The 2-D alpha-targets stay fixed: Newton's iteration count depends on
# the target, and seeded targets moved the cost of the spectrum workload
# by 12% from seed to seed.
CF24_ALPHAS = [[0.1, 0.05], [-0.1, 0.1], [0.05, -0.1]]


@dataclass
class Op:
    """One CLI operation: ``cgdms <command> --config <doc> --workers w``."""

    label: str
    command: str
    doc: dict
    reference: Callable[[], dict] = field(repr=False)
    workers: int = 1
    # the one operation kept although it fails on every seed: the
    # golden-mean dimension enclosure misses log(phi)/log(2)
    known_fault: bool = False


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _u(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _grid(rng, lo, hi, k):
    """k sorted values, one per equal slice of [lo, hi]."""
    step = (hi - lo) / k
    return [_u(rng, lo + i * step, lo + (i + 1) * step) for i in range(k)]


# ---------------------------------------------------------------------------
# references per command shape
# ---------------------------------------------------------------------------

def _cf_dimension(N):
    return lambda: {"dim": ref.CFTransfer(N).zero()}


def _cf_pressure(N, n, betas):
    def compute():
        T = ref.CFTransfer(N)
        return {"fixed_point": [ref.cf_fixed_point_sum(N, n, b) for b in betas],
                "limit": [T.pressure(b) for b in betas]}
    return compute


def _sim_pressure(ratios, values, t_points, betas, n):
    def compute():
        fp, lim = [], []
        for t in t_points:
            for b in betas:
                fp.append(ref.similarity_fixed_point_sum(ratios, values, t, b, n))
                lim.append(ref.similarity_pressure(ratios, values, t, b))
        return {"fixed_point": fp, "limit": lim}
    return compute


def _sim_beta(ratios, values, t_points):
    def compute():
        J = np.asarray(values, float)
        return {"beta": [ref.moran_beta(ratios, J @ np.asarray(t)) for t in t_points],
                "grad": [ref.similarity_grad(ratios, values, t).tolist()
                         for t in t_points]}
    return compute


def _cf_beta(N, logc_of_t, t_points):
    def compute():
        T = ref.CFTransfer(N)
        return {"beta": [T.zero(logc_of_t(t)) for t in t_points]}
    return compute


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _certify(seed: int) -> list:
    rng = _rng("certify", seed)
    ops = []
    for N, n in ((2, 12), (3, 10), (5, 8)):
        ops.append(Op(f"dim_cf{N}", "dimension", {
            "system": {"kind": "moebius-cf", "alphabet": N},
            "numerics": {"word_length": n, "truncation": N, "tolerance": 1e-3},
        }, _cf_dimension(N)))
    ops.append(Op("dim_custom3", "dimension", {
        "system": {"kind": "custom-1d", "map_expr": "1/(x+k)",
                   "abs_deriv_expr": "(x+k)^-2", "contraction_bound": 0.5,
                   "contraction_prefactor": 2.0, "edges": 3},
        "numerics": {"word_length": 8, "tolerance": 1e-3},
    }, _cf_dimension(3)))
    for m, (lo, hi) in ((3, (0.15, 0.3)), (4, (0.1, 0.22))):
        ratios = [_u(rng, lo, hi) for _ in range(m)]
        ops.append(Op(f"dim_moran{m}", "dimension", {
            "system": {"kind": "similarity", "ratios": ratios},
            "numerics": {"word_length": 8, "tolerance": 1e-9},
        }, lambda r=ratios: {"dim": ref.moran_beta(r)}))
    ops.append(Op("dim_golden", "dimension", {
        "system": {"kind": "similarity", "ratios": [0.5, 0.5],
                   "offsets": [0.0, 0.5], "incidence": GOLDEN_INCIDENCE},
        "numerics": {"word_length": 16, "tolerance": 1e-6},
    }, lambda: {"dim": ref.markov_similarity_dimension(
        [0.5, 0.5], GOLDEN_INCIDENCE)}, known_fault=True))
    for N, n, (lo, hi) in ((3, 12, (0.5, 0.9)), (5, 8, (0.6, 0.95))):
        betas = _grid(rng, lo, hi, 3)
        ops.append(Op(f"pressure_cf{N}", "pressure", {
            "system": {"kind": "moebius-cf", "alphabet": N},
            "numerics": {"word_length": n, "truncation": N},
            "pressure": {"beta_grid": betas},
        }, _cf_pressure(N, n, betas)))
    ratios = [_u(rng, 0.2, 0.3) for _ in range(3)]
    values = [[_u(rng, -1.0, 1.0)] for _ in range(3)]
    t_points = [[_u(rng, -1.0, 0.0)], [_u(rng, 0.0, 1.0)]]
    betas = _grid(rng, 0.3, 1.2, 3)
    ops.append(Op("pressure_moran3", "pressure", {
        "system": {"kind": "similarity", "ratios": ratios},
        "potential": {"kind": "table",
                      "values": {str(k + 1): v for k, v in enumerate(values)}},
        "numerics": {"word_length": 12},
        "pressure": {"t_points": t_points, "beta_grid": betas},
    }, _sim_pressure(ratios, values, t_points, betas, 12)))
    return ops


def _spectrum(seed: int) -> list:
    rng = _rng("spectrum", seed)
    ops = []
    cf24 = {"kind": "moebius-cf", "alphabet": 24}
    shallow = {"word_length": 10, "truncation": 24, "window": 3,
               "tolerance": 1e-5}
    ext = _u(rng, 0.8, 1.2)
    ops.append(Op("spectrum_cf24", "spectrum", {
        "system": cf24, "potential": MOD_CYCLE, "numerics": shallow,
        "spectrum": {"alpha_grid": CF24_ALPHAS,
                     "t_grid": {"min": [-ext, -ext], "max": [ext, ext],
                                "points": 5}},
    }, lambda: {}))
    t_points = [[_u(rng, -0.3, 0.3), _u(rng, -0.3, 0.3)] for _ in range(2)]
    ops.append(Op("beta_cf24", "beta", {
        "system": cf24, "potential": MOD_CYCLE,
        "numerics": dict(shallow, tolerance=0.2),
        "beta": {"t_points": t_points},
    }, _cf_beta(24, lambda t: ref.mod_cycle_logc(MOD_TABLES, t, 24), t_points)))
    ext = _u(rng, 0.8, 1.2)
    ops.append(Op("sets_cf", "sets", {
        "system": {"kind": "moebius-cf"}, "potential": MOD_CYCLE,
        "numerics": shallow,
        "sets": {"t_grid": {"min": [-ext, -ext], "max": [ext, ext],
                            "points": 3},
                 "bernoulli": [{"rule": "inverse-square"}]},
    }, lambda: {}))
    ratios = [_u(rng, 0.4, 0.55), _u(rng, 0.25, 0.4)]
    values = [[0.0], [1.0]]
    sim = {"kind": "similarity", "ratios": ratios}
    t_points = [[_u(rng, -1.0, 0.0)], [_u(rng, 0.0, 1.0)]]
    ops.append(Op("beta_sim", "beta", {
        "system": sim, "potential": BINARY_J,
        "numerics": {"word_length": 24, "tolerance": 1e-9},
        "beta": {"t_points": t_points},
    }, _sim_beta(ratios, values, t_points)))
    # alpha-targets are gradients of beta at seeded t, hence interior
    alphas = [[float(ref.similarity_grad(ratios, values, [t])[0])]
              for t in (_u(rng, -1.5, -0.5), _u(rng, 0.5, 1.5))]
    ops.append(Op("spectrum_sim", "spectrum", {
        "system": sim, "potential": BINARY_J,
        "numerics": {"word_length": 24, "tolerance": 1e-8},
        "spectrum": {"alpha_grid": alphas,
                     "t_grid": {"min": [-2.0], "max": [2.0], "points": 5}},
    }, lambda: {"legendre": [ref.similarity_legendre(ratios, values, a[0])
                             for a in alphas]}))
    return ops


def _enumerate(seed: int) -> list:
    rng = _rng("enumerate", seed)
    ops = []
    ratios = [_u(rng, 0.35, 0.5), _u(rng, 0.25, 0.45)]
    values = [[_u(rng, -1.0, 0.0)], [_u(rng, 0.0, 1.0)]]
    table = {"kind": "table",
             "values": {str(k + 1): v for k, v in enumerate(values)}}
    t_points = [[_u(rng, -1.0, 0.0)], [_u(rng, 0.0, 1.0)]]
    betas = _grid(rng, 0.2, 1.2, 3)
    ops.append(Op("pressure_sim16", "pressure", {
        "system": {"kind": "similarity", "ratios": ratios}, "potential": table,
        "numerics": {"word_length": 16},
        "pressure": {"t_points": t_points, "beta_grid": betas},
    }, _sim_pressure(ratios, values, t_points, betas, 16), workers=2))
    for N, n, (lo, hi) in ((2, 16, (0.3, 0.8)), (3, 10, (0.5, 0.9)),
                           (5, 7, (0.6, 0.95))):
        betas = _grid(rng, lo, hi, 4)
        ops.append(Op(f"pressure_cf{N}", "pressure", {
            "system": {"kind": "moebius-cf", "alphabet": N},
            "numerics": {"word_length": n, "truncation": N},
            "pressure": {"beta_grid": betas},
        }, _cf_pressure(N, n, betas), workers=2))
    # one t-point per beta operation: every kernel call starts a thread
    # pool, and two points per operation let pool start-up waits on a
    # descheduled vCPU swing the round's wall time by 20% (CPU time moved
    # by 3.5%)
    t_points = [[_u(rng, -1.0, 1.0)]]
    ops.append(Op("beta_sim16", "beta", {
        "system": {"kind": "similarity", "ratios": ratios}, "potential": table,
        "numerics": {"word_length": 16, "tolerance": 1e-8},
        "beta": {"t_points": t_points},
    }, _sim_beta(ratios, values, t_points), workers=2))
    t_points = [[_u(rng, -0.5, 0.5)]]
    ops.append(Op("beta_cf2", "beta", {
        "system": {"kind": "moebius-cf", "alphabet": 2}, "potential": BINARY_J,
        "numerics": {"word_length": 16, "truncation": 2, "tolerance": 0.05},
        "beta": {"t_points": t_points},
    }, _cf_beta(2, lambda t: np.array([0.0, t[0]]), t_points), workers=2))
    return ops


WORKLOADS = {"certify": _certify, "spectrum": _spectrum,
             "enumerate": _enumerate}


def build(workload: str, seed: int) -> list:
    """The operations of one workload for one seed, in run order."""
    return WORKLOADS[workload](seed)

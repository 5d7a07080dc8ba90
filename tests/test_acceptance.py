"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

from cgdms import measures, potentials
from cgdms.cli import main as cli_main
from cgdms.multifractal import (BetaSolver, estimate_M, grad_beta,
                                independence_certificate, legendre,
                                solve_beta, spectrum_scan)
from cgdms.system import (moebius_cf_system, similarity_system,
                          truncated_cf_system)
from cgdms.thermo import bowen_dimension, classify_regularity, estimate_theta

LOG2 = math.log(2.0)
SIM = similarity_system([0.5, 0.5], offsets=[0.0, 0.5])
J01 = potentials.from_table({1: [0.0], 2: [1.0]})
MOD23_J = potentials.mod_cycle([[-1.0, 1.0], [0.0, 1.0, -1.0]])


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {verdict} in {elapsed:.2f}s "
          f"(limit {limit:g}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} overran {limit}s ({elapsed:.2f}s)"


def beta_exact(t):
    return math.log(1.0 + math.exp(t)) / LOG2


def beta_prime_exact(t):
    return math.exp(t) / ((1.0 + math.exp(t)) * LOG2)


def test_criterion_01_closed_form_beta_oracle():
    start = time.perf_counter()
    ok = True
    for t in range(-3, 4):
        bp = solve_beta(SIM, J01, (float(t),), 1e-8, n=24)
        ok &= abs(bp.estimate - beta_exact(t)) <= 1e-6
        ok &= beta_exact(t) in bp.beta
        gr = grad_beta(SIM, J01, (float(t),), 1e-6, n=24)
        ok &= abs(gr.primary[0] - beta_prime_exact(t)) <= 1e-5
        ok &= not gr.flagged
    _report(1, "closed-form beta oracle", ok, time.perf_counter() - start, 5.0)


def test_criterion_02_bowen_dimension_similarity():
    start = time.perf_counter()
    sim3 = similarity_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3])
    res = bowen_dimension(sim3, 8, tol=1e-9)
    ok = (math.log(2) / math.log(3)) in res.enclosure
    ok &= res.enclosure.width <= 1e-9
    _report(2, "similarity Bowen dimension", ok, time.perf_counter() - start, 1.0)


def test_criterion_03_continued_fraction_subsystem():
    start = time.perf_counter()
    cf2 = truncated_cf_system(2)
    d12 = bowen_dimension(cf2, 12, tol=1e-3)
    d16 = bowen_dimension(cf2, 16, tol=5e-4)
    ok = 0.5313 in d12.enclosure and 0.5313 in d16.enclosure
    ok &= d12.enclosure.contains(d16.enclosure)
    ok &= d16.enclosure.width <= 2e-3
    elapsed = time.perf_counter() - start
    # the workers=8 profile must also meet its own tighter budget
    start8 = time.perf_counter()
    d16w = bowen_dimension(cf2, 16, tol=5e-4, workers=8)
    elapsed8 = time.perf_counter() - start8
    ok &= d16w.enclosure.lo == d16.enclosure.lo
    ok &= d16w.enclosure.hi == d16.enclosure.hi
    ok &= elapsed8 < 15.0
    _report(3, "continued-fraction subsystem dimension", ok, elapsed, 60.0)


def test_criterion_04_theta_and_regularity():
    start = time.perf_counter()
    cf = moebius_cf_system()
    th = estimate_theta(cf)
    ok = th.determined
    ok &= th.enclosure.lo >= 0.5 - 1e-9 and th.enclosure.hi <= 0.5 + 1e-9
    ok &= 0.5 in th.enclosure
    label, _ = classify_regularity(cf)
    ok &= label == "co-finitely-regular"
    _report(4, "threshold and regularity", ok, time.perf_counter() - start, 1.0)


T_POINTS_5 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)]


def test_criterion_05_gradient_consistency():
    start = time.perf_counter()
    cf24 = truncated_cf_system(24)
    ok = True
    for t in T_POINTS_5:
        gr = grad_beta(cf24, MOD23_J, t, 1e-4, n=10, N=24)
        for g, f in zip(gr.primary, gr.finite_diff):
            ok &= abs(g - f) <= 1e-3
        ok &= not gr.flagged
    _report(5, "gradient estimator consistency", ok,
            time.perf_counter() - start, 600.0)


def test_criterion_06_legendre_duality_suite():
    start = time.perf_counter()
    tol = 1e-6
    ok = True
    # interior points from the closed-form system
    solver1 = BetaSolver(SIM, J01, n=24)
    for t in (-2.0, 0.0, 1.0):
        alpha = solver1.grad(np.array([t]))
        sp = legendre(SIM, J01, alpha, tol, n=24)
        ok &= sp.status == "interior"
        dual_gap = solver1.root(np.array([t])) - t * alpha[0] - sp.beta_hat
        ok &= abs(dual_gap) <= 2 * tol
    # interior points from the two-dimensional example
    cf24 = truncated_cf_system(24)
    solver2 = BetaSolver(cf24, MOD23_J, n=10)
    for t in T_POINTS_5:
        tv = np.array(t)
        alpha = solver2.grad(tv)
        sp = legendre(cf24, MOD23_J, alpha, tol, n=10)
        ok &= sp.status == "interior"
        dual_gap = solver2.root(tv) - float(tv @ alpha) - sp.beta_hat
        ok &= abs(dual_gap) <= 2 * tol
    # the scanned maximum sits at the gradient of zero and equals the
    # dimension value there
    a0 = float(solver1.grad(np.zeros(1))[0])
    alphas = sorted(set(np.linspace(0.2, 1.2, 9).tolist() + [a0]))
    pts, _ = spectrum_scan(SIM, J01, [(a,) for a in alphas], tol, n=24)
    best = max(pts, key=lambda p: p.beta_hat)
    dim = solve_beta(SIM, J01, (0.0,), 1e-8, n=24)
    ok &= abs(best.alpha[0] - a0) <= 1e-9
    ok &= dim.beta.lo - tol <= best.beta_hat <= dim.beta.hi + tol
    _report(6, "Legendre duality suite", ok, time.perf_counter() - start, 60.0)


def test_criterion_07_independence_certificate():
    start = time.perf_counter()
    cf24 = truncated_cf_system(24)
    cert = independence_certificate(cf24, MOD23_J, [(1,), (2,), (3,)])
    ok = cert.status == "independent"
    J2 = potentials.depth1(lambda k: [1.0 if k % 2 else -1.0,
                                      2.0 if k % 2 else -2.0],
                           dim=2, bound=2.0)
    cert2 = independence_certificate(cf24, J2, [(1,), (2,), (3,)])
    ok &= cert2.status == "dependent-witness"
    w = np.array(cert2.witness)
    ok &= abs(w[0] / w[1] + 2.0) <= 1e-8  # proportional to (2, -1)
    _report(7, "independence certificate", ok, time.perf_counter() - start, 1.0)


def test_criterion_08_zero_in_M():
    start = time.perf_counter()
    cf24 = truncated_cf_system(24)
    grid = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]
    res = estimate_M(cf24, MOD23_J, grid, tol=1e-5, n=10, N=24)
    ok = res.zero_in_M
    ok &= res.grad_norm <= 1e-4
    ok &= res.minimizer is not None
    _report(8, "zero in the gradient range", ok,
            time.perf_counter() - start, 300.0)


def test_criterion_09_counterexample_reproduction():
    start = time.perf_counter()
    res = measures.semicontinuity_counterexample(100.0, [10 ** 3, 10 ** 4, 10 ** 5])
    ok = all(row.I_lower >= 150.0 for row in res.rows)
    ok &= res.limit_I.hi <= 3.0
    ok &= res.verdict == "strict-gap"
    _report(9, "semicontinuity counterexample", ok,
            time.perf_counter() - start, 10.0)


def test_criterion_10_generic_word_construction():
    start = time.perf_counter()
    target = measures.Q_of_periodic(SIM, J01, (2, 1)).Q_value[0].mid
    schedule = [2.0 ** -k for k in range(1, 7)]
    rep = measures.construct_generic_word(SIM, J01, [target], schedule,
                                          max_period=2, truncation=2)
    ok = rep.status == "complete"
    ok &= len(rep.checkpoints) == 6
    ok &= all(cp.error <= cp.epsilon for cp in rep.checkpoints)
    _report(10, "generic word construction", ok,
            time.perf_counter() - start, 5.0)


# --- criterion 11: determinism across worker counts -----------------------

_DET_CONFIGS = {
    "c1_beta_similarity": ("beta", {
        "system": {"kind": "similarity", "ratios": [0.5, 0.5],
                   "offsets": [0.0, 0.5]},
        "potential": {"kind": "table", "values": {"1": [0.0], "2": [1.0]}},
        "numerics": {"word_length": 16, "tolerance": 1e-8, "seed": 0},
        "beta": {"t_points": [[-3.0], [0.0], [3.0]]},
    }),
    "c2_dimension_third": ("dimension", {
        "system": {"kind": "similarity", "ratios": [1 / 3, 1 / 3],
                   "offsets": [0.0, 2 / 3]},
        "numerics": {"word_length": 8, "tolerance": 1e-9, "seed": 0},
    }),
    "c3_dimension_cf2": ("dimension", {
        "system": {"kind": "moebius-cf", "alphabet": 2},
        "numerics": {"word_length": 12, "truncation": 2,
                     "tolerance": 1e-3, "seed": 0},
    }),
    "c4_pressure_cf2": ("pressure", {
        "system": {"kind": "moebius-cf", "alphabet": 2},
        "numerics": {"word_length": 10, "truncation": 2,
                     "tolerance": 1e-6, "seed": 0},
        "pressure": {"beta_grid": [0.4, 0.5, 0.6, 0.7]},
    }),
    "c5_beta_mod_table": ("beta", {
        "system": {"kind": "moebius-cf", "alphabet": 24},
        "potential": {"kind": "mod-cycle",
                      "tables": [[-1.0, 1.0], [0.0, 1.0, -1.0]]},
        # enclosure width at this truncation is limited by the affordable
        # window depth; estimator columns carry the precision
        "numerics": {"word_length": 10, "truncation": 24,
                     "tolerance": 0.05, "seed": 0},
        "beta": {"t_points": [[0.0, 0.0], [1.0, 0.0]]},
    }),
    "c6_spectrum_similarity": ("spectrum", {
        "system": {"kind": "similarity", "ratios": [0.5, 0.5],
                   "offsets": [0.0, 0.5]},
        "potential": {"kind": "table", "values": {"1": [0.0], "2": [1.0]}},
        "numerics": {"word_length": 16, "tolerance": 1e-8, "seed": 0},
        "spectrum": {"alpha_grid": [[0.5], [1.0]],
                     "t_grid": {"min": [-2.0], "max": [2.0], "points": 5}},
    }),
    "c8_sets_mod_table": ("sets", {
        "system": {"kind": "moebius-cf", "alphabet": 24},
        "potential": {"kind": "mod-cycle",
                      "tables": [[-1.0, 1.0], [0.0, 1.0, -1.0]]},
        "numerics": {"word_length": 10, "truncation": 24,
                     "tolerance": 1e-5, "seed": 0},
        "sets": {"t_grid": {"min": [-1.0, -1.0], "max": [1.0, 1.0],
                            "points": 3}},
    }),
    "c9_counterexample": ("counterexample", {
        "system": {"kind": "moebius-cf"},
        "numerics": {"word_length": 4, "truncation": 8, "seed": 0},
        "counterexample": {"M_param": 100.0, "n_list": [1000, 10000, 100000]},
    }),
}


def _strip_meta_csv(path):
    return "\n".join(l for l in path.read_text().splitlines()
                     if not l.startswith("#"))


def _strip_meta_json(path):
    doc = json.loads(path.read_text())
    doc.pop("metadata", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_11_determinism_across_workers(tmp_path):
    start = time.perf_counter()
    ok = True
    for name, (command, doc) in _DET_CONFIGS.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        snapshots = []
        for w in (1, 4, 8):
            out = tmp_path / f"{name}_w{w}"
            code = cli_main([command, "--config", str(cfg), "--out", str(out),
                             "--workers", str(w), "--seed", "0"])
            ok &= code == 0
            snap = {}
            for f in sorted(out.iterdir()):
                if f.suffix == ".csv":
                    snap[f.name] = _strip_meta_csv(f)
                else:
                    snap[f.name] = _strip_meta_json(f)
            snapshots.append(snap)
        ok &= snapshots[0] == snapshots[1] == snapshots[2]
        if not ok:
            print(f"  determinism broke at {name}")
            break
    _report(11, "determinism across worker counts", ok,
            time.perf_counter() - start, 600.0)


def test_criterion_12_surface_qualitative(tmp_path):
    start = time.perf_counter()
    # any window depth yields a convex anchored stage value, so the
    # qualitative shape is window-independent; the shallow window keeps
    # the 441-point sweep quick
    doc = {
        "system": {"kind": "moebius-cf", "alphabet": 24},
        "potential": {"kind": "mod-cycle",
                      "tables": [[-1.0, 1.0], [0.0, 1.0, -1.0]]},
        "numerics": {"word_length": 10, "truncation": 24, "window": 3,
                     "tolerance": 1e-6, "seed": 0},
        "spectrum": {"alpha_grid": [],
                     "t_grid": {"min": [-4.0, -4.0], "max": [4.0, 4.0],
                                "points": 21}},
    }
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "surf"
    assert cli_main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l.split(",") for l in _strip_meta_csv(out / "surface.csv").splitlines()[1:]]
    grid = np.array([[float(a), float(b), float(c)] for a, b, c in rows])
    n = 21
    surf = grid[:, 2].reshape(n, n)
    # midpoint convexity along every grid line, within solver noise
    slack = 1e-9
    viol = 0
    for arr in list(surf) + list(surf.T):
        d2 = arr[:-2] - 2 * arr[1:-1] + arr[2:]
        viol += int((d2 < -slack).sum())
    ok = viol == 0
    imin = np.unravel_index(surf.argmin(), surf.shape)
    ok &= 0 < imin[0] < n - 1 and 0 < imin[1] < n - 1
    _report(12, "surface qualitative reproduction", ok,
            time.perf_counter() - start, 120.0)

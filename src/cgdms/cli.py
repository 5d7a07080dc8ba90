"""Command-line front end: config in, CSV/JSON artifacts out.

Verbs: pressure, dimension, spectrum, sets, counterexample, beta.
Exit codes: 0 success, 1 configuration error, 2 computation failure (any
artifacts written before the failure are left in place).

Every output file carries a metadata header sufficient to reproduce it;
data rows are decimal with 17 significant digits.  ``--workers`` (and
``numerics.workers``) is accepted and recorded in the metadata, but every
command runs single-threaded, so it does not change the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import measures, multifractal, thermo
from .config import TOOL_VERSION, RunConfig, load_config, validate_config
from .errors import CgdmsError, ConfigError
from .kernel import PressureKernel
from .symbolic import enumerate_cycles
from .util import config_hash, format_float


def _meta(rc: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(rc.raw),
        "seed": rc.seed,
        "word_length": rc.word_length,
        "truncation": rc.truncation,
        "workers": rc.workers,
    }


def _write_csv(path: Path, meta: dict, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [format_float(x) if isinstance(x, float) else str(x)
                     for x in row]
            fh.write(",".join(cells) + "\n")


def _write_json(path: Path, meta: dict, payload: dict) -> None:
    doc = _jsonable({"metadata": meta, **payload})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _jsonable(obj):
    """``obj`` as strict JSON values: numpy scalars and arrays as Python
    ones, objects by their attributes, non-finite floats as the strings
    "nan", "inf" and "-inf", for which JSON has no number, and anything
    else that json cannot write as its str."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if hasattr(obj, "__dict__"):
        return _jsonable(obj.__dict__)
    return str(obj)


def _tcols(dim: int, prefix: str = "t") -> list:
    return [f"{prefix}{i+1}" for i in range(dim)]


def cmd_pressure(rc: RunConfig, outdir: Path) -> list:
    d = rc.potential.dim
    # the kernel does not depend on (t, beta): one serves the whole grid
    kern = PressureKernel(rc.system, rc.potential, n=rc.word_length,
                          N=rc.truncation, window=rc.window)
    rows = []
    for tv in rc.command_params["t_points"]:
        tt = np.asarray(tv)
        for beta in map(float, rc.command_params["beta_grid"]):
            lo, hi = kern.values(tt, beta)
            rows.append(list(tv) + [beta, lo, hi, kern.n, kern.N,
                                    kern.tail_weight(tt, beta)])
    path = outdir / "pressure.csv"
    _write_csv(path, _meta(rc, "pressure"),
               _tcols(d) + ["beta", "lower", "upper", "n", "N", "tail_bound"],
               rows)
    return [path]


def cmd_dimension(rc: RunConfig, outdir: Path) -> list:
    report = thermo.thermo_report(rc.system, rc.word_length, rc.truncation,
                                  rc.tolerance, window=rc.window)
    th = report.theta
    rows = [[th.lo if th else math.nan, th.hi if th else math.nan,
             report.hausdorff_dim.lo, report.hausdorff_dim.hi,
             report.regularity]]
    p1 = outdir / "dimension.csv"
    _write_csv(p1, _meta(rc, "dimension"),
               ["theta_lo", "theta_hi", "dim_lo", "dim_hi", "regularity"], rows)
    p2 = outdir / "dimension.json"
    _write_json(p2, _meta(rc, "dimension"), {
        "theta": None if th is None else {"lo": th.lo, "hi": th.hi},
        "hausdorff_dim": {"lo": report.hausdorff_dim.lo,
                          "hi": report.hausdorff_dim.hi},
        "regularity": report.regularity,
        "notes": list(report.notes),
    })
    return [p1, p2]


def cmd_beta(rc: RunConfig, outdir: Path) -> list:
    d = rc.potential.dim
    s = multifractal.BetaSolver(rc.system, rc.potential, n=rc.word_length,
                                N=rc.truncation, window=rc.window)
    rows = []
    for tv in rc.command_params["t_points"]:
        bp = multifractal.solve_beta(rc.system, rc.potential, tv, rc.tolerance, solver=s)
        gr = multifractal.grad_beta(rc.system, rc.potential, tv, rc.tolerance, solver=s)
        rows.append(list(tv) + [bp.beta.lo, bp.beta.hi, bp.estimate]
                    + list(gr.primary) + [int(gr.flagged)])
    path = outdir / "beta.csv"
    _write_csv(path, _meta(rc, "beta"),
               _tcols(d) + ["beta_lo", "beta_hi", "beta_est"]
               + [f"grad{i+1}" for i in range(d)] + ["grad_flagged"],
               rows)
    return [path]


def cmd_spectrum(rc: RunConfig, outdir: Path) -> list:
    d = rc.potential.dim
    points, surface = multifractal.spectrum_scan(
        rc.system, rc.potential, rc.command_params["alpha_grid"], rc.tolerance,
        n=rc.word_length, N=rc.truncation, window=rc.window,
        t_grid=rc.command_params["t_grid"])
    rows = []
    for sp in points:
        tstar = sp.minimizer_t if sp.minimizer_t is not None else [math.nan] * d
        rows.append(list(sp.alpha) + [sp.beta_hat, sp.status]
                    + list(tstar) + [sp.grad_error, ";".join(sp.flags)])
    p1 = outdir / "spectrum.csv"
    _write_csv(p1, _meta(rc, "spectrum"),
               _tcols(d, "alpha") + ["beta_hat", "status"]
               + [f"tstar{i+1}" for i in range(d)] + ["grad_error", "flags"],
               rows)
    p2 = outdir / "surface.csv"
    _write_csv(p2, _meta(rc, "spectrum"),
               _tcols(d) + ["beta"],
               [list(t) + [b] for t, b in surface])
    return [p1, p2]


def cmd_sets(rc: RunConfig, outdir: Path) -> list:
    d = rc.potential.dim
    sysd = rc.system
    mres = multifractal.estimate_M(sysd, rc.potential,
                                   rc.command_params["t_grid"], rc.tolerance,
                                   n=rc.word_length, N=rc.truncation,
                                   window=rc.window)
    # default short cycles and simple product measures when not specified
    N_small = sysd.effective_truncation(min(rc.truncation or 6, 6))
    cycles = rc.command_params.get("cycles")
    if cycles is None:
        cycles = [list(c) for c in enumerate_cycles(sysd.incidence, 2, N_small)]
    specs = rc.command_params["bernoulli"]
    if not specs:
        specs = [measures.BernoulliSpec.finite(
            {k: 1.0 / N_small for k in range(1, N_small + 1)})]
    kl = multifractal.estimate_KL(sysd, rc.potential,
                                  bernoulli_specs=specs, cycles=cycles,
                                  m_points=[g for _, g in mres.points])
    paths = []
    for name, pts in (("m_points", [g for _, g in mres.points]),
                      ("k_points", kl.K_points), ("l_points", kl.L_points)):
        p = outdir / f"{name}.csv"
        _write_csv(p, _meta(rc, "sets"), _tcols(d, "q"),
                   [list(pt) for pt in pts])
        paths.append(p)
    pj = outdir / "inclusion.json"
    _write_json(pj, _meta(rc, "sets"), {
        "zero_in_M": mres.zero_in_M,
        "minimizer": mres.minimizer,
        "grad_norm": mres.grad_norm,
        "beta_min": mres.beta_min,
        "degenerate": mres.degenerate,
        "inclusion": kl.inclusion,
    })
    paths.append(pj)
    return paths


def cmd_counterexample(rc: RunConfig, outdir: Path) -> list:
    params = rc.command_params
    res = measures.semicontinuity_counterexample(params["M_param"], params["n_list"])
    rows = [[r.n, r.c_n, r.top_mass, r.I_lower, r.I_upper,
             int(r.valid_probability)] for r in res.rows]
    p1 = outdir / "counterexample.csv"
    _write_csv(p1, _meta(rc, "counterexample"),
               ["n", "c_n", "top_mass", "I_lower", "I_upper",
                "valid_probability"], rows)
    p2 = outdir / "counterexample.json"
    _write_json(p2, _meta(rc, "counterexample"), {
        "verdict": res.verdict,
        "limit_I": {"lo": res.limit_I.lo, "hi": res.limit_I.hi},
        "M_param": res.M_param,
    })
    return [p1, p2]


_COMMANDS = {
    "pressure": cmd_pressure,
    "dimension": cmd_dimension,
    "spectrum": cmd_spectrum,
    "sets": cmd_sets,
    "counterexample": cmd_counterexample,
    "beta": cmd_beta,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cgdms",
        description="Pressure, dimension, and multifractal spectra for "
                    "conformal graph directed Markov systems")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="override numerics.workers (recorded in the "
                             "metadata; it does not change the run)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override numerics.seed")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        doc = load_config(args.config)
        if args.workers is not None or args.seed is not None:
            doc = dict(doc)
            num = dict(doc.get("numerics", {}))
            if args.workers is not None:
                num["workers"] = args.workers
            if args.seed is not None:
                num["seed"] = args.seed
            doc["numerics"] = num
        rc = validate_config(doc, args.command)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"config error: --out {args.out!r}: cannot create the output "
              f"directory ({exc.strerror or exc})", file=_sys.stderr)
        return 1
    try:
        paths = _COMMANDS[args.command](rc, outdir)
    except (CgdmsError, ValueError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=_sys.stderr)
        return 2
    if args.verbose:
        for p in paths:
            print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Output checks and certified-digit counts for the benchmark operations.

``check`` returns the problems of one operation's outputs, with the
certified enclosures that miss their reference kept apart;
``certified_digits`` sums -log10(width / max(1, |mid|)) over every
certified enclosure an operation wrote: dimension, pressure-bracket and
beta enclosures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DIGITS_CAP = 15.0
# relative room for rounding in the references: the brute-force word sums
# carry errors near 1e-14
SLACK = 1e-12


def read_csv(path: Path) -> list:
    """Data rows of a cgdms CSV as dicts (metadata and header skipped)."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def stripped(outdir: Path) -> dict:
    """Output files without their metadata, which records the worker
    count; what remains must not depend on it."""
    snap = {}
    for f in sorted(outdir.iterdir()):
        if f.suffix == ".csv":
            snap[f.name] = "\n".join(l for l in f.read_text().splitlines()
                                     if not l.startswith("#"))
        else:
            doc = read_json(f)
            doc.pop("metadata", None)
            snap[f.name] = json.dumps(doc, sort_keys=True)
    return snap


def enclosure_digits(lo: float, hi: float) -> float:
    width = hi - lo
    scale = max(1.0, abs(0.5 * (lo + hi)))
    if width <= scale * 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return -math.log10(width / scale)


def _enclosures(op, outdir: Path) -> list:
    if op.command == "dimension":
        d = read_json(outdir / "dimension.json")["hausdorff_dim"]
        return [(d["lo"], d["hi"])]
    if op.command == "pressure":
        return [(float(r["lower"]), float(r["upper"]))
                for r in read_csv(outdir / "pressure.csv")]
    if op.command == "beta":
        return [(float(r["beta_lo"]), float(r["beta_hi"]))
                for r in read_csv(outdir / "beta.csv")]
    return []


def certified_digits(op, outdir: Path) -> float:
    return sum(enclosure_digits(lo, hi) for lo, hi in _enclosures(op, outdir))


def _inside(x, lo, hi):
    pad = SLACK * max(1.0, abs(x))
    return lo - pad <= x <= hi + pad


def check(op, outdir: Path, refs: dict) -> tuple:
    """(problems, enclosure_misses) of one operation's outputs.

    ``enclosure_misses`` lists certified enclosures that do not contain
    their independent reference; ``problems`` lists every other defect.
    """
    problems, misses = [], []
    if op.command == "dimension":
        d = read_json(outdir / "dimension.json")
        lo, hi = d["hausdorff_dim"]["lo"], d["hausdorff_dim"]["hi"]
        if not lo <= hi:
            problems.append(f"dimension enclosure [{lo}, {hi}] is inverted")
        if not _inside(refs["dim"], lo, hi):
            misses.append(f"dimension [{lo!r}, {hi!r}] misses {refs['dim']!r}")
        if d["regularity"] != "strongly-regular":
            problems.append(f"regularity {d['regularity']!r} for a finite "
                            "alphabet with positive p(0)")
    elif op.command == "pressure":
        rows = read_csv(outdir / "pressure.csv")
        grid = op.doc["pressure"]["beta_grid"]
        if len(rows) != len(refs["fixed_point"]):
            return [f"{len(rows)} pressure rows, expected "
                    f"{len(refs['fixed_point'])}"], misses
        for i, r in enumerate(rows):
            lo, hi = float(r["lower"]), float(r["upper"])
            if not lo <= hi:
                problems.append(f"row {i}: lower {lo} > upper {hi}")
            for key in ("fixed_point", "limit"):
                if not _inside(refs[key][i], lo, hi):
                    misses.append(f"row {i}: [{lo!r}, {hi!r}] misses the "
                                  f"{key} value {refs[key][i]!r}")
            if i % len(grid):
                prev = rows[i - 1]
                if lo > float(prev["lower"]) or hi > float(prev["upper"]):
                    problems.append(f"row {i}: bracket rises with beta")
    elif op.command == "beta":
        rows = read_csv(outdir / "beta.csv")
        for i, r in enumerate(rows):
            lo, hi = float(r["beta_lo"]), float(r["beta_hi"])
            if not lo <= float(r["beta_est"]) <= hi:
                problems.append(f"row {i}: estimate outside [{lo}, {hi}]")
            if not _inside(refs["beta"][i], lo, hi):
                misses.append(f"row {i}: beta [{lo!r}, {hi!r}] misses "
                              f"{refs['beta'][i]!r}")
            if r["grad_flagged"] != "0":
                problems.append(f"row {i}: gradient estimators disagree")
            if "grad" in refs:
                g = [float(r[k]) for k in r if k.startswith("grad") and k[4:].isdigit()]
                err = max(abs(a - b) for a, b in zip(g, refs["grad"][i]))
                if err > 1e-6:
                    problems.append(f"row {i}: gradient off the closed form "
                                    f"by {err:.3g}")
    elif op.command == "spectrum":
        problems += _check_spectrum(op, outdir, refs)
    elif op.command == "sets":
        inc = read_json(outdir / "inclusion.json")
        if inc["zero_in_M"] is not True:
            problems.append("sets did not place 0 in M")
        for name in ("m_points", "k_points", "l_points"):
            if not read_csv(outdir / f"{name}.csv"):
                problems.append(f"{name}.csv is empty")
    return problems, misses


def _check_spectrum(op, outdir: Path, refs: dict) -> list:
    problems = []
    tol = op.doc["numerics"]["tolerance"]
    points = read_csv(outdir / "spectrum.csv")
    surface = read_csv(outdir / "surface.csv")
    dim = sum(1 for k in surface[0] if k.startswith("t"))
    ts = [[float(r[f"t{i + 1}"]) for i in range(dim)] for r in surface]
    bs = [float(r["beta"]) for r in surface]
    for i, p in enumerate(points):
        alpha = [float(p[f"alpha{j + 1}"]) for j in range(dim)]
        if p["status"] != "interior":
            problems.append(f"alpha {alpha}: status {p['status']}")
            continue
        bh = float(p["beta_hat"])
        if "legendre" in refs and abs(bh - refs["legendre"][i]) > tol:
            problems.append(f"alpha {alpha}: beta_hat {bh!r} vs closed form "
                            f"{refs['legendre'][i]!r}")
        worst = min(b - sum(x * a for x, a in zip(t, alpha))
                    for t, b in zip(ts, bs))
        if bh > worst + tol:
            problems.append(f"alpha {alpha}: beta_hat {bh!r} exceeds the "
                            f"surface bound {worst!r}")
    # midpoint convexity along every grid line of the surface
    k = round(len(bs) ** (1.0 / dim))
    lines = ([bs] if dim == 1 else
             [bs[i * k:(i + 1) * k] for i in range(k)]
             + [bs[j::k] for j in range(k)])
    for line in lines:
        for a, b, c in zip(line, line[1:], line[2:]):
            if a - 2.0 * b + c < -1e-9:
                problems.append("surface is not midpoint-convex")
                return problems
    return problems

"""Benchmark of the cgdms command line: certified digits per second.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Each run starts the workload in a fresh interpreter (``worker.py``) that
drives ``cgdms.cli.main`` exactly as a user would, checks every output
against references computed without ``cgdms`` (``reference.py``), and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_STARTS = 5
RUN_LIMIT_S = 170.0      # a run must end within 180 s


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, env: dict, deadline: float) -> tuple:
    """Run the workload process to completion; (exit code, wall seconds).
    The process is killed, and waited for, if the run's deadline passes."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, time.perf_counter() - t0
    return code, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "cgdms" / "cli.py").is_file():
        return fail(f"no cgdms sources under {root / 'src'}; run from the "
                    "root of a checkout")
    env = child_env(root)
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", str(out)]

    # set-up: fresh interpreters importing cgdms.cli and validating
    # configs, some before and some after the workload so that the median
    # spans the run
    def probe():
        return run_child(common + ["--setup-only"], env, deadline)

    probes = [probe() for _ in range(SETUP_STARTS - SETUP_STARTS // 2)]
    code, _ = run_child(common + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], env, deadline)
    if code != 0:
        return fail(f"workload process exited with {code}")
    probes += [probe() for _ in range(SETUP_STARTS // 2)]
    if any(c != 0 for c, _ in probes):
        return fail("a set-up probe failed")
    res = json.loads((out / "worker.json").read_text())
    if not Path(res["cgdms"]).resolve().is_relative_to((root / "src").resolve()):
        return fail(f"imported cgdms from {res['cgdms']}, not this checkout")

    # checks of the first round's outputs, outside the timed region
    ops = workloads.build(args.workload, args.seed)
    first = res.get("untraced", res["rounds"][0])
    problems = []
    if abs(reference.self_test()) > 1e-12:
        problems.append("collocation self-test missed dim E_(1,2)")
    digits = 0.0
    failing = set()
    for op, c in zip(ops, first["codes"]):
        if c != 0:
            failing.add(op.label)
            continue
        found, misses = checks.check(op, out / "r0" / op.label, op.reference())
        problems += [f"{op.label}: {p}" for p in found]
        if misses:
            failing.add(op.label)
            if not op.known_fault:
                problems += [f"{op.label}: {m}" for m in misses]
        else:
            digits += checks.certified_digits(op, out / "r0" / op.label)
    rounds = list(res["rounds"])
    if "untraced" in res:
        rounds.append(dict(res["untraced"], same_as_first=True))
    if "workers1_codes" in res:
        rounds.append({"codes": res["workers1_codes"], "same_as_first": True})
        if not res["workers1_same"]:
            problems.append("outputs differ between --workers 2 and 1")
    attempted = failed = 0
    for rnd in rounds:
        if not rnd["same_as_first"]:
            problems.append("a round's outputs differ from the first round's")
        for op, c in zip(ops, rnd["codes"]):
            attempted += 1
            if c != 0 or op.label in failing:
                failed += 1
                if c != 0 and not op.known_fault:
                    problems.append(f"{op.label}: exit code {c}")
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)

    timed = res["rounds"]
    if args.trace:
        layers = res["layers"]
        values = {name: statistics.median_low(l[name] for l in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = res["trace_overhead_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
    else:
        wall = statistics.median(r["wall"] for r in timed)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "digits_per_s": {"value": digits / wall, "unit": "digits/s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in timed),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(w for _, w in probes),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(timed)}, certified digits per round {digits:.4f}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

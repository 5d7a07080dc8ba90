"""Workload process: runs one workload's operations through cgdms.cli.main.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
It runs whole rounds of the operation list, one after another (a closed
loop with one client), until ``--seconds`` have passed, and writes
``worker.json`` with per-round wall and CPU time, exit codes and peak
memory.  ``--trace 1`` first runs one untraced round, then installs the
span tracer and reports per-layer metrics of the traced rounds.
``--setup-only`` stops after importing the CLI and validating the configs.
"""

import os

# BLAS/OpenMP pools stay at one thread so that ``--workers`` is the only
# parallelism; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def run_round(cli, ops, cfgs, dest: Path, workers=None) -> list:
    """Run every operation once; return their exit codes."""
    if dest.exists():
        shutil.rmtree(dest)
    codes = []
    for op, cfg in zip(ops, cfgs):
        w = op.workers if workers is None else workers
        codes.append(cli.main([op.command, "--config", str(cfg),
                               "--out", str(dest / op.label),
                               "--workers", str(w)]))
    return codes


def snapshot(ops, dest: Path) -> dict:
    return {op.label: checks.stripped(dest / op.label)
            for op in ops if (dest / op.label).is_dir()}


def timed_round(cli, ops, cfgs, dest):
    w0, c0 = time.perf_counter(), time.process_time()
    codes = run_round(cli, ops, cfgs, dest)
    return {"wall": time.perf_counter() - w0,
            "cpu": time.process_time() - c0, "codes": codes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed)
    out = Path(args.out)
    cfgdir = out / "configs"
    cfgdir.mkdir(parents=True, exist_ok=True)
    cfgs = []
    for op in ops:
        p = cfgdir / f"{op.label}.json"
        p.write_text(json.dumps(op.doc))
        cfgs.append(p)

    from cgdms import cli, config
    if args.setup_only:
        for op, cfg in zip(ops, cfgs):
            config.validate_config(config.load_config(str(cfg)), op.command)
        return 0

    result = {"cgdms": cli.__file__, "rounds": []}
    first = out / "r0"
    tracer = reference = None
    if args.trace:
        import tracing
        result["untraced"] = timed_round(cli, ops, cfgs, first)
        reference = snapshot(ops, first)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        result["layers"] = []
    # a traced run's untraced round counts towards its seconds
    start = time.perf_counter() - (result["untraced"]["wall"] if tracer else 0.0)
    while not result["rounds"] or time.perf_counter() - start < args.seconds:
        dest = first if reference is None else out / "rn"
        if tracer is not None:
            mark = len(tracer.spans)
            tracer.counts.clear()
        rnd = timed_round(cli, ops, cfgs, dest)
        if tracer is not None:
            result["layers"].append(tracing.layer_metrics(
                tracer.spans_since(mark), tracer.counts))
        snap = snapshot(ops, dest)
        if reference is None:
            reference = snap
        rnd["same_as_first"] = snap == reference
        result["rounds"].append(rnd)
    if tracer is not None:
        tracer.write(out / "spans.jsonl")
    if any(op.workers > 1 for op in ops):
        # the same operations on one worker, outside the timed rounds
        w1 = out / "w1"
        result["workers1_codes"] = run_round(cli, ops, cfgs, w1, workers=1)
        result["workers1_same"] = snapshot(ops, w1) == reference
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        walls = [r["wall"] for r in result["rounds"]]
        result["trace_overhead_s"] = (statistics.median(walls)
                                      - result["untraced"]["wall"])
    (out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

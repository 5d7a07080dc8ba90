"""The benchmark's span tracer wraps cgdms entry points by name; every
name it looks up must exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist():
    tracing = _tracing()
    missing = []
    for short, names in tracing.FUNCTION_SPANS.items():
        mod = importlib.import_module(f"cgdms.{short}")
        missing += [f"{short}.{n}" for n in names if not callable(getattr(mod, n, None))]
    for short, cname, methods in tracing.METHOD_SPANS:
        cls = getattr(importlib.import_module(f"cgdms.{short}"), cname, None)
        if cls is None:
            missing.append(f"{short}.{cname}")
            continue
        missing += [f"{short}.{cname}.{m}" for m in methods if m not in cls.__dict__]
    # family primitives are wrapped on every class that defines them; the
    # base class must, or a rename would silently zero families.table_s
    families = importlib.import_module("cgdms.families")
    missing += [f"families.MapFamily.{m}"
                for m in tracing.FAMILY_TABLE_METHODS + tracing.FAMILY_INTERVAL_METHODS
                if m not in families.MapFamily.__dict__]
    # the Newton loop is counted through its private name
    if not callable(getattr(importlib.import_module("cgdms.multifractal"),
                            "_legendre_newton", None)):
        missing.append("multifractal._legendre_newton")
    assert missing == []


def test_newton_returns_its_iteration_count():
    """``multifractal.newton_iters`` sums index 4 of each
    ``_legendre_newton`` result, which must be its iteration count."""
    import numpy as np

    from cgdms import multifractal, potentials
    from cgdms.system import similarity_system

    sim = similarity_system([0.5, 0.5], offsets=[0.0, 0.5])
    solver = multifractal.BetaSolver(sim, potentials.from_table({1: [0.0], 2: [1.0]}),
                                     n=16)
    result = multifractal._legendre_newton(solver, np.array([0.5]), 1e-8, 80,
                                           solver.root(np.zeros(1)))
    assert result[0] == "interior"
    assert type(result[4]) is int and result[4] >= 1


def test_kernel_attrs_read_the_kernel():
    """``_kernel_attrs`` reads the mode, word length, window and truncation
    of ``PressureKernel``; the kernel enumerates no words, so its word
    count is 0, at window 3 and at window=n, which runs at n-1."""
    from cgdms import potentials
    from cgdms.kernel import PressureKernel
    from cgdms.system import similarity_system

    tracing = _tracing()
    golden = similarity_system([0.5, 0.5], offsets=[0.0, 0.5],
                               incidence=[[1, 1], [1, 0]])
    J = potentials.zero(1)
    for window, q in ((8, 7), (3, 3)):
        kern = PressureKernel(golden, J, n=8, window=window)
        assert tracing._kernel_attrs((kern,), None) == {
            "mode": "dp", "n": 8, "window": q, "N": 2, "words": 0}

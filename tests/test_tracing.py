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

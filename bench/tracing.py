"""Span tracing of the cgdms layers, installed from outside the package.

``install`` replaces public entry points of ``config``, ``cli``,
``families``, ``system``, ``kernel``, ``thermo``, ``multifractal`` and
``measures`` with wrappers that record a span (name, start, end, parent)
in memory; nothing under ``src/`` is edited.  Scalar family primitives
that run millions of times (``image``, ``deriv_log_range``) and the
Newton loop are counted without spans.  ``layer_metrics`` turns the spans
of one round into the per-layer metrics named in the README.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# every per-layer metric with its unit, in report order
UNITS = {
    "thermo.escalations": "count", "thermo.stages_max": "stages",
    "thermo.certify_n": "count", "thermo.certify_s": "s",
    "kernel.bound_n": "count", "kernel.dp_steps": "count",
    "kernel.dp_flops": "flop",
    "multifractal.root_n": "count", "multifractal.root_hit_ratio": "ratio",
    "multifractal.hessian_n": "count", "multifractal.hessian_s": "s",
    "multifractal.grad_n": "count", "multifractal.newton_iters": "count",
    "multifractal.legendre_s": "s",
    "kernel.value_n": "count", "kernel.moments_n": "count",
    "thermo.root_n": "count", "thermo.root_s": "s",
    "thermo.evals_per_root": "evals/root",
    "kernel.enum_words": "count", "kernel.enum_s": "s",
    "kernel.values_n": "count", "kernel.dp_s": "s", "kernel.eval_s": "s",
    "families.table_s": "s", "families.table_cols": "count",
    "families.interval_calls": "count",
    "kernel.build_n": "count", "kernel.build_s": "s", "system.hull_s": "s",
    "measures.calls": "count", "measures.s": "s",
    "config.validate_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}

# (module, function) pairs traced as spans
FUNCTION_SPANS = {
    "config": ("load_config", "validate_config", "build_system",
               "build_potential", "expand_t_grid"),
    "cli": ("main",),
    "system": ("similarity_system", "moebius_cf_system",
               "truncated_cf_system"),
    "thermo": ("pressure_bracket", "estimate_theta", "anchored_pressure_root",
               "certified_pressure_zero", "bowen_dimension",
               "classify_regularity", "thermo_report"),
    "multifractal": ("solve_beta", "grad_beta", "hessian_beta", "legendre",
                     "spectrum_scan", "estimate_M", "estimate_KL",
                     "independence_certificate"),
    "measures": ("Q_of_periodic", "Q_of_bernoulli", "construct_generic_word",
                 "semicontinuity_counterexample"),
}

# (module, class, methods) traced as spans
METHOD_SPANS = (
    ("system", "SystemDescriptor", ("hull",)),
    ("kernel", "PressureKernel", ("__init__", "with_length", "values",
                                  "bound", "value", "moments",
                                  "tail_weight")),
    ("multifractal", "BetaSolver", ("root", "grad", "grad_with_means",
                                    "fd_grad", "hessian")),
)
FAMILY_TABLE_METHODS = ("vec_word_log_deriv", "vec_suffix_then_head")
FAMILY_INTERVAL_METHODS = ("image", "deriv_log_range")
KERNEL_EVALS = ("values", "bound", "value", "moments")
# transfer recursions run by one call of each evaluation in dp mode
DP_RUNS = {"values": 2, "bound": 1, "value": 1, "moments": 1}


class Tracer:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, attrs]
        self.counts = Counter()
        self._local = threading.local()
        self.t0 = time.perf_counter()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name, fn, attrs=None):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if attrs is not None:
                    rec[4] = attrs(args, result)

        return wrapper

    def counter(self, name, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def spans_since(self, mark: int) -> list:
        """Spans recorded after ``mark``, parents re-indexed from there."""
        return [[name, start, end, parent - mark, attrs]
                for name, start, end, parent, attrs in self.spans[mark:]]

    def write(self, path):
        """Spans as JSON lines: name, start and end (s since install),
        parent index (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, round(start - self.t0, 7),
                                     round(end - self.t0, 7), parent]) + "\n")


def _kernel_attrs(args, result):
    k = args[0]
    words = 0
    if k.mode == "enumerate":
        words = sum(p["ld_lo"].size for p in k._parts if p is not None)
    return {"mode": k.mode, "n": k.n, "window": k.window, "N": k.N,
            "words": words}


def _replace_everywhere(orig, wrapped):
    """Point every cgdms module global that names ``orig`` at ``wrapped``,
    so names imported with ``from .x import f`` are traced too."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cgdms" or modname.startswith("cgdms.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    import importlib

    mods = {name: importlib.import_module(f"cgdms.{name}")
            for name in ("config", "cli", "families", "system", "kernel",
                         "thermo", "multifractal", "measures")}
    for short, names in FUNCTION_SPANS.items():
        for fname in names:
            orig = getattr(mods[short], fname)
            _replace_everywhere(orig, tracer.span(f"{short}.{fname}", orig))
    for short, cname, methods in METHOD_SPANS:
        cls = getattr(mods[short], cname)
        for m in methods:
            attrs = _kernel_attrs if m in KERNEL_EVALS else None
            setattr(cls, m, tracer.span(f"{short}.{cname}.{m}",
                                        cls.__dict__[m], attrs))
    fam = mods["families"]
    for cls in vars(fam).values():
        if not (isinstance(cls, type) and issubclass(cls, fam.MapFamily)):
            continue
        for m in FAMILY_TABLE_METHODS:
            if m in cls.__dict__:
                setattr(cls, m, tracer.span(
                    f"families.{m}", cls.__dict__[m],
                    lambda a, r: {"cols": int(a[1].shape[1])}))
        for m in FAMILY_INTERVAL_METHODS:
            if m in cls.__dict__:
                setattr(cls, m, tracer.counter("families.interval_calls",
                                               cls.__dict__[m]))
    mf = mods["multifractal"]
    # the Newton loop is private; only its iteration count is read
    mf._legendre_newton = tracer.counter(
        "multifractal.newton_iters", mf._legendre_newton,
        amount=lambda result: result[4])


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one round from its spans and counters.

    ``spans`` holds the round's records with parent indices into the same
    list (-1 or an index outside it for roots).  ``_s`` metrics are self
    times: span duration minus the time of its direct child spans.
    """
    n = len(spans)
    child_time = [0.0] * n
    child_names = defaultdict(Counter)
    for name, start, end, parent, _ in spans:
        if 0 <= parent < n:
            child_time[parent] += end - start
            child_names[parent][name] += 1
    self_s = Counter()
    count = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]
        count[name] += 1

    def ancestors(i):
        p = spans[i][3]
        while 0 <= p < n:
            yield p
            p = spans[p][3]

    m = {}
    certify = "thermo.certified_pressure_zero"
    aroot = "thermo.anchored_pressure_root"
    m["thermo.certify_n"] = count[certify]
    m["thermo.certify_s"] = self_s[certify]
    m["thermo.escalations"] = sum(
        max(child_names[i][aroot] - 1, 0)
        for i, s in enumerate(spans) if s[0] == certify)
    m["thermo.stages_max"] = max(
        [s[4]["n"] for i, s in enumerate(spans)
         if s[0] == "kernel.PressureKernel.bound"
         and any(spans[a][0] == certify for a in ancestors(i))],
        default=0)
    m["thermo.root_n"] = count[aroot]
    m["thermo.root_s"] = self_s[aroot]
    value_in_root = sum(child_names[i]["kernel.PressureKernel.value"]
                        for i, s in enumerate(spans) if s[0] == aroot)
    m["thermo.evals_per_root"] = (value_in_root / count[aroot]
                                  if count[aroot] else 0.0)

    dp_steps = dp_flops = enum_words = 0
    enum_s = dp_s = 0.0
    for i, s in enumerate(spans):
        meth = s[0].rsplit(".", 1)[-1]
        if not s[0].startswith("kernel.") or meth not in KERNEL_EVALS:
            continue
        a = s[4]
        own = (s[2] - s[1]) - child_time[i]
        if a["mode"] == "enumerate":
            enum_words += a["words"]
            enum_s += own
        else:
            q = a["window"]
            steps = 0 if q == 1 else DP_RUNS[meth] * (a["n"] - (q - 1))
            dp_steps += steps
            dp_flops += steps * a["N"] ** q
            dp_s += own
    for meth in KERNEL_EVALS:
        m[f"kernel.{meth}_n"] = count[f"kernel.PressureKernel.{meth}"]
    m["kernel.dp_steps"] = dp_steps
    m["kernel.dp_flops"] = dp_flops
    m["kernel.enum_words"] = enum_words
    m["kernel.enum_s"] = enum_s
    m["kernel.dp_s"] = dp_s
    m["kernel.eval_s"] = enum_s + dp_s
    m["kernel.build_n"] = count["kernel.PressureKernel.__init__"]
    m["kernel.build_s"] = self_s["kernel.PressureKernel.__init__"]

    sroot = "multifractal.BetaSolver.root"
    m["multifractal.root_n"] = count[sroot]
    hits = sum(1 for i, s in enumerate(spans)
               if s[0] == sroot and child_names[i][aroot] == 0)
    m["multifractal.root_hit_ratio"] = hits / count[sroot] if count[sroot] else 0.0
    m["multifractal.hessian_n"] = count["multifractal.BetaSolver.hessian"]
    m["multifractal.hessian_s"] = self_s["multifractal.BetaSolver.hessian"]
    m["multifractal.grad_n"] = (count["multifractal.BetaSolver.grad"]
                                + count["multifractal.BetaSolver.grad_with_means"])
    m["multifractal.newton_iters"] = counts.get("multifractal.newton_iters", 0)
    m["multifractal.legendre_s"] = self_s["multifractal.legendre"]

    table = tuple(f"families.{t}" for t in FAMILY_TABLE_METHODS)
    m["families.table_s"] = sum(self_s[t] for t in table)
    m["families.table_cols"] = sum(s[4]["cols"] for s in spans if s[0] in table)
    m["families.interval_calls"] = counts.get("families.interval_calls", 0)
    m["system.hull_s"] = self_s["system.SystemDescriptor.hull"]
    m["measures.calls"] = sum(c for k, c in count.items()
                              if k.startswith("measures."))
    m["measures.s"] = sum(v for k, v in self_s.items()
                          if k.startswith("measures."))
    m["config.validate_s"] = sum(v for k, v in self_s.items()
                                 if k.startswith("config."))
    m["cli.self_s"] = self_s["cli.main"]
    return m

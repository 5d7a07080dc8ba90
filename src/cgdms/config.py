"""Run-configuration schema: validation and object construction.

The configuration is a single JSON document.  Validation happens before
any computation and reports the dotted path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from . import potentials
from .errors import ConfigError, InvalidWordError
from .families import Custom1DFamily, parse_expression
from .kernel import STAGE_STEP_CAP, STEP_FLOOR, PressureKernel, WindowTransfer
from .measures import RULE_CUTOFF, BernoulliSpec
from .potentials import PotentialVector, cycle_birkhoff
from .symbolic import IncidenceMatrix, Multigraph, closed_cycle
from .system import (SystemDescriptor, TailRule, moebius_cf_system,
                     similarity_system, truncated_cf_system)

TOOL_VERSION = "0.1.0"

# Most points an expanded t_grid may have.  Each point costs a stage root,
# about 75 ms on cf24 at window 4 (2 cores), so the cap is about 80 s of
# roots; it admits every grid of the tests and the bench (the largest has
# 21**2 = 441 points) and the default grid of 9 per axis up to dimension 3.
T_GRID_CAP = 1024
# points per axis of a t_grid object that gives none; with no t_grid at
# all, spectrum and sets use such a grid on [-2, 2] on every axis
T_GRID_POINTS = 9

_NUMERIC_DEFAULTS = {
    "word_length": 12,
    "truncation": None,
    "window": None,
    "tolerance": 1e-6,
    "workers": 1,
    "seed": 0,
}


@dataclass
class RunConfig:
    raw: dict
    system: SystemDescriptor
    potential: PotentialVector
    word_length: int
    truncation: Optional[int]
    window: Optional[int]
    tolerance: float
    workers: int
    seed: int
    command_params: dict = field(default_factory=dict)  # validated, with defaults


def _typed(val, types) -> bool:
    """isinstance, except that JSON true/false never counts as a number,
    nor NaN or +-Infinity (which Python's json parses) as a float."""
    return (isinstance(val, types) and not isinstance(val, bool)
            and not (isinstance(val, float) and not math.isfinite(val)))


def _checked(val, types, field: str):
    """``val`` if it is one of ``types`` by :func:`_typed`, else a
    ConfigError naming ``field``."""
    if not _typed(val, types):
        got = repr(val) if isinstance(val, float) else type(val).__name__
        raise ConfigError(field, f"expected {types}, got {got}")
    return val


def _expect(cfg: dict, key: str, types, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return _checked(cfg[key], types, f"{path}.{key}")


def _optional(cfg: dict, key: str, types, path: str, default=None):
    if key not in cfg or cfg[key] is None:
        return default
    return _checked(cfg[key], types, f"{path}.{key}")


def _numbers(val) -> bool:
    """A list of numbers."""
    return isinstance(val, list) and all(_typed(x, (int, float)) for x in val)


def _domain(cfg: dict, path: str) -> tuple:
    dom = _optional(cfg, "domain", list, path, [0.0, 1.0])
    if len(dom) != 2 or not _numbers(dom) or not dom[0] < dom[1]:
        raise ConfigError(f"{path}.domain",
                          "need two finite numbers [lo, hi] with lo < hi")
    return tuple(dom)


def build_system(cfg: dict, path: str = "system") -> SystemDescriptor:
    kind = _expect(cfg, "kind", str, path)
    if kind == "similarity":
        ratios = _expect(cfg, "ratios", list, path)
        if not ratios or not all(_typed(r, (int, float)) for r in ratios):
            raise ConfigError(f"{path}.ratios", "need a nonempty list of numbers")
        if any(not (0 < r < 1) for r in ratios):
            raise ConfigError(f"{path}.ratios", "ratios must lie strictly in (0,1)")
        offsets = _optional(cfg, "offsets", list, path)
        flips = _optional(cfg, "flips", list, path)
        for key, val in (("offsets", offsets), ("flips", flips)):
            if val is not None and not _numbers(val):
                raise ConfigError(f"{path}.{key}", "need a list of finite numbers")
        incidence = _optional(cfg, "incidence", list, path)
        domain = _domain(cfg, path)
        try:
            return similarity_system(ratios, offsets=offsets, flips=flips,
                                     incidence=incidence, domain=domain)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "moebius-cf":
        alphabet = _optional(cfg, "alphabet", int, path)
        if alphabet is None:
            return moebius_cf_system()
        if alphabet < 1:
            raise ConfigError(f"{path}.alphabet", "must be >= 1")
        return truncated_cf_system(alphabet)
    if kind == "custom-1d":
        domain = _domain(cfg, path)
        edges = _optional(cfg, "edges", int, path)
        if edges is not None and edges < 1:
            raise ConfigError(f"{path}.edges", "must be a positive integer")
        for key in ("map_expr", "abs_deriv_expr"):  # parsed here to name the field
            try:
                parse_expression(_expect(cfg, key, str, path))
            except ValueError as exc:
                raise ConfigError(f"{path}.{key}", str(exc)) from exc
        contraction = float(_expect(cfg, "contraction_bound", (int, float), path))
        if not 0.0 < contraction < 1.0:
            raise ConfigError(f"{path}.contraction_bound", "must lie in (0,1)")
        distortion = float(_optional(cfg, "distortion_constant", (int, float), path, 1.0))
        if distortion < 1.0:
            raise ConfigError(f"{path}.distortion_constant", "must be >= 1")
        try:
            tail = None
            if cfg.get("tail") is not None:
                tcfg = _expect(cfg, "tail", dict, path)
                tail = TailRule(
                    exponent=float(_expect(tcfg, "exponent", (int, float), f"{path}.tail")),
                    c_upper=float(_optional(tcfg, "c_upper", (int, float), f"{path}.tail", 1.0)),
                    c_lower=float(_optional(tcfg, "c_lower", (int, float), f"{path}.tail", 1.0)))
            fam = Custom1DFamily(
                map_expr=_expect(cfg, "map_expr", str, path),
                abs_deriv_expr=_expect(cfg, "abs_deriv_expr", str, path),
                contraction_bound=contraction, distortion_constant=distortion,
                contraction_prefactor=float(_optional(cfg, "contraction_prefactor",
                                                      (int, float), path, 1.0)),
                domain=domain, n_edges=edges)
        except ConfigError:
            raise
        except (ValueError, KeyError) as exc:
            raise ConfigError(path, str(exc)) from exc
        graph = Multigraph.single_vertex(n_edges=fam.n_edges)
        inc = IncidenceMatrix.full(graph)
        return SystemDescriptor(graph, inc, fam, tail_rule=tail, name="custom-1d")
    raise ConfigError(f"{path}.kind", f"unknown system kind {kind!r}")


def build_potential(cfg: dict, path: str = "potential") -> PotentialVector:
    kind = _expect(cfg, "kind", str, path)
    dim = _optional(cfg, "dim", int, path)
    if dim is not None and dim < 1:
        raise ConfigError(f"{path}.dim", "must be a positive integer")
    if kind == "zero":
        return potentials.zero(dim or 1)
    if kind == "table":
        values = _expect(cfg, "values", dict, path)
        try:
            return potentials.from_table(
                {int(k): v for k, v in values.items()}, dim=dim)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}.values", str(exc)) from exc
    if kind == "mod-cycle":
        tables = _expect(cfg, "tables", list, path)
        if not tables or not all(t and _numbers(t) for t in tables):
            raise ConfigError(f"{path}.tables",
                              "need a nonempty list of nonempty numeric lists")
        if dim is not None and dim != len(tables):
            raise ConfigError(f"{path}.dim", f"is {dim}, but {len(tables)} "
                              "tables give the dimension")
        return potentials.mod_cycle(tables)
    raise ConfigError(f"{path}.kind", f"unknown potential kind {kind!r}")


def validate_config(doc: dict, command: str) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "top level must be a JSON object")
    system = build_system(_expect(doc, "system", dict, ""))
    potential = build_potential(
        doc.get("potential", {"kind": "zero", "dim": 1}), "potential")
    num = doc.get("numerics", {})
    if not isinstance(num, dict):
        raise ConfigError("numerics", "must be an object")
    for key in num:
        if key not in _NUMERIC_DEFAULTS:
            raise ConfigError(f"numerics.{key}", "unknown field")
    merged = dict(_NUMERIC_DEFAULTS)
    merged.update(num)
    wl = merged["word_length"]
    if not _typed(wl, int) or wl < 1:
        raise ConfigError("numerics.word_length", "must be a positive integer")
    trunc = merged["truncation"]
    if trunc is not None and (not _typed(trunc, int) or trunc < 1):
        raise ConfigError("numerics.truncation", "must be a positive integer")
    if trunc is None and not system.is_finite:
        raise ConfigError("numerics.truncation",
                          "required for infinite-alphabet systems")
    window = merged["window"]
    if window is not None and (not _typed(window, int) or window < 1):
        raise ConfigError("numerics.window", "must be a positive integer")
    tol = merged["tolerance"]
    if not _typed(tol, (int, float)) or not (0 < tol < 1):
        raise ConfigError("numerics.tolerance", "must lie in (0,1)")
    workers = merged["workers"]
    if not _typed(workers, int) or workers < 1:
        raise ConfigError("numerics.workers", "must be a positive integer")
    seed = merged["seed"]
    if not _typed(seed, int) or seed < 0:
        raise ConfigError("numerics.seed", "must be a nonnegative integer")
    N = system.effective_truncation(trunc)
    if command != "counterexample":  # every other command builds a transfer
        try:
            WindowTransfer.check_size(N, WindowTransfer.clamp(system, potential, 1))
        except ValueError as exc:
            raise ConfigError("numerics.truncation", str(exc)) from exc
        if not system.incidence.has_infinite_word(N):
            raise ConfigError("numerics.truncation", (
                f"the incidence over edges 1..{N} admits no infinite word, "
                "so the truncated system is empty"))
    if command in ("pressure", "beta", "spectrum", "sets"):  # read the potential
        _check_declared(potential, N, "potential.values")
        _check_tables(system, potential, wl, N, window, command)
    elif command == "dimension":  # of a zero potential
        _check_tables(system, potentials.zero(1), wl, N, window, command)
    params = doc.get(command, {})
    if not isinstance(params, dict):
        raise ConfigError(command, "command parameters must be an object")
    params = dict(params)  # defaults go into a copy: rc.raw stays as written
    _validate_command(command, params, system, potential)
    return RunConfig(raw=doc, system=system, potential=potential,
                     word_length=wl, truncation=trunc, window=window,
                     tolerance=float(tol), workers=workers, seed=seed,
                     command_params=params)


def _validate_command(command: str, params: dict, system: SystemDescriptor,
                      potential: PotentialVector) -> None:
    """Check the command's parameters and fill in, in place, what the
    command reads: vector lists as float tuples, the expanded ``t_grid``,
    the :class:`BernoulliSpec` of each ``sets.bernoulli`` entry, and the
    default of each field the config leaves out (the origin for
    ``t_points``, no ``alpha_grid``, the grid of :func:`_t_grid` and the
    literals below).  A field that the command does not read is refused."""
    d = potential.dim
    fields = {"pressure": ("t_points", "beta_grid"), "beta": ("t_points",),
              "spectrum": ("alpha_grid", "t_grid"),
              "sets": ("t_grid", "cycles", "bernoulli"),
              "counterexample": ("M_param", "n_list"), "dimension": ()}
    if command not in fields:
        raise ConfigError("", f"unknown command {command!r}")
    for key in params:
        if key not in fields[command]:
            raise ConfigError(f"{command}.{key}", "unknown field")

    def vectors(key):
        """``params[key]``, a list of d-vectors of finite numbers (bare
        numbers when d = 1), as float tuples; None when absent."""
        pts = params.get(key)
        if pts is None:
            return None
        if not isinstance(pts, list):
            raise ConfigError(f"{command}.{key}", "must be a list of vectors")
        for i, p in enumerate(pts):
            vec = p if isinstance(p, list) else [p]
            if len(vec) != d or not all(_typed(x, (int, float)) for x in vec):
                raise ConfigError(f"{command}.{key}[{i}]",
                                  f"expected a vector of {d} finite numbers")
        return _float_tuples(pts)

    if command in ("pressure", "beta"):
        pts = vectors("t_points")
        if pts == []:
            raise ConfigError(f"{command}.t_points", "must be a nonempty list")
        params["t_points"] = pts or [(0.0,) * d]
    if command == "pressure":
        grid = params.setdefault("beta_grid", [0.0])
        if not isinstance(grid, list) or not grid:
            raise ConfigError("pressure.beta_grid", "must be a nonempty list")
        for i, b in enumerate(grid):
            if not _typed(b, (int, float)):
                raise ConfigError(f"pressure.beta_grid[{i}]", "must be a finite number")
            if b < 0:
                raise ConfigError(f"pressure.beta_grid[{i}]",
                                  "negative exponents are rejected")
    elif command in ("spectrum", "sets"):
        if command == "spectrum":
            params["alpha_grid"] = vectors("alpha_grid") or []
        params["t_grid"] = _t_grid(command, params.get("t_grid"), d, vectors)
        if command == "sets":
            params["bernoulli"] = bernoulli_specs(params, system, potential)
            _check_cycles(params, system, potential)
    elif command == "counterexample":
        m = params.setdefault("M_param", 100.0)
        if not _typed(m, (int, float)) or m <= 0:
            raise ConfigError("counterexample.M_param",
                              "must be a positive finite number")
        nl = params.setdefault("n_list", [1000, 10000, 100000])
        if (not isinstance(nl, list) or not nl
                or not all(_typed(n, int) and n >= 2 for n in nl)):
            raise ConfigError("counterexample.n_list",
                              "must be a nonempty list of integers >= 2")


def _t_grid(command: str, tg, d: int, vectors) -> list:
    """The expanded ``t_grid`` ``tg``, by default T_GRID_POINTS per axis on
    [-2, 2], refused naming its field when malformed or when it has more
    than T_GRID_CAP points: a list's length, a grid object's points**d."""
    field, hint = f"{command}.t_grid", ""
    if isinstance(tg, list):
        vectors("t_grid")
        count = len(tg)
    else:
        if tg is None:
            tg, hint = {"min": [-2.0] * d, "max": [2.0] * d}, "; give a t_grid"
        elif isinstance(tg, dict):
            for key in ("min", "max"):
                v = tg.get(key)
                if not _numbers(v) or len(v) != d:
                    raise ConfigError(f"{field}.{key}",
                                      f"need a numeric vector of length {d}")
            field += ".points"
        else:
            raise ConfigError(field, "must be a grid object or explicit list")
        pts = tg.get("points", T_GRID_POINTS)
        if not _typed(pts, int) or pts < 2:
            raise ConfigError(f"{command}.t_grid.points", "must be an int >= 2")
        count = pts ** d
    if count > T_GRID_CAP:
        raise ConfigError(field, f"{count} grid points pass the cap of "
                                 f"{T_GRID_CAP}{hint}")
    return expand_t_grid(tg, d)


def _check_tables(system: SystemDescriptor, potential: PotentialVector,
                  n: int, N: int, window: Optional[int], command: str) -> None:
    """The window tables that ``command`` builds at the windows of
    :meth:`~cgdms.kernel.WindowTransfer.windows` fit the table cap: the
    stage kernel's (every command but ``dimension``) and the certifying
    transfer's for ``beta`` and ``dimension``.  The stage kernel's words
    are no shorter than its window, and one stage recursion makes at most
    ``STAGE_STEP_CAP`` state-steps, each step counting at least its fixed
    cost ``STEP_FLOOR``, so no word length runs for more than about a
    second per recursion.  A table or a window past the length names
    ``numerics.window`` when one is given, else ``numerics.word_length``."""
    stage, certify = WindowTransfer.windows(system, potential, N, n, window)
    tables = {"dimension": (certify,), "beta": (stage, certify)}.get(command, (stage,))
    try:
        if command != "dimension":
            PressureKernel.check_length(potential, n, stage)
        for q in tables:
            WindowTransfer.check_size(N, q)
    except ValueError as exc:
        field = "numerics.word_length" if window is None else "numerics.window"
        raise ConfigError(field, str(exc)) from exc
    if command == "dimension" or stage == 1:
        return
    steps = (n - stage + 1) * max(N ** (stage - 1), STEP_FLOOR)
    if steps > STAGE_STEP_CAP:
        raise ConfigError("numerics.word_length", (
            f"one stage recursion at length {n} would make {steps} "
            f"state-steps, over the cap of {STAGE_STEP_CAP}; shorten the "
            "words, the window or the truncation"))


def _check_declared(potential: PotentialVector, N: int, path: str) -> None:
    """Every edge 1..N that a run reads must have a potential value."""
    try:
        potential.table(N)
    except InvalidWordError as exc:
        raise ConfigError(path, f"{exc}; the run reads edges 1..{N}") from exc


def bernoulli_specs(params: dict, system: SystemDescriptor,
                    potential: PotentialVector) -> list:
    """The measures of ``sets.bernoulli``: each entry names a closed-form
    ``rule`` (infinite alphabets only) or gives ``probs``, a map from edge
    of ``system`` to mass summing to 1.  The potential must be declared on
    every edge a measure reads (1..``RULE_CUTOFF`` for a rule).  A
    malformed entry raises :class:`ConfigError` naming its field."""
    entries = _optional(params, "bernoulli", list, "sets", [])
    specs = []
    for i, entry in enumerate(entries):
        path = f"sets.bernoulli[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(path, "must be an object with 'probs' or 'rule'")
        try:
            if "rule" in entry:
                spec = BernoulliSpec.named(_expect(entry, "rule", str, path))
                if system.is_finite:
                    raise ValueError(
                        "infinite-support Bernoulli rules need an infinite-"
                        f"alphabet system; this one has {system.alphabet_size} edges")
                _check_declared(potential, RULE_CUTOFF, path + ".rule")
                specs.append(spec)
                continue
            probs = _expect(entry, "probs", dict, path)
            if not all(_typed(p, (int, float)) for p in probs.values()):
                raise ValueError("masses must be finite numbers")
            spec = BernoulliSpec.finite({int(k): float(p) for k, p in probs.items()})
            for k, p in spec.probs:
                system.graph.check_edge(k)
                if p > 0:
                    potential.value((k,))
            specs.append(spec)
        except (ValueError, InvalidWordError) as exc:
            raise ConfigError(path + (".rule" if "rule" in entry else ".probs"),
                              str(exc)) from exc
    return specs


def _check_cycles(params: dict, system: SystemDescriptor,
                  potential: PotentialVector) -> None:
    """Each ``sets.cycles`` entry must close into an admissible cycle on
    whose edges the potential is declared."""
    cycles = _optional(params, "cycles", list, "sets", [])
    for i, cyc in enumerate(cycles):
        path = f"sets.cycles[{i}]"
        if not isinstance(cyc, list) or not all(_typed(s, int) for s in cyc):
            raise ConfigError(path, "must be a list of edge indices")
        try:
            cycle_birkhoff(potential, closed_cycle(cyc, system.incidence))
        except InvalidWordError as exc:
            raise ConfigError(path, str(exc)) from exc


def _float_tuples(pts: list) -> list:
    """Each vector of a list, or bare number, as a tuple of floats."""
    return [tuple(float(x) for x in (p if isinstance(p, list) else [p]))
            for p in pts]


def expand_t_grid(tg, dim: int):
    """Expand a {min, max, points} grid spec (or pass through a list)."""
    import numpy as np

    if isinstance(tg, list):
        return _float_tuples(tg)
    lo, hi = tg["min"], tg["max"]
    pts = tg.get("points", T_GRID_POINTS)
    axes = [np.linspace(lo[i], hi[i], pts) for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    return [tuple(row.tolist()) for row in flat]


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON at line {exc.lineno}, "
                                  f"column {exc.colno}: {exc.msg}") from exc

"""Run-configuration schema: validation and object construction.

The configuration is a single JSON document.  Validation happens before
any computation and reports the dotted path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import potentials
from .errors import ConfigError, InvalidWordError
from .families import Custom1DFamily
from .kernel import PressureKernel, WindowTransfer
from .measures import RULE_CUTOFF, BernoulliSpec
from .potentials import PotentialVector, cycle_birkhoff
from .symbolic import IncidenceMatrix, Multigraph, closed_cycle
from .system import (SystemDescriptor, TailRule, moebius_cf_system,
                     similarity_system, truncated_cf_system)

TOOL_VERSION = "0.1.0"

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
    command_params: dict = field(default_factory=dict)
    bernoulli: list = field(default_factory=list)  # validated sets.bernoulli


def _typed(val, types) -> bool:
    """isinstance, except that JSON true/false never counts as a number."""
    return isinstance(val, types) and not isinstance(val, bool)


def _expect(cfg: dict, key: str, types, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    val = cfg[key]
    if not _typed(val, types):
        raise ConfigError(f"{path}.{key}",
                          f"expected {types}, got {type(val).__name__}")
    return val


def _optional(cfg: dict, key: str, types, path: str, default=None):
    if key not in cfg or cfg[key] is None:
        return default
    val = cfg[key]
    if not _typed(val, types):
        raise ConfigError(f"{path}.{key}",
                          f"expected {types}, got {type(val).__name__}")
    return val


def _numbers(val) -> bool:
    """A list of numbers."""
    return isinstance(val, list) and all(_typed(x, (int, float)) for x in val)


def _domain(cfg: dict, path: str) -> tuple:
    dom = _optional(cfg, "domain", list, path, [0.0, 1.0])
    if len(dom) != 2 or not _numbers(dom) or not dom[0] < dom[1]:
        raise ConfigError(f"{path}.domain", "need two numbers [lo, hi] with lo < hi")
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
        if flips is not None and not _numbers(flips):
            raise ConfigError(f"{path}.flips", "need a list of numbers")
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
                contraction_bound=float(_expect(cfg, "contraction_bound",
                                                (int, float), path)),
                distortion_constant=float(_optional(cfg, "distortion_constant",
                                                    (int, float), path, 1.0)),
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
    if command in ("pressure", "beta", "spectrum", "sets"):  # read the potential
        N = system.effective_truncation(trunc)
        _check_declared(potential, N, "potential.values")
        if window is not None:
            _check_window(system, potential, wl, N, window, command == "beta")
    params = doc.get(command, {})
    if not isinstance(params, dict):
        raise ConfigError(command, "command parameters must be an object")
    specs = _validate_command(command, params, system, potential)
    return RunConfig(raw=doc, system=system, potential=potential,
                     word_length=wl, truncation=trunc, window=window,
                     tolerance=float(tol), workers=workers, seed=seed,
                     command_params=params, bernoulli=specs)


def _validate_command(command: str, params: dict, system: SystemDescriptor,
                      potential: PotentialVector) -> list:
    """Check the command's parameters; return the ``sets.bernoulli`` specs."""
    d = potential.dim

    def check_vectors(key, allow_empty=True):
        pts = params.get(key)
        if pts is None:
            return
        if not isinstance(pts, list):
            raise ConfigError(f"{command}.{key}", "must be a list of vectors")
        if not allow_empty and not pts:
            raise ConfigError(f"{command}.{key}", "must be nonempty")
        for i, p in enumerate(pts):
            vec = p if isinstance(p, list) else [p]
            if len(vec) != d or not all(_typed(x, (int, float)) for x in vec):
                raise ConfigError(f"{command}.{key}[{i}]",
                                  f"expected a numeric vector of length {d}")

    if command == "pressure":
        check_vectors("t_points")
        grid = params.get("beta_grid", [0.0])
        if not isinstance(grid, list) or not grid:
            raise ConfigError("pressure.beta_grid", "must be a nonempty list")
        for i, b in enumerate(grid):
            if not _typed(b, (int, float)):
                raise ConfigError(f"pressure.beta_grid[{i}]", "must be a number")
            if b < 0:
                raise ConfigError(f"pressure.beta_grid[{i}]",
                                  "negative exponents are rejected")
    elif command in ("beta", "spectrum", "sets"):
        check_vectors("t_points")
        check_vectors("alpha_grid")
        tg = params.get("t_grid")
        if tg is not None and not isinstance(tg, (dict, list)):
            raise ConfigError(f"{command}.t_grid",
                              "must be a grid object or explicit list")
        if isinstance(tg, list):
            check_vectors("t_grid")
        elif isinstance(tg, dict):
            for key in ("min", "max"):
                v = tg.get(key)
                if not _numbers(v) or len(v) != d:
                    raise ConfigError(f"{command}.t_grid.{key}",
                                      f"need a numeric vector of length {d}")
            pts = tg.get("points", 9)
            if not _typed(pts, int) or pts < 2:
                raise ConfigError(f"{command}.t_grid.points", "must be an int >= 2")
        if command == "sets":
            specs = bernoulli_specs(params, system, potential)
            _check_cycles(params, system, potential)
            return specs
    elif command == "counterexample":
        m = params.get("M_param", 100.0)
        if not _typed(m, (int, float)) or m <= 0:
            raise ConfigError("counterexample.M_param", "must be positive")
        nl = params.get("n_list", [1000, 10000, 100000])
        if (not isinstance(nl, list) or not nl
                or not all(_typed(n, int) and n >= 2 for n in nl)):
            raise ConfigError("counterexample.n_list",
                              "must be a nonempty list of integers >= 2")
    elif command == "dimension":
        pass
    else:
        raise ConfigError("", f"unknown command {command!r}")
    return []


def _check_window(system: SystemDescriptor, potential: PotentialVector,
                  n: int, N: int, window: int, certify: bool) -> None:
    """The window tables built from ``numerics.window`` fit the kernel's
    cap: the stage kernel's when it runs dp and, with ``certify`` (the
    ``beta`` command), the certifying transfer's."""
    try:
        mode, q = PressureKernel.layout(system, potential, n, N, window)
        if mode == "dp":
            WindowTransfer.check_size(N, q)
        if certify:
            WindowTransfer.check_size(
                N, WindowTransfer.window_at(system, potential, N, n, window))
    except ValueError as exc:
        raise ConfigError("numerics.window", str(exc)) from exc


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
                raise ValueError("masses must be numbers")
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


def expand_t_grid(tg, dim: int):
    """Expand a {min, max, points} grid spec (or pass through a list)."""
    import numpy as np

    if tg is None:
        lo, hi, pts = [-2.0] * dim, [2.0] * dim, 9
    elif isinstance(tg, list):
        return [tuple(float(x) for x in (p if isinstance(p, list) else [p]))
                for p in tg]
    else:
        lo, hi = tg["min"], tg["max"]
        pts = tg.get("points", 9)
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

"""Import rules for the package: no command uses threads or processes,
``src`` never imports the benchmark harness or a package of the ``test``
extra, the layers above ``kernel`` see only its two classes, and scipy
stays off the import path of the CLI, out of ``dimension``, ``beta`` and
1-D ``spectrum`` runs, and out of the Perron classes of Markov window
tables, which the incidence's classes of symbols give."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cgdms"
FORBIDDEN = ("threading", "concurrent", "multiprocessing", "bench")
# the ``test`` extra of pyproject.toml, which a plain install lacks
TEST_EXTRA = ("pytest", "hypothesis", "mpmath")


def _imported(source: str) -> set:
    """Top-level names of every absolute import in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


MODULES = sorted(SRC.rglob("*.py"))


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_threads_processes_or_bench(path):
    bad = _imported(path.read_text(encoding="utf-8")) & set(FORBIDDEN)
    assert not bad, f"{path.name} imports {sorted(bad)}"


def test_the_rule_sees_each_forbidden_import():
    src = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
           "import multiprocessing.pool\nfrom bench import tracing\n"
           "from .kernel import PressureKernel\n")
    assert _imported(src) == set(FORBIDDEN)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_test_extra_at_run_time(path):
    bad = _imported(path.read_text(encoding="utf-8")) & set(TEST_EXTRA)
    assert not bad, f"{path.name} imports {sorted(bad)}"


def test_the_rule_sees_each_test_extra_import():
    src = ("import pytest\nfrom hypothesis import strategies as st\n"
           "def f():\n    import mpmath.libmp\n")
    assert _imported(src) == set(TEST_EXTRA)


# the names ``thermo`` and ``multifractal`` may take from ``kernel``: window
# choice, caps and clamps stay behind its two classes
KERNEL_API = {"PressureKernel", "WindowTransfer"}


def _from_kernel(source: str) -> set:
    """Every name a module imports from its sibling ``kernel``, and
    ``kernel`` itself when it imports the whole module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "kernel":
                names.update(a.name for a in node.names)
            elif node.module is None:
                names.update(a.name for a in node.names if a.name == "kernel")
    return names


@pytest.mark.parametrize("name", ["thermo", "multifractal"])
def test_layers_above_kernel_import_its_classes_only(name):
    source = (SRC / f"{name}.py").read_text(encoding="utf-8")
    assert _from_kernel(source) <= KERNEL_API
    # the module is importing from kernel at all, so the rule has teeth
    assert _from_kernel(source)


def test_the_kernel_rule_sees_helpers():
    src = ("from .kernel import PressureKernel, dp_window\n"
           "from .kernel import EXACT_CAP as cap\nfrom . import kernel\n")
    assert _from_kernel(src) == {"PressureKernel", "dp_window", "EXACT_CAP",
                                 "kernel"}


# imports the CLI and runs the command given first on each config given as
# a path, failing if any scipy module is loaded after either step
NO_SCIPY = """
import sys
import cgdms.cli

def loaded():  # the first few scipy modules loaded, if any
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]

assert not loaded(), loaded()
command, out = sys.argv[1:3]
for cfg in sys.argv[3:]:
    assert cgdms.cli.main([command, "--config", cfg, "--out", out]) == 0
    assert not loaded(), (cfg, loaded())
"""


def _run_without_scipy(tmp_path, command, configs: dict) -> list:
    """Names of the files that ``command`` wrote, run on each config in a
    fresh interpreter by NO_SCIPY."""
    paths = []
    for name, doc in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, command, str(tmp_path / "o"),
                           *paths], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return sorted(p.name for p in (tmp_path / "o").iterdir())


def test_scipy_stays_off_the_import_path(tmp_path):
    """scipy loads only where a run needs it (the hulls of ``sets`` at
    potential dim >= 2): importing the CLI and a ``pressure`` run on cf3 and on
    a two-map similarity system at word length 16 load none of it."""
    configs = {
        "cf3": '{"system": {"kind": "moebius-cf", "alphabet": 3}, '
               '"numerics": {"word_length": 10}}',
        "sim": '{"system": {"kind": "similarity", "ratios": [0.4, 0.3]}, '
               '"numerics": {"word_length": 16}}',
    }
    assert _run_without_scipy(tmp_path, "pressure", configs) == ["pressure.csv"]


def test_dimension_run_loads_no_scipy(tmp_path):
    """A certified dimension solves its estimate without brentq: a
    ``dimension`` run on cf3 at word length 10 and tol 1e-3 loads no scipy
    module, where it once spent about 0.4 s importing ``scipy.optimize``."""
    configs = {"cf3": '{"system": {"kind": "moebius-cf", "alphabet": 3}, '
                      '"numerics": {"word_length": 10, "tolerance": 1e-3}}'}
    assert _run_without_scipy(tmp_path, "dimension", configs) == [
        "dimension.csv", "dimension.json"]


@pytest.mark.parametrize("command,config,files", [
    ("beta", '{"system": {"kind": "moebius-cf", "alphabet": 3}, '
             '"potential": {"kind": "mod-cycle", "tables": [[0, 1], [0, 0, 1]]}, '
             '"numerics": {"word_length": 10, "window": 6, "tolerance": 1e-3}, '
             '"beta": {"t_points": [[0.1, 0.3], [-0.5, 0.4]]}}', ["beta.csv"]),
    ("spectrum", '{"system": {"kind": "similarity", "ratios": [0.5, 0.3], '
                 '"offsets": [0.0, 0.6]}, "potential": {"kind": "table", '
                 '"values": {"1": [0.0], "2": [1.0]}}, "numerics": {"word_length": 12}, '
                 '"spectrum": {"alpha_grid": [[0.5]], '
                 '"t_grid": {"min": [-1.0], "max": [1.0], "points": 3}}}',
     ["spectrum.csv", "surface.csv"]),
], ids=["beta", "spectrum"])
def test_stage_root_runs_load_no_scipy(tmp_path, command, config, files):
    """Stage roots share the certified estimate's zero finder: a ``beta``
    run on cf3 with the mod-cycle potential at window 6, and a ``spectrum``
    run on a two-map similarity system with a 1-D potential, load no scipy
    module, where each once imported ``scipy.optimize`` for brentq."""
    assert _run_without_scipy(tmp_path, command, {"cfg": config}) == files


# builds two Markov window tables and their Perron classes, failing if any
# scipy module is loaded
MARKOV_CLASSES = """
import sys
from cgdms import potentials
from cgdms.kernel import WindowTransfer
from cgdms.system import similarity_system

for inc, classes in (([[1, 1], [1, 0]], 1), ([[1, 1], [0, 1]], 2)):
    system = similarity_system([0.5, 0.3], offsets=[0.0, 0.6], incidence=inc)
    assert len(WindowTransfer(system, potentials.zero(1), 2, 6).start()) == classes
bad = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]
assert not bad, bad
"""


def test_markov_classes_load_no_scipy():
    """The Perron classes of the golden-mean and of the upper-triangular
    similarity transfers at window 6 (one class and two) load no scipy
    module."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", MARKOV_CLASSES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

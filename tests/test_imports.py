"""Static import rules for the package: no command uses threads or
processes, ``src`` never imports the benchmark harness or a package of
the ``test`` extra, and the layers above ``kernel`` see only its two
classes."""

import ast
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

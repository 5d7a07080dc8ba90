"""Static import rules for the package: no command uses threads or
processes, and ``src`` never imports the benchmark harness."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cgdms"
FORBIDDEN = ("threading", "concurrent", "multiprocessing", "bench")


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

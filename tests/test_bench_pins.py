"""The names the benchmark in ``bench/`` pins in tempcast still resolve.

``bench/tracing.py`` wraps every ``(module, attribute)`` of its
``WRAPPED`` list and fails on a missing one, and ``bench/workloads.py``
imports from tempcast. Deleting or renaming any of those names breaks
every traced benchmark run; these tests fail first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(f"tempcast.{layer}", attribute) for layer, attribute, _ in tracing.WRAPPED]


def workload_imports():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "tempcast"
        for alias in node.names
    ]


PINNED = list(dict.fromkeys(wrapped_names() + workload_imports()))


@pytest.mark.parametrize(
    "module, attribute", PINNED, ids=[f"{m}.{a}" for m, a in PINNED]
)
def test_pinned_name_resolves(module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        assert hasattr(owner, part), f"{module}.{attribute} is gone"
        owner = getattr(owner, part)


def test_both_sources_are_read():
    assert wrapped_names()
    assert workload_imports()

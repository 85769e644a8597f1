"""The benchmark's lookups into the package resolve.

bench/tracing.py wraps each BOUNDARIES entry by name, and bench/workloads.py
calls the package as mg.<name>, so a name the package loses breaks the
benchmark rather than the program.  The bench files are parsed, never
imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def boundaries() -> list[tuple[str, str]]:
    """(module, function or Class.method) of every BOUNDARIES entry."""
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return [
                (ast.literal_eval(entry.elts[1]), ast.literal_eval(entry.elts[2]))
                for entry in node.value.elts
            ]
    raise AssertionError("bench/tracing.py has no BOUNDARIES table")


def package_calls() -> list[str]:
    """Every name workloads.py looks up on the package as mg.<name>."""
    return sorted(
        {
            node.attr
            for node in ast.walk(_tree("workloads.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "mg"
        }
    )


def test_bench_files_name_what_they_look_up():
    assert len(boundaries()) > 30
    assert "survivor_words_by_content" in package_calls()


@pytest.mark.parametrize("module, attr", boundaries())
def test_traced_boundary_resolves(module, attr):
    owner = importlib.import_module(f"morsegraded.{module}")
    if "." in attr:
        # the tracer patches the method in its class's own namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", package_calls())
def test_workload_call_resolves(name):
    mg = importlib.import_module("morsegraded")
    importlib.import_module("morsegraded.cli")  # as bench/run.py imports the package
    assert hasattr(mg, name)

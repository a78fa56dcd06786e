"""The benchmark in perfbench/ calls into xldetect through module aliases and
wraps the functions in its SPAN_POINTS list; every one of those names must
exist, so deleting or renaming one fails here, not only in a traced run."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _alias_attributes(tree):
    """(alias, attr) for each alias.attr where alias is bound by
    ``from xldetect import <module> as alias``."""
    aliases = {
        name.asname or name.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "xldetect"
        for name in node.names
    }
    return aliases, {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def test_module_aliases_resolve(workloads):
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases, used = _alias_attributes(tree)
    assert aliases and used  # the walk found the imports it checks
    missing = [
        f"{alias}.{attr}" for alias, attr in sorted(used)
        if not hasattr(getattr(workloads, alias), attr)
    ]
    assert not missing, f"perfbench/workloads.py uses missing names: {missing}"


def test_span_points_resolve(workloads):
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _, _ in workloads.SPAN_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, f"SPAN_POINTS wraps missing names: {missing}"

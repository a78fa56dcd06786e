"""The benchmark in perfbench/ calls into xldetect through module aliases,
wraps the functions in its SPAN_POINTS list and reads pipeline config keys.
Every one of those names, every keyword it passes to an xldetect callable
and every config key it reads must exist, so deleting or renaming one fails
here, not only in a traced run."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tree():
    return ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _aliases(tree):
    """Names bound by ``from xldetect import <module> as alias``."""
    return {
        name.asname or name.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "xldetect"
        for name in node.names
    }


def _is_alias_attribute(node, aliases):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    )


def _alias_attributes(tree):
    """(alias, attr) for each alias.attr."""
    aliases = _aliases(tree)
    return aliases, {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if _is_alias_attribute(node, aliases)
    }


def test_module_aliases_resolve(workloads, tree):
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


def test_call_keywords_are_parameters(workloads, tree):
    aliases = _aliases(tree)
    calls = [
        (node.func.value.id, node.func.attr, kw.arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _is_alias_attribute(node.func, aliases)
        for kw in node.keywords
        if kw.arg is not None
    ]
    assert calls  # the walk found the keyword calls it checks
    unknown = []
    for alias, attr, keyword in sorted(set(calls)):
        params = inspect.signature(getattr(getattr(workloads, alias), attr)).parameters
        takes_any = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
        if keyword not in params and not takes_any:
            unknown.append(f"{alias}.{attr}({keyword}=...)")
    assert not unknown, f"perfbench/workloads.py passes unknown keywords: {unknown}"


def test_config_keys_in_schema(tree):
    from xldetect.config import SCHEMA

    keys = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
        and isinstance(node.slice, ast.Constant)
    }
    assert keys  # the walk found the config reads it checks
    missing = sorted(keys - SCHEMA.keys())
    assert not missing, f"perfbench/workloads.py reads unknown config keys: {missing}"

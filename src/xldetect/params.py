"""Stage parameters declared once, on the stage dataclass fields.

Each field a pipeline key sets carries its default and its rule, a
(predicate, text) pair such as (v >= 1, "must be >= 1"). ``check`` raises
on the first rule an instance breaks, "dim must be >= 1, got -1";
``config.SCHEMA`` takes a key's kind, default and rule from the same field
and prints "embedding.dim must be >= 1 (got -1)". A dataclass's
CROSS_RULES tuple holds its rules between fields, each (field names,
predicate, text), the text naming every field as ``{name}`` so that
config can name keys in its place.
"""

from __future__ import annotations

import math
from dataclasses import field, fields


def param(default, rule):
    """A dataclass field with its default and its rule."""
    return field(default=default, metadata={"rule": rule})


def at_least(lo):
    return (lambda v: v >= lo, f"must be >= {lo}")


def positive():
    return (lambda v: v > 0, "must be > 0")


def open01():
    return (lambda v: 0.0 < v < 1.0, "must be in (0,1)")


def unit_fraction():
    return (lambda v: 0.0 < v <= 1.0, "must be in (0,1]")


def unit(hi=1.0):
    return (lambda v: 0.0 <= v < hi, f"must be in [0,{hi:g})")


def check(obj) -> None:
    """Raise ValueError on the first field rule, then cross rule, that obj
    breaks; a float with a rule must also be finite, as config's parser
    requires."""
    for f in fields(obj):
        rule, value = f.metadata.get("rule"), getattr(obj, f.name)
        if rule is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if not rule[0](value):
            raise ValueError(f"{f.name} {rule[1]}, got {value}")
    for names, ok, text in getattr(obj, "CROSS_RULES", ()):
        values = [getattr(obj, name) for name in names]
        if not ok(*values):
            got = ", ".join(f"{name}={value}" for name, value in zip(names, values))
            raise ValueError(f"{text.format(**{name: name for name in names})}, got {got}")

"""Flat dotted-key pipeline configuration.

The file format is deliberately dumb: one "key = value" per line, "#"
comments, no nesting. Unknown keys are hard errors so that a typo cannot
silently fall back to a default, and validation reports every violation
at once rather than the first.

A key that sets a stage dataclass field, as listed in STAGE_KEYS
(``embedding.lr`` sets ``SkipgramConfig.initial_lr``), takes its kind (the
field's annotation), default and rule from that field, where they are
declared once; validation also applies the dataclass's cross-field rules.
So config and the library enforce the same rules, config naming the key
("embedding.dim must be >= 1 (got 0)") where the library names the field
("dim must be >= 1, got 0"). The other keys are declared in SCHEMA.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields
from pathlib import Path

from . import formats
from .baselines import LogRegConfig
from .classifier import SupervisedConfig
from .corpus import SplitSpec
from .curves import DEFAULT_FRACTIONS, MODEL_KINDS
from .embedding import SkipgramConfig
from .errors import ConfigError, FormatError
from .params import at_least, unit_fraction
from .synth import SyntheticConfig
from .vocab import SubwordIndex

_BASELINE_KINDS = ("bow", "bow_tfidf", "ngrams", "ngrams_tfidf")

# (section, stage dataclass) -> {key suffix: field} for every key that sets
# a stage dataclass field
STAGE_KEYS: dict[tuple, dict[str, str]] = {
    ("split", SplitSpec): dict(train_fraction="train_fraction"),
    ("embedding", SkipgramConfig): dict(
        dim="dim", epochs="epochs", lr="initial_lr", window="window", negatives="negatives",
        subsample_t="subsample_t", min_count="min_count"),
    ("embedding", SubwordIndex): dict(n_min="n_min", n_max="n_max", buckets="buckets"),
    ("classifier", SupervisedConfig): dict(
        dim="dim", epochs="epochs", lr="initial_lr", min_count="min_count",
        word_ngrams="word_ngrams", freeze_pretrained="freeze_pretrained"),
    ("classifier", SubwordIndex): dict(n_min="n_min", n_max="n_max", buckets="buckets"),
    ("baseline", LogRegConfig): dict(l2_lambda="l2_lambda", epochs="epochs", lr="lr"),
    ("synth", SyntheticConfig): dict(
        vocab_size="vocab_size", source_docs="n_source_docs", target_ratio="target_ratio",
        doc_len_min="doc_len_min", doc_len_max="doc_len_max", signal_words="n_signal_words",
        signal_rank_start="signal_rank_start", signal_lift="signal_lift",
        signal_run_mean="signal_run_mean", positive_rate="positive_rate",
        label_noise="label_noise", zipf_exponent="zipf_exponent", friends="n_friends",
        friend_prob="friend_prob", code_switch="code_switch_rate"),
}


def _stage_entries(section: str, cls) -> dict[str, tuple]:
    """SCHEMA entries of the keys that set cls's fields."""
    by_name = {f.name: f for f in fields(cls)}
    entries = {}
    for suffix, name in STAGE_KEYS[section, cls].items():
        f = by_name[name]
        entries[f"{section}.{suffix}"] = (f.type, f.default, f.metadata.get("rule"))
    return entries


# the random streams take seeds as u64
_SEED = (lambda v: 0 <= v < 1 << 64, "must be in [0, 2^64)")


def _choice(options):
    return (lambda v: v in options, f"must be one of {', '.join(options)}")


def _entries(rule, noun):
    """A list key's rule: at least one entry, each keeping rule, whose text
    "must be <bound>" becomes "must be a non-empty list of <noun> <bound>"."""
    ok, text = rule
    return (lambda v: len(v) > 0 and all(map(ok, v)),
            f"must be a non-empty list of {noun} {text.removeprefix('must be ')}")


# key -> (type tag, default, rule or None); a rule is (predicate, text)
SCHEMA: dict[str, tuple] = {
    "seed": ("int", 13, _SEED),
    "out_dir": ("str", "out", None),

    "ingest.posts": ("str", "", None),
    "ingest.statuses": ("str", "", None),
    "ingest.language": ("str", "", None),
    "ingest.out": ("str", "documents.tsv", None),

    **_stage_entries("split", SplitSpec),

    "embedding.corpus": ("str", "", None),
    **_stage_entries("embedding", SkipgramConfig),
    "embedding.subwords": ("bool", True, None),
    **_stage_entries("embedding", SubwordIndex),
    "embedding.out_vectors": ("str", "vectors.txt", None),
    "embedding.out_checkpoint": ("str", "embedding.bin", None),

    "align.source_vectors": ("str", "", None),
    "align.target_vectors": ("str", "", None),
    "align.train_dict": ("str", "", None),
    "align.eval_dict": ("str", "", None),
    "align.iterations": ("int", 5, at_least(0)),
    "align.csls_k": ("int", 10, at_least(1)),
    "align.induce_top_k": ("int", 10000, at_least(1)),
    "align.out_map": ("str", "map.txt", None),
    "align.out_merged": ("str", "aligned_vectors.txt", None),

    "classifier.docs": ("str", "", None),
    "classifier.pretrained": ("str", "", None),
    **_stage_entries("classifier", SupervisedConfig),
    "classifier.subwords": ("bool", True, None),
    **_stage_entries("classifier", SubwordIndex),
    "classifier.out_model": ("str", "classifier.bin", None),

    "baseline.kind": ("str", "bow", _choice(_BASELINE_KINDS)),
    "baseline.docs": ("str", "", None),
    "baseline.max_features": ("int", 35000, at_least(1)),
    "baseline.ngram_min": ("int", 1, at_least(1)),
    "baseline.ngram_max": ("int", 5, at_least(1)),
    **_stage_entries("baseline", LogRegConfig),
    "baseline.out_report": ("str", "baseline_report.txt", None),
    "baseline.out_features": ("str", "features.tsv", None),

    "evaluate.docs": ("str", "", None),
    "evaluate.out_report": ("str", "eval_report.txt", None),

    "sweep.docs": ("str", "", None),
    "sweep.fractions": ("floats", DEFAULT_FRACTIONS, _entries(unit_fraction(), "values")),
    "sweep.seeds": ("ints", (1, 2, 3), _entries(_SEED, "seeds")),
    "sweep.kinds": ("strs", MODEL_KINDS, _entries(
        (MODEL_KINDS.__contains__, f"must be among {', '.join(MODEL_KINDS)}"), "kinds")),
    "sweep.out_report": ("str", "sweep_report.txt", None),
    "sweep.out_csv": ("str", "curve.csv", None),

    "export.docs": ("str", "", None),
    "export.out": ("str", "doc_vectors.txt", None),

    **_stage_entries("synth", SyntheticConfig),
    "synth.out_source": ("str", "source_documents.tsv", None),
    "synth.out_target": ("str", "target_documents.tsv", None),
    "synth.out_dict": ("str", "dictionary.txt", None),
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_value(key: str, kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return _finite(raw)
    if kind == "bool":
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ValueError("expected true or false")
    if kind == "floats":
        return tuple(_finite(x) for x in raw.split(",") if x.strip() != "")
    if kind == "ints":
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    if kind == "strs":
        return tuple(x.strip() for x in raw.split(",") if x.strip() != "")
    return raw


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(value)
    if kind == "floats":
        return ",".join(repr(x) for x in value)
    if kind in ("ints", "strs"):
        return ",".join(str(x) for x in value)
    return str(value)


class PipelineConfig:
    """Validated configuration with every default materialized."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    @property
    def out_dir(self) -> str:
        return self.values["out_dir"]

    def build(self, section: str, cls, **extra):
        """cls from the keys of section that set its fields, plus extra fields."""
        keys = STAGE_KEYS[section, cls]
        return cls(**{name: self[f"{section}.{suffix}"] for suffix, name in keys.items()}, **extra)

    def effective_lines(self) -> list[str]:
        return [
            f"{key}={_format_value(SCHEMA[key][0], self.values[key])}"
            for key in sorted(self.values)
        ]

    def config_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.effective_lines()).encode("utf-8"))
        return digest.hexdigest()[:16]


def _cross_checks(values: dict) -> list[str]:
    errors = []
    for (section, cls), keys in STAGE_KEYS.items():
        key_of = {name: f"{section}.{suffix}" for suffix, name in keys.items()}
        for names, ok, text in getattr(cls, "CROSS_RULES", ()):
            if not ok(*(values[key_of[name]] for name in names)):
                errors.append(text.format(**key_of))
    if values["baseline.ngram_min"] > values["baseline.ngram_max"]:
        errors.append("baseline.ngram_min must be <= baseline.ngram_max")
    return errors


def validate_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Parse and validate; raises ConfigError carrying every violation.

    An empty (or absent) file yields pure defaults. overrides are applied
    after parsing (used for the --seed and --out flags).
    """
    raw: dict[str, str] = {}
    errors: list[str] = []
    if path is not None:
        try:
            lines = formats.TextArtifact(path).lines
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
        except FormatError as exc:
            raise ConfigError([str(exc)]) from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
                continue
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in SCHEMA:
                errors.append(f"line {lineno}: unknown key {key!r}")
                continue
            if key in raw:
                errors.append(f"line {lineno}: duplicate key {key!r}")
                continue
            raw[key] = value

    values = {}
    for key, (kind, default, rule) in SCHEMA.items():
        if key in raw:
            try:
                value = _parse_value(key, kind, raw[key])
            except ValueError as exc:
                errors.append(f"{key}: cannot parse {raw[key]!r} as {kind} ({exc})")
                continue
        else:
            value = default
        if rule is not None and not rule[0](value):
            errors.append(f"{key} {rule[1]} (got {value!r})")
            continue
        values[key] = value

    if overrides:
        for key, value in overrides.items():
            rule = SCHEMA[key][2]
            if rule is not None and not rule[0](value):
                errors.append(f"{key} {rule[1]} (got {value!r})")
            else:
                values[key] = value

    if not errors:
        errors.extend(_cross_checks(values))
    if errors:
        raise ConfigError(errors)
    return PipelineConfig(values)

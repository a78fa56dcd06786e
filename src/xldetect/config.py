"""Flat dotted-key pipeline configuration.

The file format is deliberately dumb: one "key = value" per line, "#"
comments, no nesting. Unknown keys are hard errors so that a typo cannot
silently fall back to a default, and validation reports every violation
at once rather than the first.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from . import formats
from .errors import ConfigError, FormatError
from .vocab import MAX_BUCKETS

_BASELINE_KINDS = ("bow", "bow_tfidf", "ngrams", "ngrams_tfidf")
_SWEEP_KINDS = ("monolingual", "transfer")


def _positive(key):
    return (lambda v: v > 0, f"{key} must be > 0")


def _nonneg(key):
    return (lambda v: v >= 0, f"{key} must be >= 0")


def _at_least(key, lo):
    return (lambda v: v >= lo, f"{key} must be >= {lo}")


def _buckets(key):
    return (lambda v: 1 <= v <= MAX_BUCKETS, f"{key} must be in [1, 2^24]")


def _u64(v):
    # the random streams take seeds as u64
    return 0 <= v < 1 << 64


def _open01(key):
    return (lambda v: 0.0 < v < 1.0, f"{key} must be in (0,1)")


def _unit(key, hi=1.0):
    return (lambda v: 0.0 <= v < hi, f"{key} must be in [0,{hi:g})")


def _choice(key, options):
    return (lambda v: v in options, f"{key} must be one of {', '.join(options)}")


def _entries(key, ok, what):
    return (lambda v: len(v) > 0 and all(map(ok, v)),
            f"{key} must be a non-empty list of {what}")


# key -> (type tag, default, optional validator)
SCHEMA: dict[str, tuple] = {
    "seed": ("int", 13, (_u64, "seed must be in [0, 2^64)")),
    "out_dir": ("str", "out", None),

    "ingest.posts": ("str", "", None),
    "ingest.statuses": ("str", "", None),
    "ingest.language": ("str", "", None),
    "ingest.out": ("str", "documents.tsv", None),

    "split.train_fraction": ("float", 0.8, _open01("split.train_fraction")),

    "embedding.corpus": ("str", "", None),
    "embedding.dim": ("int", 100, _at_least("embedding.dim", 1)),
    "embedding.epochs": ("int", 5, _nonneg("embedding.epochs")),
    "embedding.lr": ("float", 0.05, _positive("embedding.lr")),
    "embedding.window": ("int", 5, _at_least("embedding.window", 1)),
    "embedding.negatives": ("int", 5, _at_least("embedding.negatives", 1)),
    "embedding.subsample_t": ("float", 1e-4, _positive("embedding.subsample_t")),
    "embedding.min_count": ("int", 5, _at_least("embedding.min_count", 1)),
    "embedding.subwords": ("bool", True, None),
    "embedding.n_min": ("int", 3, _at_least("embedding.n_min", 1)),
    "embedding.n_max": ("int", 6, _at_least("embedding.n_max", 1)),
    "embedding.buckets": ("int", 2_000_000, _buckets("embedding.buckets")),
    "embedding.out_vectors": ("str", "vectors.txt", None),
    "embedding.out_checkpoint": ("str", "embedding.bin", None),

    "align.source_vectors": ("str", "", None),
    "align.target_vectors": ("str", "", None),
    "align.train_dict": ("str", "", None),
    "align.eval_dict": ("str", "", None),
    "align.iterations": ("int", 5, _nonneg("align.iterations")),
    "align.csls_k": ("int", 10, _at_least("align.csls_k", 1)),
    "align.induce_top_k": ("int", 10000, _at_least("align.induce_top_k", 1)),
    "align.out_map": ("str", "map.txt", None),
    "align.out_merged": ("str", "aligned_vectors.txt", None),

    "classifier.docs": ("str", "", None),
    "classifier.pretrained": ("str", "", None),
    "classifier.dim": ("int", 100, _at_least("classifier.dim", 1)),
    "classifier.epochs": ("int", 100, _nonneg("classifier.epochs")),
    "classifier.lr": ("float", 1.0, _positive("classifier.lr")),
    "classifier.min_count": ("int", 1, _at_least("classifier.min_count", 1)),
    "classifier.word_ngrams": ("int", 1, (lambda v: v == 1, "classifier.word_ngrams must be 1: "
                                         "word n-grams are not supported")),
    "classifier.subwords": ("bool", True, None),
    "classifier.n_min": ("int", 3, _at_least("classifier.n_min", 1)),
    "classifier.n_max": ("int", 6, _at_least("classifier.n_max", 1)),
    "classifier.buckets": ("int", 2_000_000, _buckets("classifier.buckets")),
    "classifier.freeze_pretrained": ("bool", False, None),
    "classifier.out_model": ("str", "classifier.bin", None),

    "baseline.kind": ("str", "bow", _choice("baseline.kind", _BASELINE_KINDS)),
    "baseline.docs": ("str", "", None),
    "baseline.max_features": ("int", 35000, _at_least("baseline.max_features", 1)),
    "baseline.ngram_min": ("int", 1, _at_least("baseline.ngram_min", 1)),
    "baseline.ngram_max": ("int", 5, _at_least("baseline.ngram_max", 1)),
    "baseline.l2_lambda": ("float", 1.0, _nonneg("baseline.l2_lambda")),
    "baseline.epochs": ("int", 100, _nonneg("baseline.epochs")),
    "baseline.lr": ("float", 0.1, _positive("baseline.lr")),
    "baseline.out_report": ("str", "baseline_report.txt", None),
    "baseline.out_features": ("str", "features.tsv", None),

    "evaluate.docs": ("str", "", None),
    "evaluate.out_report": ("str", "eval_report.txt", None),

    "sweep.docs": ("str", "", None),
    "sweep.fractions": ("floats", (0.1, 0.2, 0.3, 0.5, 0.7, 1.0),
                        _entries("sweep.fractions", lambda f: 0.0 < f <= 1.0, "values in (0,1]")),
    "sweep.seeds": ("ints", (1, 2, 3), _entries("sweep.seeds", _u64, "seeds in [0, 2^64)")),
    "sweep.kinds": ("strs", ("monolingual", "transfer"),
                    _entries("sweep.kinds", _SWEEP_KINDS.__contains__,
                             f"kinds among {', '.join(_SWEEP_KINDS)}")),
    "sweep.out_report": ("str", "sweep_report.txt", None),
    "sweep.out_csv": ("str", "curve.csv", None),

    "export.docs": ("str", "", None),
    "export.out": ("str", "doc_vectors.txt", None),

    "synth.vocab_size": ("int", 2000, _at_least("synth.vocab_size", 2)),
    "synth.source_docs": ("int", 4000, _at_least("synth.source_docs", 1)),
    "synth.target_ratio": ("float", 10.0, _positive("synth.target_ratio")),
    "synth.doc_len_min": ("int", 30, _at_least("synth.doc_len_min", 1)),
    "synth.doc_len_max": ("int", 60, _at_least("synth.doc_len_max", 1)),
    "synth.signal_words": ("int", 40, _nonneg("synth.signal_words")),
    "synth.signal_rank_start": ("int", 100, _nonneg("synth.signal_rank_start")),
    "synth.signal_lift": ("float", 40.0, _at_least("synth.signal_lift", 1.0)),
    "synth.signal_run_mean": ("float", 3.0, _at_least("synth.signal_run_mean", 1.0)),
    "synth.positive_rate": ("float", 0.3, _open01("synth.positive_rate")),
    "synth.label_noise": ("float", 0.0, _unit("synth.label_noise", 0.5)),
    "synth.zipf_exponent": ("float", 0.5, _nonneg("synth.zipf_exponent")),
    "synth.friends": ("int", 4, _at_least("synth.friends", 1)),
    "synth.friend_prob": ("float", 0.85, _unit("synth.friend_prob")),
    "synth.code_switch": ("float", 0.0, _unit("synth.code_switch")),
    "synth.out_source": ("str", "source_documents.tsv", None),
    "synth.out_target": ("str", "target_documents.tsv", None),
    "synth.out_dict": ("str", "dictionary.txt", None),
}


def _parse_value(key: str, kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ValueError("expected true or false")
    if kind == "floats":
        return tuple(float(x) for x in raw.split(",") if x.strip() != "")
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
    for prefix in ("embedding", "classifier"):
        if values[f"{prefix}.n_min"] > values[f"{prefix}.n_max"]:
            errors.append(f"{prefix}.n_min must be <= {prefix}.n_max")
    if values["baseline.ngram_min"] > values["baseline.ngram_max"]:
        errors.append("baseline.ngram_min must be <= baseline.ngram_max")
    if values["synth.doc_len_min"] > values["synth.doc_len_max"]:
        errors.append("synth.doc_len_min must be <= synth.doc_len_max")
    if values["synth.signal_rank_start"] + values["synth.signal_words"] > values["synth.vocab_size"]:
        errors.append("synth signal set exceeds synth.vocab_size")
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
    for key, (kind, default, validator) in SCHEMA.items():
        if key in raw:
            try:
                value = _parse_value(key, kind, raw[key])
            except ValueError as exc:
                errors.append(f"{key}: cannot parse {raw[key]!r} as {kind} ({exc})")
                continue
        else:
            value = default
        if validator is not None and not validator[0](value):
            errors.append(validator[1] + f" (got {value!r})")
            continue
        values[key] = value

    if overrides:
        for key, value in overrides.items():
            kind, _, validator = SCHEMA[key]
            if validator is not None and not validator[0](value):
                errors.append(validator[1] + f" (got {value!r})")
            else:
                values[key] = value

    if not errors:
        errors.extend(_cross_checks(values))
    if errors:
        raise ConfigError(errors)
    return PipelineConfig(values)

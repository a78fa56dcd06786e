"""Config and the stage dataclasses enforce one rule per parameter: at each
rule's boundary, validate_config and direct construction accept and reject
the same values, with the same rule text."""

import pytest

from xldetect.baselines import LogRegConfig
from xldetect.classifier import SupervisedConfig
from xldetect.cli import main
from xldetect.config import validate_config
from xldetect.corpus import SplitSpec
from xldetect.embedding import SkipgramConfig
from xldetect.errors import ConfigError
from xldetect.synth import SyntheticConfig
from xldetect.vocab import MAX_BUCKETS, SubwordIndex

# key -> (dataclass, field, accepted values, rejected values), written out
# here rather than read from config so that a wrong map also fails
OWNED = {
    "split.train_fraction": (SplitSpec, "train_fraction", [5e-324, 0.9999999999999999],
                             [0.0, 1.0]),
    "embedding.dim": (SkipgramConfig, "dim", [1], [0]),
    "embedding.epochs": (SkipgramConfig, "epochs", [0], [-1]),
    "embedding.lr": (SkipgramConfig, "initial_lr", [5e-324], [0.0]),
    "embedding.window": (SkipgramConfig, "window", [1], [0]),
    "embedding.negatives": (SkipgramConfig, "negatives", [1], [0]),
    "embedding.subsample_t": (SkipgramConfig, "subsample_t", [5e-324], [0.0]),
    "embedding.min_count": (SkipgramConfig, "min_count", [1], [0]),
    "embedding.n_min": (SubwordIndex, "n_min", [1], [0]),
    "embedding.n_max": (SubwordIndex, "n_max", [1], [0]),
    "embedding.buckets": (SubwordIndex, "buckets", [1, MAX_BUCKETS], [0, MAX_BUCKETS + 1]),
    "classifier.dim": (SupervisedConfig, "dim", [1], [0]),
    "classifier.epochs": (SupervisedConfig, "epochs", [0], [-1]),
    "classifier.lr": (SupervisedConfig, "initial_lr", [5e-324], [0.0]),
    "classifier.min_count": (SupervisedConfig, "min_count", [1], [0]),
    "classifier.word_ngrams": (SupervisedConfig, "word_ngrams", [1], [0, 2]),
    "classifier.freeze_pretrained": (SupervisedConfig, "freeze_pretrained", [False, True], []),
    "classifier.n_min": (SubwordIndex, "n_min", [1], [0]),
    "classifier.n_max": (SubwordIndex, "n_max", [1], [0]),
    "classifier.buckets": (SubwordIndex, "buckets", [1, MAX_BUCKETS], [0, MAX_BUCKETS + 1]),
    "baseline.l2_lambda": (LogRegConfig, "l2_lambda", [0.0], [-5e-324]),
    "baseline.epochs": (LogRegConfig, "epochs", [0], [-1]),
    "baseline.lr": (LogRegConfig, "lr", [5e-324], [0.0]),
    "synth.vocab_size": (SyntheticConfig, "vocab_size", [2], [1]),
    "synth.source_docs": (SyntheticConfig, "n_source_docs", [1], [0]),
    "synth.target_ratio": (SyntheticConfig, "target_ratio", [5e-324], [0.0]),
    "synth.doc_len_min": (SyntheticConfig, "doc_len_min", [1], [0]),
    "synth.doc_len_max": (SyntheticConfig, "doc_len_max", [1], [0]),
    "synth.signal_words": (SyntheticConfig, "n_signal_words", [0], [-1]),
    "synth.signal_rank_start": (SyntheticConfig, "signal_rank_start", [0], [-1]),
    "synth.signal_lift": (SyntheticConfig, "signal_lift", [1.0], [0.999]),
    "synth.signal_run_mean": (SyntheticConfig, "signal_run_mean", [1.0], [0.999]),
    "synth.positive_rate": (SyntheticConfig, "positive_rate", [1e-9, 0.999], [0.0, 1.0]),
    "synth.label_noise": (SyntheticConfig, "label_noise", [0.0, 0.499], [-5e-324, 0.5]),
    "synth.zipf_exponent": (SyntheticConfig, "zipf_exponent", [0.0], [-0.1]),
    "synth.friends": (SyntheticConfig, "n_friends", [1], [0]),
    "synth.friend_prob": (SyntheticConfig, "friend_prob", [0.0, 0.999], [-5e-324, 1.0]),
    "synth.code_switch": (SyntheticConfig, "code_switch_rate", [0.0, 0.999], [-5e-324, 1.0]),
}

# values under which every boundary above meets the cross rules
CONTEXT = {"embedding.n_min": 1, "classifier.n_min": 1, "synth.doc_len_min": 1,
           "synth.signal_words": 0, "synth.signal_rank_start": 0}


def _text(value):
    return str(value).lower() if isinstance(value, bool) else repr(value)


def _both(tmp_path, settings):
    """(config errors, library error or None) for the keys in settings; the
    library side builds each dataclass the keys set, from those keys alone."""
    path = tmp_path / "pipeline.cfg"
    path.write_text("".join(f"{k} = {_text(v)}\n" for k, v in settings.items()), encoding="utf-8")
    try:
        validate_config(path)
        config_errors = []
    except ConfigError as exc:
        config_errors = exc.errors
    library_error = None
    for section, cls in {(k.split(".")[0], OWNED[k][0]) for k in settings}:
        kwargs = {OWNED[k][1]: v for k, v in settings.items()
                  if k.startswith(section + ".") and OWNED[k][0] is cls}
        try:
            cls(**kwargs)
        except ValueError as exc:
            library_error = str(exc)
    return config_errors, library_error


def test_table_covers_every_dataclass_owned_key():
    from xldetect.config import STAGE_KEYS

    owned = {f"{section}.{suffix}": (cls, name)
             for (section, cls), keys in STAGE_KEYS.items() for suffix, name in keys.items()}
    assert owned == {key: (cls, name) for key, (cls, name, _, _) in OWNED.items()}


@pytest.mark.parametrize("key, value, accepted", [
    (key, value, accepted)
    for key, (_, _, good, bad) in OWNED.items()
    for accepted, values in ((True, good), (False, bad))
    for value in values
])
def test_config_and_dataclass_agree_at_the_boundary(tmp_path, key, value, accepted):
    settings = {k: v for k, v in CONTEXT.items() if k.split(".")[0] == key.split(".")[0]}
    settings[key] = value
    config_errors, library_error = _both(tmp_path, settings)
    if accepted:
        assert config_errors == [] and library_error is None
        return
    # one rule text: "<key> <text> (got v)" in config, "<field> <text>, got v" in the library
    assert len(config_errors) == 1, config_errors
    head, tail = f"{key} ", f" (got {value!r})"
    assert config_errors[0].startswith(head) and config_errors[0].endswith(tail)
    text = config_errors[0][len(head):-len(tail)]
    assert library_error == f"{OWNED[key][1]} {text}, got {value}"


@pytest.mark.parametrize("settings, message", [
    ({"embedding.n_min": 4, "embedding.n_max": 3}, "embedding.n_min must be <= embedding.n_max"),
    ({"embedding.n_min": 3, "embedding.n_max": 3}, None),
    ({"classifier.n_min": 4, "classifier.n_max": 3},
     "classifier.n_min must be <= classifier.n_max"),
    ({"classifier.n_min": 3, "classifier.n_max": 3}, None),
    ({"synth.doc_len_min": 40, "synth.doc_len_max": 39},
     "synth.doc_len_min must be <= synth.doc_len_max"),
    ({"synth.doc_len_min": 40, "synth.doc_len_max": 40}, None),
    ({"synth.vocab_size": 2000, "synth.signal_rank_start": 1960, "synth.signal_words": 41},
     "signal set synth.signal_rank_start + synth.signal_words must be <= synth.vocab_size"),
    ({"synth.vocab_size": 2000, "synth.signal_rank_start": 1960, "synth.signal_words": 40}, None),
])
def test_cross_rules_agree(tmp_path, settings, message):
    config_errors, library_error = _both(tmp_path, settings)
    if message is None:
        assert config_errors == [] and library_error is None
    else:
        assert config_errors == [message]
        assert library_error is not None and " must be <= " in library_error


def test_every_broken_cross_rule_listed(tmp_path):
    config_errors, _ = _both(tmp_path, {"synth.doc_len_min": 50, "synth.doc_len_max": 40,
                                        "synth.signal_rank_start": 1990})
    assert config_errors == [
        "synth.doc_len_min must be <= synth.doc_len_max",
        "signal set synth.signal_rank_start + synth.signal_words must be <= synth.vocab_size",
    ]


@pytest.mark.parametrize("key", [k for k, (cls, name, _, _) in OWNED.items()
                                 if isinstance(getattr(cls(), name), float)])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dataclass_rejects_non_finite_float(key, value):
    cls, name, _, _ = OWNED[key]
    with pytest.raises(ValueError, match=f"^{name} must "):
        cls(**{name: value})


@pytest.mark.parametrize("key, kind, raw", [
    ("synth.zipf_exponent", "float", "inf"),
    ("synth.signal_run_mean", "float", "inf"),
    ("synth.target_ratio", "float", "inf"),
    ("embedding.subsample_t", "float", "inf"),
    ("embedding.lr", "float", "inf"),
    ("embedding.lr", "float", "-inf"),
    ("synth.label_noise", "float", "nan"),
    ("synth.signal_lift", "float", "1e999"),
    ("sweep.fractions", "floats", "0.5,nan"),
])
def test_non_finite_float_exit_one(tmp_path, capsys, key, kind, raw):
    # a non-finite value would pass the ordered bounds and reach a stage
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"{key} = {raw}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {key}: cannot parse {raw!r} as {kind} "
                                "(not a finite number)"]
    assert not out.exists()

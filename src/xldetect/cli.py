"""Command-line pipeline: each stage consumes prior artifacts by path and
returns its (inputs, outputs); ``main`` times it and appends a manifest
line, so any stage can be re-run from its recorded config and seed.
Re-runs with the same config and seed are byte-identical. Every path a
config names, input or output, is ``Path(out_dir) / value``: a relative
path lies in the run directory and an absolute one stays as it is."""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import align as al
from . import baselines as bl
from . import classifier as clf
from . import corpus as cp
from . import curves as cv
from . import embedding as emb
from . import external as ext
from . import report as rp
from . import synth as sy
from .config import PipelineConfig, validate_config
from .errors import ConfigError, DataError, DependencyError, XLDetectError
from .vocab import SubwordIndex

logger = logging.getLogger(__name__)


def _input(cfg: PipelineConfig, key: str, produced_by: str) -> Path:
    if not cfg[key]:
        raise ConfigError([f"{key} must be set for this command"])
    path = Path(cfg.out_dir) / cfg[key]
    if not path.exists():
        raise DependencyError(f"missing artifact {str(path)!r}; run '{produced_by}' first")
    return path


def _out_path(cfg: PipelineConfig, key: str) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / cfg[key]


def _append_manifest(cfg, command, config_path, inputs, outputs, started):
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.tsv"
    line = "\t".join(
        [
            command,
            str(config_path),
            cfg.config_hash(),
            str(cfg.seed),
            ";".join(str(p) for p in inputs),
            ";".join(str(p) for p in outputs),
            f"{time.monotonic() - started:.3f}",
        ]
    )
    new = not manifest.exists()
    with open(manifest, "a", encoding="utf-8") as fh:
        if new:
            fh.write("command\tconfig\tconfig_hash\tseed\tinputs\toutputs\twall_s\n")
        fh.write(line + "\n")


def _base_report(cfg: PipelineConfig, command: str) -> rp.Report:
    report = rp.Report()
    run = report.section("run")
    run["command"] = command
    run["config_hash"] = cfg.config_hash()
    run["seed"] = str(cfg.seed)
    config = report.section("config")
    for line in cfg.effective_lines():
        key, _, value = line.partition("=")
        config[key] = value
    return report


def _trainer_config(cfg: PipelineConfig, section: str, cls, **extra):
    """The embedding or classifier section's trainer config, at the config seed."""
    subwords = cfg.build(section, SubwordIndex) if cfg[f"{section}.subwords"] else None
    return cfg.build(section, cls, subwords=subwords, seed=cfg.seed, **extra)


def _split_docs(cfg: PipelineConfig, docs):
    return cp.split(docs, cp.SplitSpec(cfg["split.train_fraction"], cfg.seed))


def cmd_ingest(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    posts_path = _input(cfg, "ingest.posts", "the data producer")
    status_path = _input(cfg, "ingest.statuses", "the data producer")
    result = cp.ingest_posts(posts_path)
    records = result.records
    if cfg["ingest.language"]:
        records = cp.filter_language(records, cfg["ingest.language"])
    statuses = cp.read_status_file(status_path)
    documents = cp.aggregate_by_account(records, statuses)
    out = _out_path(cfg, "ingest.out")
    cp.write_documents(documents, out)
    logger.info(
        "ingest: %d records (%d malformed lines) -> %d documents",
        len(result.records), result.malformed, len(documents),
    )
    return [posts_path, status_path], [out]


def cmd_train_embeddings(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    corpus_path = _input(cfg, "embedding.corpus", "ingest or synth")
    documents = cp.read_documents(corpus_path)
    sentences = [cp.tokenize(d.text) for d in documents]
    model = emb.train_skipgram(sentences, _trainer_config(cfg, "embedding", emb.SkipgramConfig))
    out_vectors = _out_path(cfg, "embedding.out_vectors")
    out_checkpoint = _out_path(cfg, "embedding.out_checkpoint")
    emb.save_vectors(model.to_table(), out_vectors)
    emb.save_checkpoint(model, out_checkpoint)
    logger.info("trained %d-dim vectors for %d words", model.dim, len(model.vocab))
    return [corpus_path], [out_vectors, out_checkpoint]


def cmd_align(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    src_path = _input(cfg, "align.source_vectors", "train-embeddings")
    tgt_path = _input(cfg, "align.target_vectors", "train-embeddings")
    dict_path = _input(cfg, "align.train_dict", "the dictionary producer")
    source = emb.load_vectors(src_path)
    target = emb.load_vectors(tgt_path)
    train_dict = al.load_dictionary(dict_path, role="train")
    eval_dict = None
    if cfg["align.eval_dict"]:
        eval_dict = al.load_dictionary(
            _input(cfg, "align.eval_dict", "the dictionary producer"), role="eval"
        )
    omap = al.refine(
        source, target, train_dict,
        iterations=cfg["align.iterations"],
        eval_dict=eval_dict,
        top_k_vocab=cfg["align.induce_top_k"],
        csls_k=cfg["align.csls_k"],
    )
    out_map = _out_path(cfg, "align.out_map")
    out_merged = _out_path(cfg, "align.out_merged")
    al.save_map(omap, out_map)
    emb.save_vectors(al.merge_tables(target, al.apply_map(omap, source)), out_merged)
    return [src_path, tgt_path, dict_path], [out_map, out_merged]


def cmd_train_classifier(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    docs_path = _input(cfg, "classifier.docs", "ingest or synth")
    documents = cp.read_documents(docs_path)
    train_docs, _ = _split_docs(cfg, documents)
    pretrained = None
    inputs = [docs_path]
    if cfg["classifier.pretrained"]:
        pre_path = _input(cfg, "classifier.pretrained", "align or train-embeddings")
        pretrained = emb.load_vectors(pre_path, expect_dim=cfg["classifier.dim"])
        inputs.append(pre_path)
    model = clf.train_supervised(
        train_docs, _trainer_config(cfg, "classifier", clf.SupervisedConfig, pretrained=pretrained))
    out_model = _out_path(cfg, "classifier.out_model")
    clf.save_classifier(model, out_model)
    logger.info(
        "trained classifier on %d documents; mean loss over the last epoch %.4f",
        len(train_docs), model.loss_history[-1],
    )
    return inputs, [out_model]


def cmd_evaluate(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    model_path = _input(cfg, "classifier.out_model", "train-classifier")
    docs_path = _input(cfg, "evaluate.docs", "ingest or synth")
    model = clf.load_classifier(model_path)
    documents = cp.read_documents(docs_path)
    _, test_docs = _split_docs(cfg, documents)
    metrics = cv.evaluate_classifier(model, test_docs)
    report = _base_report(cfg, "evaluate")
    report.sections["metrics.test"] = rp.metrics_section(metrics)
    report.section("data")["test_documents"] = str(len(test_docs))
    out = _out_path(cfg, "evaluate.out_report")
    rp.write_report(report, out)
    logger.info(
        "evaluate: f1=%.4f precision=%.4f recall=%.4f on %d documents",
        metrics.f1, metrics.precision, metrics.recall, len(test_docs),
    )
    return [model_path, docs_path], [out]


def _baseline_weights(kind, vocab, counts, token_docs):
    """Counts, or TFIDF for *_tfidf kinds; an empty document's length counts as 1."""
    if not kind.endswith("tfidf"):
        return counts
    return bl.tfidf_transform(counts, [max(1, len(toks)) for toks in token_docs], vocab)


def cmd_baseline(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    docs_path = _input(cfg, "baseline.docs", "ingest or synth")
    documents = cp.read_documents(docs_path)
    train_docs, test_docs = _split_docs(cfg, documents)
    train_tokens = [cp.tokenize(d.text) for d in train_docs]
    kind = cfg["baseline.kind"]
    n_lo, n_hi = ((1, 1) if kind.startswith("bow")
                  else (cfg["baseline.ngram_min"], cfg["baseline.ngram_max"]))
    vocab, counts = bl.count_features(train_tokens, n_lo, n_hi, cfg["baseline.max_features"])
    model = bl.train_logreg(
        _baseline_weights(kind, vocab, counts, train_tokens),
        [d.label for d in train_docs],
        config=cfg.build("baseline", bl.LogRegConfig),
    )
    test_tokens = [cp.tokenize(d.text) for d in test_docs]
    test_counts = bl.vectorize(vocab, test_tokens, n_lo, n_hi)
    preds, _ = bl.predict_logreg(model, _baseline_weights(kind, vocab, test_counts, test_tokens))
    metrics_report = cv.binary_metrics(
        cv.confusion(preds, [d.label for d in test_docs])
    )
    report = _base_report(cfg, "baseline")
    report.sections["metrics.test"] = rp.metrics_section(metrics_report)
    data = report.section("data")
    data["kind"] = kind
    data["features"] = str(len(vocab))
    data["train_documents"] = str(len(train_docs))
    data["test_documents"] = str(len(test_docs))
    out_report = _out_path(cfg, "baseline.out_report")
    out_features = _out_path(cfg, "baseline.out_features")
    rp.write_report(report, out_report)
    bl.save_feature_vocab(vocab, out_features)
    logger.info("baseline %s: f1=%.4f on %d test documents", kind, metrics_report.f1, len(test_docs))
    return [docs_path], [out_report, out_features]


def cmd_sweep(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    docs_path = _input(cfg, "sweep.docs", "ingest or synth")
    documents = cp.read_documents(docs_path)
    train_docs, test_docs = _split_docs(cfg, documents)
    kinds = cfg["sweep.kinds"]
    pretrained = None
    inputs = [docs_path]
    if "transfer" in kinds:
        pre_path = _input(cfg, "classifier.pretrained", "align")
        pretrained = emb.load_vectors(pre_path, expect_dim=cfg["classifier.dim"])
        inputs.append(pre_path)
    points = cv.learning_curve(
        train_docs,
        test_docs,
        fractions=cfg["sweep.fractions"],
        seeds=cfg["sweep.seeds"],
        kinds=kinds,
        config=_trainer_config(cfg, "classifier", clf.SupervisedConfig),
        pretrained=pretrained,
    )
    rows = [
        [repr(p.train_fraction), p.model_kind, str(p.seed),
         repr(p.metrics.precision), repr(p.metrics.recall), repr(p.metrics.f1)]
        for p in points
    ]
    columns = ["fraction", "kind", "seed", "precision", "recall", "f1"]
    means = cv.fraction_means(points)
    mean_rows = [
        [repr(fraction), kind, repr(stats["precision"]), repr(stats["recall"]),
         repr(stats["f1"]), str(int(stats["n"]))]
        for (fraction, kind), stats in means.items()
    ]
    report = _base_report(cfg, "sweep")
    data = report.section("data")
    data["train_documents"] = str(len(train_docs))
    data["test_documents"] = str(len(test_docs))
    report.add_table("curve", columns, rows)
    report.add_table(
        "curve_means", ["fraction", "kind", "precision", "recall", "f1", "n"], mean_rows
    )
    out_report = _out_path(cfg, "sweep.out_report")
    out_csv = _out_path(cfg, "sweep.out_csv")
    rp.write_report(report, out_report)
    with open(out_csv, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return inputs, [out_report, out_csv]


def cmd_export_vectors(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    model_path = _input(cfg, "classifier.out_model", "train-classifier")
    docs_path = _input(cfg, "export.docs", "ingest or synth")
    model = clf.load_classifier(model_path)
    documents = cp.read_documents(docs_path)
    if not documents:
        raise DataError(f"{docs_path}: no documents to export")
    ids = [d.account_id for d in documents]
    batch = model.doc_batch([cp.tokenize(d.text) for d in documents])
    matrix = clf.doc_vectors(model, batch).astype(np.float64)
    out = _out_path(cfg, "export.out")
    ext.save_external_features(ids, matrix, out)
    return [model_path, docs_path], [out]


def cmd_synth(cfg: PipelineConfig) -> tuple[list[Path], list[Path]]:
    sconfig = cfg.build("synth", sy.SyntheticConfig)
    data = sy.generate_synthetic_bilingual(sconfig, cfg.seed)
    out_source = _out_path(cfg, "synth.out_source")
    out_target = _out_path(cfg, "synth.out_target")
    out_dict = _out_path(cfg, "synth.out_dict")
    cp.write_documents(data.source_docs, out_source)
    cp.write_documents(data.target_docs, out_target)
    al.save_dictionary(al.BilingualDictionary(data.dictionary), out_dict)
    logger.info(
        "synth: %d source / %d target documents, vocabulary %d",
        len(data.source_docs), len(data.target_docs), sconfig.vocab_size,
    )
    return [], [out_source, out_target, out_dict]


_COMMANDS = {
    "ingest": cmd_ingest,
    "train-embeddings": cmd_train_embeddings,
    "align": cmd_align,
    "train-classifier": cmd_train_classifier,
    "baseline": cmd_baseline,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "export-vectors": cmd_export_vectors,
    "synth": cmd_synth,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xldetect",
        description="Cross-lingual suspended-account detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="pipeline config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    try:
        cfg = validate_config(args.config, overrides)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    started = time.monotonic()
    try:
        inputs, outputs = _COMMANDS[args.command](cfg)
        _append_manifest(cfg, args.command, args.config, inputs, outputs, started)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except XLDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    for out in outputs:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: each stage reads and writes its artifacts
through a ``_Run``, the one place that resolves a config key to its path,
checks that an input exists, and records every path in the order the
stage opened it. ``main`` appends the run's inputs and outputs, with its
wall time, as a manifest line, so any stage can be re-run from its
recorded config and seed. Re-runs with the same config and seed are
byte-identical. Every path a config names, input or output, is
``Path(out_dir) / value``: a relative path lies in the run directory and
an absolute one stays as it is."""

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
from .errors import AlignmentError, ConfigError, DataError, DependencyError, XLDetectError
from .metrics import SCORES, evaluate
from .vocab import SubwordIndex

logger = logging.getLogger(__name__)


class _Run:
    """One stage run: the artifact paths it read and wrote, in order, and
    the clock of its manifest line."""

    def __init__(self, cfg: PipelineConfig, command: str):
        self.cfg = cfg
        self.command = command
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.started = time.monotonic()

    def input(self, key: str, produced_by: str) -> Path:
        if not self.cfg[key]:
            raise ConfigError([f"{key} must be set for this command"])
        path = Path(self.cfg.out_dir) / self.cfg[key]
        if not path.exists():
            raise DependencyError(f"missing artifact {str(path)!r}; run '{produced_by}' first")
        self.inputs.append(path)
        return path

    def output(self, key: str) -> Path:
        out_dir = Path(self.cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(out_dir / self.cfg[key])
        return self.outputs[-1]

    def documents(self, key: str) -> list[cp.AccountDocument]:
        return cp.read_documents(self.input(key, "ingest or synth"))

    def split(self, key: str):
        """(train, test) of the documents at key, by split.train_fraction at the config seed."""
        spec = self.cfg.build("split", cp.SplitSpec, seed=self.cfg.seed)
        return cp.split(self.documents(key), spec)

    def pretrained(self, produced_by: str) -> emb.VectorTable:
        return emb.load_vectors(self.input("classifier.pretrained", produced_by),
                                expect_dim=self.cfg["classifier.dim"])

    def classifier(self) -> clf.TextClassifier:
        return clf.load_classifier(self.input("classifier.out_model", "train-classifier"))

    def report(self) -> rp.Report:
        report = rp.Report()
        report.sections["run"] = {"command": self.command, "config_hash": self.cfg.config_hash(),
                                  "seed": str(self.cfg.seed)}
        report.sections["config"] = dict(line.split("=", 1) for line in self.cfg.effective_lines())
        return report

    def append_manifest(self, config_path: str) -> None:
        manifest = Path(self.cfg.out_dir) / "manifest.tsv"
        line = "\t".join(
            [
                self.command,
                str(config_path),
                self.cfg.config_hash(),
                str(self.cfg.seed),
                ";".join(str(p) for p in self.inputs),
                ";".join(str(p) for p in self.outputs),
                f"{time.monotonic() - self.started:.3f}",
            ]
        )
        new = not manifest.exists()
        with open(manifest, "a", encoding="utf-8") as fh:
            if new:
                fh.write("command\tconfig\tconfig_hash\tseed\tinputs\toutputs\twall_s\n")
            fh.write(line + "\n")


def _trainer_config(cfg: PipelineConfig, section: str, cls, **extra):
    """The embedding or classifier section's trainer config, at the config seed."""
    subwords = cfg.build(section, SubwordIndex) if cfg[f"{section}.subwords"] else None
    return cfg.build(section, cls, subwords=subwords, seed=cfg.seed, **extra)


def cmd_ingest(run: _Run) -> None:
    result = cp.ingest_posts(run.input("ingest.posts", "the data producer"))
    records = result.records
    if run.cfg["ingest.language"]:
        records = cp.filter_language(records, run.cfg["ingest.language"])
    statuses = cp.read_status_file(run.input("ingest.statuses", "the data producer"))
    documents = cp.aggregate_by_account(records, statuses)
    cp.write_documents(documents, run.output("ingest.out"))
    logger.info(
        "ingest: %d records (%d malformed lines) -> %d documents",
        len(result.records), result.malformed, len(documents),
    )


def cmd_train_embeddings(run: _Run) -> None:
    documents = run.documents("embedding.corpus")
    sentences = [cp.tokenize(d.text) for d in documents]
    model = emb.train_skipgram(sentences, _trainer_config(run.cfg, "embedding", emb.SkipgramConfig))
    emb.save_vectors(model.to_table(), run.output("embedding.out_vectors"))
    emb.save_checkpoint(model, run.output("embedding.out_checkpoint"))
    logger.info("trained %d-dim vectors for %d words", model.dim, len(model.vocab))


def cmd_align(run: _Run) -> None:
    cfg = run.cfg
    source_path = run.input("align.source_vectors", "train-embeddings")
    target_path = run.input("align.target_vectors", "train-embeddings")
    source, target = emb.load_vectors(source_path), emb.load_vectors(target_path)
    if source.dim != target.dim:
        raise AlignmentError(f"cannot align {source_path} (dim {source.dim}) with "
                             f"{target_path} (dim {target.dim}): the dims differ")
    train_dict = al.load_dictionary(
        run.input("align.train_dict", "the dictionary producer"), role="train")
    eval_dict = None
    if cfg["align.eval_dict"]:
        eval_dict = al.load_dictionary(
            run.input("align.eval_dict", "the dictionary producer"), role="eval")
    omap = al.refine(
        source, target, train_dict,
        iterations=cfg["align.iterations"],
        eval_dict=eval_dict,
        top_k_vocab=cfg["align.induce_top_k"],
        csls_k=cfg["align.csls_k"],
    )
    al.save_map(omap, run.output("align.out_map"))
    emb.save_vectors(al.merge_tables(target, al.apply_map(omap, source)),
                     run.output("align.out_merged"))


def cmd_train_classifier(run: _Run) -> None:
    cfg = run.cfg
    train_docs, _ = run.split("classifier.docs")
    pretrained = None
    if cfg["classifier.pretrained"]:
        pretrained = run.pretrained("align or train-embeddings")
    model = clf.train_supervised(
        train_docs, _trainer_config(cfg, "classifier", clf.SupervisedConfig, pretrained=pretrained))
    clf.save_classifier(model, run.output("classifier.out_model"))
    logger.info(
        "trained classifier on %d documents; mean loss over the last epoch %.4f",
        len(train_docs), model.loss_history[-1],
    )


def cmd_evaluate(run: _Run) -> None:
    model = run.classifier()
    _, test_docs = run.split("evaluate.docs")
    metrics = cv.evaluate_classifier(model, test_docs)
    report = run.report()
    report.sections["metrics.test"] = rp.metrics_section(metrics)
    report.sections["data"] = {"test_documents": str(len(test_docs))}
    rp.write_report(report, run.output("evaluate.out_report"))
    logger.info(
        "evaluate: f1=%.4f precision=%.4f recall=%.4f on %d documents",
        metrics.f1, metrics.precision, metrics.recall, len(test_docs),
    )


def _baseline_weights(kind, vocab, counts, token_docs):
    """Counts, or TFIDF for *_tfidf kinds; an empty document's length counts as 1."""
    if not kind.endswith("tfidf"):
        return counts
    return bl.tfidf_transform(counts, [max(1, len(toks)) for toks in token_docs], vocab)


def cmd_baseline(run: _Run) -> None:
    cfg = run.cfg
    train_docs, test_docs = run.split("evaluate.docs")
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
    probs = bl.predict_logreg(model, _baseline_weights(kind, vocab, test_counts, test_tokens))
    metrics_report = evaluate(probs, [d.label for d in test_docs])
    report = run.report()
    report.sections["metrics.test"] = rp.metrics_section(metrics_report)
    report.sections["data"] = {"kind": kind, "features": str(len(vocab)),
                               "train_documents": str(len(train_docs)),
                               "test_documents": str(len(test_docs))}
    rp.write_report(report, run.output("baseline.out_report"))
    bl.save_feature_vocab(vocab, run.output("baseline.out_features"))
    logger.info("baseline %s: f1=%.4f on %d test documents", kind, metrics_report.f1, len(test_docs))


def cmd_sweep(run: _Run) -> None:
    cfg = run.cfg
    train_docs, test_docs = run.split("evaluate.docs")
    kinds = cfg["sweep.kinds"]
    points = cv.learning_curve(
        train_docs,
        test_docs,
        fractions=cfg["sweep.fractions"],
        seeds=cfg["sweep.seeds"],
        kinds=kinds,
        config=_trainer_config(cfg, "classifier", clf.SupervisedConfig),
        pretrained=run.pretrained("align") if "transfer" in kinds else None,
    )
    report = run.report()
    report.sections["data"] = {"train_documents": str(len(train_docs)),
                               "test_documents": str(len(test_docs))}
    report.add_table("curve", ["fraction", "kind", "seed", *SCORES], [
        [repr(p.train_fraction), p.model_kind, str(p.seed),
         *(repr(getattr(p.metrics, score)) for score in SCORES)]
        for p in points
    ])
    report.add_table("curve_means", ["fraction", "kind", *SCORES, "n"], [
        [repr(fraction), kind, *(repr(stats[score]) for score in SCORES), str(int(stats["n"]))]
        for (fraction, kind), stats in cv.fraction_means(points).items()
    ])
    rp.write_report(report, run.output("sweep.out_report"))
    with open(run.output("sweep.out_csv"), "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in report.tables["curve"].lines())


def cmd_export_vectors(run: _Run) -> None:
    model = run.classifier()
    documents = run.documents("export.docs")
    if not documents:
        raise DataError(f"{run.inputs[-1]}: no documents to export")
    ids = [d.account_id for d in documents]
    batch = model.doc_batch([cp.tokenize(d.text) for d in documents])
    matrix = clf.doc_vectors(model, batch).astype(np.float64)
    ext.save_external_features(ids, matrix, run.output("export.out"))


def cmd_synth(run: _Run) -> None:
    sconfig = run.cfg.build("synth", sy.SyntheticConfig)
    data = sy.generate_synthetic_bilingual(sconfig, run.cfg.seed)
    cp.write_documents(data.source_docs, run.output("synth.out_source"))
    cp.write_documents(data.target_docs, run.output("synth.out_target"))
    al.save_dictionary(al.BilingualDictionary(data.dictionary), run.output("synth.out_dict"))
    logger.info(
        "synth: %d source / %d target documents, vocabulary %d",
        len(data.source_docs), len(data.target_docs), sconfig.vocab_size,
    )


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
        # the run, and with it the manifest's wall time, starts after validation
        run = _Run(validate_config(args.config, overrides), args.command)
        _COMMANDS[args.command](run)
        run.append_manifest(args.config)
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
    for out in run.outputs:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's two workloads, each a closed loop with one caller.

Every workload builds its inputs from the seed in a set-up phase that
runs ``SETUP_REPS`` times into fresh directories (the median is the
set-up time, the last copy feeds the timed phase), then runs its timed
phase and checks the outputs. ``twin-pipeline`` runs one fixed pass;
``subword-scoring`` repeats an identical pass while the next one fits in
the run's ``--seconds`` and reports the median pass. With a tracer, spans
are recorded around the calls into xldetect and the layer probes run
after the timed phase.

The sizes keep one run of every workload, traced or not, well inside the
harness budget on a 2-core machine whose speed drifts by up to 1.7x: the
demo pipeline alone takes 45-80 s there.

- ``twin-pipeline``: the ``configs/demo.cfg`` stage sequence through
  ``xldetect.cli``, as a user runs the paper's experiment. ``synth`` is
  set-up; the other eight stages are timed.
- ``subword-scoring``: a classifier with the default fastText subword
  table is trained, then scores a stream of unseen code-switched
  accounts one ``predict`` at a time; the pass repeats.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from xldetect import align as al
from xldetect import baselines as bl
from xldetect import classifier as clf
from xldetect import cli
from xldetect import corpus as cp
from xldetect import curves as cv
from xldetect import embedding as emb
from xldetect import external as ext
from xldetect import report as rp
from xldetect import synth as sy
from xldetect import vocab as vb
from xldetect.config import validate_config
from xldetect.errors import FormatError

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3

DEMO = ROOT / "configs" / "demo.cfg"
DEMO_TARGET = ROOT / "configs" / "demo-target-embeddings.cfg"
# (label, cli command, config) in demo.cfg's stage order, after synth
TWIN_STAGES = (
    ("train-embeddings-source", "train-embeddings", DEMO),
    ("train-embeddings-target", "train-embeddings", DEMO_TARGET),
    ("align", "align", DEMO),
    ("train-classifier", "train-classifier", DEMO),
    ("evaluate", "evaluate", DEMO),
    ("sweep", "sweep", DEMO),
    ("baseline", "baseline", DEMO),
    ("export-vectors", "export-vectors", DEMO),
)
TWIN_REPORTS = ("eval_report.txt", "sweep_report.txt", "baseline_report.txt")
# re-run after the timed phase with the same seed; their artifacts must
# come out byte-identical (the full pipeline is too long to run twice)
TWIN_RERUN = ("train-classifier", "evaluate", "baseline")
TWIN_RERUN_ARTIFACTS = ("classifier.bin", "eval_report.txt", "baseline_report.txt")
# manifest wall_s starts inside the stage command; the benchmark's own
# timing adds argument parsing and config validation around it
MANIFEST_SLACK_S = 0.05
MANIFEST_SLACK_SHARE = 0.02

# subword-scoring: default SubwordIndex (n 3-6, 2M buckets) and dim 100.
# One pass trains and scores the stream; passes repeat while the next
# one fits in --seconds, and at least SCORE_MIN_PASSES run.
SCORE_VOCAB = 20000
SCORE_TRAIN_DOCS = 1000
SCORE_STREAM_DOCS = 1500
SCORE_EPOCHS = 3
SCORE_CODE_SWITCH = 0.3
SCORE_MIN_PASSES = 3


@dataclass
class Outcome:
    setup_s: float
    run_s: float
    # wall time of each timed pass when there are several; run_s is their
    # median and the tracer's timed spans cover all of them
    pass_s: list[float] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return max(1, len(self.pass_s))

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks.append((name, bool(ok), str(detail)))


# ---------------------------------------------------------------------------
# tracing hooks


def _file_bytes(position):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[position])}


def _skipgram_tokens(args, kwargs, result):
    corpus, config = args[0], args[1]
    known = result.vocab.word_to_id
    return {"tokens": config.epochs * sum(1 for s in corpus for t in s if t in known)}


def _doc_steps(args, kwargs, result):
    return {"doc_steps": len(args[0]) * args[1].epochs}


# (module, attribute, span name, counts) for every public function that the
# benchmark or another xldetect module calls through a module attribute
SPAN_POINTS = (
    (sy, "generate_synthetic_bilingual", "synth.generate", None),
    (cp, "read_documents", "corpus.read_documents", None),
    (cp, "write_documents", "corpus.write_documents", None),
    (cp, "tokenize", "corpus.tokenize", None),
    (cv, "tokenize", "corpus.tokenize", None),
    (emb, "train_skipgram", "embedding.train", _skipgram_tokens),
    (emb, "save_vectors", "embedding.save_vectors", _file_bytes(1)),
    (emb, "load_vectors", "embedding.load_vectors", _file_bytes(0)),
    (emb, "save_checkpoint", "embedding.save_checkpoint", None),
    (al, "load_dictionary", "align.load_dictionary", None),
    (al, "save_dictionary", "align.save_dictionary", None),
    (al, "refine", "align.refine", None),
    (al, "evaluate_translation", "align.evaluate", None),
    (al, "apply_map", "align.apply_map", None),
    (al, "merge_tables", "align.merge_tables", None),
    (al, "save_map", "align.save_map", None),
    (clf, "train_supervised", "classifier.train", _doc_steps),
    (cv, "train_supervised", "classifier.train", _doc_steps),
    (clf, "predict", "classifier.predict", None),
    (cv, "predict", "classifier.predict", None),
    (clf, "doc_embedding", "classifier.doc_embedding", None),
    (clf, "save_classifier", "classifier.save", None),
    (clf, "load_classifier", "classifier.load", None),
    (cv, "learning_curve", "curves.sweep", lambda a, k, r: {"cells": len(r)}),
    (cv, "evaluate_classifier", "curves.evaluate", None),
    (bl, "count_features", "baselines.count_features", None),
    (bl, "train_logreg", "baselines.fit", None),
    (bl, "predict_logreg", "baselines.predict", None),
    (bl, "save_feature_vocab", "baselines.save_features", None),
    (rp, "write_report", "report.write", None),
    (ext, "save_external_features", "external.save_features", None),
)


def install_spans(tracer) -> None:
    for module, attr, name, count in SPAN_POINTS:
        tracer.wrap(module, attr, name, count)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _set_run(tracer, run: str) -> None:
    if tracer is not None:
        tracer.run = run


def _repeat_setup(work: Path, make) -> tuple[float, Path, list]:
    """Run make(dir) SETUP_REPS times into fresh directories; returns the
    median time, the last directory and each repetition's result."""
    times, results, prev = [], [], None
    for rep in range(SETUP_REPS):
        target = work / f"setup{rep}"
        target.mkdir(parents=True)
        start = time.perf_counter()
        results.append(make(target))
        times.append(time.perf_counter() - start)
        if prev is not None:
            shutil.rmtree(prev)
        prev = target
    return statistics.median(times), prev, results


def _align_probes(tracer, source, target, seed_dict, top_k, csls_k):
    """Time procrustes and induce_dictionary once each, on the seed
    dictionary, outside refine (which calls them internally), and
    evaluate the fitted map on that dictionary."""
    kept, _ = seed_dict.filtered(source, target)
    x = source.vectors[[source.word_to_id[s] for s, _ in kept.pairs]]
    y = target.vectors[[target.word_to_id[t] for _, t in kept.pairs]]
    with tracer.span("align.procrustes"):
        omap = al.procrustes(x, y)
    mapped = al.apply_map(omap, source)
    with tracer.span("align.induce") as sp:
        induced = al.induce_dictionary(mapped, target, top_k, csls_k)
    sp.counts.update(pairs=len(induced), top_k=min(top_k, len(source), len(target)))
    al.evaluate_translation(omap, source, target, seed_dict, k=1, csls_k=csls_k)


def _input_ids_probe(tracer, token_docs, model) -> None:
    words = [tok for toks in token_docs for tok in toks]
    with tracer.span("vocab.input_ids") as sp:
        for word in words:
            vb.input_ids(word, model.vocab, model.subwords)
    sp.counts["words"] = len(words)


# ---------------------------------------------------------------------------
# twin-pipeline


def _cli_stage(command: str, config: Path, seed: int, cwd: Path):
    """Run one stage in cwd; returns (exit status or error text, seconds)."""
    argv = [command, "--config", str(config), "--seed", str(seed)]
    prev = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = f"exit {exc.code}"
            except Exception as exc:  # a crashing stage is a failed operation
                status = f"{type(exc).__name__}: {exc}"
            return status, time.perf_counter() - start
    finally:
        os.chdir(prev)


def _transfer_gap(sweep_report: Path) -> tuple[float, float]:
    rows = rp.read_report(sweep_report).tables["curve_means"].rows
    f1 = {(r[0], r[1]): float(r[4]) for r in rows}
    return f1[("0.1", "transfer")], f1[("0.1", "monolingual")]


def twin_pipeline(seed: int, work: Path, tracer, seconds: int) -> Outcome:
    # a fixed pass: the demo pipeline alone is longer than --seconds
    def synth(directory: Path):
        with _span(tracer, "stage.synth"):
            return _cli_stage("synth", DEMO, seed, directory)

    setup_s, cwd, synth_runs = _repeat_setup(work, synth)
    out_dir = cwd / "demo_out"
    outcome = Outcome(setup_s, 0.0)
    for rep, (status, _) in enumerate(synth_runs):
        outcome.check(f"synth repetition {rep} exits 0", status == 0, status)
    times = {"synth": synth_runs[-1][1]}
    statuses = {}

    _set_run(tracer, "timed")
    start = time.perf_counter()
    with _span(tracer, "bench.run"):
        for label, command, config in TWIN_STAGES:
            with _span(tracer, f"stage.{label}"):
                statuses[label], times[label] = _cli_stage(command, config, seed, cwd)
    outcome.run_s = time.perf_counter() - start
    _set_run(tracer, "check")

    for label, status in statuses.items():
        outcome.check(f"stage {label} exits 0", status == 0, status)
    for name in TWIN_REPORTS:
        try:
            text = (out_dir / name).read_bytes().decode("utf-8")
            same, detail = rp.serialize_report(rp.parse_report(text)) == text, ""
        except (OSError, ValueError, FormatError) as exc:
            same, detail = False, exc
        outcome.check(f"{name} survives parse/serialize byte for byte", same, detail)
    try:
        transfer, mono = _transfer_gap(out_dir / "sweep_report.txt")
        outcome.check("transfer F1 > monolingual F1 at fraction 0.1", transfer > mono,
                      f"{transfer:.4f} vs {mono:.4f}")
    except (OSError, KeyError, ValueError, FormatError) as exc:
        outcome.check("transfer F1 > monolingual F1 at fraction 0.1", False, exc)
    gap = _check_manifest(outcome, out_dir / "manifest.tsv", times)
    outcome.stats["stage.manifest_gap_max_s"] = gap
    outcome.stats.update({f"stage.{label}_s": t for label, t in times.items()})
    _check_rerun(outcome, seed, cwd, out_dir)

    if tracer is not None:
        _set_run(tracer, "probe")
        _twin_probes(tracer, seed, out_dir)
    return outcome


def _check_rerun(outcome: Outcome, seed: int, cwd: Path, out_dir: Path) -> None:
    before = {}
    for name in TWIN_RERUN_ARTIFACTS:
        path = out_dir / name
        before[name] = path.read_bytes() if path.is_file() else None
    for command in TWIN_RERUN:
        status, _ = _cli_stage(command, DEMO, seed, cwd)
        outcome.check(f"same-seed re-run of {command} exits 0", status == 0, status)
    for name, data in before.items():
        path = out_dir / name
        same = data is not None and path.is_file() and path.read_bytes() == data
        outcome.check(f"same-seed re-run reproduces {name} byte for byte", same)


def _check_manifest(outcome: Outcome, manifest: Path, times: dict) -> float:
    """Each manifest wall_s must sit just inside the benchmark's own timing
    of the same stage; returns the largest gap."""
    labels = ["synth"] + [label for label, _, _ in TWIN_STAGES]
    try:
        rows = [line.split("\t") for line in manifest.read_text("utf-8").splitlines()[1:]]
    except OSError as exc:
        outcome.check("manifest.tsv matches stage timings", False, exc)
        return 0.0
    if len(rows) != len(labels):
        outcome.check("manifest.tsv matches stage timings", False,
                      f"{len(rows)} rows for {len(labels)} stages")
        return 0.0
    gaps, bad = [], []
    for label, row in zip(labels, rows):
        gap = times[label] - float(row[-1])
        gaps.append(gap)
        if not -0.001 <= gap <= MANIFEST_SLACK_S + MANIFEST_SLACK_SHARE * times[label]:
            bad.append(f"{label}: measured {times[label]:.3f}s, manifest {row[-1]}s")
    outcome.check("manifest.tsv matches stage timings", not bad, "; ".join(bad))
    return max(gaps)


def _twin_probes(tracer, seed: int, out_dir: Path) -> None:
    cfg = validate_config(DEMO, {"seed": seed})
    source = emb.load_vectors(out_dir / "vectors.txt")
    target = emb.load_vectors(out_dir / "target_vectors.txt")
    dictionary = al.load_dictionary(out_dir / "dictionary.txt")
    _align_probes(tracer, source, target, dictionary, cfg["align.induce_top_k"],
                  cfg["align.csls_k"])

    documents = cp.read_documents(out_dir / "target_documents.tsv")
    train_docs, test_docs = cp.split(
        documents, cp.SplitSpec(cfg["split.train_fraction"], seed)
    )
    subwords = None
    if cfg["classifier.subwords"]:
        subwords = vb.SubwordIndex(cfg["classifier.n_min"], cfg["classifier.n_max"],
                                   cfg["classifier.buckets"])
    config = clf.SupervisedConfig(
        dim=cfg["classifier.dim"], epochs=0, initial_lr=cfg["classifier.lr"],
        min_count=cfg["classifier.min_count"], word_ngrams=cfg["classifier.word_ngrams"],
        subwords=subwords,
        pretrained=emb.load_vectors(out_dir / "aligned_vectors.txt"),
        seed=seed,
    )
    with tracer.span("classifier.init"):
        clf.train_supervised(train_docs, config)
    model = clf.load_classifier(out_dir / "classifier.bin")
    _input_ids_probe(tracer, [cp.tokenize(d.text) for d in test_docs], model)


# ---------------------------------------------------------------------------
# subword-scoring


def _score_inputs(seed: int, directory: Path) -> None:
    """Code-switched target-language accounts over a large vocabulary, so
    many stream tokens are unseen in training and compose from buckets."""
    n_target = SCORE_TRAIN_DOCS + SCORE_STREAM_DOCS
    config = sy.SyntheticConfig(
        vocab_size=SCORE_VOCAB,
        n_source_docs=n_target // 100,
        target_ratio=0.01,
        code_switch_rate=SCORE_CODE_SWITCH,
    )
    docs = sy.generate_synthetic_bilingual(config, seed).target_docs
    cp.write_documents(docs[:SCORE_TRAIN_DOCS], directory / "train.tsv")
    cp.write_documents(docs[SCORE_TRAIN_DOCS:], directory / "stream.tsv")


def _score_stream(stream, model):
    """Closed loop over the stream: tokenize and predict one account at a
    time. Returns labels, per-account latencies, total seconds and the
    number of class distributions that do not sum to 1."""
    labels = np.empty(len(stream), dtype=np.int64)
    latency = np.empty(len(stream))
    off_simplex = 0
    start = time.perf_counter()
    for i, doc in enumerate(stream):
        t0 = time.perf_counter()
        labels[i], probs = clf.predict(cp.tokenize(doc.text), model)
        latency[i] = time.perf_counter() - t0
        off_simplex += not abs(probs.sum() - 1.0) < 1e-9
    return labels, latency, time.perf_counter() - start, off_simplex


def subword_scoring(seed: int, work: Path, tracer, seconds: int) -> Outcome:
    setup_s, cwd, _ = _repeat_setup(work, lambda d: _score_inputs(seed, d))
    outcome = Outcome(setup_s, 0.0)
    config = clf.SupervisedConfig(epochs=SCORE_EPOCHS, seed=seed)

    # every pass trains the same model and scores the same stream, so the
    # passes do identical work and must predict identical labels
    walls, passes = [], []
    _set_run(tracer, "timed")
    start = time.perf_counter()
    while len(walls) < SCORE_MIN_PASSES or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        model = None  # free the previous 2M-row table before the next is allocated
        t0 = time.perf_counter()
        with _span(tracer, "bench.run"):
            train_docs = cp.read_documents(cwd / "train.tsv")
            model = clf.train_supervised(train_docs, config)
            stream = cp.read_documents(cwd / "stream.tsv")
            passes.append(_score_stream(stream, model))
        walls.append(time.perf_counter() - t0)
    outcome.run_s = statistics.median(walls)
    outcome.pass_s = walls
    _set_run(tracer, "check")

    labels, truth = passes[0][0], np.asarray([d.label for d in stream])
    tp = int(((labels == 1) & (truth == 1)).sum())
    f1 = 2 * tp / max(1, int((labels == 1).sum()) + int((truth == 1).sum()))
    # flagging every account scores F1 = 2p / (1 + p) at positive share p
    trivial = 2 * truth.mean() / (1 + truth.mean())
    outcome.check("stream F1 beats flagging every account", f1 > trivial,
                  f"F1 = {f1:.4f}, all-positive F1 = {trivial:.4f}")
    differing = sum(not np.array_equal(p[0], labels) for p in passes[1:])
    outcome.check(f"all {len(passes)} passes predict identical labels", differing == 0,
                  f"{differing} passes differ")
    off_simplex = sum(p[3] for p in passes)
    outcome.check("every class distribution sums to 1", off_simplex == 0, off_simplex)
    if tracer is not None:
        # latencies are reported from an untraced pass over the same stream
        traced_labels = passes[-1][0]
        with tracer.suspended():
            passes = [_score_stream(stream, model)]
        outcome.check("traced and untraced scoring predict identical labels",
                      np.array_equal(passes[0][0], traced_labels))
    latency = np.concatenate([p[1] for p in passes])
    tokens = [cp.tokenize(doc.text) for doc in stream]
    n_tokens = sum(len(t) for t in tokens)
    oov = sum(1 for toks in tokens for t in toks if t not in model.vocab.word_to_id)
    outcome.stats.update({
        "score.docs_per_s": len(latency) / sum(p[2] for p in passes),
        "score.latency_p50_ms": 1e3 * float(np.percentile(latency, 50)),
        "score.latency_p99_ms": 1e3 * float(np.percentile(latency, 99)),
        "score.samples": float(len(latency)),
        "score.oov_token_share": oov / n_tokens,
    })

    if tracer is not None:
        _set_run(tracer, "probe")
        _input_ids_probe(tracer, tokens, model)
        del model  # the probe below allocates a second 2M-bucket table
        with tracer.span("classifier.init"):
            clf.train_supervised(train_docs, replace(config, epochs=0))
    return outcome


WORKLOADS = {
    "twin-pipeline": twin_pipeline,
    "subword-scoring": subword_scoring,
}

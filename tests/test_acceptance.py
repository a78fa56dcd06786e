"""Acceptance suite: one test per criterion, each printing a verdict line.

Heavy end-to-end experiments (criteria 7 and 8) run with frozen seeds, so
their outcomes are exactly reproducible.
"""

import math
import time

import numpy as np

from xldetect.align import (
    BilingualDictionary,
    apply_map,
    evaluate_translation,
    merge_tables,
    procrustes,
    refine,
)
from xldetect.baselines import (
    LogRegConfig,
    SparseRows,
    count_features,
    extract_ngrams,
    tfidf_transform,
    train_logreg,
)
from xldetect.classifier import SupervisedConfig, _sgd_step, train_supervised
from xldetect.cli import main as cli_main
from xldetect.corpus import SplitSpec, split, subsample_train, tokenize
from xldetect.curves import fraction_means, learning_curve
from xldetect.embedding import (
    SkipgramConfig,
    VectorTable,
    _WordRows,
    _sentence_step,
    load_checkpoint,
    load_vectors,
    save_checkpoint,
    save_vectors,
    train_skipgram,
)
from xldetect.metrics import binary_metrics, confusion, f1_from_pr
from xldetect.report import Report, parse_report, serialize_report
from xldetect.synth import SyntheticConfig, generate_synthetic_bilingual
from xldetect.vocab import SubwordIndex, subword_ids_csr


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def test_criterion_01_procrustes_exact_recovery():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    d, n = 100, 500
    q = random_orthogonal(d, rng)
    x = rng.standard_normal((n, d))
    y = x @ q.T
    w = procrustes(x, y).w
    recovery = np.linalg.norm(w - q)
    orth = np.abs(w.T @ w - np.eye(d)).max()
    elapsed = time.monotonic() - started
    verdict(
        1,
        recovery <= 1e-8 and orth <= 1e-6 and elapsed < 5.0,
        f"procrustes recovery |W-Q|_F={recovery:.2e} orth={orth:.2e} in {elapsed:.2f}s",
    )


def test_criterion_02_svd_correctness():
    # procrustes(I, m.T) fits to the cross-covariance m itself, so W must be
    # the orthogonal polar factor of m: W'm symmetric positive semidefinite
    started = time.monotonic()
    rng = np.random.default_rng(7)
    sizes = list(rng.integers(2, 41, size=150)) + list(rng.integers(41, 91, size=44)) + [
        95, 97, 99, 100, 100, 100,
    ]
    assert len(sizes) == 200
    worst_resid = worst_orth = worst_polar = 0.0
    for d in sizes:
        d = int(d)
        scale = float(np.exp(rng.uniform(-3, 3)))
        m = rng.standard_normal((d, d)) * scale
        w = procrustes(np.eye(d), m.T).w
        p = w.T @ m
        norm = max(1.0, np.linalg.norm(m))
        resid = np.linalg.norm(w @ p - m) / norm
        orth = np.abs(w.T @ w - np.eye(d)).max()
        asym = np.abs(p - p.T).max() / norm
        negative = max(0.0, -np.linalg.eigvalsh((p + p.T) / 2).min()) / norm
        worst_resid = max(worst_resid, resid)
        worst_orth = max(worst_orth, orth)
        worst_polar = max(worst_polar, asym, negative)
    elapsed = time.monotonic() - started
    verdict(
        2,
        worst_resid <= 1e-8 and worst_orth <= 1e-8 and worst_polar <= 1e-8
        and elapsed < 30.0,
        f"procrustes svd on 200 matrices: worst residual={worst_resid:.2e} "
        f"worst orthogonality={worst_orth:.2e} worst polar={worst_polar:.2e} "
        f"in {elapsed:.1f}s",
    )


def _step_grad_error(loss, params, step, lr=0.5, eps=1e-6) -> float:
    """Worst relative gap between -delta/lr of one SGD step and central
    differences of loss() over every entry of params. On 64-bit tables the
    step is linear in lr at the pre-step parameters, so -delta/lr is the
    step's analytic gradient."""
    updated = [p.copy() for p in params]
    step(*updated, lr)
    worst = 0.0
    for p, new in zip(params, updated):
        analytic = (p - new) / lr
        for idx in np.ndindex(p.shape):
            saved = p[idx]
            p[idx] = saved + eps
            lp = loss()
            p[idx] = saved - eps
            lm = loss()
            p[idx] = saved
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - analytic[idx]) / max(1.0, abs(fd)))
    return worst


def _classifier_grad_error(rng) -> float:
    """One batched step over 1-3 cells, one document each. A document's
    tokens may repeat a row, merged into a multiplicity as doc_batch does,
    and a shorter document's padding slots read the zero row and write the
    sink row, the table's last two."""
    dim = int(rng.integers(3, 7))
    n_cells = int(rng.integers(1, 4))
    sizes = rng.integers(2, 5, size=n_cells)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    table = np.concatenate([rng.standard_normal((offsets[-1], dim)), np.zeros((2, dim))])
    zero, sink = len(table) - 2, len(table) - 1
    weights = rng.standard_normal((n_cells, 2, dim))
    docs = [np.unique(offsets[c] + rng.integers(0, sizes[c], size=int(rng.integers(1, 5))),
                      return_counts=True) for c in range(n_cells)]
    width = max(len(doc_ids) for doc_ids, _ in docs)
    ids, write = np.full((n_cells, width), zero), np.full((n_cells, width), sink)
    share = np.zeros((n_cells, width))
    for c, (doc_ids, counts) in enumerate(docs):
        ids[c, : len(doc_ids)] = write[c, : len(doc_ids)] = doc_ids
        share[c, : len(doc_ids)] = counts / counts.sum()
    cells, labels = np.arange(n_cells), rng.integers(0, 2, size=n_cells)

    def loss():
        total = 0.0
        for c in cells:
            z = weights[c] @ (share[c] @ table[ids[c]])
            total += float(np.logaddexp(z[0], z[1]) - z[labels[c]])
        return total

    return _step_grad_error(
        loss, [table, weights],
        lambda t, w, lr: _sgd_step(t, w, cells, ids, share, labels, np.full(n_cells, lr), write),
    )


def _skipgram_grad_error(rng) -> float:
    dim = int(rng.integers(3, 7))
    input_rows = rng.standard_normal((7, dim)) * 0.5
    context_rows = rng.standard_normal((4, dim)) * 0.5
    # word w owns row w and rows 4-6 are subword buckets: row 4 repeats
    # within word 0 and is shared with word 1
    rows = [
        [0, 4, 4],
        [1, 4, *rng.integers(5, 7, size=int(rng.integers(0, 3)))],
        [2, int(rng.integers(4, 7))],
        [3],
    ]
    if rng.random() < 0.5:
        rows = [[w] for w in range(4)]
    word_rows = _WordRows.of(np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows))
    centers = np.array([0, 0, 1, int(rng.integers(0, 4))])  # word 0 centers two pairs
    contexts = rng.integers(0, 4, size=4)
    contexts[2] = contexts[0]  # a context shared by two centers
    negatives = rng.integers(0, 4, size=(4, 3))
    negatives[0, 0] = contexts[0]  # a noise draw equal to its own context

    def loss():
        total = 0.0
        for c, t, noise in zip(centers, contexts, negatives):
            h = input_rows[rows[c]].mean(axis=0)
            total += np.logaddexp(0.0, -(context_rows[t] @ h))
            total += sum(np.logaddexp(0.0, context_rows[n] @ h) for n in noise if n != t)
        return float(total)

    return _step_grad_error(
        loss, [input_rows, context_rows],
        lambda i, c, lr: _sentence_step(i, c, word_rows, centers, contexts, negatives, lr),
    )


def _logreg_grad_error(rng) -> float:
    n_docs = int(rng.integers(4, 9))
    n_feat = int(rng.integers(2, 6))
    labels = rng.integers(0, 2, n_docs)
    labels[0], labels[1] = 0, 1
    vectors = []
    for _ in range(n_docs):
        k = int(rng.integers(1, n_feat + 1))
        ids = np.sort(rng.choice(n_feat, size=k, replace=False))
        vectors.append((ids, rng.standard_normal(k)))
    rows = SparseRows(
        np.concatenate(([0], np.cumsum([len(ids) for ids, _ in vectors]))),
        np.concatenate([ids for ids, _ in vectors]),
        np.concatenate([values for _, values in vectors]),
        n_feat,
    )
    lam = float(rng.uniform(0.0, 1.0))

    def objective(w, b):
        total = 0.0
        for (ids, values), y in zip(vectors, labels):
            z = float(w[ids] @ values) + b
            p = 1.0 / (1.0 + math.exp(-z))
            p = min(max(p, 1e-12), 1 - 1e-12)
            total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
        return total / n_docs + 0.5 * lam * float(w @ w)

    # one tiny GD step from zero exposes the analytic gradient
    lr = 1e-9
    model = train_logreg(rows, labels, LogRegConfig(l2_lambda=lam, epochs=1, lr=lr))
    grad_w = -model.weights / lr
    grad_b = -model.bias / lr
    eps = 1e-6
    zeros = np.zeros(n_feat)
    worst = 0.0
    for k in range(n_feat):
        dw = np.zeros(n_feat)
        dw[k] = eps
        fd = (objective(zeros + dw, 0.0) - objective(zeros - dw, 0.0)) / (2 * eps)
        worst = max(worst, abs(fd - grad_w[k]) / max(1.0, abs(fd)))
    fdb = (objective(zeros, eps) - objective(zeros, -eps)) / (2 * eps)
    worst = max(worst, abs(fdb - grad_b) / max(1.0, abs(fdb)))
    return worst


def test_criterion_03_gradient_checks():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for check in (_classifier_grad_error, _skipgram_grad_error, _logreg_grad_error):
        for _ in range(50):
            worst = max(worst, check(rng))
    elapsed = time.monotonic() - started
    verdict(
        3,
        worst <= 1e-4 and elapsed < 10.0,
        f"150 gradient checks, worst relative error {worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_04_metric_identities():
    # consistent published rows
    checks = [
        (0.708, 0.184, 0.292),
        (0.448, 0.218, 0.293),
        (0.390, 0.147, 0.214),
    ]
    worst = max(abs(f1_from_pr(p, r) - f1) for p, r, f1 in checks)
    # confusion counts vs an independent plain-python recount
    rng = np.random.default_rng(123)
    preds = rng.integers(0, 2, 10_000)
    gold = rng.integers(0, 2, 10_000)
    cm = confusion(preds, gold)
    tp = fp = fn = tn = 0
    for p, g in zip(preds.tolist(), gold.tolist()):
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 1:
            fn += 1
        else:
            tn += 1
    counts_ok = (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)
    report = binary_metrics(cm)
    harmonic_ok = abs(report.f1 - f1_from_pr(report.precision, report.recall)) <= 1e-12
    verdict(
        4,
        worst <= 0.0005 and counts_ok and harmonic_ok,
        f"metric identities: worst F1 deviation {worst:.5f}, recount {'ok' if counts_ok else 'MISMATCH'}",
    )


HALF_LAST_DIGIT = 0.0005  # the published row is printed to three decimals


def _f1_range(f1_fn, p: float, r: float) -> tuple[float, float]:
    """Range of f1_fn over the closed rounding box around (p, r). f1_fn
    rises in both arguments, so the box's corners give the range's ends."""
    h = HALF_LAST_DIGIT
    corners = [f1_fn(p + dp, r + dr) for dp in (-h, h) for dr in (-h, h)]
    return min(corners), max(corners)


def _consistent_at_precision(f1_fn, p: float, r: float, f1: float) -> bool:
    """Whether some P, R that round to (p, r) give an F1 that rounds to f1."""
    lo, hi = _f1_range(f1_fn, p, r)
    return lo <= f1 + HALF_LAST_DIGIT and hi >= f1 - HALF_LAST_DIGIT


def test_criterion_04b_low_resource_row_is_inconsistent():
    """The reported low-resource row (P=0.847, R=0.051, F1=0.095) is printed
    to three decimals, so each value stands for an interval of +-0.0005.
    Read as exact, the harmonic mean of 0.847 and 0.051 is 0.09621, 0.0012
    off the reported F1; but over the rounding box P in [0.8465, 0.8475],
    R in [0.0505, 0.0515] the harmonic mean spans [0.09531, 0.09710], which
    overlaps F1's interval [0.0945, 0.0955]. The row is therefore consistent
    with F1 = 2PR/(P+R) at the precision it was published. Negative controls
    keep the check able to fail: the same P and R with a reported F1 of
    0.093 or 0.098, and the arithmetic or geometric mean standing in for
    the harmonic mean, must each be judged inconsistent."""
    p, r, f1 = 0.847, 0.051, 0.095
    lo, hi = _f1_range(f1_from_pr, p, r)
    row_ok = _consistent_at_precision(f1_from_pr, p, r, f1)
    controls = {
        "F1=0.093": _consistent_at_precision(f1_from_pr, p, r, 0.093),
        "F1=0.098": _consistent_at_precision(f1_from_pr, p, r, 0.098),
        "arithmetic mean": _consistent_at_precision(lambda a, b: (a + b) / 2.0, p, r, f1),
        "geometric mean": _consistent_at_precision(lambda a, b: math.sqrt(a * b), p, r, f1),
    }
    accepted = [name for name, ok in controls.items() if ok]
    ok = row_ok and not accepted
    detail = (
        f"({p}, {r}) +-0.0005 -> harmonic mean in [{lo:.5f}, {hi:.5f}] vs reported "
        f"{f1} +-0.0005: {'consistent' if row_ok else 'inconsistent'} at the published "
        f"precision; negative controls accepted: {', '.join(accepted) or 'none'}"
    )
    print(f"ACCEPTANCE 04b: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_05_subword_and_ngram_oracles():
    # closed-form subword count for every word length 1..20, read from the
    # row lengths of the n-gram kernel every stage hashes with
    ok = True
    words = [("ab" * 10)[:length] for length in range(1, 21)]
    for n_min, n_max in [(3, 6), (2, 4), (1, 7)]:
        indptr, _ = subword_ids_csr(words, SubwordIndex(n_min, n_max, 17), 0)
        expected = [sum(max(0, len(w) + 3 - n) for n in range(n_min, n_max + 1)) for w in words]
        ok = ok and np.diff(indptr).tolist() == expected
    # n-gram extraction vs brute force for all document lengths <= 8
    for t in range(0, 9):
        tokens = [f"t{i}" for i in range(t)]
        brute = []
        for n in range(1, 6):
            for i in range(t):
                if i + n <= t:
                    brute.append(" ".join(tokens[i : i + n]))
        ok = ok and extract_ngrams(tokens, 1, 5) == brute
    verdict(5, ok, "subword count formula (lengths 1-20) and n-gram brute force (<=8)")


def test_criterion_06_tfidf_oracle():
    docs = [["a", "b", "a"], ["b", "c"]]
    vocab, counts = count_features(docs, 1, 1, 100)
    out = tfidf_transform(counts, [3, 2], vocab)
    d1, d2 = (
        dict(zip((vocab.features[i] for i in out.ids[a:b]), out.values[a:b]))
        for a, b in zip(out.indptr[:-1], out.indptr[1:])
    )
    exact_a = d1.get("a") == (2.0 / 3.0) * math.log(2.0)
    exact_c = d2.get("c") == (1.0 / 2.0) * math.log(2.0)
    b_dropped = vocab.feature_to_id["b"] not in set(out.ids)
    verdict(
        6,
        exact_a and exact_c and b_dropped,
        f"tfidf(a,d1)={d1.get('a')!r} tfidf(c,d2)={d2.get('c')!r} ubiquitous term dropped={b_dropped}",
    )


def test_criterion_07_twin_language_alignment():
    started = time.monotonic()
    data = generate_synthetic_bilingual(
        SyntheticConfig(
            vocab_size=2000, n_source_docs=4450, target_ratio=1.0,
            doc_len_min=30, doc_len_max=60, signal_lift=1.0,
        ),
        seed=42,
    )
    cfg = SkipgramConfig(
        dim=64, epochs=5, min_count=5, subwords=None, seed=43,
        subsample_t=1e-2, window=2,
    )
    src_table = train_skipgram([tokenize(d.text) for d in data.source_docs], cfg).to_table()
    tgt_table = train_skipgram([tokenize(d.text) for d in data.target_docs], cfg).to_table()

    truth = dict(data.dictionary)
    rng = np.random.default_rng(44)
    frequent = [w for w in src_table.words[:1500] if truth[w] in tgt_table.word_to_id]
    picks = rng.permutation(len(frequent))
    seed_dict = BilingualDictionary(
        [(frequent[i], truth[frequent[i]]) for i in picks[:500]]
    )
    eval_dict = BilingualDictionary(
        [(frequent[i], truth[frequent[i]]) for i in picks[500:700]], role="eval"
    )
    omap = refine(src_table, tgt_table, seed_dict, iterations=5, top_k_vocab=2000)
    p1 = evaluate_translation(omap, src_table, tgt_table, eval_dict, k=1)
    elapsed = time.monotonic() - started
    verdict(
        7,
        p1 >= 0.95 and elapsed < 300.0,
        f"twin-language alignment precision@1={p1:.3f} in {elapsed:.0f}s",
    )


def test_criterion_08_transfer_beats_monolingual_low_resource():
    started = time.monotonic()
    data = generate_synthetic_bilingual(
        SyntheticConfig(
            vocab_size=2000, n_source_docs=6300, target_ratio=10.0,
            doc_len_min=30, doc_len_max=60, signal_lift=30.0,
            code_switch_rate=0.2,
        ),
        seed=77,
    )
    src_cfg = SkipgramConfig(
        dim=64, epochs=5, min_count=5, subwords=None, seed=101,
        subsample_t=1e-2, window=2,
    )
    tgt_cfg = SkipgramConfig(
        dim=64, epochs=15, min_count=2, subwords=None, seed=101,
        subsample_t=1e-2, window=2,
    )
    src_table = train_skipgram([tokenize(d.text) for d in data.source_docs], src_cfg).to_table()
    tgt_table = train_skipgram([tokenize(d.text) for d in data.target_docs], tgt_cfg).to_table()

    truth = dict(data.dictionary)
    seed_pairs = []
    for w in src_table.words:
        t = truth.get(w)
        if t in tgt_table.word_to_id and len(seed_pairs) < 500:
            seed_pairs.append((w, t))
    omap = refine(src_table, tgt_table, BilingualDictionary(seed_pairs),
                  iterations=5, top_k_vocab=2000)
    merged = merge_tables(tgt_table, apply_map(omap, src_table))

    train_docs, test_docs = split(data.target_docs, SplitSpec(0.8, 77))
    points = learning_curve(
        train_docs, test_docs, fractions=(0.1, 1.0), seeds=(1, 2, 3),
        kinds=("monolingual", "transfer"),
        config=SupervisedConfig(dim=64, epochs=100, subwords=None, min_count=1),
        pretrained=merged,
    )
    low_docs = len(subsample_train(train_docs, 0.1, 1))
    means = fraction_means(points)
    gap_low = means[(0.1, "transfer")]["f1"] - means[(0.1, "monolingual")]["f1"]
    gap_full = means[(1.0, "transfer")]["f1"] - means[(1.0, "monolingual")]["f1"]
    elapsed = time.monotonic() - started
    verdict(
        8,
        low_docs >= 50 and gap_low >= 0.05 and abs(gap_full) <= 0.05 and elapsed < 600.0,
        f"transfer-vs-monolingual: {low_docs} low-resource docs, "
        f"gap@10%={gap_low:+.3f} (need >= +0.05), gap@100%={gap_full:+.3f} "
        f"(need |gap| <= 0.05) in {elapsed:.0f}s",
    )


def test_criterion_09_reproducibility(tmp_path):
    config_text = """
seed = 5
out_dir = {out}
synth.vocab_size = 300
synth.source_docs = 300
synth.target_ratio = 3.0
synth.doc_len_min = 15
synth.doc_len_max = 30
synth.signal_words = 20
synth.signal_rank_start = 100
synth.signal_lift = 12.0
embedding.corpus = {out}/source_documents.tsv
embedding.dim = 16
embedding.epochs = 2
embedding.min_count = 3
embedding.subwords = false
embedding.subsample_t = 0.01
classifier.docs = {out}/target_documents.tsv
classifier.dim = 16
classifier.epochs = 10
classifier.subwords = false
evaluate.model = {out}/classifier.bin
evaluate.docs = {out}/target_documents.tsv
sweep.docs = {out}/target_documents.tsv
sweep.kinds = monolingual
export.model = {out}/classifier.bin
export.docs = {out}/target_documents.tsv
""".format(out=tmp_path / "out")
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    stages = ("synth", "train-embeddings", "train-classifier", "evaluate", "export-vectors",
              "sweep")
    artifacts = (
        "source_documents.tsv", "target_documents.tsv", "dictionary.txt",
        "vectors.txt", "embedding.bin", "classifier.bin", "eval_report.txt",
        "doc_vectors.txt", "sweep_report.txt", "curve.csv",
    )
    for cmd in stages:
        assert cli_main([cmd, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes() for name in artifacts}
    for cmd in stages:
        assert cli_main([cmd, "--config", str(cfg)]) == 0
    stable = [name for name in artifacts if (out / name).read_bytes() == first[name]]
    verdict(
        9,
        len(stable) == len(artifacts),
        f"re-run byte-identical for {len(stable)}/{len(artifacts)} artifacts",
    )


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    ok = True

    # vector text format, bitwise
    table = VectorTable(
        [f"w{i}" for i in range(20)],
        rng.standard_normal((20, 7)).astype(np.float32).astype(np.float64),
    )
    save_vectors(table, tmp_path / "vec.txt")
    loaded = load_vectors(tmp_path / "vec.txt")
    ok = ok and (loaded.vectors == table.vectors).all() and loaded.words == table.words
    save_vectors(loaded, tmp_path / "vec2.txt")
    ok = ok and (tmp_path / "vec.txt").read_bytes() == (tmp_path / "vec2.txt").read_bytes()

    # report parse -> reserialize, byte identical
    report = Report(sections={"run": {"command": "evaluate", "seed": "1"}})
    report.add_table("curve", ["fraction", "kind", "f1"], [["0.1", "transfer", "0.7"]])
    report_text = serialize_report(report)
    ok = ok and serialize_report(parse_report(report_text)) == report_text

    # orthogonal map round trip
    from xldetect.align import load_map, save_map, OrthogonalMap
    w = OrthogonalMap(random_orthogonal(8, rng))
    save_map(w, tmp_path / "map.txt")
    ok = ok and (load_map(tmp_path / "map.txt").w == w.w).all()

    # embedding checkpoint round trip
    corpus = [["aa", "bb", "cc", "dd"], ["bb", "cc", "dd", "aa"]] * 10
    emb = train_skipgram(
        corpus,
        SkipgramConfig(dim=8, epochs=1, min_count=1, seed=3,
                       subwords=SubwordIndex(2, 3, 32), subsample_t=1.0),
    )
    save_checkpoint(emb, tmp_path / "emb.bin")
    emb2 = load_checkpoint(tmp_path / "emb.bin")
    ok = ok and (emb2.input_rows == emb.input_rows).all()
    ok = ok and (emb2.context_rows == emb.context_rows).all()
    ok = ok and emb2.vocab.words == emb.vocab.words

    # classifier checkpoint round trip
    from xldetect.classifier import load_classifier, save_classifier
    from xldetect.corpus import AccountDocument
    docs = [AccountDocument("a", "aa bb", 0), AccountDocument("b", "cc dd", 1)] * 5
    clf = train_supervised(
        docs, SupervisedConfig(dim=8, epochs=3, subwords=SubwordIndex(2, 3, 32), seed=1)
    )
    save_classifier(clf, tmp_path / "clf.bin")
    clf2 = load_classifier(tmp_path / "clf.bin")
    ok = ok and (clf2.input_rows == clf.input_rows).all()
    ok = ok and (clf2.output_weights == clf.output_weights).all()

    verdict(10, ok, "vectors/report/map/checkpoint round trips exact")

import math

import numpy as np
import pytest

from xldetect import baselines
from xldetect.baselines import (
    LogRegConfig,
    LogRegModel,
    SparseRows,
    _scores,
    _sigmoid,
    count_features,
    extract_ngrams,
    load_feature_vocab,
    predict_logreg,
    save_feature_vocab,
    tfidf_transform,
    train_logreg,
    vectorize,
)
from xldetect.errors import FormatError
from xldetect.metrics import flagged


def split_rows(rows):
    """Per-row (ids, values) views of a SparseRows."""
    bounds = zip(rows.indptr[:-1], rows.indptr[1:])
    return [(rows.ids[a:b], rows.values[a:b]) for a, b in bounds]


def stack_rows(vectors, n_features):
    """SparseRows from per-row (ids, values) pairs."""
    indptr = np.concatenate(([0], np.cumsum([len(ids) for ids, _ in vectors])))
    ids = np.concatenate([np.empty(0, np.int64)] + [np.asarray(i, np.int64) for i, _ in vectors])
    values = np.concatenate([np.empty(0)] + [np.asarray(v, np.float64) for _, v in vectors])
    return SparseRows(indptr.astype(np.int64), ids, values, n_features)


def dense_rows(values):
    """One-feature rows, row i holding values[i] at id 0."""
    n = len(values)
    return SparseRows(np.arange(n + 1), np.zeros(n, np.int64), np.asarray(values, np.float64), 1)


# The per-document formulation that the CSR path replaced: one dict of
# counts per document, TF-IDF one document at a time, a gradient scattered
# by np.add.at, and prediction one vector at a time.
def reference_counts(vocab, doc_features):
    out = []
    for features in doc_features:
        counts = {}
        for f in features:
            fid = vocab.feature_to_id.get(f)
            if fid is not None:
                counts[fid] = counts.get(fid, 0) + 1
        ids = np.asarray(sorted(counts), dtype=np.int64)
        out.append((ids, np.asarray([counts[i] for i in ids], dtype=np.float64)))
    return out


def reference_tfidf(vectors, doc_lengths, vocab):
    idf = np.array([math.log(vocab.n_docs / int(df)) for df in vocab.doc_freq])
    out = []
    for (ids, values), length in zip(vectors, doc_lengths):
        tfidf = (values / length) * idf[ids]
        keep = tfidf != 0.0
        out.append((ids[keep], tfidf[keep]))
    return out


def reference_train_logreg(vectors, labels, n_features, config):
    labels = np.asarray(labels, dtype=np.float64)
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, (ids, _) in enumerate(vectors):
        indptr[i + 1] = indptr[i] + len(ids)
    indices = np.concatenate([ids for ids, _ in vectors])
    data = np.concatenate([values for _, values in vectors])
    w, b, history = np.zeros(n_features), 0.0, []
    for epoch in range(config.epochs + 1):
        p = _sigmoid(_scores(w, b, indptr, indices, data))
        ce = -(labels * np.log(np.maximum(p, 1e-300))
               + (1 - labels) * np.log(np.maximum(1 - p, 1e-300))).mean()
        history.append(ce + 0.5 * config.l2_lambda * float(w @ w))
        if epoch == config.epochs:
            break
        resid = p - labels
        grad_w = np.zeros(n_features)
        np.add.at(grad_w, indices, np.repeat(resid, np.diff(indptr)) * data)
        grad_w /= len(vectors)
        grad_w += config.l2_lambda * w
        w -= config.lr * grad_w
        b -= config.lr * float(resid.mean())
    return w, b, history


def reference_predict(model, vectors):
    out = []
    for ids, values in vectors:
        z = float(model.weights[ids] @ values) + model.bias
        p = float(_sigmoid(np.asarray([z]))[0])
        out.append((1 if p > 0.5 else 0, p))
    return out


def random_corpus(rng):
    """Token documents over a Zipf-like vocabulary, with an empty document
    and a document of one-off words that a max_features cap drops."""
    words = [f"w{i}" for i in range(int(rng.integers(5, 40)))]
    weights = 1.0 / np.arange(1, len(words) + 1)
    docs = [
        [words[i] for i in rng.choice(len(words), int(rng.integers(1, 15)), p=weights / weights.sum())]
        for _ in range(int(rng.integers(6, 25)))
    ]
    docs.insert(int(rng.integers(0, len(docs))), [])
    docs.append(["rare1", "rare2", "rare3"])
    return docs


def brute_force_ngrams(tokens, n_lo, n_hi):
    out = []
    for n in range(n_lo, n_hi + 1):
        for i in range(len(tokens)):
            window = tokens[i : i + n]
            if len(window) == n:
                out.append(" ".join(window))
    return out


class TestExtractNgrams:
    def test_bigram_example(self):
        assert extract_ngrams(["a", "b", "c"], 1, 2) == ["a", "b", "c", "a b", "b c"]

    def test_short_document(self):
        assert extract_ngrams(["a"], 1, 5) == ["a"]

    def test_counting_formula(self):
        tokens = list("abcdef")
        assert len(extract_ngrams(tokens, 1, 5)) == 6 + 5 + 4 + 3 + 2

    def test_formula_all_lengths(self):
        for t in range(0, 21):
            tokens = [f"w{i}" for i in range(t)]
            for n_lo, n_hi in [(1, 5), (2, 3), (1, 1), (3, 7)]:
                expected = sum(max(0, t - n + 1) for n in range(n_lo, n_hi + 1))
                assert len(extract_ngrams(tokens, n_lo, n_hi)) == expected

    def test_matches_brute_force_enumeration(self):
        for t in range(0, 9):
            tokens = [f"tok{i}" for i in range(t)]
            assert extract_ngrams(tokens, 1, 5) == brute_force_ngrams(tokens, 1, 5)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            extract_ngrams(["a"], 3, 2)


class TestCountFeatures:
    def test_raw_counts(self):
        vocab, rows = count_features([["a", "b", "a"]], 1, 1, 100)
        ((ids, values),) = split_rows(rows)
        counts = dict(zip((vocab.features[i] for i in ids), values))
        assert counts == {"a": 2.0, "b": 1.0}

    def test_cap_by_document_frequency(self):
        docs = [["a", "b"], ["a", "c"], ["a"]]
        vocab, _ = count_features(docs, 1, 1, max_features=1)
        assert vocab.features == ["a"]

    def test_tie_break_lexicographic(self):
        docs = [["b", "a"], ["a", "b"], ["c"]]
        vocab, _ = count_features(docs, 1, 1, max_features=2)
        assert vocab.features == ["a", "b"]

    def test_absent_feature_no_entry(self):
        vocab, rows = count_features([["a"], ["b"]], 1, 1, 100)
        ids0 = {vocab.features[i] for i in split_rows(rows)[0][0]}
        assert ids0 == {"a"}

    def test_vectorize_over_fixed_vocabulary(self):
        docs = [["a", "b", "a"], ["a", "c"], ["a"]]
        vocab, rows = count_features(docs, 1, 1, max_features=2)
        again = vectorize(vocab, docs, 1, 1)
        assert again.indptr.tolist() == rows.indptr.tolist()
        assert again.ids.tolist() == rows.ids.tolist()
        assert again.values.tolist() == rows.values.tolist()
        ((ids, values),) = split_rows(vectorize(vocab, [["z", "c", "a", "a"]], 1, 1))
        assert [vocab.features[i] for i in ids] == ["a"]
        assert values.tolist() == [2.0]

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            count_features([], 1, 1, 10)

    def test_deterministic(self):
        docs = [["x", "y"], ["y", "z"], ["z", "x"]]
        v1, _ = count_features(docs, 1, 1, 2)
        v2, _ = count_features(docs, 1, 1, 2)
        assert v1.features == v2.features

    def test_empty_vocabulary(self):
        vocab, rows = count_features([[], []], 1, 1, 10)
        assert len(vocab) == 0 and rows.n_features == 0
        assert rows.indptr.tolist() == [0, 0, 0] and len(rows.ids) == 0


class TestTfidf:
    def fixture(self):
        docs = [["a", "b", "a"], ["b", "c"]]
        vocab, counts = count_features(docs, 1, 1, 100)
        lengths = [len(d) for d in docs]
        return docs, vocab, counts, lengths

    def test_hand_computed_values(self):
        docs, vocab, counts, lengths = self.fixture()
        (ids1, v1), (ids2, v2) = split_rows(tfidf_transform(counts, lengths, vocab))
        d1 = dict(zip((vocab.features[i] for i in ids1), v1))
        d2 = dict(zip((vocab.features[i] for i in ids2), v2))
        assert d1["a"] == (2.0 / 3.0) * math.log(2.0)  # exact 64-bit
        assert d2["c"] == (1.0 / 2.0) * math.log(2.0)

    def test_ubiquitous_term_dropped(self):
        docs, vocab, counts, lengths = self.fixture()
        out = tfidf_transform(counts, lengths, vocab)
        assert vocab.feature_to_id["b"] not in out.ids
        assert out.indptr.tolist() == [0, 1, 2]

    def test_nonnegative(self):
        docs, vocab, counts, lengths = self.fixture()
        assert (tfidf_transform(counts, lengths, vocab).values >= 0).all()

    def test_length_mismatch(self):
        _, vocab, counts, _ = self.fixture()
        with pytest.raises(ValueError):
            tfidf_transform(counts, [3], vocab)

    def test_nonpositive_length_rejected(self):
        _, vocab, counts, _ = self.fixture()
        with pytest.raises(ValueError, match="positive"):
            tfidf_transform(counts, [3, 0], vocab)


class TestLogReg:
    def separable(self, n=30):
        labels = [i % 2 for i in range(n)]
        return dense_rows([1.0 if on else -1.0 for on in labels]), labels

    def test_perfect_separation_small_lambda(self):
        rows, labels = self.separable()
        model = train_logreg(rows, labels, LogRegConfig(l2_lambda=1e-8, epochs=200, lr=0.5))
        assert flagged(predict_logreg(model, rows)).tolist() == labels

    def test_huge_lambda_weights_vanish(self):
        # balanced classes: the optimum collapses to w ~ 0, p ~ prior = 0.5
        rows, labels = self.separable()
        model = train_logreg(rows, labels, LogRegConfig(l2_lambda=1e6, epochs=100, lr=1e-6))
        assert np.abs(model.weights).max() <= 1e-4
        probs = predict_logreg(model, rows)[:, 1]
        assert np.abs(probs - 0.5).max() <= 0.02

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        n_docs, n_feat = 12, 5
        labels = rng.integers(0, 2, n_docs).tolist()
        labels[0], labels[1] = 0, 1
        vectors = [
            (np.sort(rng.choice(n_feat, size=3, replace=False)), rng.standard_normal(3))
            for _ in range(n_docs)
        ]

        lam = 0.3

        def objective(w, b):
            total = 0.0
            for (ids, values), y in zip(vectors, labels):
                z = float(w[ids] @ values) + b
                p = 1.0 / (1.0 + math.exp(-z))
                p = min(max(p, 1e-12), 1 - 1e-12)
                total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
            return total / n_docs + 0.5 * lam * float(w @ w)

        # analytic gradient reproduced from one GD step with tiny lr
        lr = 1e-9
        model = train_logreg(
            stack_rows(vectors, n_feat), labels, LogRegConfig(l2_lambda=lam, epochs=1, lr=lr)
        )
        # train starts from zeros; instead compare first-step direction at w=0
        grad_w_analytic = -(model.weights) / lr
        grad_b_analytic = -model.bias / lr
        eps = 1e-6
        zeros = np.zeros(n_feat)
        for k in range(n_feat):
            dw = np.zeros(n_feat)
            dw[k] = eps
            fd = (objective(zeros + dw, 0.0) - objective(zeros - dw, 0.0)) / (2 * eps)
            assert abs(fd - grad_w_analytic[k]) <= 1e-6 * max(1.0, abs(fd))
        fdb = (objective(zeros, eps) - objective(zeros, -eps)) / (2 * eps)
        assert abs(fdb - grad_b_analytic) <= 1e-6 * max(1.0, abs(fdb))

    def test_loss_monotone_for_small_lr(self):
        rows, labels = self.separable()
        model = train_logreg(rows, labels, LogRegConfig(l2_lambda=0.5, epochs=100, lr=0.01))
        diffs = np.diff(model.loss_history)
        assert (diffs <= 1e-12).all()

    def test_single_class_rejected(self):
        rows, _ = self.separable()
        with pytest.raises(ValueError):
            train_logreg(rows, [1] * len(rows), LogRegConfig())

    def test_label_count_mismatch(self):
        rows, labels = self.separable()
        with pytest.raises(ValueError, match="one label per document"):
            train_logreg(rows, labels[:-1], LogRegConfig())


class TestPredictLogReg:
    def zero_model(self):
        return train_logreg(dense_rows([1.0, -1.0]), [1, 0], LogRegConfig(epochs=0))

    def test_zero_model_tie_negative(self):
        dist = predict_logreg(self.zero_model(), dense_rows([5.0]))
        assert dist[:, 1].tolist() == [0.5] and flagged(dist).tolist() == [0]

    def test_closed_form_sigmoid(self):
        model = self.zero_model()
        model.weights[0] = math.log(3.0)
        dist = predict_logreg(model, dense_rows([1.0]))
        assert dist[0, 1] == pytest.approx(0.75, abs=1e-12)
        assert flagged(dist).tolist() == [1]

    def test_sigmoid_symmetry(self):
        for z in (-20.0, -1.3, 0.0, 0.7, 15.0):
            arr = np.array([z, -z])
            s = _sigmoid(arr)
            assert abs(s[0] + s[1] - 1.0) <= 1e-15

    def test_empty_row_scores_bias(self):
        model = LogRegModel(np.array([2.0]), -1.0, LogRegConfig(), [])
        rows = SparseRows(np.array([0, 0, 1]), np.array([0]), np.array([1.0]), 1)
        dist = predict_logreg(model, rows)
        assert flagged(dist).tolist() == [0, 1]
        assert dist[:, 1].tolist() == _sigmoid(np.array([-1.0, 1.0])).tolist()

    def test_feature_width_mismatch(self):
        rows = SparseRows(np.array([0, 1]), np.array([1]), np.array([1.0]), 2)
        with pytest.raises(ValueError, match="features"):
            predict_logreg(self.zero_model(), rows)

    def test_distribution_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        model = LogRegModel(np.array([1.0]), 0.0, LogRegConfig(), [])
        dist = predict_logreg(model, dense_rows(rng.normal(0.0, 3.0, 10_000)))
        assert dist.dtype == np.float64 and dist.shape == (10_000, 2)
        assert (dist.sum(axis=1) == 1.0).all()

    def test_flag_is_p_above_half(self, monkeypatch):
        # 1 - p is exact for p >= 0.5, so P(positive) > P(negative) exactly
        # when p > 0.5, at the tie, on either side of it and at random
        model = self.zero_model()
        edges = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0]
        for p in (np.array(edges), np.random.default_rng(8).random(1_000_000)):
            monkeypatch.setattr(baselines, "_sigmoid", lambda z, p=p: p)
            dist = predict_logreg(model, dense_rows(np.zeros(len(p))))
            assert dist[:, 1].tobytes() == p.tobytes()
            assert (dist.sum(axis=1) == 1.0).all()
            assert (flagged(dist) == (p > 0.5)).all()


class TestMatchesPerDocumentReference:
    """The CSR path against the per-document formulation it replaced, on
    random corpora: bit-identical counts, TF-IDF and training, and the
    reference's labels with probabilities within 1e-12 (the row sums take
    a cumsum difference, not a dot product)."""

    RANGES = ((1, 1), (1, 3), (2, 4))

    def cases(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            train, test = random_corpus(rng), random_corpus(rng)
            test.append(["unseen", "tokens", "only"])
            n_lo, n_hi = self.RANGES[seed % len(self.RANGES)]
            cap = int(rng.integers(3, 60))
            yield rng, train, test, n_lo, n_hi, cap

    @staticmethod
    def assert_rows_equal(rows, vectors):
        assert len(rows) == len(vectors)
        for (ids, values), (ref_ids, ref_values) in zip(split_rows(rows), vectors):
            assert ids.tolist() == ref_ids.tolist()
            assert values.tobytes() == ref_values.tobytes()

    def test_counts_and_tfidf(self):
        capped = 0
        for _, train, test, n_lo, n_hi, cap in self.cases():
            vocab, rows = count_features(train, n_lo, n_hi, cap)
            capped += len(vocab) == cap
            for docs, got in ((train, rows), (test, vectorize(vocab, test, n_lo, n_hi))):
                ref = reference_counts(vocab, [extract_ngrams(d, n_lo, n_hi) for d in docs])
                self.assert_rows_equal(got, ref)
                lengths = [max(1, len(d)) for d in docs]
                self.assert_rows_equal(tfidf_transform(got, lengths, vocab),
                                       reference_tfidf(ref, lengths, vocab))
        assert capped  # some case exercised the max_features cap

    def test_train_and_predict(self):
        config = LogRegConfig(l2_lambda=0.01, epochs=25, lr=0.5)
        for rng, train, test, n_lo, n_hi, cap in self.cases():
            vocab, rows = count_features(train, n_lo, n_hi, cap)
            test_rows = vectorize(vocab, test, n_lo, n_hi)
            labels = rng.integers(0, 2, len(train))
            labels[:2] = [0, 1]
            model = train_logreg(rows, labels, config)
            w, b, history = reference_train_logreg(split_rows(rows), labels, len(vocab), config)
            assert model.weights.tobytes() == w.tobytes()
            assert model.bias == b
            assert model.loss_history == history
            dist = predict_logreg(model, test_rows)
            ref = reference_predict(model, split_rows(test_rows))
            assert flagged(dist).tolist() == [label for label, _ in ref]
            assert np.abs(dist[:, 1] - [p for _, p in ref]).max() <= 1e-12


class TestSparseRows:
    def test_ids_must_increase(self):
        for ids in ([3, 1], [2, 2]):
            with pytest.raises(ValueError, match="increasing"):
                SparseRows(np.array([0, 2]), np.array(ids), np.array([1.0, 2.0]), 5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            SparseRows(np.array([0, 1]), np.array([1]), np.array([1.0, 2.0]), 5)

    def test_bad_indptr(self):
        ids, values = np.array([0, 1, 2]), np.ones(3)
        for indptr in ([], [0, 2, 1, 3], [1, 3], [0, 2]):
            with pytest.raises(ValueError, match="indptr"):
                SparseRows(np.array(indptr, dtype=np.int64), ids, values, 3)

    def test_id_out_of_range(self):
        for ids in ([-1, 0], [0, 3]):
            with pytest.raises(ValueError, match="outside"):
                SparseRows(np.array([0, 2]), np.array(ids), np.ones(2), 3)

    def test_id_drop_at_row_boundary_accepted(self):
        rows = SparseRows(np.array([0, 2, 4]), np.array([3, 5, 1, 2]), np.ones(4), 6)
        assert len(rows) == 2
        after_empty = SparseRows(np.array([0, 2, 2, 3]), np.array([3, 5, 1]), np.ones(3), 6)
        assert len(after_empty) == 3

    def test_empty_vocabulary_accepted(self):
        rows = SparseRows(np.array([0, 0, 0]), np.empty(0, np.int64), np.empty(0), 0)
        assert len(rows) == 2


class TestFeatureVocabIO:
    def test_round_trip(self, tmp_path):
        docs = [["a", "b c"], ["a"]]
        vocab, _ = count_features(docs, 1, 1, 10)
        path = tmp_path / "features.tsv"
        save_feature_vocab(vocab, path)
        loaded = load_feature_vocab(path)
        assert loaded.features == vocab.features
        assert loaded.doc_freq.tolist() == vocab.doc_freq.tolist()
        assert loaded.n_docs == vocab.n_docs

    def test_repeated_feature_rejected(self, tmp_path):
        # a second 'foo' would leave three features with two ids
        path = tmp_path / "features.tsv"
        path.write_text("FEATS v1 3 3 2\nfoo\t2\nbar\t1\nfoo\t1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"features\.tsv:4: duplicate feature 'foo'$"):
            load_feature_vocab(path)

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from subword_spec import input_ids
import xldetect.classifier as clf_module
from xldetect.classifier import (
    SupervisedConfig,
    TextClassifier,
    _forward,
    _sgd_step,
    class_probs,
    doc_embedding,
    doc_vectors,
    load_classifier,
    predict,
    save_classifier,
    train_many,
    train_supervised,
)
from xldetect.corpus import LABEL_NAMES, AccountDocument, tokenize
from xldetect.embedding import VectorTable
from xldetect.errors import DataError, FormatError, TrainingError
from xldetect.metrics import flagged
from xldetect.vocab import SubwordIndex, build_vocab, subword_ids_csr


def toy_docs(n_per_class=20):
    docs = []
    for i in range(n_per_class):
        docs.append(AccountDocument(f"n{i}", "aaa aaa aaa", 0))
        docs.append(AccountDocument(f"p{i}", "bbb bbb bbb", 1))
    return docs


def small_config(**kw):
    defaults = dict(dim=8, epochs=30, initial_lr=0.5, subwords=None, seed=2)
    defaults.update(kw)
    return SupervisedConfig(**defaults)


def manual_model(input_rows, output_weights, words=("aaa", "bbb"), subwords=None):
    vocab = build_vocab([list(words)], min_count=1)
    return TextClassifier(
        vocab, subwords,
        np.asarray(input_rows, dtype=np.float32),
        np.asarray(output_weights, dtype=np.float32),
    )


class TestDocEmbedding:
    def test_arithmetic_mean(self):
        model = manual_model([[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)))
        vec = doc_embedding(["aaa", "bbb"], model)
        assert np.allclose(vec, [0.5, 0.5])

    def test_empty_tokens(self):
        model = manual_model([[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)))
        assert (doc_embedding([], model) == 0).all()

    def test_permutation_invariant(self):
        model = manual_model([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)))
        a = doc_embedding(["aaa", "bbb", "aaa"], model)
        b = doc_embedding(["bbb", "aaa", "aaa"], model)
        assert (a == b).all()

    def test_scales_linearly(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        m1 = manual_model(rows, np.zeros((2, 2)))
        m2 = manual_model(2 * rows, np.zeros((2, 2)))
        assert np.allclose(
            2 * doc_embedding(["aaa", "bbb"], m1), doc_embedding(["aaa", "bbb"], m2)
        )

    def test_multiplicity_counts(self):
        model = manual_model([[3.0, 0.0], [0.0, 3.0]], np.zeros((2, 2)))
        vec = doc_embedding(["aaa", "aaa", "bbb"], model)
        assert np.allclose(vec, [2.0, 1.0])


def doc_rows_reference(tokens, model):
    """Every token's spec input_ids, merged by np.unique: the rows and
    multiplicities doc_batch must yield without its word-row CSR."""
    ids = [i for tok in tokens for i in input_ids(tok, model.vocab, model.subwords)]
    uniq, counts = np.unique(np.asarray(ids, dtype=np.int64), return_counts=True)
    return uniq, counts.astype(np.float32)


def split_batch(batch):
    """A doc_batch as one (ids, shares) pair per document."""
    lengths, ids, shares = batch
    ends = np.cumsum(lengths)
    return [(ids[e - n : e], shares[e - n : e]) for n, e in zip(lengths, ends)]


class TestDocRows:
    DOCS = (
        [],
        ["aaa"],
        ["aaa", "aaa", "bbb"],  # repeated in-vocabulary token
        ["zzz"],  # out of vocabulary
        ["zzz", "aaa", "zzz", "q", "ccc", "bbb", "aaa", "ccc"],
        ["ñandú", "aaa", "日本"],  # multi-byte out-of-vocabulary tokens
        ["q", "ñ"],  # no n-gram of length >= 5 in "<q>" or "<ñ>"
    )

    def check(self, model):
        batch = model.doc_batch(list(self.DOCS))
        assert batch[0].dtype == np.int64 and batch[1].dtype == np.int64
        assert batch[2].dtype == np.float32
        assert len(batch[0]) == len(self.DOCS) and batch[0].sum() == len(batch[1]) == len(batch[2])
        for tokens, in_batch in zip(self.DOCS, split_batch(batch)):
            (alone,) = split_batch(model.doc_batch([tokens]))
            ref_ids, ref_counts = doc_rows_reference(tokens, model)
            for ids, shares in (in_batch, alone):
                assert ids.tolist() == ref_ids.tolist()
                assert shares.tolist() == (ref_counts / ref_counts.sum()).tolist()
                assert (np.diff(ids) > 0).all()

    def test_no_documents(self):
        lengths, ids, shares = manual_model(np.eye(2), np.zeros((2, 2))).doc_batch([])
        assert len(lengths) == len(ids) == len(shares) == 0
        assert ids.dtype == np.int64 and shares.dtype == np.float32

    def test_matches_per_token_reference(self):
        # 16 buckets, so n-grams of different words collide
        for subwords in (
            SubwordIndex(2, 4, 16),
            SubwordIndex(3, 6, 1009),
            SubwordIndex(5, 6, 16),  # short tokens have no n-gram
            None,
        ):
            model = manual_model(
                np.zeros((3, 2)), np.zeros((2, 2)), words=("aaa", "bbb", "ccc"), subwords=subwords
            )
            self.check(model)

    def test_trained_model(self):
        cfg = small_config(subwords=SubwordIndex(2, 3, 40), epochs=1)
        self.check(train_supervised(toy_docs(3), cfg))

    def test_batch_hashes_once_and_matches_each_document_alone(self, monkeypatch):
        calls = []

        def spy(words, *args):
            calls.append(list(words))
            return subword_ids_csr(words, *args)

        monkeypatch.setattr(clf_module, "subword_ids_csr", spy)
        # min_count 2 leaves out-of-vocabulary tokens in the training documents
        train = mixed_docs(30, 5) + [AccountDocument("x", "ñandú 日本 w1 zz<z", 1)]
        model = train_supervised(train, small_config(subwords=SubwordIndex(2, 4, 97),
                                                     epochs=1, min_count=2))
        assert len(calls) == 1 and "ñandú" in calls[0]
        docs = [tokenize(d.text) for d in mixed_docs(50, 6)] + [[], ["ñandú", "w1", "q"]]
        calls.clear()
        lengths, ids, shares = model.doc_batch(docs)
        assert len(calls) == 1
        alone = [model.doc_batch([tokens]) for tokens in docs]
        assert lengths.tolist() == [int(batch[0][0]) for batch in alone]
        assert ids.tolist() == np.concatenate([batch[1] for batch in alone]).tolist()
        assert shares.tobytes() == np.concatenate([batch[2] for batch in alone]).tobytes()


class TestPredict:
    def test_zero_weights_tie_goes_negative(self):
        model = manual_model(np.eye(2), np.zeros((2, 2)))
        label, probs = predict(["aaa"], model)
        assert label == 0
        assert np.allclose(probs, [0.5, 0.5])

    def test_flag_rule_one_and_batch(self):
        # the same rule for one distribution and for each row of a batch
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
        assert flagged(probs).tolist() == [False, True, False]
        assert [bool(flagged(row)) for row in probs] == [False, True, False]

    def test_closed_form_softmax(self):
        # logits (0, ln 3) -> probabilities (0.25, 0.75)
        model = manual_model([[1.0]], [[0.0], [math.log(3.0)]], words=("aaa",))
        label, probs = predict(["aaa"], model)
        assert label == 1
        assert np.allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        h = [[1.0, 1.0]]
        m1 = manual_model(np.eye(2), [[0.2, 0.1], [0.4, 0.3]])
        m2 = manual_model(np.eye(2), [[0.2 + 5, 0.1 + 5], [0.4 + 5, 0.3 + 5]])
        _, p1 = predict(["aaa", "bbb"], m1)
        _, p2 = predict(["aaa", "bbb"], m2)
        assert np.abs(p1 - p2).max() <= 1e-6  # float32 weights

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            model = manual_model(
                rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
            )
            _, probs = predict(["aaa", "bbb"], model)
            assert abs(probs.sum() - 1.0) <= 1e-12


class TestScoring:
    """doc_vectors and class_probs: the training step's forward over
    padded blocks of a doc_batch."""

    DOCS = [
        ["aaa", "bbb", "ccc", "aaa", "ddd", "bbb", "eee"],  # longer
        ["bbb"],  # shorter
        [],  # empty
        ["qqqq", "zzzz"],  # every token out of vocabulary
        ["ccc", "xyzzy", "aaa"],
        ["eee", "ddd", "ccc", "bbb", "aaa", "fff", "ggg", "hhh", "iii", "jjj", "kkk"],
        ["kkk"],
    ]

    def model(self, dim=4):
        words = ["aaa", "bbb", "ccc", "ddd", "eee", "fff", "ggg", "hhh", "iii", "jjj", "kkk"]
        docs = [AccountDocument(f"d{i}", " ".join(words[i % 7 : i % 7 + 5]), i % 2)
                for i in range(30)]
        return train_supervised(docs, small_config(dim=dim, epochs=3,
                                                   subwords=SubwordIndex(2, 4, 50)))

    def test_document_alone_and_in_batch_bit_identical(self, monkeypatch):
        model = self.model()
        batch = model.doc_batch(self.DOCS)
        whole = doc_vectors(model, batch), class_probs(model, batch)
        # blocks of 3 documents, each padded to its longest
        monkeypatch.setattr(clf_module, "_BLOCK_SLOTS", 3 * int(batch[0].max()))
        blocks = []
        forward = clf_module._forward
        monkeypatch.setattr(clf_module, "_forward",
                            lambda *args: blocks.append(args[0].shape[:2]) or forward(*args))
        vectors, probs = doc_vectors(model, batch), class_probs(model, batch)
        lengths = batch[0]
        assert blocks == 2 * [(3, lengths[:3].max()), (3, lengths[3:6].max()), (1, lengths[6])]
        assert vectors.tobytes() == whole[0].tobytes() and probs.tobytes() == whole[1].tobytes()
        for i, tokens in enumerate(self.DOCS):
            alone = model.doc_batch([tokens])
            assert doc_vectors(model, alone)[0].tobytes() == vectors[i].tobytes()
            assert class_probs(model, alone)[0].tobytes() == probs[i].tobytes()
            assert doc_embedding(tokens, model).tobytes() == vectors[i].tobytes()
            label, p = predict(tokens, model)
            assert p.tobytes() == probs[i].tobytes() and label == int(p[1] > p[0])
        assert not vectors[2].any() and (probs[2] == 0.5).all()  # the empty document
        assert vectors[3].any()  # composed from its buckets
        assert np.abs(probs.sum(axis=1) - 1).max() <= 1e-12

    def test_doc_embedding_is_the_training_forward(self):
        # a training document's rows are stored: its embedding is the h
        # that _sgd_step's forward computes from the model's own table
        model = self.model(dim=5)
        weights = model.output_weights[None]
        for tokens in (["aaa", "bbb", "ccc", "ddd", "eee"], ["fff", "ggg", "aaa"]):
            ((ids, shares),) = split_batch(model.doc_batch([tokens]))
            block = model.input_rows.take(model.row_slots[ids], axis=0)[None]
            h, z = _forward(block, shares[None], weights.take([0], axis=0))
            assert doc_embedding(tokens, model).tobytes() == h[0].tobytes()
            expected = np.exp(z[0].astype(np.float64) - z[0].max())
            assert predict(tokens, model)[1].tobytes() == (expected / expected.sum()).tobytes()


def doc_loss(rows, weights, ids, share, label):
    """Reference cross-entropy of one document over its averaged rows."""
    z = weights @ (share @ rows[ids])
    return np.logaddexp.reduce(z) - z[label]


def padded(docs, zero, sink, dtype=np.float32):
    """_sgd_step's (ids, share, write) for documents given as (ids,
    counts): padded to the longest with share 0 at row zero, and writing
    padding slots to row sink."""
    width = max(len(ids) for ids, _ in docs)
    ids = np.full((len(docs), width), zero)
    share = np.zeros((len(docs), width), dtype=dtype)
    for a, (doc_ids, counts) in enumerate(docs):
        ids[a, : len(doc_ids)] = doc_ids
        share[a, : len(doc_ids)] = counts / counts.sum()
    return ids, share, np.where(share > 0, ids, sink)


def random_batch(rng, n_cells, rows_per_cell, dim, dtype, max_size=None, max_count=4):
    """A table of n_cells cells' rows, then a zero row and a sink row, the
    cells' output weights and one document per cell: below max_size
    unique ids of the cell's rows, with multiplicities below max_count,
    so the lengths differ. Returns (table, weights, docs, zero, sink)."""
    table = rng.standard_normal((n_cells * rows_per_cell + 2, dim)).astype(dtype)
    table[-2:] = 0
    weights = rng.standard_normal((n_cells, 2, dim)).astype(dtype)
    docs = []
    for c in range(n_cells):
        size = int(rng.integers(1, max_size or rows_per_cell + 1))
        ids = c * rows_per_cell + np.sort(rng.choice(rows_per_cell, size=size, replace=False))
        docs.append((ids, rng.integers(1, max_count, size=size).astype(dtype)))
    return table, weights, docs, len(table) - 2, len(table) - 1


def sgd_step_add_at(table, weights, cells, ids, share, labels, lr):
    """_sgd_step with its input-row update scattered by np.add.at from the
    pre-step rows, not written back from one gathered block."""
    h = np.einsum("al,ald->ad", share, table[ids])
    w = weights[cells]
    z = np.matmul(w, h[:, :, None])[:, :, 0]
    z -= np.maximum(z[:, :1], z[:, 1:])
    e = np.exp(z)
    g = e / (e[:, 0] + e[:, 1])[:, None]
    g -= np.eye(2, dtype=g.dtype)[labels]
    g *= lr[:, None]
    weights[cells] = w - g[:, :, None] * h[:, None, :]
    hidden_grad = np.matmul(g[:, None, :], w)[:, 0]
    np.add.at(table, ids, np.einsum("al,ad->ald", share, -hidden_grad))


class TestLossAndGrad:
    """The batched SGD step the trainer runs, alone and over several cells
    of different lengths, and the loss it records."""

    def test_perfect_prediction_zero_gradient(self):
        model = manual_model([[10.0]], [[-100.0], [100.0]], words=("aaa",))
        rows, weights = model.input_rows.copy(), model.output_weights[None].copy()
        ids, share, write = padded(split_batch(model.doc_batch([["aaa"]])), 0, 0)
        _sgd_step(rows, weights, np.array([0]), ids, share, np.array([1]),
                  np.ones(1, dtype=np.float32), write)
        assert (rows == model.input_rows).all()
        assert (weights[0] == model.output_weights).all()

    def test_unique_ids_match_add_at_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n_cells = 1 if trial < 5 else int(rng.integers(2, 5))
            table, weights, docs, zero, sink = random_batch(rng, n_cells, 60, 7, np.float32,
                                                            max_size=40, max_count=5)
            ids, share, write = padded(docs, zero, sink)
            cells = np.arange(n_cells)
            labels = rng.integers(0, 2, size=n_cells)
            lr = rng.random(n_cells).astype(np.float32)
            ref_table, ref_weights = table.copy(), weights.copy()
            sgd_step_add_at(ref_table, ref_weights, cells, ids, share, labels, lr)
            _sgd_step(table, weights, cells, ids, share, labels, lr, write)
            assert table.tobytes() == ref_table.tobytes()
            assert weights.tobytes() == ref_weights.tobytes()
            assert not table[zero].any() and not table[sink].any()

    def test_returned_loss_is_pre_step_cross_entropy(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            # the last trials are confident enough that float32 g[label]
            # underflows to 0 while the loss stays finite
            scale = 3.0 if trial < 16 else 400.0
            n_cells = 1 if trial % 4 == 0 else 2
            table, weights, docs, zero, sink = random_batch(rng, n_cells, 60, 7, np.float32,
                                                            max_size=40, max_count=5)
            weights *= np.float32(scale)
            labels = rng.integers(0, 2, size=n_cells)
            expected = [
                doc_loss(table.astype(np.float64), weights[c].astype(np.float64), ids,
                         counts.astype(np.float64) / counts.sum(), labels[c])
                for c, (ids, counts) in enumerate(docs)
            ]
            ids, share, write = padded(docs, zero, sink)
            loss = _sgd_step(table, weights, np.arange(n_cells), ids, share, labels,
                             np.full(n_cells, 0.5, dtype=np.float32), write)
            assert np.isfinite(loss).all()
            assert loss.tolist() == pytest.approx(expected, rel=1e-6, abs=1e-6)

    def test_uniform_loss_is_ln2(self):
        # output weights start at zero, so every class has probability 1/2
        # and the untrained loss is log 2 exactly, whatever the documents
        # and the input rows
        docs = mixed_docs(1000, 3)
        table = VectorTable([f"w{j}" for j in range(30)],
                            np.random.default_rng(4).standard_normal((30, 8)))
        for n in (1, 7, 1000):
            for pretrained in (None, table):
                for subwords in (None, SubwordIndex(2, 4, 50)):
                    model = train_supervised(docs[:n], small_config(
                        epochs=0, pretrained=pretrained, subwords=subwords))
                    assert model.loss_history == [math.log(2.0)]

    def test_zero_slot_documents_take_no_step(self):
        # an empty document has h = 0 and z = 0: it returns the uniform
        # loss and moves no parameter, with zero slots (L = 0) or padded
        # beside a longer document
        rng = np.random.default_rng(8)
        log2 = float(np.float32(math.log(2.0)))
        for n_docs in (1, 3):
            table, weights, _, _, _ = random_batch(rng, n_docs, 5, 4, np.float32)
            ids = np.zeros((n_docs, 0), dtype=np.int64)
            share = np.zeros((n_docs, 0), dtype=np.float32)
            for write in (ids, None):
                before = table.tobytes(), weights.tobytes()
                loss = _sgd_step(table, weights, np.arange(n_docs), ids, share,
                                 rng.integers(0, 2, size=n_docs),
                                 np.ones(n_docs, dtype=np.float32), write)
                assert loss.dtype == np.float32 and loss.tolist() == [log2] * n_docs
                assert (table.tobytes(), weights.tobytes()) == before
        table, weights, docs, zero, sink = random_batch(rng, 2, 5, 4, np.float32)
        docs[1] = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float32))
        ids, share, write = padded(docs, zero, sink)
        before = table[5:].tobytes(), weights[1].tobytes()
        loss = _sgd_step(table, weights, np.arange(2), ids, share, np.array([0, 1]),
                         np.ones(2, dtype=np.float32), write)
        assert loss[1] == log2
        assert (table[5:].tobytes(), weights[1].tobytes()) == before

    def test_loss_nonnegative(self):
        # every recorded loss: the initial one from the forward's logits and
        # the running epoch losses from the SGD steps
        rng = np.random.default_rng(1)
        for seed in range(20):
            docs = mixed_docs(6, seed)
            table = VectorTable([f"w{j}" for j in range(30)],
                                rng.standard_normal((30, 3)))
            model = train_supervised(docs, small_config(dim=3, epochs=2, seed=seed,
                                                        pretrained=table))
            assert min(model.loss_history) >= 0

    def test_repeated_ids_rejected_when_packed(self, monkeypatch):
        # the scatter keeps one update per row, so the trainer checks once,
        # while packing the documents, that doc_batch gave unique ids
        doc_batch = TextClassifier.doc_batch

        def repeated(model, token_docs):
            lengths, ids, shares = doc_batch(model, token_docs)
            lengths = lengths.copy()
            lengths[0] += 1  # the first document repeats its first row
            return lengths, np.insert(ids, 1, ids[0]), np.insert(shares, 1, shares[0])

        monkeypatch.setattr(TextClassifier, "doc_batch", repeated)
        with pytest.raises(ValueError, match="strictly increasing"):
            train_supervised(toy_docs(), small_config(epochs=1))

    def test_gradients_match_finite_differences(self):
        # the step is linear in lr at the pre-step parameters, so on 64-bit
        # tables -delta/lr is the analytic gradient of the summed document
        # losses; padding slots read the zero row and leave it and the sink
        # row at zero
        rng = np.random.default_rng(2)
        lr, eps = 0.5, 1e-6
        for trial in range(10):
            n_cells = 1 if trial < 3 else 3
            table, weights, docs, zero, sink = random_batch(rng, n_cells, 4, 5, np.float64)
            ids, share, write = padded(docs, zero, sink, np.float64)
            cells, labels = np.arange(n_cells), rng.integers(0, 2, size=n_cells)

            def loss():
                return sum(doc_loss(table, weights[c], ids[c], share[c], labels[c])
                           for c in cells)

            new_table, new_weights = table.copy(), weights.copy()
            _sgd_step(new_table, new_weights, cells, ids, share, labels,
                      np.full(n_cells, lr), write)
            for params, analytic in (
                (table, (table - new_table) / lr),
                (weights, (weights - new_weights) / lr),
            ):
                for idx in np.ndindex(params.shape):
                    saved = params[idx]
                    params[idx] = saved + eps
                    lp = loss()
                    params[idx] = saved - eps
                    lm = loss()
                    params[idx] = saved
                    fd = (lp - lm) / (2 * eps)
                    assert abs(fd - analytic[idx]) <= 1e-4 * max(1.0, abs(fd))


class TestTrainSupervised:
    def test_separable_toy_set_perfect_accuracy(self):
        docs = toy_docs()
        model = train_supervised(docs, small_config(epochs=100, initial_lr=1.0))
        correct = sum(predict(d.text.split(), model)[0] == d.label for d in docs)
        assert correct == len(docs)

    def test_loss_history_is_running_epoch_loss(self, monkeypatch):
        steps, score_calls = [], []
        sgd_step, score = clf_module._sgd_step, clf_module._score

        def spy_step(*args):
            losses = sgd_step(*args)
            assert losses.shape == (1,)  # a lone cell steps on one document at a time
            steps.append(float(losses[0]))
            return losses

        def spy_score(*args):
            score_calls.append(score(*args))
            return score_calls[-1]

        monkeypatch.setattr(clf_module, "_sgd_step", spy_step)
        monkeypatch.setattr(clf_module, "_score", spy_score)
        docs = toy_docs(5) + [AccountDocument("e0", "", 0), AccountDocument("e1", " ", 1)]
        model = train_supervised(docs, small_config(epochs=3))
        assert len(model.loss_history) == 4
        assert model.loss_history[0] == math.log(2.0)
        assert len(score_calls) == 0  # loss_history[0] takes no forward
        per_epoch = len(docs)  # the empty documents step too, at the uniform loss
        assert len(steps) == 3 * per_epoch
        assert steps.count(float(np.float32(math.log(2.0)))) >= 3 * 2
        for epoch in range(3):
            epoch_steps = steps[epoch * per_epoch : (epoch + 1) * per_epoch]
            expected = sum(epoch_steps) / per_epoch
            assert model.loss_history[epoch + 1] == pytest.approx(expected, rel=1e-12)

    def test_loss_decreases_after_first_epoch(self):
        model = train_supervised(toy_docs(), small_config(epochs=3))
        assert model.loss_history[1] < model.loss_history[0]

    def test_pretrained_zero_epochs_keeps_vectors(self):
        table = VectorTable(["aaa", "bbb"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        cfg = small_config(dim=2, epochs=0, pretrained=table)
        model = train_supervised(toy_docs(), cfg)
        assert np.allclose(doc_embedding(["aaa"], model), [1.0, 2.0])
        assert np.allclose(doc_embedding(["aaa", "bbb"], model), [2.0, 3.0])

    def test_pretrained_missing_word_keeps_random_init(self):
        table = VectorTable(["aaa"], np.array([[1.0, 2.0]]))
        cfg = small_config(dim=2, epochs=0, pretrained=table, seed=3)
        model = train_supervised(toy_docs(), cfg)
        assert np.allclose(doc_embedding(["aaa"], model), [1.0, 2.0])
        bbb = doc_embedding(["bbb"], model)
        assert not np.allclose(bbb, 0.0)  # scratch init, not zeroed

    def test_pretrained_init_matches_full_draw(self):
        # word rows: the prefix of the (|V|+B, d) draw, then the pretrained
        # vectors; bucket rows, stored or not: zero
        index = SubwordIndex(2, 3, 40)
        table = VectorTable(["aaa"], np.array([[1.0, 2.0, 3.0]]))
        cfg = small_config(dim=3, epochs=0, pretrained=table, subwords=index, seed=3)
        model = train_supervised(toy_docs(), cfg)
        nwords = len(model.vocab)
        full = np.random.default_rng(3).random((nwords + index.buckets, 3), dtype=np.float32)
        expected = (full[:nwords] * np.float32(2.0) - np.float32(1.0)) * np.float32(1.0 / 3)
        expected[model.vocab.word_to_id["aaa"]] = [1.0, 2.0, 3.0]
        assert model.input_rows[:nwords].tobytes() == expected.tobytes()
        assert model.bucket_seed is None and len(model.bucket_ids) > 0
        assert not model.input_rows[nwords:].any()
        assert not model.rows(nwords + np.arange(index.buckets)).any()

    def test_frozen_pretrained_rows_do_not_move(self):
        table = VectorTable(["aaa", "bbb"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        cfg = small_config(dim=2, epochs=5, pretrained=table, freeze_pretrained=True)
        model = train_supervised(toy_docs(), cfg)
        assert np.allclose(doc_embedding(["aaa"], model), [1.0, 2.0])

    def test_bit_reproducible(self):
        cfg = small_config(epochs=5)
        m1 = train_supervised(toy_docs(), cfg)
        m2 = train_supervised(toy_docs(), cfg)
        assert (m1.input_rows == m2.input_rows).all()
        assert (m1.output_weights == m2.output_weights).all()

    def test_output_weight_divergence_names_epoch(self):
        # frozen 1e5-norm inputs: each step moves the output weights by up
        # to lr * 1e5, so they pass the 1e8 limit within the first epoch
        table = VectorTable(["aaa", "bbb"], np.array([[1e5, 0.0], [0.0, 1e5]]))
        cfg = small_config(dim=2, epochs=3, initial_lr=1e4, pretrained=table,
                           freeze_pretrained=True)
        with pytest.raises(TrainingError, match="after epoch 0: parameter magnitude"):
            train_supervised(toy_docs(), cfg)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train_supervised([], small_config())

    def test_single_class_warns(self, caplog):
        docs = [AccountDocument(f"n{i}", "aaa", 0) for i in range(4)]
        with caplog.at_level("WARNING"):
            train_supervised(docs, small_config(epochs=1))
        assert any("no documents of class" in r.message for r in caplog.records)

    def test_subword_buckets_train(self):
        cfg = small_config(subwords=SubwordIndex(2, 3, 40), epochs=20, initial_lr=0.5)
        docs = toy_docs()
        model = train_supervised(docs, cfg)
        correct = sum(predict(d.text.split(), model)[0] == d.label for d in docs)
        assert correct == len(docs)

    def test_word_ngrams_rejected(self):
        for word_ngrams in (0, 2, 3):
            for subwords in (None, SubwordIndex(2, 3, 40)):
                with pytest.raises(ValueError, match="word n-grams are not supported"):
                    small_config(word_ngrams=word_ngrams, subwords=subwords)


def reference_doc_step(input_rows, output_weights, ids, counts, label, lr, trainable):
    """The per-document SGD step the lockstep trainer replaced, in place;
    returns the document's cross-entropy at the pre-step parameters."""
    total = counts.sum()
    h = (counts @ input_rows[ids]) / total
    z = output_weights @ h
    z = z - z.max()
    e = np.exp(z)
    e_sum = e.sum()
    g = e / e_sum
    loss = float(np.log(e_sum) - z[label])
    g[label] -= 1.0
    g *= lr
    hidden_grad = output_weights.T @ g
    output_weights -= np.outer(g, h)
    if trainable:
        input_rows[ids] += np.outer(counts, -hidden_grad / total)
    return loss


def reference_train(docs, config):
    """train_supervised as one cell trained document by document with
    reference_doc_step, from the untrained model train_supervised gives at
    epochs=0."""
    model = train_supervised(docs, replace(config, epochs=0))
    rows = [doc_rows_reference(tokenize(d.text), model) for d in docs]
    rows = [(model.row_slots[ids].astype(np.int64), counts) for ids, counts in rows]
    labels = [d.label for d in docs]
    trainable = not (config.pretrained is not None and config.freeze_pretrained)
    total, step = config.epochs * len(docs), 0
    for epoch in range(config.epochs):
        loss = 0.0
        for di in np.random.default_rng((config.seed, epoch)).permutation(len(docs)):
            step += 1
            ids, counts = rows[di]
            if len(ids) == 0:
                loss += math.log(2.0)
                continue
            lr = np.float32(config.initial_lr * max(0.0, 1.0 - step / total))
            loss += reference_doc_step(model.input_rows, model.output_weights, ids, counts,
                                       labels[di], lr, trainable)
        model.loss_history.append(loss / len(docs))
    return model


def mixed_docs(n, seed):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        label = i % 2
        words = [f"w{j}" for j in rng.integers(0, 30, size=int(rng.integers(3, 12)))]
        words += [f"{'spam' if label else 'ham'}{j}" for j in rng.integers(0, 4, size=2)]
        docs.append(AccountDocument(f"d{seed}-{i}", " ".join(words), label))
    return docs


def mixed_cells():
    """Cells of different sizes and epochs, subwords on and off,
    pretrained vectors frozen and not, an empty document and a cell that
    does not train."""
    docs = mixed_docs(60, 1) + [AccountDocument("empty", "", 1)]
    words = [f"w{j}" for j in range(20)] + ["spam0", "ham0"]
    table = VectorTable(words, 0.5 * np.random.default_rng(9).standard_normal((len(words), 8)))
    index = SubwordIndex(2, 4, 50)
    return [
        (docs[:40], small_config(epochs=4, seed=1)),
        (docs[30:], small_config(epochs=6, subwords=index, seed=2)),
        (docs[:25] + docs[-1:], small_config(epochs=3, pretrained=table, seed=3)),
        (docs[5:30], small_config(epochs=5, pretrained=table, freeze_pretrained=True, seed=4)),
        (docs[:7], small_config(epochs=8, subwords=index, pretrained=table, initial_lr=0.8,
                                seed=5)),
        (docs[10:20], small_config(epochs=0, seed=6)),
    ]


class TestTrainMany:
    def test_matches_per_document_reference(self):
        cells = mixed_cells()
        test_tokens = [tokenize(d.text) for d in mixed_docs(40, 2)]
        for (docs, config), model in zip(cells, train_many(cells)):
            ref = reference_train(docs, config)
            assert model.vocab.words == ref.vocab.words
            assert model.bucket_ids.tolist() == ref.bucket_ids.tolist()
            assert [predict(t, model)[0] for t in test_tokens] == [
                predict(t, ref)[0] for t in test_tokens]
            assert np.abs(model.input_rows - ref.input_rows).max() <= 1e-5
            assert np.abs(model.output_weights - ref.output_weights).max() <= 1e-5
            assert len(model.loss_history) == config.epochs + 1
            assert model.loss_history == pytest.approx(ref.loss_history, rel=1e-6)

    def test_cell_alone_matches_cell_in_batch_bit_for_bit(self):
        cells = mixed_cells()
        for cell, model in zip(cells, train_many(cells)):
            alone = train_many([cell])[0]
            assert alone.input_rows.tobytes() == model.input_rows.tobytes()
            assert alone.output_weights.tobytes() == model.output_weights.tobytes()
            assert alone.loss_history == model.loss_history

    def test_frozen_and_untrained_cells_keep_their_rows(self):
        cells = mixed_cells()
        models = train_many(cells)
        for c in (3, 5):  # frozen pretrained, epochs=0
            docs, config = cells[c]
            init = train_supervised(docs, replace(config, epochs=0))
            assert models[c].input_rows.tobytes() == init.input_rows.tobytes()
        assert not models[3].output_weights.tobytes() == init.output_weights.tobytes()

    def test_cell_without_data_is_named(self):
        bad = small_config(min_count=1000)  # no word reaches min_count
        with pytest.raises(DataError, match="^cell 1: empty vocabulary") as info:
            train_many([(toy_docs(), small_config()), (toy_docs(), bad)])
        assert info.value.cell == 1
        with pytest.raises(DataError, match="^cell 0: empty training set$"):
            train_many([([], small_config())])

    def test_mixed_dim_rejected(self):
        with pytest.raises(ValueError, match="share dim"):
            train_many([(toy_docs(), small_config(dim=4)), (toy_docs(), small_config(dim=8))])

    @pytest.mark.parametrize("magnitude, initial_lr, message", [
        # each step moves the output weights by up to lr * 1e5, past the
        # 1e8 limit within the first epoch
        (1e5, 1e4, "cell 1: training diverged after epoch 0: parameter magnitude"),
        # the second step's logits overflow and the output weights turn NaN
        # numpy's overflow warnings stay off: the error is all it reports
        pytest.param(1e30, 0.5, "^cell 1: training diverged after epoch 0: parameter magnitude nan$",
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    ])
    def test_failing_cell_is_named(self, magnitude, initial_lr, message):
        table = VectorTable(["aaa", "bbb"], np.array([[magnitude, 0.0], [0.0, magnitude]]))
        bad = small_config(dim=2, epochs=3, initial_lr=initial_lr, pretrained=table,
                           freeze_pretrained=True)
        healthy = small_config(dim=2, epochs=3)
        with pytest.raises(TrainingError, match=message) as info:
            train_many([(toy_docs(), healthy), (toy_docs(), bad), (toy_docs(2), healthy)])
        assert info.value.cell == 1

    def test_guard_reads_input_rows_unless_frozen(self):
        # pretrained rows start past the 1e8 limit; at this lr the output
        # weights stay small, so only the input rows can trip the guard
        table = VectorTable(["aaa", "bbb"], np.array([[2e8, 0.0], [0.0, 2e8]]))

        def cells(freeze):
            config = small_config(dim=2, epochs=2, initial_lr=1e-10, pretrained=table,
                                  freeze_pretrained=freeze)
            return [(toy_docs(), small_config(dim=2, epochs=2)), (toy_docs(), config)]

        assert np.abs(train_many(cells(True))[1].output_weights).max() < 1.0
        with pytest.raises(TrainingError, match=(
                "^cell 1: training diverged after epoch 0: parameter magnitude 200000000.0$")):
            train_many(cells(False))


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        model = train_supervised(
            toy_docs(), small_config(epochs=3, subwords=SubwordIndex(2, 3, 16))
        )
        path = tmp_path / "clf.bin"
        save_classifier(model, path)
        loaded = load_classifier(path)
        assert loaded.vocab.words == model.vocab.words
        assert (loaded.input_rows == model.input_rows).all()
        assert (loaded.output_weights == model.output_weights).all()
        assert loaded.subwords == model.subwords

    def test_predictions_survive_round_trip(self, tmp_path):
        model = train_supervised(toy_docs(), small_config(epochs=10))
        path = tmp_path / "clf.bin"
        save_classifier(model, path)
        loaded = load_classifier(path)
        for text in ("aaa aaa", "bbb", "aaa bbb"):
            label_a, probs_a = predict(text.split(), model)
            label_b, probs_b = predict(text.split(), loaded)
            assert label_a == label_b
            assert (probs_a == probs_b).all()

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"GARBAGE")
        with pytest.raises(FormatError):
            load_classifier(path)

    def test_truncated_or_trailing_bytes_rejected(self, tmp_path):
        model = train_supervised(toy_docs(2), small_config(dim=2, epochs=1))
        path = tmp_path / "clf.bin"
        save_classifier(model, path)
        data = path.read_bytes()
        damaged = tmp_path / "damaged.bin"
        for size in range(len(data)):
            damaged.write_bytes(data[:size])
            with pytest.raises(FormatError, match="damaged.bin"):
                load_classifier(damaged)
        damaged.write_bytes(data + b"\0")
        with pytest.raises(FormatError, match=f"trailing bytes after offset {len(data)}"):
            load_classifier(damaged)

    def test_word_ngram_field_other_than_one_rejected(self, tmp_path):
        model = train_supervised(toy_docs(2), small_config(dim=2, epochs=1))
        path = tmp_path / "clf.bin"
        save_classifier(model, path)
        data = path.read_bytes()
        last_name = LABEL_NAMES[-1].encode("utf-8")
        at = data.index(struct.pack("<H", len(last_name)) + last_name) + 2 + len(last_name)
        assert data[at : at + 4] == struct.pack("<I", 1)
        damaged = tmp_path / "damaged.bin"
        for value in (0, 2):
            damaged.write_bytes(data[:at] + struct.pack("<I", value) + data[at + 4 :])
            with pytest.raises(FormatError, match=f"damaged.bin: word n-gram order {value}"):
                load_classifier(damaged)

"""The compact input table (vocab.InputTable) against the dense one it
stands for, and the memory it saves.

A model stores its word rows and the bucket rows training touches; every
other bucket reads init_bucket_rows. The dense reference is the word rows,
then init_bucket_rows over every bucket, with the stored rows written over
it: predictions, composed vectors and SGD steps must match it bit for bit.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from xldetect import classifier as clf
from xldetect import embedding as emb
from xldetect.corpus import AccountDocument, tokenize
from xldetect.errors import FormatError
from xldetect.vocab import (
    MAX_BUCKETS, SubwordIndex, init_bucket_rows, init_input_rows, word_rows_csr,
)

INDEX = SubwordIndex(3, 6, 1000)
DIM = 8
# train_docs repeats these 3 times and adds "zebra hello" once, so "rare",
# "once" and "zebra" fall below min_count = 4: their buckets are stored
# without a word row. The test tokens below are never seen in training
TRAIN_TEXTS = ["hello world hello", "kumusta mundo rare", "world mundo once", "hello kumusta"]
TEST_TOKENS = [
    ["hello", "unseen", "world"],
    ["kumustahan", "mundo", "zzz"],
    ["rare", "once", "hello"],
    ["ñandú", "日本語", "x"],
    ["q"],  # "<q>" has no n-gram of length 3..6 beyond itself
    [],
]


def dense_rows(model):
    """The (|V| + B, d) table the compact one stands for."""
    nwords = len(model.vocab)
    dense = np.concatenate((
        model.input_rows[:nwords],
        init_bucket_rows(np.arange(model.subwords.buckets), model.dim, model.bucket_seed),
    ))
    dense[nwords + model.bucket_ids] = model.input_rows[nwords:]
    return dense


def dense_classifier(model):
    """The same classifier with every bucket stored."""
    return clf.TextClassifier(
        model.vocab, model.subwords, dense_rows(model), model.output_weights.copy(),
        np.arange(model.subwords.buckets), model.bucket_seed,
    )


def train_docs():
    return [AccountDocument(f"d{i}", text, i % 2)
            for i, text in enumerate(TRAIN_TEXTS * 3 + ["zebra hello"])]


def config(**kw):
    defaults = dict(dim=DIM, epochs=4, initial_lr=0.5, min_count=4, subwords=INDEX, seed=7)
    defaults.update(kw)
    return clf.SupervisedConfig(**defaults)


class TestDenseEquivalence:
    def test_stored_set_is_every_training_bucket(self):
        model = clf.train_supervised(train_docs(), config(epochs=0))
        nwords = len(model.vocab)
        touched = set()
        for doc in train_docs():
            ids = model.doc_batch([tokenize(doc.text)])[1]
            touched.update((ids[ids >= nwords] - nwords).tolist())
        assert "zebra" not in model.vocab and touched
        assert model.bucket_ids.tolist() == sorted(touched)
        assert len(model.bucket_ids) < INDEX.buckets
        # stored rows start from the init rules
        assert model.input_rows[:nwords].tobytes() == init_input_rows(model.vocab, DIM, 7).tobytes()
        assert model.input_rows[nwords:].tobytes() == init_bucket_rows(
            model.bucket_ids, DIM, 7).tobytes()

    @pytest.mark.parametrize("pretrained", [False, True])
    def test_predict_matches_dense_table(self, pretrained):
        table = emb.VectorTable(["hello", "world"], np.ones((2, DIM))) if pretrained else None
        model = clf.train_supervised(train_docs(), config(pretrained=table))
        assert (model.bucket_seed is None) == pretrained
        dense = dense_classifier(model)
        unstored = 0
        for tokens in TEST_TOKENS:
            ids = model.doc_batch([tokens])[1]
            unstored += len(np.setdiff1d(ids[ids >= len(model.vocab)] - len(model.vocab),
                                         model.bucket_ids))
            label, probs = clf.predict(tokens, model)
            ref_label, ref_probs = clf.predict(tokens, dense)
            assert label == ref_label and probs.tobytes() == ref_probs.tobytes()
            assert (clf.doc_embedding(tokens, model).tobytes()
                    == clf.doc_embedding(tokens, dense).tobytes())
        assert unstored > 0  # the unseen tokens read rows from the init rule

    def test_sgd_steps_match_dense_table(self):
        # the trainer's own loop, run on the dense table with global ids
        cfg = config()
        init = clf.train_supervised(train_docs(), config(epochs=0))
        trained = clf.train_supervised(train_docs(), cfg)
        dense = dense_rows(init)
        weights = init.output_weights.copy()[None]  # the lone cell's 1 x 2 x d weights
        lengths, ids, shares = init.doc_batch([tokenize(d.text) for d in train_docs()])
        ends = np.cumsum(lengths)
        docs = [(ids[e - n : e], shares[e - n : e]) for n, e in zip(lengths, ends)]
        labels = [d.label for d in train_docs()]
        total, step = cfg.epochs * len(docs), 0
        for epoch in range(cfg.epochs):
            for di in np.random.default_rng((cfg.seed, epoch)).permutation(len(docs)):
                step += 1
                ids, share = docs[di]
                lr = np.float32(cfg.initial_lr * max(0.0, 1.0 - step / total))
                clf._sgd_step(dense, weights, np.array([0]), ids[None], share[None],
                              np.array([labels[di]]), np.array([lr]), ids[None])
        nwords = len(trained.vocab)
        assert trained.output_weights.tobytes() == weights[0].tobytes()
        assert trained.input_rows[:nwords].tobytes() == dense[:nwords].tobytes()
        stored = nwords + trained.bucket_ids
        assert trained.input_rows[nwords:].tobytes() == dense[stored].tobytes()
        assert not np.array_equal(trained.input_rows[nwords:], init.input_rows[nwords:])
        unstored = np.setdiff1d(np.arange(INDEX.buckets), trained.bucket_ids)
        assert dense[nwords + unstored].tobytes() == init_bucket_rows(
            unstored, DIM, cfg.seed).tobytes()

    def test_word_vector_and_table_match_dense_table(self):
        corpus = [tokenize(t) for t in TRAIN_TEXTS] * 5
        model = emb.train_skipgram(corpus, emb.SkipgramConfig(
            dim=DIM, epochs=2, min_count=1, subsample_t=1.0, window=2, subwords=INDEX, seed=3))
        nwords = len(model.vocab)
        flat = word_rows_csr(model.vocab, INDEX)[1]
        assert model.bucket_ids.tolist() == np.unique(flat[flat >= nwords] - nwords).tolist()
        assert len(model.bucket_ids) < INDEX.buckets
        dense = emb.EmbeddingMatrix(
            model.vocab, INDEX, dense_rows(model), model.context_rows,
            np.arange(INDEX.buckets), model.bucket_seed,
        )
        for word in model.vocab.words + ["unseen", "kumustahan", "日本語", "q"]:
            assert (emb.word_vector(word, model).tobytes()
                    == emb.word_vector(word, dense).tobytes())
        assert model.to_table().vectors.tobytes() == dense.to_table().vectors.tobytes()


def peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemory:
    """The default 2M-bucket table is 800 MB at d=100 when dense."""

    LIMIT_MB = 64
    DOCS = [AccountDocument(f"d{i}", text, i % 2) for i, text in enumerate(TRAIN_TEXTS)]

    @pytest.mark.parametrize("pretrained", [False, True])
    def test_train_supervised(self, pretrained):
        table = emb.VectorTable(["hello"], np.ones((1, 100))) if pretrained else None
        cfg = clf.SupervisedConfig(dim=100, epochs=2, pretrained=table)
        assert peak_mb(lambda: clf.train_supervised(self.DOCS, cfg)) < self.LIMIT_MB

    def test_train_skipgram(self):
        corpus = [tokenize(t) for t in TRAIN_TEXTS] * 3
        cfg = emb.SkipgramConfig(dim=100, epochs=1, min_count=1)
        assert peak_mb(lambda: emb.train_skipgram(corpus, cfg)) < self.LIMIT_MB

    def test_save_load_predict(self, tmp_path):
        path = tmp_path / "clf.bin"
        model = clf.train_supervised(self.DOCS, clf.SupervisedConfig(dim=100, epochs=1))

        def round_trip():
            clf.save_classifier(model, path)
            clf.predict(["hello", "unseen"], clf.load_classifier(path))

        assert peak_mb(round_trip) < self.LIMIT_MB
        assert path.stat().st_size < 2**20

    def test_scoring_follows_the_block(self):
        # 500 documents of 20 unseen tokens, about 360 rows each: dense,
        # their (documents x width x d) block would be about 72 MB; scored
        # in blocks of _BLOCK_SLOTS slots, the peak is a few blocks plus
        # the output
        model = clf.train_supervised(self.DOCS, clf.SupervisedConfig(dim=100, epochs=1))
        assert model.subwords.buckets == 2_000_000
        rng = np.random.default_rng(5)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        docs = [["".join(rng.choice(letters, size=6)) for _ in range(20)] for _ in range(500)]
        batch = model.doc_batch(docs)
        row_bytes = 4 * model.dim
        dense_mb = len(docs) * int(batch[0].max()) * row_bytes / 2**20
        limit_mb = (6 * clf._BLOCK_SLOTS + len(docs)) * row_bytes / 2**20
        assert limit_mb < dense_mb / 6
        assert peak_mb(lambda: clf.doc_vectors(model, batch)) < limit_mb

    def test_bucket_count_in_the_head_allocates_nothing(self, tmp_path):
        # a file whose head claims MAX_BUCKETS loads, and predicting from it
        # allocates nothing of that size; a head that claims 2^40 buckets
        # (one flipped bit) is rejected before anything is allocated
        path = tmp_path / "clf.bin"
        clf.save_classifier(clf.train_supervised(self.DOCS, clf.SupervisedConfig(dim=100, epochs=1)),
                            path)
        data = bytearray(path.read_bytes())
        at = len(b"XLCLF2") + struct.calcsize("<II")
        assert struct.unpack_from("<Q", data, at)[0] == 2_000_000
        struct.pack_into("<Q", data, at, MAX_BUCKETS)
        path.write_bytes(bytes(data))

        def load_predict():
            model = clf.load_classifier(path)
            assert model.subwords.buckets == MAX_BUCKETS
            clf.predict(["hello", "unseen"], model)

        assert peak_mb(load_predict) < self.LIMIT_MB
        struct.pack_into("<Q", data, at, 2**40)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="clf.bin: bad subword head at byte 6: buckets"):
            clf.load_classifier(path)

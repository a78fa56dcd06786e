import logging
import re

import numpy as np
import pytest

from subword_spec import input_ids
from xldetect.embedding import (
    AliasSampler,
    EmbeddingMatrix,
    SkipgramConfig,
    VectorTable,
    load_checkpoint,
    load_vectors,
    _epoch_guard,
    _keep_probs,
    _learning_rate,
    _segment_sum,
    _sentence_step,
    _STEP_CENTERS,
    _unique_inverse,
    _WordRows,
    negative_table,
    save_checkpoint,
    save_vectors,
    train_skipgram,
    word_vector,
)
from xldetect.errors import FormatError, TrainingError
from xldetect.vocab import SubwordIndex, build_vocab, word_rows_csr


def cluster_corpus(reps=30):
    return [["a", "b"] * 20, ["c", "d"] * 20] * reps


def small_config(**kw):
    defaults = dict(
        dim=16, epochs=3, min_count=1, seed=5, subwords=None, subsample_t=1e-2
    )
    defaults.update(kw)
    return SkipgramConfig(**defaults)


def sampled_loss(model, sample):
    """Mean negative-sampling loss -log s(u_c.h) - sum log s(-u_n.h) over
    fixed (center, context, negatives) triples, h the center's word vector."""
    u = model.context_rows.astype(np.float64)
    total = 0.0
    for center, ctx, negs in sample:
        h = word_vector(model.vocab.words[center], model).astype(np.float64)
        total += np.logaddexp(0.0, -(u[ctx] @ h)) + np.logaddexp(0.0, u[negs] @ h).sum()
    return total / len(sample)


def cos(x, y):
    return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))


class TestNegativeSampler:
    def test_single_word(self):
        vocab = build_vocab([["only", "only"]], min_count=1)
        sampler = negative_table(vocab)
        rng = np.random.default_rng(0)
        assert (sampler.sample(rng, 100) == 0).all()

    def test_count_power_ratio(self):
        # counts 16 and 1 -> 16^0.75 : 1 = 8 : 1
        vocab = build_vocab([["big"] * 16 + ["small"]], min_count=1)
        sampler = negative_table(vocab)
        rng = np.random.default_rng(123)
        draws = sampler.sample(rng, 1_000_000)
        big = (draws == vocab.word_to_id["big"]).sum()
        small = (draws == vocab.word_to_id["small"]).sum()
        ratio = big / small
        assert abs(ratio - 8.0) / 8.0 < 0.05

    def test_uniform_counts_chi_square(self):
        vocab = build_vocab([["w1", "w2", "w3", "w4"] * 10], min_count=1)
        sampler = negative_table(vocab)
        rng = np.random.default_rng(7)
        n = 1_000_000
        draws = sampler.sample(rng, n)
        observed = np.bincount(draws, minlength=4)
        expected = n / 4
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 11.345  # chi-square critical value, df=3, alpha=0.01

    def test_deterministic_given_seed(self):
        vocab = build_vocab([["x", "x", "y", "z"]], min_count=1)
        sampler = negative_table(vocab)
        a = sampler.sample(np.random.default_rng(42), 1000)
        b = sampler.sample(np.random.default_rng(42), 1000)
        assert (a == b).all()

    def test_alias_distribution_exact(self):
        # alias construction must preserve probabilities exactly
        w = np.array([3.0, 1.0, 6.0])
        sampler = AliasSampler(w)
        p = np.zeros(3)
        for i in range(3):
            p[i] += sampler.accept[i] / 3
            p[sampler.alias[i]] += (1 - sampler.accept[i]) / 3
        assert np.abs(p - w / w.sum()).max() < 1e-12


class TestTrainSkipgram:
    def test_cluster_structure_learned(self):
        model = train_skipgram(cluster_corpus(), small_config(epochs=5, seed=3))
        a, b, c = (word_vector(w, model) for w in "abc")
        assert cos(a, b) > cos(a, c)

    def test_zero_epochs_is_initialization(self):
        cfg = small_config(epochs=0)
        m1 = train_skipgram(cluster_corpus(), cfg)
        m2 = train_skipgram(cluster_corpus(), cfg)
        assert (m1.input_rows == m2.input_rows).all()
        assert (m1.context_rows == 0).all()
        bound = 1.0 / cfg.dim + 1e-7
        assert np.abs(m1.input_rows).max() <= bound

    def test_objective_improves_after_training(self):
        corpus = cluster_corpus()
        cfg = small_config(epochs=0, seed=11)
        init = train_skipgram(corpus, cfg)
        trained = train_skipgram(corpus, small_config(epochs=2, seed=11))
        # evaluation sample of true co-occurring pairs with noise negatives
        rng = np.random.default_rng(0)
        sampler = negative_table(init.vocab)
        sample = []
        for _ in range(200):
            sent = corpus[rng.integers(0, len(corpus))]
            i = int(rng.integers(0, len(sent) - 1))
            center = init.vocab.word_to_id[sent[i]]
            ctx = init.vocab.word_to_id[sent[i + 1]]
            sample.append((center, ctx, sampler.sample(rng, 5)))
        assert sampled_loss(trained, sample) < sampled_loss(init, sample)

    def test_bit_reproducible_single_worker(self):
        cfg = small_config(epochs=2, seed=9)
        m1 = train_skipgram(cluster_corpus(), cfg)
        m2 = train_skipgram(cluster_corpus(), cfg)
        assert (m1.input_rows == m2.input_rows).all()
        assert (m1.context_rows == m2.context_rows).all()

    def test_empty_vocab_raises(self):
        with pytest.raises(ValueError):
            train_skipgram([["one", "two"]], small_config(min_count=10))

    def test_all_entries_finite_with_subwords(self):
        corpus = [["hello", "world", "hello"], ["subword", "hello", "world"]] * 20
        cfg = small_config(subwords=SubwordIndex(3, 4, 50), epochs=2)
        model = train_skipgram(corpus, cfg)
        assert np.isfinite(model.input_rows).all()

    def test_lr_schedule_nonnegative(self):
        cfg = SkipgramConfig(dim=4, epochs=1, min_count=1, subwords=None)
        total = 100
        for t in range(total + 1):
            assert _learning_rate(cfg.initial_lr, t, total) >= 0.0

    def test_subsample_keep_rule(self):
        # words at or below the threshold frequency are never discarded;
        # counts 1, 2, 8 of 11 are frequencies t/2, t and 4t for t = 2/11
        vocab = build_vocab([["a"] + ["b"] * 2 + ["c"] * 8], min_count=1)
        t = 2 / 11
        keep = dict(zip(vocab.words, _keep_probs(vocab, t)))
        assert keep["a"] == 1.0 and keep["b"] == 1.0
        assert keep["c"] == pytest.approx(0.5)

    def test_logged_loss_falls_over_epochs(self, caplog):
        caplog.set_level(logging.INFO, logger="xldetect.embedding")
        train_skipgram(cluster_corpus(), small_config(epochs=5, seed=3))
        losses = [
            float(m.group(1))
            for m in (re.search(r"epoch \d+/5: mean loss ([0-9.]+)", r.getMessage())
                      for r in caplog.records)
            if m
        ]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_long_sentence_steps_are_bounded(self, monkeypatch):
        # a step's memory grows with its pairs, so a long document takes
        # one step per run of at most _STEP_CENTERS centers
        import xldetect.embedding as emb

        real, steps, slots = emb._sentence_step, [], set()

        def spy(input_rows, context_rows, word_rows, centers, *rest):
            steps.append(len(centers))
            slots.add(id(word_rows.slot))
            return real(input_rows, context_rows, word_rows, centers, *rest)

        monkeypatch.setattr(emb, "_sentence_step", spy)
        words = [f"w{i % 7}" for i in range(3 * emb._STEP_CENTERS + 10)]
        cfg = small_config(epochs=1, window=2, subsample_t=1.0)
        train_skipgram([words[: emb._STEP_CENTERS], words], cfg)
        assert len(steps) == 1 + 4
        assert max(steps) <= emb._STEP_CENTERS * 2 * cfg.window
        assert len(slots) == 1  # the dedup scratch is allocated once per training

    @pytest.mark.parametrize("subwords", [None, SubwordIndex(3, 4, 50)])
    def test_tables_match_unique_step(self, monkeypatch, subwords):
        # the production step against the np.unique step it replaced, through
        # the whole loop: subsampling, a sentence longer than _STEP_CENTERS
        import xldetect.embedding as emb

        corpus = cluster_corpus(10) + [[f"w{i % 40}" for i in range(emb._STEP_CENTERS + 50)]]
        cfg = small_config(epochs=2, initial_lr=0.01, subsample_t=0.01, subwords=subwords)
        model = train_skipgram(corpus, cfg)
        monkeypatch.setattr(emb, "_sentence_step", unique_sentence_step)
        want = train_skipgram(corpus, cfg)
        assert model.input_rows.tobytes() == want.input_rows.tobytes()
        assert model.context_rows.tobytes() == want.context_rows.tobytes()

    def test_word_rows_csr_matches_input_ids(self):
        corpus = [["hello", "world", "hello"], ["subword", "hello", "world"]]
        vocab = build_vocab(corpus, min_count=1)
        idx = SubwordIndex(3, 4, 50)
        for index in (idx, None):
            indptr, flat = word_rows_csr(vocab, index)
            for w, word in enumerate(vocab.words):
                assert flat[indptr[w] : indptr[w + 1]].tolist() == input_ids(word, vocab, index)

    def test_check_finite_scans_every_block(self):
        # every matrix passed is read to its first and its last element, and
        # a non-finite entry anywhere raises
        first = np.ones((3, 2), dtype=np.float32)
        second = np.zeros((4, 2), dtype=np.float32)
        _epoch_guard(0, first, second)  # no raise
        for table in (first, second):
            for bad, shown in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")):
                for at in ((0, 0), (-1, -1)):
                    clean = table[at]
                    table[at] = bad
                    with pytest.raises(TrainingError, match=(
                            f"^training diverged after epoch 2: parameter magnitude {shown}$")):
                        _epoch_guard(2, first, second)
                    table[at] = clean

    def test_divergence_guards(self):
        # a finite parameter above the limit raises, the magnitude prints as a
        # plain float, and the limit itself is within bounds
        first = np.ones((3, 2), dtype=np.float32)
        second = np.zeros((4, 2), dtype=np.float32)
        for bad, shown in ((2e8, "200000000.0"), (-2e8, "200000000.0")):
            for at in ((0, 0), (-1, -1)):
                second[at] = bad
                with pytest.raises(TrainingError, match=(
                        f"^training diverged after epoch 3: parameter magnitude {shown}$")):
                    _epoch_guard(3, first, second)
                second[at] = 0.0
        second[-1, -1] = -1e8
        _epoch_guard(0, first, second)
        _epoch_guard(0, np.array([[1.0]], dtype=np.float32))  # no raise

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises(self):
        # at lr 1e3 the scores overflow in the first epoch and the tables turn
        # NaN; numpy's overflow warnings stay off, so the error is all it reports
        with pytest.raises(TrainingError, match=(
                "^training diverged after epoch 0: parameter magnitude nan$")):
            train_skipgram(cluster_corpus(), small_config(initial_lr=1e3))

    def test_guard_reads_context_rows(self, monkeypatch):
        import xldetect.embedding as emb

        def step(input_rows, context_rows, *rest):
            context_rows[-1, -1] = np.inf  # the input rows stay finite
            return 0.0

        monkeypatch.setattr(emb, "_sentence_step", step)
        with pytest.raises(TrainingError, match="epoch 0: parameter magnitude inf$"):
            train_skipgram(cluster_corpus(2), small_config(epochs=2))


def negative_sampling_loss(input_rows, context_rows, rows, centers, contexts, negatives):
    """Reference objective of a sentence, pair by pair and term by term: h
    is the mean of the center word's rows, and a noise draw equal to its
    own context word is left out."""
    loss = 0.0
    for center, c, negs in zip(centers, contexts, negatives):
        h = input_rows[rows[center]].mean(axis=0)
        loss += np.logaddexp(0.0, -(context_rows[c] @ h))
        for n in negs:
            if n != c:
                loss += np.logaddexp(0.0, context_rows[n] @ h)
    return loss


class TestPairGradients:
    # word 0 repeats subword row 4, which word 1 shares; word 0 is the
    # center of two pairs, context 2 is shared by centers 0 and 1
    ROWS = [[0, 4, 4], [1, 4, 5], [2, 5], [3]]
    CENTERS = np.array([0, 0, 1])
    CONTEXTS = np.array([1, 2, 2])

    def test_matches_finite_differences(self):
        # the step is linear in lr at the pre-step parameters, so on 64-bit
        # tables -delta/lr is the analytic gradient
        rng = np.random.default_rng(21)
        lr, eps = 0.5, 1e-6
        for trial in range(20):
            rows = self.ROWS if trial % 2 else [[0], [1], [2], [3]]
            word_rows = _WordRows.of(np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows))
            d = 5
            input_rows = rng.standard_normal((6, d)) * 0.5
            context_rows = rng.standard_normal((4, d)) * 0.5
            ctx = self.CONTEXTS
            negs = rng.integers(0, 4, size=(3, 3))
            negs[0, 0] = ctx[0]  # a noise draw equal to its own context
            args = (rows, self.CENTERS, ctx, negs)
            new_in, new_ctx = input_rows.copy(), context_rows.copy()
            loss = _sentence_step(new_in, new_ctx, word_rows, self.CENTERS, ctx, negs, lr)
            assert loss == pytest.approx(negative_sampling_loss(input_rows, context_rows, *args))
            for params, analytic in (
                (input_rows, (input_rows - new_in) / lr),
                (context_rows, (context_rows - new_ctx) / lr),
            ):
                for idx in np.ndindex(params.shape):
                    saved = params[idx]
                    params[idx] = saved + eps
                    lp = negative_sampling_loss(input_rows, context_rows, *args)
                    params[idx] = saved - eps
                    lm = negative_sampling_loss(input_rows, context_rows, *args)
                    params[idx] = saved
                    fd = (lp - lm) / (2 * eps)
                    assert abs(fd - analytic[idx]) <= 1e-4 * max(1.0, abs(fd))


def reference_sentence_step(input_rows, context_rows, word_rows, centers, contexts, negatives, lr):
    """_sentence_step with one gathered context row per (pair, target): the
    scores are an einsum over a P x (K+1) x d gather, and every (pair,
    target) row of the context update is summed by its target."""
    words, center_of = np.unique(centers, return_inverse=True)
    indptr, flat = word_rows.indptr, word_rows.flat
    counts = indptr[words + 1] - indptr[words]
    row_word = np.repeat(np.arange(len(words)), counts)
    starts = np.repeat(indptr[words] - (np.cumsum(counts) - counts), counts)
    rows = flat[np.arange(len(row_word)) + starts]
    h_words = _segment_sum(row_word, input_rows[rows], len(words)) / counts[:, None]
    h = h_words.astype(input_rows.dtype, copy=False)[center_of]
    targets = np.concatenate((contexts[:, None], negatives), axis=1)
    u = context_rows[targets]
    scores = np.einsum("pkd,pd->pk", u, h)
    np.clip(scores, -30.0, 30.0, out=scores)
    losses = np.logaddexp(0.0, scores)
    losses[:, 0] -= scores[:, 0]
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:, 0] -= 1.0
    own = negatives == contexts[:, None]
    g[:, 1:][own] = 0.0
    losses[:, 1:][own] = 0.0
    g *= lr
    grad_h = _segment_sum(center_of, np.einsum("pk,pkd->pd", g, u), len(words))
    ids, target_of = np.unique(targets, return_inverse=True)
    context_rows[ids] -= _segment_sum(
        target_of.ravel(), (g[:, :, None] * h[:, None, :]).reshape(-1, h.shape[1]), len(ids)
    )
    ids, row_of = np.unique(rows, return_inverse=True)
    input_rows[ids] -= _segment_sum(row_of, (grad_h / counts[:, None])[row_word], len(ids))
    return float(losses.sum(dtype=np.float64))


def unique_sentence_step(input_rows, context_rows, word_rows, centers, contexts, negatives, lr):
    """_sentence_step with np.unique for its three dedups and segment sums
    for every word's rows: the production step must match it bit for bit."""
    words, center_of = np.unique(centers, return_inverse=True)
    indptr, flat = word_rows.indptr, word_rows.flat
    counts = indptr[words + 1] - indptr[words]
    row_word = np.repeat(np.arange(len(words)), counts)
    starts = np.repeat(indptr[words] - (np.cumsum(counts) - counts), counts)
    rows = flat[np.arange(len(row_word)) + starts]
    h = _segment_sum(row_word, input_rows[rows], len(words)) / counts[:, None]
    h = h.astype(input_rows.dtype, copy=False)
    targets = np.concatenate((contexts[:, None], negatives), axis=1)
    tids, target_of = np.unique(targets, return_inverse=True)
    c = context_rows[tids]
    cells = target_of.reshape(targets.shape) * len(words) + center_of[:, None]
    scores = (c @ h.T).ravel()[cells]
    np.clip(scores, -30.0, 30.0, out=scores)
    losses = np.logaddexp(0.0, scores)
    losses[:, 0] -= scores[:, 0]
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:, 0] -= 1.0
    own = negatives == contexts[:, None]
    g[:, 1:][own] = 0.0
    losses[:, 1:][own] = 0.0
    g *= lr
    s = np.bincount(cells.ravel(), weights=g.ravel(), minlength=len(tids) * len(words))
    s = s.reshape(len(tids), len(words)).astype(context_rows.dtype, copy=False)
    grad_h = s.T @ c
    context_rows[tids] -= s @ h
    ids, row_of = np.unique(rows, return_inverse=True)
    input_rows[ids] -= _segment_sum(row_of, (grad_h / counts[:, None])[row_word], len(ids))
    return float(losses.sum(dtype=np.float64))


def random_step_case(rng, n_centers, buckets, n_words=12, d=8, window=3, k=4):
    """Tables and the pairs of one random sentence, built as train_skipgram
    builds them. With buckets, word 0 holds bucket row 0 twice and word 1
    holds it too; other words draw up to three bucket rows."""
    rows = [[w] for w in range(n_words)]
    if buckets:
        for word in rows:
            word += (n_words + rng.integers(0, buckets, size=rng.integers(0, 4))).tolist()
        rows[0] += [n_words, n_words]
        rows[1] += [n_words]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    word_rows = _WordRows.of(indptr, np.concatenate(rows).astype(np.int64))
    sent = rng.integers(0, n_words, size=n_centers)  # centers repeat, contexts are shared
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    pos = np.arange(n_centers)[:, None] + offsets
    live = (pos >= 0) & (pos < n_centers)
    centers = np.broadcast_to(sent[:, None], live.shape)[live]
    contexts = sent[pos[live]]
    negatives = rng.integers(0, n_words, size=(len(centers), k))
    negatives[0, 1] = contexts[0]  # a noise draw equal to its own context
    input_rows = rng.standard_normal((n_words + buckets, d)) * 0.5
    context_rows = rng.standard_normal((n_words, d)) * 0.5
    return input_rows, context_rows, word_rows, centers, contexts, negatives


class TestSentenceStep:
    CASES = [(n, buckets) for n in (6, 40, _STEP_CENTERS + 20) for buckets in (0, 7)]

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        for n_centers, buckets in self.CASES * 3:
            input_rows, context_rows, *pairs = random_step_case(rng, n_centers, buckets)
            want_in, want_ctx = input_rows.copy(), context_rows.copy()
            want = reference_sentence_step(want_in, want_ctx, *pairs, 0.3)
            loss = _sentence_step(input_rows, context_rows, *pairs, 0.3)
            assert abs(loss - want) <= 1e-12 * max(1.0, abs(want))
            assert np.abs(input_rows - want_in).max() <= 1e-12
            assert np.abs(context_rows - want_ctx).max() <= 1e-12

    def test_bit_identical_to_unique_step(self):
        # one-row words (no buckets) and words sharing and repeating bucket
        # rows, with repeated centers and targets and a noise draw equal to
        # its own context, on float64 and float32 tables
        rng = np.random.default_rng(6)
        for n_centers, buckets in self.CASES * 2:
            input64, context64, *pairs = random_step_case(rng, n_centers, buckets)
            for dtype in (np.float64, np.float32):
                input_rows, context_rows = input64.astype(dtype), context64.astype(dtype)
                want_in, want_ctx = input_rows.copy(), context_rows.copy()
                want = unique_sentence_step(want_in, want_ctx, *pairs, 0.3)
                loss = _sentence_step(input_rows, context_rows, *pairs, 0.3)
                assert loss == want
                assert input_rows.tobytes() == want_in.tobytes()
                assert context_rows.tobytes() == want_ctx.tobytes()

    def test_updates_in_table_dtype(self):
        # float32 tables are updated in place and stay float32; the float64
        # step of the same case is the reference, up to float32 rounding
        rng = np.random.default_rng(8)
        for n_centers, buckets in self.CASES:
            input64, context64, *pairs = random_step_case(rng, n_centers, buckets)
            input_rows, context_rows = input64.astype(np.float32), context64.astype(np.float32)
            before_in, before_ctx = input_rows.copy(), context_rows.copy()
            loss = _sentence_step(input_rows, context_rows, *pairs, 0.3)
            want = _sentence_step(input64, context64, *pairs, 0.3)
            assert input_rows.dtype == np.float32 and context_rows.dtype == np.float32
            assert (input_rows != before_in).any() and (context_rows != before_ctx).any()
            assert np.abs(input_rows - input64).max() <= 1e-4
            assert np.abs(context_rows - context64).max() <= 1e-4
            assert loss == pytest.approx(want, rel=1e-5)

    def test_long_document_memory(self):
        # one 20k-token document at the 256-center cap: the step holds a
        # (T x W) coefficient matrix, not P x (K+1) x d gathered rows
        import tracemalloc

        rng = np.random.default_rng(3)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        words = ["".join(rng.choice(letters, size=rng.integers(3, 9))) for _ in range(2000)]
        zipf = 1.0 / np.arange(1, len(words) + 1)
        doc = [words[i] for i in rng.choice(len(words), size=20000, p=zipf / zipf.sum())]
        cfg = SkipgramConfig(
            dim=100, window=5, epochs=1, subsample_t=1.0, min_count=1,
            subwords=SubwordIndex(3, 6, 20000),
        )
        tracemalloc.start()
        try:
            train_skipgram([doc], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28e6


class TestUniqueInverse:
    def check(self, ids, slot):
        want, want_of = np.unique(ids, return_inverse=True)
        got, got_of = _unique_inverse(ids, slot)
        assert got.dtype == want.dtype and got_of.dtype == want_of.dtype
        assert (got == want).all() and (got_of == want_of.ravel()).all()

    def test_matches_np_unique(self):
        rng = np.random.default_rng(2)
        n = 50
        slot = np.empty(n, dtype=np.intp)
        cases = [
            rng.integers(0, n, size=200),
            np.full(30, 17),  # all equal
            rng.permutation(n)[:20],  # already unique
            np.array([n - 1, 0, n - 1, 0]),  # both ends of the slot array
            np.array([3]),
            np.array([], dtype=np.int64),
        ]
        for ids in cases:
            self.check(ids.astype(np.int64), slot)

    def test_stale_slots_do_not_leak(self):
        # back to back on one slot array: overlapping, disjoint and subset
        # inputs read no slot that an earlier call left behind
        rng = np.random.default_rng(3)
        n = 40
        slot = np.empty(n, dtype=np.intp)
        for _ in range(50):
            lo = int(rng.integers(0, n - 1))
            hi = int(rng.integers(lo + 1, n + 1))
            self.check(rng.integers(lo, hi, size=int(rng.integers(1, 60))), slot)


class TestWordVector:
    def test_zero_rows_give_zero_vector(self):
        vocab = build_vocab([["w", "w"]], min_count=1)
        idx = SubwordIndex(3, 3, 5)
        rows = np.zeros((len(vocab) + 5, 4), dtype=np.float32)
        model = EmbeddingMatrix(vocab, idx, rows, np.zeros((1, 4), dtype=np.float32), np.arange(5))
        assert (word_vector("w", model) == 0).all()

    def test_oov_is_bucket_mean(self):
        vocab = build_vocab([["w", "w"]], min_count=1)
        idx = SubwordIndex(3, 3, 5)
        rows = np.arange((1 + 5) * 2, dtype=np.float32).reshape(6, 2)
        model = EmbeddingMatrix(vocab, idx, rows, np.zeros((1, 2), dtype=np.float32), np.arange(5))
        ids = input_ids("xy", vocab, idx)
        expected = rows[ids].mean(axis=0)
        assert np.allclose(word_vector("xy", model), expected)

    def test_oov_without_subwords_is_zero(self):
        vocab = build_vocab([["w", "w"]], min_count=1)
        # no bucket table, or no n-gram: "<ab>" is shorter than n_min = 5
        for idx, word in ((None, "other"), (SubwordIndex(5, 6, 10), "ab")):
            buckets = idx.buckets if idx is not None else 0
            rows = np.ones((1 + buckets, 3), dtype=np.float32)
            model = EmbeddingMatrix(vocab, idx, rows, np.zeros((1, 3), dtype=np.float32),
                                    np.arange(buckets))
            assert input_ids(word, vocab, idx) == []
            assert (word_vector(word, model) == 0).all()


class TestVectorIO:
    def make_table(self):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64)
        return VectorTable(["alpha", "beta", "gamma", "delta"], vectors)

    def test_round_trip_bitwise(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "vectors.txt"
        save_vectors(table, path)
        loaded = load_vectors(path)
        assert loaded.words == table.words
        assert (loaded.vectors == table.vectors).all()

    def test_save_is_idempotent(self, tmp_path):
        table = self.make_table()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_vectors(table, p1)
        save_vectors(load_vectors(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\nw1 1 2 3\nw2 1 2 3\nw3 1 2 3\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vectors(path)

    def test_dimension_check(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "vectors.txt"
        save_vectors(table, path)
        assert load_vectors(path, expect_dim=3).dim == 3
        with pytest.raises(FormatError):
            load_vectors(path, expect_dim=50)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2 2\nw 1 2\nw 3 4\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vectors(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        for body in ("w 1 oops", "w 1 nan", "w inf 1"):
            path.write_text(f"1 2\n{body}\n", encoding="utf-8")
            with pytest.raises(FormatError, match=r"nan\.txt:2: "):
                load_vectors(path)

    def test_bad_header_values_rejected(self, tmp_path):
        path = tmp_path / "header.txt"
        # a negative dimension, and one that promises more values than the file holds
        for text in ("0 -1\n", "1 1000000000000\nw 1\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(FormatError, match=r"header\.txt:1: "):
                load_vectors(path)

    def test_error_names_physical_line(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("2 2\nw1 1 2\n\nw2 1 oops\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"gap\.txt:4: "):
            load_vectors(path)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        corpus = [["hello", "world", "again"], ["world", "again", "hello"]] * 10
        cfg = small_config(subwords=SubwordIndex(3, 4, 30), epochs=1)
        model = train_skipgram(corpus, cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.vocab.words == model.vocab.words
        assert (loaded.input_rows == model.input_rows).all()
        assert (loaded.context_rows == model.context_rows).all()
        assert loaded.subwords == model.subwords

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTEMB WHATEVER")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_or_trailing_bytes_rejected(self, tmp_path):
        corpus = [["ab", "cd"], ["cd", "ab"]] * 3
        model = train_skipgram(corpus, small_config(dim=2, epochs=1, subwords=SubwordIndex(2, 2, 3)))
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        data = path.read_bytes()
        damaged = tmp_path / "damaged.bin"
        for size in range(len(data)):
            damaged.write_bytes(data[:size])
            with pytest.raises(FormatError, match="damaged.bin"):
                load_checkpoint(damaged)
        damaged.write_bytes(data + b"\0")
        with pytest.raises(FormatError, match=f"trailing bytes after offset {len(data)}"):
            load_checkpoint(damaged)

    def test_composed_table_matches_word_vector(self):
        # short and multi-byte words; at n_min = 5 the shortest have no n-gram
        corpus = [["aa", "bb", "cc", "ñandú", "日本", "x"], ["bb", "cc", "aa", "😀z"]] * 10
        for subwords in (SubwordIndex(2, 3, 20), SubwordIndex(5, 6, 20), None):
            model = train_skipgram(corpus, small_config(epochs=1, subwords=subwords))
            table = model.to_table()
            assert table.words == model.vocab.words
            for word in model.vocab.words:
                assert (table.get(word) == word_vector(word, model).astype(np.float64)).all()

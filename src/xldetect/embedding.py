"""Skipgram word embeddings with negative sampling.

Each word's vector is the mean of its own input row and the hashed rows
of its character n-grams. The model stores the bucket rows of its
vocabulary words only; any other bucket reads its initial value
(vocab.InputTable). Training takes one SGD step per sentence: after
subsampling and the window-radius draw, every (center, context) pair of
the sentence is scored against noise words drawn from the unigram^0.75
distribution, all reads see the pre-step parameters, and the step is
-lr times the gradient of the sentence's summed pair loss. The step's
context side is two small products over (unique targets x unique
centers): no row is gathered or scattered per (pair, target). A step
finds its unique centers, targets and input rows with _unique_inverse,
which sorts only the unique ids and reads the inverse from a slot array
allocated once per training, so its cost does not grow with the table.
Without subwords every word is its own single row, and a center's row
is read and updated directly instead of through segment sums, with the
same bits. A sentence of more than _STEP_CENTERS kept tokens takes one
such step per run of that many centers, so a step's memory does not grow
with the document. When no word's frequency exceeds subsample_t,
subsampling draws nothing. Training is bit-reproducible for a fixed seed.

The learning rate decays linearly to 0 over the scheduled tokens
(_learning_rate, the one decay formula of both SGD trainers). One guard,
_epoch_guard, runs after every epoch of both trainers on every matrix
that epoch trained, here the input and the context rows. It raises
TrainingError on a non-finite parameter or one above _PARAM_LIMIT in
magnitude, and no other divergence check exists; both trainers run with
numpy's overflow warnings off, so that error is all a divergence prints.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import formats
from .errors import FormatError, TrainingError
from .params import at_least, check, param, positive
from .vocab import (
    InputTable,
    SubwordIndex,
    Vocabulary,
    build_vocab,
    init_input_rows,
    input_ids,
    word_rows_csr,
)

logger = logging.getLogger(__name__)

_MAGIC_CHECKPOINT = b"XLEMB2"
_PARAM_LIMIT = 1e8  # divergence guard on parameter magnitude
_SCORE_CLIP = 30.0
_STEP_CENTERS = 256  # bounds a step's memory on long documents


@dataclass
class SkipgramConfig:
    # fastText's skipgram defaults (Bojanowski et al. 2017, arXiv 1607.04606)
    dim: int = param(100, at_least(1))
    epochs: int = param(5, at_least(0))
    initial_lr: float = param(0.05, positive())
    window: int = param(5, at_least(1))
    negatives: int = param(5, at_least(1))
    subsample_t: float = param(1e-4, positive())
    min_count: int = param(5, at_least(1))
    seed: int = 1
    subwords: SubwordIndex | None = field(default_factory=SubwordIndex)

    def __post_init__(self):
        check(self)


class EmbeddingMatrix(InputTable):
    """Trained (or initialized) embedding parameters.

    The input side is a vocab.InputTable: the |V| word rows, then the
    stored bucket rows. context_rows holds the |V| output-side rows used
    only during training.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        subwords: SubwordIndex | None,
        input_rows: np.ndarray,
        context_rows: np.ndarray,
        bucket_ids: np.ndarray | None = None,
        bucket_seed: int | None = None,
    ):
        super().__init__(vocab, subwords, input_rows, bucket_ids, bucket_seed)
        if context_rows.shape != (len(vocab), input_rows.shape[1]):
            raise ValueError("context_rows shape inconsistent with vocab and dim")
        self.context_rows = context_rows

    def to_table(self) -> "VectorTable":
        """Composed per-word vectors, in vocabulary (frequency) order; row
        i is word_vector(vocab.words[i]) bit for bit, from one word_rows_csr."""
        indptr, flat = word_rows_csr(self.vocab, self.subwords)
        ids, at = np.unique(flat, return_inverse=True)
        rows = self.rows(ids)
        vectors = np.empty((len(self.vocab), self.dim), dtype=np.float64)
        for i, (a, b) in enumerate(zip(indptr[:-1].tolist(), indptr[1:].tolist())):
            vectors[i] = rows[at[a:b]].mean(axis=0)
        return VectorTable(list(self.vocab.words), vectors)


class VectorTable:
    """Ordered word -> vector mapping (row order is frequency rank)."""

    def __init__(self, words: list[str], vectors: np.ndarray):
        if len(words) != vectors.shape[0]:
            raise ValueError("words/vectors length mismatch")
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in vector table")
        self.words = words
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.word_to_id = {w: i for i, w in enumerate(words)}

    def __len__(self) -> int:
        return len(self.words)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def get(self, word: str) -> np.ndarray | None:
        i = self.word_to_id.get(word)
        return None if i is None else self.vectors[i]


class AliasSampler:
    """Vose alias sampler: O(1) draws from a fixed discrete distribution."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0 or (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be a non-empty non-negative vector")
        n = len(w)
        prob = w * (n / w.sum())
        self.accept = np.zeros(n, dtype=np.float64)
        self.alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if prob[i] < 1.0]
        large = [i for i in range(n) if prob[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            self.accept[s] = prob[s]
            self.alias[s] = l
            prob[l] = (prob[l] + prob[s]) - 1.0
            (small if prob[l] < 1.0 else large).append(l)
        for i in small + large:
            self.accept[i] = 1.0
            self.alias[i] = i
        self.n = n

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        idx = rng.integers(0, self.n, size=size)
        keep = rng.random(size=size) < self.accept[idx]
        return np.where(keep, idx, self.alias[idx])


def negative_table(vocab: Vocabulary, power: float = 0.75) -> AliasSampler:
    """Noise-word sampler with probabilities proportional to count^power."""
    return AliasSampler(vocab.counts.astype(np.float64) ** power)


def _keep_probs(vocab: Vocabulary, t: float) -> np.ndarray:
    """Subsampling keep probability per word: 1 at or below frequency t,
    sqrt(t / frequency) above it."""
    freqs = vocab.counts / vocab.total_tokens
    return np.where(freqs <= t, 1.0, np.sqrt(t / freqs))


def _learning_rate(initial_lr, progress, total):
    """Linear decay from initial_lr to 0 over the scheduled tokens or
    steps, fastText's lr * (1 - progress); takes scalars or arrays."""
    return initial_lr * np.maximum(0.0, 1.0 - progress / total)


@np.errstate(over="ignore", invalid="ignore")  # _epoch_guard reports a divergence
def train_skipgram(corpus: Iterable[list[str]], config: SkipgramConfig) -> EmbeddingMatrix:
    """Train skipgram embeddings over a tokenized corpus.

    The corpus is materialized, so pass a list for large inputs you
    already hold in memory. Raises TrainingError on divergence.
    """
    sentences_tok = [s for s in corpus]
    vocab = build_vocab(sentences_tok, min_count=config.min_count)
    context_rows = np.zeros((len(vocab), config.dim), dtype=np.float32)
    model = EmbeddingMatrix(
        vocab, config.subwords, init_input_rows(vocab, config.dim, config.seed), context_rows,
        bucket_seed=config.seed if config.subwords is not None else None,
    )
    indptr, flat = word_rows_csr(vocab, config.subwords)
    # the steps index input_rows directly; every row of the CSR is stored
    rows = model.store_buckets(flat)
    if config.epochs == 0:
        return model

    input_rows = model.input_rows
    word_rows = _WordRows.of(indptr, rows.astype(np.int64))
    sentences = []
    for tokens in sentences_tok:
        ids = [vocab.word_to_id[t] for t in tokens if t in vocab.word_to_id]
        if ids:
            sentences.append(np.asarray(ids, dtype=np.int64))

    keep_prob = _keep_probs(vocab, config.subsample_t)
    # with every keep probability 1 the draw discards nothing, so skip it
    subsample = not (keep_prob >= 1.0).all()
    sampler = negative_table(vocab)
    in_vocab_tokens = sum(len(s) for s in sentences)
    total_scheduled = config.epochs * in_vocab_tokens
    offsets = np.concatenate(
        (np.arange(-config.window, 0), np.arange(1, config.window + 1))
    )
    reach = np.abs(offsets)
    # the context position of every (center, offset) cell of a step
    # whose first center is at position 0
    grid = np.arange(_STEP_CENTERS)[:, None] + offsets
    logger.info(
        "skipgram: %d words, %d in-vocabulary tokens, %d epochs",
        len(vocab), in_vocab_tokens, config.epochs,
    )

    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    progress = 0
    for epoch in range(config.epochs):
        loss = 0.0
        pairs = kept_tokens = steps = 0
        started = time.perf_counter()
        for sent in sentences:
            progress += len(sent)
            # a Python float, so that g *= lr multiplies in g's float32
            lr = float(_learning_rate(config.initial_lr, progress, total_scheduled))
            kept = sent[rng.random(len(sent)) < keep_prob[sent]] if subsample else sent
            n = len(kept)
            kept_tokens += n
            if n < 2:
                continue
            radii = rng.integers(1, config.window + 1, size=n)
            # every (center, context) pair, center-major; a sentence longer
            # than _STEP_CENTERS takes one step per run of that many centers
            for start in range(0, n, _STEP_CENTERS):
                span = slice(start, start + _STEP_CENTERS)
                ctx_pos = grid[: n - start] + start
                # as unsigned, a negative position is above n: one test of 0 <= pos < n
                live = (reach <= radii[span, None]) & (ctx_pos.view(np.uint64) < n)
                centers = kept[span].repeat(live.sum(axis=1))
                contexts = kept[ctx_pos[live]]
                negatives = sampler.sample(rng, (len(centers), config.negatives))
                loss += _sentence_step(
                    input_rows, context_rows, word_rows, centers, contexts, negatives, lr
                )
                pairs += len(centers)
                steps += 1
        seconds = time.perf_counter() - started
        _epoch_guard(epoch, input_rows, context_rows)
        logger.info(
            "skipgram epoch %d/%d: mean loss %.6f over %d pairs in %d steps, kept %.4f of"
            " tokens, %.0f tokens/s",
            epoch + 1, config.epochs, loss / max(pairs, 1), pairs, steps,
            kept_tokens / in_vocab_tokens, in_vocab_tokens / max(seconds, 1e-9),
        )
    return model


def _segment_sum(segments: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of values that share a segment id in [0, n); the input
    side of a step sums the rows of its center words and their updates."""
    d = values.shape[1]
    flat = (segments[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * d).reshape(n, d)


def _unique_inverse(ids: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) for a 1-D array of ids in
    [0, len(slot)), sorting only the unique ids: slot[ids] = position
    keeps one representative position per value (whichever write lands),
    and after the sort slot maps each id to its rank. slot is scratch that
    every call writes before it reads, and the cost does not grow with
    its length."""
    at = np.arange(len(ids))
    slot[ids] = at
    uniq = ids[slot[ids] == at]
    uniq.sort()
    slot[uniq] = np.arange(len(uniq))
    return uniq, slot[ids]


class _WordRows(NamedTuple):
    """The per-training constants of _sentence_step: the CSR (indptr,
    flat) of each word's input_rows indices (vocab.word_rows_csr, whose
    first row of a word is its own), each word's row count, and the
    scratch slot array of _unique_inverse, one entry per input row."""

    indptr: np.ndarray
    flat: np.ndarray
    counts: np.ndarray
    slot: np.ndarray

    @classmethod
    def of(cls, indptr: np.ndarray, flat: np.ndarray) -> "_WordRows":
        n = max(len(indptr) - 1, int(flat.max(initial=-1)) + 1)
        return cls(indptr, flat, np.diff(indptr), np.empty(n, dtype=np.intp))


def _sentence_step(input_rows, context_rows, word_rows, centers, contexts, negatives, lr):
    """One SGD step on the summed negative-sampling loss of (center, context)
    pairs from one sentence, each with its row of noise words.

    Every read sees the pre-step parameters, so the update is exactly -lr
    times the gradient of that sum. word_rows is a _WordRows. The context
    side works on the T unique targets (contexts and noise words) and the
    W unique centers: the scores are cells of one (T x W) product, the
    per-cell gradient coefficients are summed into a (T x W) matrix s, and
    s @ h and s.T @ c are the context-row update and the centers' gradient,
    both in the table's dtype. Unique ids and their inverses come from
    _unique_inverse, the same as np.unique's. When every word is its own
    single row (no subwords), a center's h is its row and its row's update
    is its gradient, bit for bit what the segment sums give: a one-term
    float64 sum divided by 1 is exact, float32(f64(a) - f64(b)) is the
    correctly rounded float32 a - b, and no row holds a -0.0 whose sign a
    sum with 0.0 would drop (the initial rows have none and no update
    makes one). Returns the summed loss at the pre-step parameters.
    """
    indptr, flat, row_counts, slot = word_rows
    words, center_of = _unique_inverse(centers, slot)
    one_row = len(flat) == len(row_counts)
    if one_row:
        rows = flat[words]
        h = input_rows.take(rows, axis=0)
    else:
        counts = row_counts[words]
        row_word = np.repeat(np.arange(len(words)), counts)
        starts = np.repeat(indptr[words] - (np.cumsum(counts) - counts), counts)
        rows = flat[np.arange(len(row_word)) + starts]
        h = _segment_sum(row_word, input_rows[rows], len(words)) / counts[:, None]
        h = h.astype(input_rows.dtype, copy=False)
    targets = np.concatenate((contexts[:, None], negatives), axis=1)
    tids, target_of = _unique_inverse(targets.ravel(), slot)
    c = context_rows.take(tids, axis=0)
    # each (pair, target) scores one (target, center) cell of c @ h.T
    cells = target_of.reshape(targets.shape) * len(words) + center_of[:, None]
    scores = (c @ h.T).ravel()[cells]
    np.clip(scores, -_SCORE_CLIP, _SCORE_CLIP, out=scores)
    # -log s(x) for the context, -log s(-x) for each noise word
    losses = np.logaddexp(0.0, scores)
    losses[:, 0] -= scores[:, 0]
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:, 0] -= 1.0
    # a noise draw that hits its own positive context contributes nothing
    own = negatives == contexts[:, None]
    g[:, 1:][own] = 0.0
    losses[:, 1:][own] = 0.0
    g *= lr
    s = np.bincount(cells.ravel(), weights=g.ravel(), minlength=len(tids) * len(words))
    s = s.reshape(len(tids), len(words)).astype(context_rows.dtype, copy=False)
    grad_h = s.T @ c
    # c and h (one-row case) are pre-step copies of the rows they update
    c -= s @ h
    context_rows[tids] = c
    if one_row:
        h -= grad_h
        input_rows[rows] = h
    else:
        ids, row_of = _unique_inverse(rows, slot)
        input_rows[ids] -= _segment_sum(row_of, (grad_h / counts[:, None])[row_word], len(ids))
    return float(losses.sum(dtype=np.float64))


def _epoch_guard(epoch: int, *matrices: np.ndarray) -> None:
    """Raise TrainingError when a parameter of the matrices is non-finite
    or above _PARAM_LIMIT in magnitude. min() and max() propagate NaN and
    make no copy of the matrix."""
    for matrix in matrices:
        low, high = float(matrix.min()), float(matrix.max())
        if not -_PARAM_LIMIT <= low <= high <= _PARAM_LIMIT:
            peak = max(-low, high)  # min and max are both NaN when any entry is
            raise TrainingError(
                f"training diverged after epoch {epoch}: parameter magnitude {peak}"
            )


def word_vector(word: str, model: EmbeddingMatrix) -> np.ndarray:
    """Mean of the word's contributing input rows; zeros when it has none."""
    ids = input_ids(word, model.vocab, model.subwords)
    if not ids:
        return np.zeros(model.dim, dtype=np.float32)
    return model.rows(np.asarray(ids, dtype=np.int64)).mean(axis=0)


# ---------------------------------------------------------------------------
# persistence


def save_vectors(table: VectorTable, path: str | Path) -> None:
    """Write the word2vec-style text format: "<count> <dim>" header, then
    one word per line followed by its vector, shortest-round-trip decimals."""
    formats.write_matrix(path, None, table.vectors, table.words)


def load_vectors(path: str | Path, expect_dim: int | None = None) -> VectorTable:
    words, vectors = formats.read_matrix(path, None)
    if expect_dim is not None and vectors.shape[1] != expect_dim:
        raise FormatError(f"{path}:1: dimension {vectors.shape[1]}, expected {expect_dim}")
    return VectorTable(words, vectors)


def save_checkpoint(model: EmbeddingMatrix, path: str | Path) -> None:
    """Binary checkpoint (formats.write_model): the context rows follow
    the input rows."""
    formats.write_model(path, _MAGIC_CHECKPOINT, model, model.context_rows)


def load_checkpoint(path: str | Path) -> EmbeddingMatrix:
    return EmbeddingMatrix(*formats.read_model(path, _MAGIC_CHECKPOINT, "an embedding checkpoint"))

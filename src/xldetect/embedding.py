"""Skipgram word embeddings with negative sampling.

Each word's vector is the mean of its own input row and the hashed rows
of its character n-grams; training performs one SGD step per retained
(center, context) pair against noise words drawn from the unigram^0.75
distribution. Training is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import formats
from .errors import FormatError, TrainingError
from .vocab import SubwordIndex, Vocabulary, build_vocab, init_input_rows, input_ids

logger = logging.getLogger(__name__)

_MAGIC_CHECKPOINT = b"XLEMB1"
_PARAM_LIMIT = 1e8  # divergence guard on parameter magnitude
_SCORE_CLIP = 30.0


@dataclass
class SkipgramConfig:
    dim: int = 100
    epochs: int = 5
    initial_lr: float = 0.05
    window: int = 5
    negatives: int = 5
    subsample_t: float = 1e-4
    min_count: int = 5
    seed: int = 1
    subwords: SubwordIndex | None = field(default_factory=SubwordIndex)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.initial_lr <= 0:
            raise ValueError(f"initial_lr must be > 0, got {self.initial_lr}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.subsample_t <= 0:
            raise ValueError(f"subsample_t must be > 0, got {self.subsample_t}")


class EmbeddingMatrix:
    """Trained (or initialized) embedding parameters.

    input_rows holds |V| word rows followed by B hashed subword bucket
    rows; context_rows holds the |V| output-side rows used only during
    training.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        subwords: SubwordIndex | None,
        input_rows: np.ndarray,
        context_rows: np.ndarray,
    ):
        buckets = subwords.buckets if subwords is not None else 0
        if input_rows.shape[0] != len(vocab) + buckets:
            raise ValueError(
                f"input_rows has {input_rows.shape[0]} rows, "
                f"expected |V|+B = {len(vocab) + buckets}"
            )
        if context_rows.shape != (len(vocab), input_rows.shape[1]):
            raise ValueError("context_rows shape inconsistent with vocab and dim")
        self.vocab = vocab
        self.subwords = subwords
        self.input_rows = input_rows
        self.context_rows = context_rows

    @property
    def dim(self) -> int:
        return self.input_rows.shape[1]

    def to_table(self) -> "VectorTable":
        """Composed per-word vectors, in vocabulary (frequency) order."""
        vectors = np.empty((len(self.vocab), self.dim), dtype=np.float64)
        for i, word in enumerate(self.vocab.words):
            vectors[i] = word_vector(word, self)
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


def _row_index(vocab: Vocabulary, subwords: SubwordIndex | None) -> list[np.ndarray]:
    return [
        np.asarray(input_ids(w, vocab, subwords), dtype=np.int64) for w in vocab.words
    ]


def train_skipgram(corpus: Iterable[list[str]], config: SkipgramConfig) -> EmbeddingMatrix:
    """Train skipgram embeddings over a tokenized corpus.

    The corpus is materialized, so pass a list for large inputs you
    already hold in memory. Raises TrainingError on divergence.
    """
    sentences_tok = [s for s in corpus]
    vocab = build_vocab(sentences_tok, min_count=config.min_count)
    input_rows = init_input_rows(vocab, config.subwords, config.dim, config.seed)
    context_rows = np.zeros((len(vocab), config.dim), dtype=np.float32)
    model = EmbeddingMatrix(vocab, config.subwords, input_rows, context_rows)
    if config.epochs == 0:
        return model

    word_rows = _row_index(vocab, config.subwords)
    sentences = []
    for tokens in sentences_tok:
        ids = [vocab.word_to_id[t] for t in tokens if t in vocab.word_to_id]
        if ids:
            sentences.append(np.asarray(ids, dtype=np.int64))
    if not sentences:
        raise TrainingError("no in-vocabulary tokens to train on")

    freqs = vocab.counts / vocab.total_tokens
    keep_prob = np.where(
        freqs <= config.subsample_t, 1.0, np.sqrt(config.subsample_t / freqs)
    )
    sampler = negative_table(vocab)
    in_vocab_tokens = sum(len(s) for s in sentences)
    total_scheduled = config.epochs * in_vocab_tokens
    logger.info(
        "skipgram: %d words, %d in-vocabulary tokens, %d epochs",
        len(vocab), in_vocab_tokens, config.epochs,
    )

    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    progress = 0
    for epoch in range(config.epochs):
        for sent in sentences:
            progress += len(sent)
            lr = config.initial_lr * max(0.0, 1.0 - progress / total_scheduled)
            kept = sent[rng.random(len(sent)) < keep_prob[sent]]
            n = len(kept)
            if n < 2:
                continue
            radii = rng.integers(1, config.window + 1, size=n)
            for i in range(n):
                b = radii[i]
                ctx = np.concatenate((kept[max(0, i - b) : i], kept[i + 1 : i + b + 1]))
                negs = sampler.sample(rng, (len(ctx), config.negatives))
                _center_step(input_rows, context_rows, word_rows[kept[i]], ctx, negs, lr)
        _epoch_guard(input_rows, epoch)

    _check_finite(input_rows, "input rows")
    _check_finite(context_rows, "context rows")
    return model


def _center_step(input_rows, context_rows, rows, ctx_ids, neg_ids, lr):
    emb = input_rows[rows]
    h = emb.mean(axis=0)
    k = len(ctx_ids)
    targets = np.concatenate((ctx_ids, neg_ids.ravel()))
    u = context_rows[targets]
    scores = u @ h
    np.clip(scores, -_SCORE_CLIP, _SCORE_CLIP, out=scores)
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:k] -= 1.0
    # a noise draw that hits its own positive context contributes nothing
    g[k:][(neg_ids == ctx_ids[:, None]).ravel()] = 0.0
    g *= np.float32(lr)
    grad_h = u.T @ g
    np.add.at(context_rows, targets, -np.outer(g, h))
    np.add.at(input_rows, rows, -(grad_h / np.float32(len(rows))))


def _epoch_guard(matrix: np.ndarray, epoch: int) -> None:
    peak = np.abs(matrix).max()
    if not np.isfinite(peak) or peak > _PARAM_LIMIT:
        raise TrainingError(
            f"training diverged after epoch {epoch}: parameter magnitude {peak!r}"
        )


def _check_finite(matrix: np.ndarray, name: str) -> None:
    if not np.isfinite(matrix).all():
        raise TrainingError(f"non-finite values in {name} after training")


def word_vector(word: str, model: EmbeddingMatrix) -> np.ndarray:
    """Mean of the word's contributing input rows; zeros when it has none."""
    ids = input_ids(word, model.vocab, model.subwords)
    if not ids:
        return np.zeros(model.dim, dtype=np.float32)
    return model.input_rows[np.asarray(ids, dtype=np.int64)].mean(axis=0)


# ---------------------------------------------------------------------------
# persistence


def save_vectors(table: VectorTable, path: str | Path) -> None:
    """Write the word2vec-style text format: "<count> <dim>" header, then
    one word per line followed by its vector, shortest-round-trip decimals."""
    formats.write_matrix(path, f"{len(table)} {table.dim}", table.vectors, table.words)


def load_vectors(path: str | Path, expect_dim: int | None = None) -> VectorTable:
    words, vectors = formats.read_matrix(path, None)
    if expect_dim is not None and vectors.shape[1] != expect_dim:
        raise FormatError(f"{path}:1: dimension {vectors.shape[1]}, expected {expect_dim}")
    return VectorTable(words, vectors)


def save_checkpoint(model: EmbeddingMatrix, path: str | Path) -> None:
    """Binary checkpoint: raw float32 parameter rows in id order."""
    with open(path, "wb") as fh:
        formats.write_model_head(fh, _MAGIC_CHECKPOINT, model.dim, model.vocab, model.subwords)
        formats.write_vocab_block(fh, model.vocab)
        formats.write_floats(fh, model.input_rows, model.context_rows)


def load_checkpoint(path: str | Path) -> EmbeddingMatrix:
    with open(path, "rb") as fh:
        reader = formats.ArtifactReader(fh, path)
        dim, nwords, sub = formats.read_model_head(
            reader, _MAGIC_CHECKPOINT, "an embedding checkpoint"
        )
        vocab = formats.read_vocab_block(reader, nwords)
        input_rows = reader.floats(nwords + (sub.buckets if sub else 0), dim)
        context_rows = reader.floats(nwords, dim)
        reader.end()
    return EmbeddingMatrix(vocab, sub, input_rows, context_rows)

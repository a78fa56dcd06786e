"""Sparse-feature baselines: bag-of-words, bag-of-ngrams, TFIDF variants,
trained with L2-regularized logistic regression by full-batch gradient
descent."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import formats
from .errors import DataError, FormatError, TrainingError


@dataclass(frozen=True)
class SparseVector:
    """Sorted (feature id, value) pairs; ids strictly increasing."""

    ids: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.ids) != len(self.values):
            raise ValueError("ids/values length mismatch")
        if len(self.ids) > 1 and not (np.diff(self.ids) > 0).all():
            raise ValueError("feature ids must be strictly increasing")


class FeatureVocabulary:
    """Feature strings capped at max_features by descending document
    frequency, ties broken lexicographically."""

    def __init__(self, features: list[str], doc_freq: list[int], max_features: int, n_docs: int):
        self.features = list(features)
        self.doc_freq = np.asarray(doc_freq, dtype=np.int64)
        self.max_features = max_features
        self.n_docs = n_docs
        self.feature_to_id = {f: i for i, f in enumerate(self.features)}

    def __len__(self) -> int:
        return len(self.features)


def extract_ngrams(tokens: list[str], n_lo: int = 1, n_hi: int = 5) -> list[str]:
    """Contiguous token n-grams joined with single spaces, in occurrence
    order; a t-token document yields sum over n of max(0, t-n+1)."""
    if n_lo > n_hi:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo}..{n_hi}")
    if n_lo < 1:
        raise ValueError(f"n_lo must be >= 1, got {n_lo}")
    out = []
    for n in range(n_lo, n_hi + 1):
        for i in range(len(tokens) - n + 1):
            out.append(" ".join(tokens[i : i + n]))
    return out


def bow_extractor(tokens: list[str]) -> list[str]:
    return list(tokens)


def count_features(
    token_docs: list[list[str]],
    extractor: Callable[[list[str]], list[str]],
    max_features: int = 35000,
) -> tuple[FeatureVocabulary, list[SparseVector]]:
    """Build the capped feature vocabulary and per-document count vectors."""
    if not token_docs:
        raise ValueError("empty corpus")
    doc_features = [extractor(toks) for toks in token_docs]
    df: dict[str, int] = {}
    for feats in doc_features:
        for f in set(feats):
            df[f] = df.get(f, 0) + 1
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:max_features]
    vocab = FeatureVocabulary(
        [f for f, _ in ranked], [c for _, c in ranked], max_features, len(token_docs)
    )
    return vocab, [_count_vector(vocab, feats) for feats in doc_features]


def vectorize(
    vocab: FeatureVocabulary,
    extractor: Callable[[list[str]], list[str]],
    token_docs: list[list[str]],
) -> list[SparseVector]:
    """Per-document count vectors over a fixed vocabulary; features outside
    it are dropped."""
    return [_count_vector(vocab, extractor(toks)) for toks in token_docs]


def _count_vector(vocab: FeatureVocabulary, features: list[str]) -> SparseVector:
    counts: dict[int, int] = {}
    for f in features:
        fid = vocab.feature_to_id.get(f)
        if fid is not None:
            counts[fid] = counts.get(fid, 0) + 1
    ids = np.asarray(sorted(counts), dtype=np.int64)
    vals = np.asarray([counts[i] for i in ids], dtype=np.float64)
    return SparseVector(ids, vals)


def tfidf_transform(
    count_vectors: list[SparseVector],
    doc_lengths: list[int],
    vocab: FeatureVocabulary,
) -> list[SparseVector]:
    """tfidf(w, doc) = (count / doc token count) * ln(N / df(w)).

    doc_lengths are full token counts (before any feature capping).
    Features present in every document get value 0 and are dropped.
    """
    if len(count_vectors) != len(doc_lengths):
        raise ValueError("one document length per count vector required")
    n_docs = vocab.n_docs
    idf = np.empty(len(vocab))
    for fid in range(len(vocab)):
        df = int(vocab.doc_freq[fid])
        if df == 0:
            raise FormatError(f"feature {vocab.features[fid]!r} has document frequency 0")
        idf[fid] = math.log(n_docs / df)
    out = []
    for vec, length in zip(count_vectors, doc_lengths):
        if length <= 0:
            raise ValueError("document length must be positive")
        values = (vec.values / length) * idf[vec.ids]
        keep = values != 0.0
        out.append(SparseVector(vec.ids[keep], values[keep]))
    return out


@dataclass
class LogRegConfig:
    l2_lambda: float = 1.0
    epochs: int = 100
    lr: float = 0.1

    def __post_init__(self):
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    config: LogRegConfig
    loss_history: list[float]


def _csr(vectors: list[SparseVector], n_features: int):
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        indptr[i + 1] = indptr[i] + len(v.ids)
    indices = np.concatenate([v.ids for v in vectors]) if vectors else np.empty(0, np.int64)
    data = np.concatenate([v.values for v in vectors]) if vectors else np.empty(0)
    if len(indices) and indices.max() >= n_features:
        raise ValueError("feature id out of range")
    return indptr, indices, data


def _scores(w, b, indptr, indices, data):
    prods = w[indices] * data
    # segment sums; reduceat misbehaves on empty segments, handle via cumsum
    csum = np.concatenate(([0.0], np.cumsum(prods)))
    return csum[indptr[1:]] - csum[indptr[:-1]] + b


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_logreg(
    vectors: list[SparseVector],
    labels,
    n_features: int,
    config: LogRegConfig = LogRegConfig(),
) -> LogRegModel:
    """Full-batch gradient descent on mean logistic loss plus
    (l2_lambda/2)*||w||^2; the bias is unregularized."""
    labels = np.asarray(labels, dtype=np.float64)
    if len(vectors) != len(labels):
        raise ValueError("one label per document required")
    if not ((labels == 1).any() and (labels == 0).any()):
        raise DataError("both classes must be present in the training data")
    n_docs = len(vectors)
    indptr, indices, data = _csr(vectors, n_features)
    w = np.zeros(n_features)
    b = 0.0
    history = []
    for epoch in range(config.epochs + 1):
        z = _scores(w, b, indptr, indices, data)
        p = _sigmoid(z)
        ce = -(labels * np.log(np.maximum(p, 1e-300))
               + (1 - labels) * np.log(np.maximum(1 - p, 1e-300))).mean()
        loss = ce + 0.5 * config.l2_lambda * float(w @ w)
        if not np.isfinite(loss):
            raise TrainingError(f"logistic regression diverged at epoch {epoch}")
        history.append(loss)
        if epoch == config.epochs:
            break
        resid = p - labels
        grad_w = np.zeros(n_features)
        np.add.at(grad_w, indices, np.repeat(resid, np.diff(indptr)) * data)
        grad_w /= n_docs
        grad_w += config.l2_lambda * w
        w -= config.lr * grad_w
        b -= config.lr * float(resid.mean())
    return LogRegModel(weights=w, bias=b, config=config, loss_history=history)


def predict_logreg(model: LogRegModel, vector: SparseVector) -> tuple[int, float]:
    """p = sigma(w.x + b); positive iff p > 0.5 (a tie never flags)."""
    z = float(model.weights[vector.ids] @ vector.values) + model.bias
    p = float(_sigmoid(np.asarray([z]))[0])
    return (1 if p > 0.5 else 0), p


def save_feature_vocab(vocab: FeatureVocabulary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"FEATS v1 {len(vocab)} {vocab.max_features} {vocab.n_docs}\n")
        for feature, df in zip(vocab.features, vocab.doc_freq):
            fh.write(f"{feature}\t{df}\n")


def load_feature_vocab(path: str | Path) -> FeatureVocabulary:
    art = formats.TextArtifact(path)
    size, max_features, n_docs = art.header("FEATS v1", 3)
    features, dfs = [], []
    for lineno, line in art.records(size):
        fields = line.split("\t")
        if len(fields) != 2:
            raise art.error(lineno, "expected 'feature<TAB>df'")
        features.append(fields[0])
        dfs.append(art.count(lineno, fields[1]))
    return FeatureVocabulary(features, dfs, max_features, n_docs)

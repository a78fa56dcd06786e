"""Sparse-feature baselines: bag-of-words, bag-of-ngrams, TFIDF variants,
trained with L2-regularized logistic regression by full-batch gradient
descent."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .errors import DataError, FormatError, TrainingError
from .params import at_least, check, param, positive


@dataclass(frozen=True)
class SparseRows:
    """A CSR matrix: row r holds ids[indptr[r]:indptr[r+1]] with their
    values; ids lie in [0, n_features) and strictly increase within a row."""

    indptr: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    n_features: int

    def __post_init__(self):
        indptr = self.indptr
        if (len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(self.ids)
                or (np.diff(indptr) < 0).any()):
            raise ValueError("indptr must rise monotonically from 0 to len(ids)")
        if len(self.ids) != len(self.values):
            raise ValueError("ids/values length mismatch")
        if len(self.ids) and not 0 <= self.ids.min() <= self.ids.max() < self.n_features:
            raise ValueError(f"feature id outside [0, {self.n_features})")
        # an id may fall only where a row starts
        if not np.isin(np.flatnonzero(np.diff(self.ids) <= 0) + 1, indptr).all():
            raise ValueError("feature ids must be strictly increasing within a row")

    def __len__(self) -> int:
        return len(self.indptr) - 1


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


def count_features(
    token_docs: list[list[str]],
    n_lo: int,
    n_hi: int,
    max_features: int = 35000,
) -> tuple[FeatureVocabulary, SparseRows]:
    """Build the capped feature vocabulary over the documents' n_lo..n_hi
    token n-grams, and their count rows; bag-of-words is the range 1..1."""
    if not token_docs:
        raise ValueError("empty corpus")
    doc_features = [extract_ngrams(toks, n_lo, n_hi) for toks in token_docs]
    df: Counter[str] = Counter()
    for feats in doc_features:
        df.update(set(feats))
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:max_features]
    vocab = FeatureVocabulary(
        [f for f, _ in ranked], [c for _, c in ranked], max_features, len(token_docs)
    )
    return vocab, _count_rows(vocab, doc_features)


def vectorize(
    vocab: FeatureVocabulary, token_docs: list[list[str]], n_lo: int, n_hi: int
) -> SparseRows:
    """Count rows over a fixed vocabulary; features outside it are dropped."""
    return _count_rows(vocab, [extract_ngrams(toks, n_lo, n_hi) for toks in token_docs])


def _count_rows(vocab: FeatureVocabulary, doc_features: list[list[str]]) -> SparseRows:
    """One np.unique over row * |F| + feature id counts every document."""
    n_docs, n_features = len(doc_features), len(vocab)
    lookup = vocab.feature_to_id.get
    fids = np.fromiter((lookup(f, -1) for feats in doc_features for f in feats), np.int64)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), [len(f) for f in doc_features])
    known = fids >= 0
    keys, counts = np.unique(doc_of[known] * n_features + fids[known], return_counts=True)
    doc_of, ids = np.divmod(keys, n_features)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(doc_of, minlength=n_docs), out=indptr[1:])
    return SparseRows(indptr, ids, counts.astype(np.float64), n_features)


def tfidf_transform(
    counts: SparseRows,
    doc_lengths: list[int],
    vocab: FeatureVocabulary,
) -> SparseRows:
    """tfidf(w, doc) = (count / doc token count) * ln(N / df(w)).

    doc_lengths are full token counts (before any feature capping).
    Features present in every document get value 0 and are dropped.
    """
    lengths = np.asarray(doc_lengths)
    if len(counts) != len(lengths):
        raise ValueError("one document length per count row required")
    if (lengths <= 0).any():
        raise ValueError("document length must be positive")
    n_docs = vocab.n_docs
    idf = np.empty(len(vocab))
    for fid in range(len(vocab)):
        df = int(vocab.doc_freq[fid])
        if df == 0:
            raise FormatError(f"feature {vocab.features[fid]!r} has document frequency 0")
        idf[fid] = math.log(n_docs / df)
    row_lengths = np.repeat(lengths, np.diff(counts.indptr))
    values = (counts.values / row_lengths) * idf[counts.ids]
    keep = values != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return SparseRows(kept_before[counts.indptr], counts.ids[keep], values[keep],
                      counts.n_features)


@dataclass
class LogRegConfig:
    l2_lambda: float = param(1.0, at_least(0))
    epochs: int = param(100, at_least(0))
    lr: float = param(0.1, positive())

    def __post_init__(self):
        check(self)


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    config: LogRegConfig
    loss_history: list[float]


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
    rows: SparseRows,
    labels,
    config: LogRegConfig = LogRegConfig(),
) -> LogRegModel:
    """Full-batch gradient descent on mean logistic loss plus
    (l2_lambda/2)*||w||^2; the bias is unregularized."""
    labels = np.asarray(labels, dtype=np.float64)
    if len(rows) != len(labels):
        raise ValueError("one label per document required")
    if not ((labels == 1).any() and (labels == 0).any()):
        raise DataError("both classes must be present in the training data")
    n_docs = len(rows)
    indptr, indices, data = rows.indptr, rows.ids, rows.values
    row_sizes = np.diff(indptr)
    w = np.zeros(rows.n_features)
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
        grad_w = np.bincount(indices, weights=np.repeat(resid, row_sizes) * data,
                             minlength=rows.n_features)
        grad_w /= n_docs
        grad_w += config.l2_lambda * w
        w -= config.lr * grad_w
        b -= config.lr * float(resid.mean())
    return LogRegModel(weights=w, bias=b, config=config, loss_history=history)


def predict_logreg(model: LogRegModel, rows: SparseRows) -> np.ndarray:
    """Each row's float64 class distribution (1 - p, p) with p = sigma(w.x + b)
    (n x 2), as classifier.class_probs gives; 1 - p is exact for p >= 0.5,
    so metrics.flagged flags a row exactly when p > 0.5."""
    if rows.n_features != len(model.weights):
        raise ValueError(
            f"rows have {rows.n_features} features, the model {len(model.weights)}"
        )
    p = _sigmoid(_scores(model.weights, model.bias, rows.indptr, rows.ids, rows.values))
    return np.stack([1.0 - p, p], axis=1)


def save_feature_vocab(vocab: FeatureVocabulary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"FEATS v1 {len(vocab)} {vocab.max_features} {vocab.n_docs}\n")
        for feature, df in zip(vocab.features, vocab.doc_freq):
            fh.write(f"{feature}\t{df}\n")


def load_feature_vocab(path: str | Path) -> FeatureVocabulary:
    art = formats.TextArtifact(path)
    size, max_features, n_docs = art.header("FEATS v1", 3)
    features, dfs = [], []
    for lineno, (feature, df) in art.rows("\t", 2, "'feature<TAB>df'", "feature", size):
        features.append(feature)
        dfs.append(art.count(lineno, df))
    return FeatureVocabulary(features, dfs, max_features, n_docs)

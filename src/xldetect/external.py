"""Softmax head over frozen externally-computed document features.

Deep contextual encoders are out of scope here; their per-document
feature vectors arrive via file import and only the softmax layer on top
is trained, using Adam with bias-corrected moment estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .errors import FormatError

_N_CLASSES = 2


@dataclass
class HeadConfig:
    epochs: int = 100
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass
class SoftmaxHead:
    weights: np.ndarray  # (2, dim)
    bias: np.ndarray     # (2,)


def import_external_features(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read "<count> <dim>" then one "document_id v1 .. vdim" line each."""
    return formats.read_matrix(path, None)


def save_external_features(ids: list[str], matrix: np.ndarray, path: str | Path) -> None:
    if len(ids) != matrix.shape[0]:
        raise ValueError("ids/matrix length mismatch")
    formats.write_matrix(path, f"{matrix.shape[0]} {matrix.shape[1]}", matrix, ids)


def match_features(
    feature_ids: list[str], matrix: np.ndarray, doc_ids: list[str]
) -> np.ndarray:
    """Reorder imported features to match a document list by id."""
    if len(feature_ids) != matrix.shape[0]:
        raise ValueError("feature ids/matrix length mismatch")
    index = {doc_id: i for i, doc_id in enumerate(feature_ids)}
    missing = [d for d in doc_ids if d not in index]
    if missing:
        raise FormatError(f"no features for {len(missing)} documents (first: {missing[0]!r})")
    return matrix[[index[d] for d in doc_ids]]


def train_softmax_head(
    features: np.ndarray, labels, config: HeadConfig = HeadConfig()
) -> SoftmaxHead:
    """Per-example Adam on softmax cross-entropy; features stay frozen.

    Documents are visited in order, so the result is deterministic for a
    fixed input ordering.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if features.shape[0] != len(labels):
        raise ValueError(
            f"{features.shape[0]} feature rows but {len(labels)} labels"
        )
    n, dim = features.shape
    w = np.zeros((_N_CLASSES, dim))
    b = np.zeros(_N_CLASSES)
    m_w = np.zeros_like(w)
    v_w = np.zeros_like(w)
    m_b = np.zeros_like(b)
    v_b = np.zeros_like(b)
    t = 0
    for _ in range(config.epochs):
        for i in range(n):
            x = features[i]
            z = w @ x + b
            z = z - z.max()
            e = np.exp(z)
            p = e / e.sum()
            g = p
            g[labels[i]] -= 1.0
            gw = np.outer(g, x)
            t += 1
            m_w = config.beta1 * m_w + (1 - config.beta1) * gw
            v_w = config.beta2 * v_w + (1 - config.beta2) * gw * gw
            m_b = config.beta1 * m_b + (1 - config.beta1) * g
            v_b = config.beta2 * v_b + (1 - config.beta2) * g * g
            bc1 = 1 - config.beta1 ** t
            bc2 = 1 - config.beta2 ** t
            w -= config.lr * (m_w / bc1) / (np.sqrt(v_w / bc2) + config.eps)
            b -= config.lr * (m_b / bc1) / (np.sqrt(v_b / bc2) + config.eps)
    return SoftmaxHead(w, b)


def head_predict(head: SoftmaxHead, x: np.ndarray) -> tuple[int, np.ndarray]:
    z = head.weights @ np.asarray(x, dtype=np.float64) + head.bias
    z = z - z.max()
    e = np.exp(z)
    p = e / e.sum()
    label = 1 if p[1] > p[0] else 0
    return label, p

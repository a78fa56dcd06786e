"""Binary-averaged evaluation metrics for the positive "Suspended" class;
the classifier and the baselines are both scored through evaluate."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the reported scores, in report order, each a MetricsReport field
SCORES = ("precision", "recall", "f1")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix
    positive_class: str = "Suspended"
    flags: tuple[str, ...] = field(default=())


def confusion(predictions, labels) -> ConfusionMatrix:
    """Exact integer counts; predictions and labels are 0/1 sequences."""
    preds = np.asarray(predictions, dtype=np.int64)
    gold = np.asarray(labels, dtype=np.int64)
    if preds.shape != gold.shape or preds.ndim != 1:
        raise ValueError(f"length mismatch: {preds.shape} predictions, {gold.shape} labels")
    if len(preds) == 0:
        raise ValueError("need at least one prediction")
    tp = int(((preds == 1) & (gold == 1)).sum())
    fp = int(((preds == 1) & (gold == 0)).sum())
    fn = int(((preds == 0) & (gold == 1)).sum())
    tn = int(((preds == 0) & (gold == 0)).sum())
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean, 0 by convention when precision + recall is 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def binary_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Precision/recall/F1 for the positive class; degenerate denominators
    yield 0 and are flagged rather than raising."""
    flags = []
    if cm.tp + cm.fp == 0:
        precision = 0.0
        flags.append("no_positive_predictions")
    else:
        precision = cm.tp / (cm.tp + cm.fp)
    if cm.tp + cm.fn == 0:
        recall = 0.0
        flags.append("no_positive_labels")
    else:
        recall = cm.tp / (cm.tp + cm.fn)
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1_from_pr(precision, recall),
        confusion=cm,
        flags=tuple(flags),
    )


def flagged(probs: np.ndarray) -> np.ndarray:
    """The flag rule, P(positive) > P(negative), so a tie never flags; probs
    is one class distribution or a batch of them, one per row."""
    return probs[..., 1] > probs[..., 0]


def evaluate(probs: np.ndarray, labels) -> MetricsReport:
    """Metrics of the labels flagged gives a batch of class distributions."""
    return binary_metrics(confusion(flagged(probs), labels))

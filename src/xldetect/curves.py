"""Learning-curve sweeps: monolingual vs transfer at varying training size.

learning_curve trains every (fraction, seed, kind) cell of a sweep in one
classifier.train_many batch. The cells are independent and train in
lockstep, one batched SGD step per iteration serving every cell, and each
comes out bit for bit as it would trained alone with train_supervised.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

# predict and train_supervised, the one-document and one-cell forms, stay reachable here
from .classifier import (  # noqa: F401
    SupervisedConfig, class_probs, predict, train_many, train_supervised)
from .corpus import AccountDocument, subsample_train, tokenize
from .embedding import VectorTable
from .errors import DataError, TrainingError
from .metrics import SCORES, MetricsReport, evaluate

logger = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
MODEL_KINDS = ("monolingual", "transfer")


@dataclass(frozen=True)
class LearningCurvePoint:
    train_fraction: float
    model_kind: str
    seed: int
    metrics: MetricsReport


def evaluate_classifier(model, test_docs: list[AccountDocument]) -> MetricsReport:
    """The model's metrics (metrics.evaluate) over one batch."""
    probs = class_probs(model, model.doc_batch([tokenize(d.text) for d in test_docs]))
    return evaluate(probs, [d.label for d in test_docs])


def learning_curve(
    train_docs: list[AccountDocument],
    test_docs: list[AccountDocument],
    fractions=DEFAULT_FRACTIONS,
    seeds=(1, 2, 3),
    kinds=MODEL_KINDS,
    config: SupervisedConfig = None,
    pretrained: VectorTable | None = None,
) -> list[LearningCurvePoint]:
    """Train every (fraction, seed, kind) cell in one train_many batch, then
    evaluate them in that order.

    Subsampling uses seeded permutation prefixes, so for one seed the
    smaller fractions are subsets of the larger ones. The transfer kind
    needs a pretrained table built from the fitted alignment.
    """
    if config is None:
        config = SupervisedConfig()
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
    if "transfer" in kinds and pretrained is None:
        raise ValueError("transfer sweeps need pretrained aligned vectors")
    if not test_docs:
        raise ValueError("a sweep needs at least one test document")

    grid, cells = [], []
    for fraction in fractions:
        for seed in seeds:
            subset = subsample_train(train_docs, fraction, seed)
            for kind in kinds:
                grid.append((fraction, seed, kind))
                cells.append((subset, replace(
                    config, seed=seed, pretrained=pretrained if kind == "transfer" else None)))

    started = time.perf_counter()
    try:
        models = train_many(cells)
    except (DataError, TrainingError) as exc:
        if exc.cell is None:
            raise
        fraction, seed, kind = grid[exc.cell]
        raise TrainingError(f"sweep point fraction={fraction} seed={seed} kind={kind}: "
                            f"{exc}") from exc
    wall = time.perf_counter() - started
    doc_steps = config.epochs * sum(len(subset) for subset, _ in cells)
    logger.info(
        "sweep batch: %d cells, %d iterations, %d doc steps in %.2f s (%.0f doc steps/s)",
        len(cells), config.epochs * max((len(subset) for subset, _ in cells), default=0),
        doc_steps, wall, doc_steps / max(wall, 1e-9),
    )

    points = []
    for (fraction, seed, kind), (subset, _), model in zip(grid, cells, models):
        metrics = evaluate_classifier(model, test_docs)
        points.append(LearningCurvePoint(fraction, kind, seed, metrics))
        logger.info(
            "sweep fraction=%.2f kind=%s seed=%d: f1=%.4f (p=%.4f r=%.4f, %d docs, "
            "last-epoch loss %.4f)",
            fraction, kind, seed, metrics.f1, metrics.precision, metrics.recall, len(subset),
            model.loss_history[-1],
        )
    return points


def fraction_means(points: list[LearningCurvePoint]) -> dict[tuple[float, str], dict[str, float]]:
    """Mean of each metrics.SCORES score, and the count n, per (fraction, kind) cell."""
    cells: dict[tuple[float, str], list[MetricsReport]] = {}
    for p in points:
        cells.setdefault((p.train_fraction, p.model_kind), []).append(p.metrics)
    means = {}
    for key, reports in sorted(cells.items()):
        means[key] = {s: sum(getattr(r, s) for r in reports) / len(reports) for s in SCORES}
        means[key]["n"] = float(len(reports))
    return means

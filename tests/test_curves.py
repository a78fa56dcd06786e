import numpy as np
import pytest

import xldetect.curves as curves_module
from xldetect.classifier import SupervisedConfig, predict, train_supervised
from xldetect.corpus import tokenize
from xldetect.curves import (
    LearningCurvePoint, evaluate_classifier, fraction_means, learning_curve)
from xldetect.embedding import VectorTable
from xldetect.errors import TrainingError
from xldetect.metrics import ConfusionMatrix, binary_metrics, confusion
from xldetect.synth import SyntheticConfig, generate_synthetic_bilingual
from xldetect.corpus import SplitSpec, split


def tiny_dataset():
    data = generate_synthetic_bilingual(
        SyntheticConfig(
            vocab_size=300, n_source_docs=400, target_ratio=4.0,
            doc_len_min=20, doc_len_max=40, n_signal_words=20,
            signal_rank_start=100, signal_lift=12.0,
        ),
        seed=3,
    )
    return split(data.source_docs, SplitSpec(0.8, 3))


def tiny_config(**kw):
    defaults = dict(dim=16, epochs=25, subwords=None, min_count=1)
    defaults.update(kw)
    return SupervisedConfig(**defaults)


class TestLearningCurve:
    def test_single_fraction_both_kinds(self):
        train, test = tiny_dataset()
        table = VectorTable(
            [f"s{i:03d}" for i in range(300)],
            np.random.default_rng(0).standard_normal((300, 16)),
        )
        points = learning_curve(
            train, test, fractions=(1.0,), seeds=(1,), kinds=("monolingual", "transfer"),
            config=tiny_config(), pretrained=table,
        )
        assert len(points) == 2
        assert {p.model_kind for p in points} == {"monolingual", "transfer"}

    def test_f1_nondecreasing_in_fraction(self):
        # one inversion within 0.02 is tolerated (SGD noise)
        train, test = tiny_dataset()
        points = learning_curve(
            train, test, fractions=(0.2, 0.5, 1.0), seeds=(1, 2),
            kinds=("monolingual",), config=tiny_config(),
        )
        means = fraction_means(points)
        series = [means[(f, "monolingual")]["f1"] for f in (0.2, 0.5, 1.0)]
        violations = [max(0.0, series[i] - series[i + 1]) for i in range(len(series) - 1)]
        assert sum(v > 0.02 for v in violations) == 0
        assert sum(v > 0 for v in violations) <= 1

    def test_failing_cell_names_its_sweep_point(self):
        # frozen 1e30 transfer vectors overflow the logits at the second
        # step, which turns the output weights NaN; the monolingual cells
        # train as usual
        train, test = tiny_dataset()
        words = sorted({w for d in train for w in d.text.split()})
        table = VectorTable(words, np.full((len(words), 16), 1e30))
        with pytest.raises(TrainingError, match=(
                "^sweep point fraction=1.0 seed=1 kind=transfer: cell 1: training diverged "
                "after epoch 0: parameter magnitude nan$")):
            learning_curve(
                train, test, fractions=(1.0,), seeds=(1,), kinds=("monolingual", "transfer"),
                config=tiny_config(freeze_pretrained=True), pretrained=table,
            )

    def test_empty_subset_names_its_sweep_point(self):
        train, test = tiny_dataset()
        with pytest.raises(TrainingError, match="^sweep point fraction=0.001 seed=1 "
                                                "kind=monolingual: cell 0: empty training set$"):
            learning_curve(train, test, fractions=(0.001,), seeds=(1,),
                           kinds=("monolingual",), config=tiny_config())

    def test_transfer_without_pretrained_rejected(self):
        train, test = tiny_dataset()
        with pytest.raises(ValueError):
            learning_curve(train, test, fractions=(1.0,), seeds=(1,),
                           kinds=("transfer",), config=tiny_config())

    def test_bad_fraction_rejected(self):
        train, test = tiny_dataset()
        with pytest.raises(ValueError):
            learning_curve(train, test, fractions=(0.0,), seeds=(1,),
                           kinds=("monolingual",), config=tiny_config())

    def test_no_test_documents_rejected_before_training(self, monkeypatch):
        train, _ = tiny_dataset()
        monkeypatch.setattr(curves_module, "train_many", lambda cells: pytest.fail("trained"))
        with pytest.raises(ValueError, match="at least one test document"):
            learning_curve(train, [], fractions=(1.0,), seeds=(1,),
                           kinds=("monolingual",), config=tiny_config())

    def test_evaluate_matches_predict_per_document(self):
        # one batch over the test documents labels them as predict does one
        # at a time, a tie included (epochs=0: every distribution is uniform)
        train, test = tiny_dataset()
        for epochs in (0, 5):
            model = train_supervised(train, tiny_config(epochs=epochs))
            labels = [predict(tokenize(d.text), model)[0] for d in test]
            expected = binary_metrics(confusion(labels, [d.label for d in test]))
            assert evaluate_classifier(model, test) == expected
            assert epochs or not any(labels)

    def test_point_validation(self, monkeypatch):
        # learning_curve rejects a point's fraction or kind before training
        train, test = tiny_dataset()
        monkeypatch.setattr(curves_module, "train_many", lambda cells: pytest.fail("trained"))
        with pytest.raises(ValueError, match=r"fraction must be in \(0,1\], got 1.5"):
            learning_curve(train, test, fractions=(1.5,), seeds=(1,),
                           kinds=("monolingual",), config=tiny_config())
        with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
            learning_curve(train, test, fractions=(0.5,), seeds=(1,),
                           kinds=("monolingual", "bogus"), config=tiny_config())

    def test_fraction_means_aggregates(self):
        m1 = binary_metrics(ConfusionMatrix(2, 0, 0, 2))
        m2 = binary_metrics(ConfusionMatrix(0, 2, 2, 0))
        points = [
            LearningCurvePoint(0.5, "monolingual", 1, m1),
            LearningCurvePoint(0.5, "monolingual", 2, m2),
        ]
        means = fraction_means(points)
        assert means[(0.5, "monolingual")]["f1"] == pytest.approx(0.5)
        assert means[(0.5, "monolingual")]["n"] == 2.0

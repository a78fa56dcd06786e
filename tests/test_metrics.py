import numpy as np
import pytest

from xldetect.metrics import (
    ConfusionMatrix, binary_metrics, confusion, evaluate, f1_from_pr, flagged)


class TestConfusion:
    def test_direct_count(self):
        cm = confusion([1, 0, 1, 0], [1, 1, 0, 0])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_all_correct(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert cm.fp == 0 and cm.fn == 0 and cm.tp == 2 and cm.tn == 1

    def test_matches_plain_python_recount(self):
        rng = np.random.default_rng(11)
        preds = rng.integers(0, 2, 1000).tolist()
        gold = rng.integers(0, 2, 1000).tolist()
        cm = confusion(preds, gold)
        # independent recount with a plain loop
        tp = fp = fn = tn = 0
        for p, g in zip(preds, gold):
            if p == 1 and g == 1:
                tp += 1
            elif p == 1 and g == 0:
                fp += 1
            elif p == 0 and g == 1:
                fn += 1
            else:
                tn += 1
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)

    def test_total_invariant(self):
        cm = confusion([1, 1, 0], [0, 1, 0])
        assert cm.total == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            confusion([], [])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


class TestBinaryMetrics:
    def test_symmetric_case(self):
        report = binary_metrics(ConfusionMatrix(tp=1, fp=1, fn=1, tn=0))
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_monolingual_table_rows(self):
        # reported benchmark rows whose F1 matches the harmonic mean of P and R
        assert abs(f1_from_pr(0.708, 0.184) - 0.292) <= 0.0005
        assert abs(f1_from_pr(0.448, 0.218) - 0.293) <= 0.0005

    def test_low_resource_transfer_row(self):
        assert abs(f1_from_pr(0.390, 0.147) - 0.214) <= 0.0005

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tp, fp, fn, tn = rng.integers(0, 50, 4)
            report = binary_metrics(ConfusionMatrix(int(tp), int(fp), int(fn), int(tn)))
            if report.precision + report.recall > 0:
                expected = (
                    2 * report.precision * report.recall
                    / (report.precision + report.recall)
                )
                assert abs(report.f1 - expected) <= 1e-12
            else:
                assert report.f1 == 0.0

    def test_degenerate_precision_flagged(self):
        report = binary_metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        assert report.precision == 0.0 and report.f1 == 0.0
        assert "no_positive_predictions" in report.flags

    def test_degenerate_recall_flagged(self):
        report = binary_metrics(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8))
        assert report.recall == 0.0
        assert "no_positive_labels" in report.flags

    def test_positive_class_name(self):
        report = binary_metrics(ConfusionMatrix(1, 1, 1, 1))
        assert report.positive_class == "Suspended"


class TestEvaluate:
    def test_metrics_of_flagged_labels(self):
        # rows (0.5, 0.5) tie and do not flag
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25], [0.4, 0.6]])
        report = evaluate(probs, [1, 1, 0, 0])
        assert flagged(probs).tolist() == [False, True, False, True]
        assert report == binary_metrics(confusion([0, 1, 0, 1], [1, 1, 0, 0]))
        assert (report.confusion.tp, report.confusion.fp, report.confusion.fn) == (1, 1, 1)

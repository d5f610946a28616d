import csv
import io

import numpy as np
import pytest

import oracles
from signet import metrics


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        labels = [0, 1, 2, 1, 0, 2]
        cm = metrics.confusion_matrix(labels, labels, 3)
        assert np.array_equal(cm.counts, np.diag([2, 2, 2]))

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 57)
        pred = rng.integers(0, 4, 57)
        assert metrics.confusion_matrix(truth, pred, 4).total == 57

    def test_hand_counted_case(self):
        cm = metrics.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert np.array_equal(cm.counts, np.array([[1, 1], [0, 2]]))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            metrics.confusion_matrix([0, 3], [0, 1], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.confusion_matrix([0, 1], [0], 2)


class TestClassificationReport:
    def test_precision_one_recall_half_renders_67(self):
        # One class with all predictions right but only half its samples found.
        cm = metrics.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], ["a", "b"])
        report = metrics.classification_report(cm)
        assert report.precision[0] == 1.0 and report.recall[0] == 0.5
        assert metrics.percent(report.f1[0]) == 67

    def test_perfect_classifier_all_ones(self):
        labels = [0, 1, 2, 0, 1, 2]
        report = metrics.classification_report(metrics.confusion_matrix(labels, labels, 3))
        assert np.array_equal(report.precision, np.ones(3))
        assert np.array_equal(report.recall, np.ones(3))
        assert np.array_equal(report.f1, np.ones(3))
        assert report.accuracy == 1.0

    def test_absent_class_yields_zeros(self):
        cm = metrics.confusion_matrix([0, 0], [0, 0], 3)
        report = metrics.classification_report(cm)
        assert report.precision[2] == report.recall[2] == report.f1[2] == 0.0
        assert report.support[2] == 0

    def test_accuracy_is_support_weighted_recall(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 3, 200)
        pred = rng.integers(0, 3, 200)
        report = metrics.classification_report(metrics.confusion_matrix(truth, pred, 3))
        weighted = float((report.recall * report.support).sum() / report.support.sum())
        assert abs(report.accuracy - weighted) < 1e-12

    def test_agrees_with_brute_force_counter(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            truth = rng.integers(0, 4, 30)
            pred = rng.integers(0, 4, 30)
            report = metrics.classification_report(metrics.confusion_matrix(truth, pred, 4))
            rows, accuracy = oracles.report_by_counting(truth, pred, 4)
            for c, (p, r, f1, support) in enumerate(rows):
                assert abs(report.precision[c] - p) < 1e-12
                assert abs(report.recall[c] - r) < 1e-12
                assert abs(report.f1[c] - f1) < 1e-12
                assert report.support[c] == support
            assert abs(report.accuracy - accuracy) < 1e-12

    def test_harmonic_mean_bounds(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 5, 300)
        pred = rng.integers(0, 5, 300)
        report = metrics.classification_report(metrics.confusion_matrix(truth, pred, 5))
        for p, r, f in zip(report.precision, report.recall, report.f1):
            if p > 0 and r > 0:
                assert f <= max(p, r) + 1e-12
                assert f >= min(p, r) - 1e-12

    def test_empty_matrix_rejected(self):
        cm = metrics.ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ["a", "b"])
        with pytest.raises(ValueError):
            metrics.classification_report(cm)


class TestRendering:
    def test_percent_rounds_half_up(self):
        assert metrics.percent(2 / 3) == 67
        assert metrics.percent(0.405) == 41
        assert metrics.percent(0.5) == 50
        assert metrics.percent(1.0) == 100
        assert metrics.percent(0.125) == 13

    def test_report_layout_rows(self):
        truth = [0, 0, 1, 1, 2, 3]
        pred = [0, 1, 1, 1, 2, 3]
        names = ["doubles", "parang", "punch_a_creme", "sorrel"]
        report = metrics.classification_report(metrics.confusion_matrix(truth, pred, names))
        text = metrics.render_report(report)
        lines = text.splitlines()
        assert len(lines) == 1 + 4 + 2  # header, classes, accuracy + macro avg
        assert lines[0].split() == ["Sign", "Precision", "Recall", "F1-Score"]
        assert lines[1].startswith("doubles")
        assert lines[-2].startswith("accuracy")
        assert lines[-1].startswith("macro avg")
        assert all(cell.endswith("%") for cell in lines[1].split()[1:])

    def test_report_golden_text(self):
        # A name wider than "macro avg" sets the name column; "thumbs" is
        # never predicted, so its precision and F1 are 0/0 cells.
        truth = [0, 0, 1, 1, 1, 2, 3, 3, 3]
        pred = [0, 1, 1, 1, 0, 1, 3, 3, 0]
        names = ["wave", "flat_hand_circle", "thumbs", "pinch"]
        report = metrics.classification_report(metrics.confusion_matrix(truth, pred, names))
        assert metrics.render_report(report) == (
            "Sign              Precision     Recall   F1-Score\n"
            "wave                    33%        50%        40%\n"
            "flat_hand_circle        50%        67%        57%\n"
            "thumbs                   0%         0%         0%\n"
            "pinch                  100%        67%        80%\n"
            "accuracy                                      56%\n"
            "macro avg               46%        46%        44%\n"
        )

    def test_rendered_percentages_reparse_close(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(0, 3, 60)
        pred = rng.integers(0, 3, 60)
        report = metrics.classification_report(metrics.confusion_matrix(truth, pred, 3))
        lines = metrics.render_report(report).splitlines()
        for i in range(3):
            cells = lines[1 + i].split()
            got = [int(c.rstrip("%")) for c in cells[1:]]
            want = [report.precision[i] * 100, report.recall[i] * 100, report.f1[i] * 100]
            for g, w in zip(got, want):
                assert abs(g - w) <= 0.5

    def test_matrix_csv_layout(self):
        cm = metrics.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], ["left", "right"])
        text = metrics.render_matrix(cm)
        assert text.splitlines() == [",left,right", "left,1,1", "right,0,2"]

    def test_matrix_csv_quotes_names(self):
        names = ["a,b", 'say "hi"', "c"]
        cm = metrics.confusion_matrix([0, 1, 2, 2], [0, 1, 2, 0], names)
        rows = list(csv.reader(io.StringIO(metrics.render_matrix(cm))))
        assert rows[0] == ["", *names]
        assert [r[0] for r in rows[1:]] == names
        assert all(len(r) == 4 for r in rows)
        assert [[int(v) for v in r[1:]] for r in rows[1:]] == cm.counts.tolist()

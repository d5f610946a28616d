"""Confusion matrix, per-class precision/recall/F1, and report rendering.

Matrix orientation is fixed: rows are true classes, columns are predicted
classes. Any 0/0 rate is reported as 0 so reports stay total. Rendered
percentages round half-up to integers.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "ClassificationReport",
    "confusion_matrix",
    "classification_report",
    "render_report",
    "render_matrix",
    "percent",
]


@dataclass
class ConfusionMatrix:
    """counts[t][p] = samples of true class t predicted as class p."""

    counts: np.ndarray
    class_names: list[str]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class ClassificationReport:
    class_names: list[str]
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


def confusion_matrix(truth, pred, class_names) -> ConfusionMatrix:
    """Count (true, predicted) label pairs into an N x N matrix."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError(f"label arrays must be equal-length 1-d, got {truth.shape} vs {pred.shape}")
    if isinstance(class_names, int):
        class_names = [str(i) for i in range(class_names)]
    n = len(class_names)
    for arr, which in ((truth, "truth"), (pred, "pred")):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"{which} label outside [0, {n})")
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return ConfusionMatrix(counts, list(class_names))


def classification_report(cm: ConfusionMatrix) -> ClassificationReport:
    """Per-class precision/recall/F1/support plus accuracy and macro means.

    precision = TP / (TP + FP), recall = TP / (TP + FN),
    f1 = 2PR / (P + R); all 0/0 cases yield 0. accuracy = trace / total;
    macro averages are unweighted class means.
    """
    counts = cm.counts
    if counts.sum() == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    col = counts.sum(axis=0).astype(np.float64)
    row = counts.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(col > 0, tp / col, 0.0)
        recall = np.where(row > 0, tp / row, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return ClassificationReport(
        class_names=list(cm.class_names),
        precision=precision,
        recall=recall,
        f1=f1,
        support=row.astype(np.int64),
        accuracy=float(tp.sum() / counts.sum()),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


def percent(rate: float) -> int:
    """Rate in [0, 1] to an integer percentage, rounding half up."""
    return int(math.floor(rate * 100.0 + 0.5))


def render_report(report: ClassificationReport) -> str:
    """Text table: one row per class, then accuracy and macro-average rows.

    A row is the name column, then one right-aligned cell per rate: its
    percentage, or blank for None.
    """
    width = max(len("Sign"), len("macro avg"), *(len(n) for n in report.class_names))
    col = 11

    def row(name, *rates):
        cells = ("" if r is None else f"{percent(r)}%" for r in rates)
        return f"{name:<{width}}" + "".join(f"{c:>{col}}" for c in cells) + "\n"

    return "".join([
        f"{'Sign':<{width}}{'Precision':>{col}}{'Recall':>{col}}{'F1-Score':>{col}}\n",
        *map(row, report.class_names, report.precision, report.recall, report.f1),
        row("accuracy", None, None, report.accuracy),
        row("macro avg", report.macro_precision, report.macro_recall, report.macro_f1),
    ])


def render_matrix(cm: ConfusionMatrix) -> str:
    """CSV with a header row and column of class names; rows are true classes."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["", *cm.class_names])
    for name, row in zip(cm.class_names, cm.counts):
        out.writerow([name, *(int(v) for v in row)])
    return buf.getvalue()

"""Evaluation suite: confusion matrix, per-class and support-weighted
precision/recall/F1, accuracy, and ROC AUC, for in-process models or for
externally produced prediction files.

The hate class is the positive class throughout. AUC is the pairwise
concordance probability (ties get half credit), computed from midranks.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import write_csv
from .corpus import BINARY_LABELS, HATE, NON_HATE, _read_columns, _row_line

log = logging.getLogger(__name__)

PER_CLASS = "per-class"
WEIGHTED = "weighted"


class Prf(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return asdict(self)


def _check_labels(labels):
    for label in labels:
        if label not in BINARY_LABELS:
            raise ValueError(f"non-binary label {label!r}; expected one of {BINARY_LABELS}")


def confusion(predicted, actual) -> ConfusionMatrix:
    """Count tp/fp/fn/tn with hate as the positive class."""
    predicted = list(predicted)
    actual = list(actual)
    if len(predicted) != len(actual):
        raise ValueError(f"length mismatch: {len(predicted)} predictions, {len(actual)} labels")
    if not predicted:
        raise ValueError("empty input")
    _check_labels(predicted)
    _check_labels(actual)
    tp = fp = fn = tn = 0
    for p, a in zip(predicted, actual):
        if p == HATE and a == HATE:
            tp += 1
        elif p == HATE:
            fp += 1
        elif a == HATE:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


def threshold_labels(scores, threshold: float) -> list:
    """Hard labels from scores: hate iff score >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return [HATE if s >= threshold else NON_HATE for s in scores]


def _safe_prf(tp, fp, fn) -> Prf:
    # Zero-denominator convention: precision/recall are 0, F1 is 0 at P+R=0.
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Prf(precision, recall, f1)


def prf(data, average: str = WEIGHTED):
    """Precision/recall/F1 from a ConfusionMatrix or a (predicted, actual) pair.

    average="per-class" returns {hate: Prf, nonhate: Prf}; "weighted"
    returns one Prf averaged with true-class supports as weights.
    """
    cm = data if isinstance(data, ConfusionMatrix) else confusion(*data)
    hate_scores = _safe_prf(cm.tp, cm.fp, cm.fn)
    nonhate_scores = _safe_prf(cm.tn, cm.fn, cm.fp)
    if average == PER_CLASS:
        return {HATE: hate_scores, NON_HATE: nonhate_scores}
    if average != WEIGHTED:
        raise ValueError(f"unknown averaging {average!r}")
    support_hate = cm.tp + cm.fn
    support_nonhate = cm.tn + cm.fp
    total = support_hate + support_nonhate
    return Prf(
        *(
            (support_hate * h + support_nonhate * n) / total
            for h, n in zip(hate_scores, nonhate_scores)
        )
    )


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of ties sharing the mean of its ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def roc_auc(scores, labels) -> float:
    """Probability that a random hate example outscores a random non-hate
    example, ties counted half. Equals the trapezoidal ROC area. Every
    score must be finite."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = list(labels)
    if len(scores) != len(labels):
        raise ValueError(f"length mismatch: {len(scores)} scores, {len(labels)} labels")
    _check_labels(labels)
    non_finite = int(np.count_nonzero(~np.isfinite(scores)))
    if non_finite:
        raise ValueError(f"{non_finite} of {len(scores)} scores are not finite")
    positive = np.array([label == HATE for label in labels])
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC is undefined when only one class is present")
    ranks = _midranks(scores)
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class MetricsReport:
    per_class: dict
    weighted: Prf
    accuracy: float
    auc: float | None
    supports: dict
    confusion_matrix: ConfusionMatrix
    scores: np.ndarray = field(default=None, compare=False, repr=False)  # what was scored

    def to_dict(self) -> dict:
        """Every field but the scores, as metrics.json holds them."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "scores"}
        data["per_class"] = {label: s._asdict() for label, s in self.per_class.items()}
        data["weighted"] = self.weighted._asdict()
        data["confusion_matrix"] = self.confusion_matrix.to_dict()
        return data

    def to_text(self) -> str:
        """Aligned plain-text table plus the confusion matrix."""
        cm = self.confusion_matrix
        auc = f"{self.auc:.4f}" if self.auc is not None else "n/a"
        header = f"{'P':>8} {'R':>8} {'F1-hate':>8} {'F1-nonhate':>11} {'weighted-F1':>12} {'AUC':>8}"
        row = (
            f"{self.weighted.precision:8.4f} {self.weighted.recall:8.4f} "
            f"{self.per_class[HATE].f1:8.4f} {self.per_class[NON_HATE].f1:11.4f} "
            f"{self.weighted.f1:12.4f} {auc:>8}"
        )
        lines = [
            header,
            row,
            "",
            f"accuracy: {self.accuracy:.4f}   support hate={self.supports[HATE]} "
            f"nonhate={self.supports[NON_HATE]}",
            "confusion matrix (rows=actual, cols=predicted):",
            f"{'':>10}{'hate':>8}{'nonhate':>9}",
            f"{'hate':>10}{cm.tp:>8}{cm.fn:>9}",
            f"{'nonhate':>10}{cm.fp:>8}{cm.tn:>9}",
        ]
        return "\n".join(lines) + "\n"


def evaluate_predictions(scores, predicted, actual) -> MetricsReport:
    """Assemble the full report from scores, hard predictions, and truth.

    If only one class is present AUC is omitted with a warning; everything
    else is still reported.
    """
    cm = confusion(predicted, actual)
    per_class = prf(cm, PER_CLASS)
    weighted = prf(cm, WEIGHTED)
    accuracy = (cm.tp + cm.tn) / cm.total
    supports = {HATE: cm.tp + cm.fn, NON_HATE: cm.tn + cm.fp}
    try:
        auc = roc_auc(scores, actual)
    except ValueError:
        log.warning("single-class input: AUC omitted from the report")
        auc = None
    return MetricsReport(per_class, weighted, accuracy, auc, supports, cm, np.asarray(scores))


def report(model, examples) -> MetricsReport:
    """Score a model over labeled examples and compute the full suite.

    The model is asked for each text's score once; the hard labels
    threshold those scores at the model's own threshold.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("empty evaluation split")
    actual = []
    for example in examples:
        if example.binary_label is None:
            raise ValueError(f"example {example.id} has no binary label")
        actual.append(example.binary_label)
    texts = [example.text for example in examples]
    scores = model.predict(texts)
    predicted = threshold_labels(scores, model.threshold)
    return evaluate_predictions(scores, predicted, actual)


def write_predictions_csv(path, ids, scores) -> None:
    """CSV "id,score" with full-precision scores (round-trips exactly)."""
    write_csv(path, ["id", "score"], ((i, repr(float(s))) for i, s in zip(ids, scores)))


def write_labels_csv(path, ids, labels) -> None:
    write_csv(path, ["id", "label"], zip(ids, labels))


def _read_two_column_csv(path: Path, value_column) -> dict:
    """{id: (row, value)} of an "id,<value_column>" CSV file, rows from 0."""
    rows = {}
    for row, (example_id, value) in enumerate(_read_columns(path, ("id", value_column), "file")):
        if example_id in rows:
            raise ValueError(f"{path}: duplicate id {example_id!r} (lines "
                             f"{_row_line(path, rows[example_id][0])} and {_row_line(path, row)})")
        rows[example_id] = (row, value)
    if not rows:
        raise ValueError(f"{path} has no data rows")
    return rows


def score_external(predictions_path, labels_path, threshold: float) -> MetricsReport:
    """Score an externally produced predictions file against a labels file.

    Files align by id; scores must lie in [0, 1]; hard labels use the same
    >= threshold rule as the classifier, at the threshold given. An error
    names the file and the line.
    """
    predictions_path, labels_path = Path(predictions_path), Path(labels_path)
    score_rows = _read_two_column_csv(predictions_path, "score")
    label_rows = _read_two_column_csv(labels_path, "label")
    unknown = sorted(set(score_rows) ^ set(label_rows))
    if unknown:
        where, other, rows = ((predictions_path, labels_path, score_rows)
                              if unknown[0] in score_rows else
                              (labels_path, predictions_path, label_rows))
        raise ValueError(f"prediction/label ids do not align; first mismatch: {unknown[0]!r}, "
                         f"on {where}:{_row_line(where, rows[unknown[0]][0])} but not in {other}")
    ids = sorted(score_rows)
    scores = []
    for example_id in ids:
        (row, value), (label_row, label) = score_rows[example_id], label_rows[example_id]
        try:
            score = float(value)
        except ValueError:
            score = None
        if score is None or not 0.0 <= score <= 1.0:
            problem = "is not a number" if score is None else "is out of range [0, 1]"
            raise ValueError(f"{predictions_path}: score {value!r} for id {example_id!r} "
                             f"{problem} (line {_row_line(predictions_path, row)})")
        if label not in BINARY_LABELS:
            raise ValueError(f"{labels_path}: label {label!r} for id {example_id!r} is not one "
                             f"of {BINARY_LABELS} (line {_row_line(labels_path, label_row)})")
        scores.append(score)
    actual = [label_rows[example_id][1] for example_id in ids]
    return evaluate_predictions(np.asarray(scores), threshold_labels(scores, threshold), actual)

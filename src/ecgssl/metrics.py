"""Multi-label evaluation: per-class/macro/micro F1 and rank-based AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PredictionBatch",
    "per_class_f1",
    "macro_f1",
    "micro_f1",
    "auc",
]


@dataclass
class PredictionBatch:
    """Scores in [0, 1] and binary targets, shape (n_samples, n_classes)."""

    scores: np.ndarray
    targets: np.ndarray
    class_names: tuple = ()

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.targets = np.asarray(self.targets)
        if self.scores.shape != self.targets.shape:
            raise ValueError("scores and targets must have the same shape")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("non-finite scores")
        if not self.class_names:
            self.class_names = tuple(
                f"class_{i}" for i in range(self.scores.shape[1])
            )


# a class counts as predicted at a score of at least this
THRESHOLD = 0.5


def _confusion(pred: PredictionBatch):
    decided = pred.scores >= THRESHOLD
    actual = pred.targets.astype(bool)
    tp = np.sum(decided & actual, axis=0)
    fp = np.sum(decided & ~actual, axis=0)
    fn = np.sum(~decided & actual, axis=0)
    return tp, fp, fn


def per_class_f1(pred: PredictionBatch) -> np.ndarray:
    """F1 per class; an empty confusion (TP=FP=FN=0) scores 1.0 by convention."""
    tp, fp, fn = _confusion(pred)
    denom = 2 * tp + fp + fn
    out = np.ones(len(tp), dtype=np.float64)
    nonempty = denom > 0
    out[nonempty] = 2.0 * tp[nonempty] / denom[nonempty]
    return out


def macro_f1(pred: PredictionBatch) -> float:
    scores = per_class_f1(pred)
    return float(scores.sum() / len(scores))


def micro_f1(pred: PredictionBatch) -> float:
    tp, fp, fn = _confusion(pred)
    denom = 2 * tp.sum() + fp.sum() + fn.sum()
    if denom == 0:
        return 1.0
    return float(2.0 * tp.sum() / denom)


def _rank_auc(scores, targets):
    """P(random positive outranks random negative), ties counted half."""
    # a tie group ending at 1-based rank r with c members has average rank
    # r - (c - 1) / 2; every term is a whole or half number, so exact
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    pos = targets.astype(bool)
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(pred: PredictionBatch):
    """Per-class AUC plus macro average.

    Returns (per_class, macro, skipped) where per_class holds NaN for
    classes lacking both a positive and a negative; those are listed in
    `skipped` and excluded from the macro average.
    """
    n_classes = pred.scores.shape[1]
    out = np.full(n_classes, np.nan)
    skipped = []
    for c in range(n_classes):
        t = pred.targets[:, c]
        if t.sum() == 0 or t.sum() == len(t):
            skipped.append(pred.class_names[c])
            continue
        out[c] = _rank_auc(pred.scores[:, c], t)
    valid = ~np.isnan(out)
    macro = float(out[valid].mean()) if valid.any() else float("nan")
    return out, macro, skipped

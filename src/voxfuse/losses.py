"""Training-objective terms, each a pure reduction over flat prediction rows.

All log arguments clamp at 1e-12; a clamp on a term that should stay finite
raises a ClampWarning so degenerate fixtures are visible. Every term is
non-negative and exactly zero on perfect predictions.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoLabels, ShapeError

CLAMP = 1e-12


class ClampWarning(UserWarning):
    """A probability hit the numerical clamp inside a log term."""


def _check_probs(probs: np.ndarray, labels: np.ndarray):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if probs.ndim != 2:
        raise ShapeError(f"probabilities must be (N, C), got shape {probs.shape}")
    if probs.shape[0] != labels.shape[0]:
        raise ShapeError(f"{probs.shape[0]} prediction rows but {labels.shape[0]} labels")
    if probs.shape[0] == 0:
        raise NoLabels("no labeled voxels")
    sums = probs.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError("probability rows must sum to 1 within 1e-6")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(f"labels must lie in [0, {probs.shape[1]})")
    return probs, labels.astype(np.int64)


def _log(x: np.ndarray | float, context: str):
    x = np.asarray(x, dtype=np.float64)
    if (x < CLAMP).any():
        warnings.warn(f"{context}: clamped {int((x < CLAMP).sum())} value(s) at {CLAMP}",
                      ClampWarning, stacklevel=3)
    return np.log(np.maximum(x, CLAMP))


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class."""
    probs, labels = _check_probs(probs, labels)
    picked = probs[np.arange(labels.shape[0]), labels]
    return float(-_log(picked, "cross_entropy").mean())


def _jaccard_prefix(errors_desc: np.ndarray, gt_desc: np.ndarray) -> np.ndarray:
    """Discrete derivative of the Jaccard loss along the sorted prefix chain."""
    gts = gt_desc.sum()
    intersection = gts - np.cumsum(gt_desc)
    union = gts + np.cumsum(1.0 - gt_desc)
    jaccard = 1.0 - intersection / union
    if jaccard.shape[0] > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean over GT-present classes of the sorted-error Jaccard surrogate.

    Per class: errors are 1 - p for member voxels and p for the rest, sorted
    descending and paired with the Jaccard-loss increments of the prefix sets.
    """
    probs, labels = _check_probs(probs, labels)
    present = np.unique(labels)
    losses = []
    for c in present:
        member = labels == c
        e = np.where(member, 1.0 - probs[:, c], probs[:, c])
        order = np.argsort(-e, kind="stable")
        losses.append(float(e[order] @ _jaccard_prefix(e[order], member[order].astype(np.float64))))
    return float(np.mean(losses))


def geo_scal(probs: np.ndarray, labels: np.ndarray) -> float:
    """Log precision, recall and specificity of the soft occupied-vs-empty masses.

    Class 0 is empty. Terms whose denominator is zero are skipped; a clamped
    term raises ClampWarning.
    """
    probs, labels = _check_probs(probs, labels)
    p_occ = 1.0 - probs[:, 0]
    g_occ = (labels != 0).astype(np.float64)
    tp = float(p_occ @ g_occ)
    loss = 0.0
    if p_occ.sum() > 0:
        loss -= float(_log(tp / p_occ.sum(), "geo_scal precision"))
    if g_occ.sum() > 0:
        loss -= float(_log(tp / g_occ.sum(), "geo_scal recall"))
    g_empty = 1.0 - g_occ
    if g_empty.sum() > 0:
        tn = float((1.0 - p_occ) @ g_empty)
        loss -= float(_log(tn / g_empty.sum(), "geo_scal specificity"))
    return loss


def sem_scal(probs: np.ndarray, labels: np.ndarray) -> float:
    """Per-class log precision/recall/specificity on soft class masses.

    A class is skipped only when it is absent from both the ground truth and
    the predicted mass; defined terms average over the counted classes.
    """
    probs, labels = _check_probs(probs, labels)
    n, c_total = probs.shape
    total = 0.0
    counted = 0
    for c in range(c_total):
        p = probs[:, c]
        g = (labels == c).astype(np.float64)
        p_sum, g_sum = float(p.sum()), float(g.sum())
        if p_sum == 0.0 and g_sum == 0.0:
            continue
        counted += 1
        tp = float(p @ g)
        loss_c = 0.0
        if p_sum > 0:
            loss_c -= float(_log(tp / p_sum, f"sem_scal precision class {c}"))
        if g_sum > 0:
            loss_c -= float(_log(tp / g_sum, f"sem_scal recall class {c}"))
        neg = n - g_sum
        if neg > 0:
            tn = float((1.0 - p) @ (1.0 - g))
            loss_c -= float(_log(tn / neg, f"sem_scal specificity class {c}"))
        total += loss_c
    return total / counted if counted else 0.0


def rie_bce(scores, occupancy_labels: np.ndarray) -> float:
    """Mean binary cross-entropy of refinement scores against 0/1 targets."""
    scores = getattr(scores, "scores", scores)
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(occupancy_labels, dtype=np.float64).reshape(-1)
    if s.shape != y.shape:
        raise ShapeError(f"{s.shape[0]} scores but {y.shape[0]} labels")
    if s.size == 0:
        raise NoLabels("no scored voxels")
    if s.min() < 0.0 or s.max() > 1.0:
        raise ValueError("scores must lie in [0, 1]")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("occupancy labels must be binary")
    return float(-_log(np.where(y > 0.5, s, 1.0 - s), "rie_bce").mean())


def occlusion_ce(probs: np.ndarray, occlusion_labels: np.ndarray) -> float:
    """Cross-entropy over the three visibility states."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 3:
        raise ShapeError(f"visibility probabilities must be (N, 3), got {probs.shape}")
    return cross_entropy(probs, occlusion_labels)


@dataclass(frozen=True)
class LossReport:
    """The six unit-weight terms and their sum."""

    ce: float
    lovasz: float
    geo_scal: float
    sem_scal: float
    rie_bce: float
    occlusion_ce: float

    def __post_init__(self):
        for name in ("ce", "lovasz", "geo_scal", "sem_scal", "rie_bce", "occlusion_ce"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < -1e-12:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")

    @property
    def total(self) -> float:
        return self.ce + self.lovasz + self.geo_scal + self.sem_scal \
            + self.rie_bce + self.occlusion_ce

    def to_json(self) -> str:
        return json.dumps({
            "ce": self.ce,
            "lovasz": self.lovasz,
            "geo_scal": self.geo_scal,
            "sem_scal": self.sem_scal,
            "rie_bce": self.rie_bce,
            "occlusion_ce": self.occlusion_ce,
            "total": self.total,
        })


def loss_report(sem_probs: np.ndarray, sem_labels: np.ndarray, rie_scores,
                rie_targets: np.ndarray, occ_probs: np.ndarray,
                occ_labels: np.ndarray) -> LossReport:
    """Evaluate all six terms on one prediction bundle."""
    return LossReport(
        ce=cross_entropy(sem_probs, sem_labels),
        lovasz=lovasz_softmax(sem_probs, sem_labels),
        geo_scal=geo_scal(sem_probs, sem_labels),
        sem_scal=sem_scal(sem_probs, sem_labels),
        rie_bce=rie_bce(rie_scores, rie_targets),
        occlusion_ce=occlusion_ce(occ_probs, occ_labels),
    )

"""Evaluation metrics over labeled volumes: occupancy IoU and per-class IoU."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class MetricsReport:
    """Geometric IoU plus per-class IoU; NaN marks classes with empty union."""

    iou: float
    miou: float
    per_class_iou: np.ndarray = field(repr=False)

    def to_json(self) -> str:
        per_class = [None if np.isnan(v) else float(v) for v in self.per_class_iou]
        return json.dumps({"iou": self.iou, "miou": self.miou, "per_class_iou": per_class})


def compute_metrics(pred_labels: np.ndarray, gt_labels: np.ndarray,
                    num_classes: int | None = None) -> MetricsReport:
    """Compare two label volumes of identical shape; label 0 is empty.

    Geometric IoU treats any non-zero label as occupied. Per-class IoU covers
    every class id except 0; ids whose union is zero are undefined (NaN) and
    excluded from the mean.
    """
    pred = np.asarray(pred_labels).reshape(-1)
    gt = np.asarray(gt_labels).reshape(-1)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction shape {pred_labels.shape} != gt shape {gt_labels.shape}")
    if pred.dtype.kind not in "biu" or gt.dtype.kind not in "biu":
        raise ValueError("labels must be integers")
    # Volumes are mostly empty, so only the non-zero voxels are counted; a
    # negative label is non-zero and so still reaches the check below.
    pred_at, gt_at = np.flatnonzero(pred != 0), np.flatnonzero(gt != 0)
    pred_val, gt_val = pred[pred_at], gt[gt_at]
    if pred_val.min(initial=0) < 0 or gt_val.min(initial=0) < 0:
        raise ValueError("labels must be non-negative")
    pred_val, gt_val = pred_val.astype(np.intp, copy=False), gt_val.astype(np.intp, copy=False)
    gt_under_pred = gt[pred_at].astype(np.intp, copy=False)

    if num_classes is None:
        num_classes = int(max(pred_val.max(initial=0), gt_val.max(initial=0))) + 1

    inter = np.count_nonzero(gt_under_pred)  # voxels occupied in both
    union = pred_at.size + gt_at.size - inter
    iou = inter / union if union else 1.0

    # per-class voxel counts over the non-zero labels: predicted, ground truth
    # and both agreeing; label 0 is never counted, so its IoU stays NaN
    pred_n = np.bincount(pred_val, minlength=num_classes)
    gt_n = np.bincount(gt_val, minlength=num_classes)
    agree_n = np.bincount(pred_val[gt_under_pred == pred_val], minlength=num_classes)

    inter_c = agree_n[:num_classes]
    union_c = pred_n[:num_classes] + gt_n[:num_classes] - inter_c
    per_class = np.full(num_classes, np.nan)
    np.divide(inter_c, union_c, out=per_class, where=union_c > 0)
    defined = ~np.isnan(per_class)
    miou = float(per_class[defined].mean()) if defined.any() else 0.0
    return MetricsReport(iou=float(iou), miou=miou, per_class_iou=per_class)

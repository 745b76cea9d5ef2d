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


def compute_metrics(pred_labels: np.ndarray, gt_labels: np.ndarray, ignore_mask=None,
                    empty_class: int = 0, num_classes: int | None = None) -> MetricsReport:
    """Compare two label volumes of identical shape.

    Geometric IoU treats any non-empty label as occupied. Per-class IoU covers
    every class id except the empty one; ids whose union is zero are undefined
    (NaN) and excluded from the mean. Ignored voxels count toward nothing.
    """
    pred = np.asarray(pred_labels).reshape(-1)
    gt = np.asarray(gt_labels).reshape(-1)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction shape {pred_labels.shape} != gt shape {gt_labels.shape}")
    if ignore_mask is not None:
        keep = ~np.asarray(ignore_mask, dtype=bool).reshape(-1)
        if keep.shape != pred.shape:
            raise ShapeError("ignore mask shape must match the label volumes")
        pred, gt = pred[keep], gt[keep]
    if pred.dtype.kind not in "biu" or gt.dtype.kind not in "biu":
        raise ValueError("labels must be integers")
    if pred.min(initial=0) < 0 or gt.min(initial=0) < 0:
        raise ValueError("labels must be non-negative")
    pred, gt = pred.astype(np.intp, copy=False), gt.astype(np.intp, copy=False)

    if num_classes is None:
        num_classes = int(max(pred.max(initial=0), gt.max(initial=0))) + 1

    # per-class voxel counts: predicted, ground truth, and both agreeing
    size = max(num_classes, empty_class + 1)
    pred_n = np.bincount(pred, minlength=size)
    gt_n = np.bincount(gt, minlength=size)
    agree_n = np.bincount(pred[pred == gt], minlength=size)

    # empty voxels; a negative empty class matches no label
    p_empty, g_empty, both_empty = ((int(n[empty_class]) for n in (pred_n, gt_n, agree_n))
                                    if empty_class >= 0 else (0, 0, 0))
    union = pred.size - both_empty
    inter = pred.size - p_empty - g_empty + both_empty
    iou = inter / union if union else 1.0

    inter_c = agree_n[:num_classes]
    union_c = pred_n[:num_classes] + gt_n[:num_classes] - inter_c
    per_class = np.full(num_classes, np.nan)
    np.divide(inter_c, union_c, out=per_class, where=union_c > 0)
    if 0 <= empty_class < num_classes:
        per_class[empty_class] = np.nan
    defined = ~np.isnan(per_class)
    miou = float(per_class[defined].mean()) if defined.any() else 0.0
    return MetricsReport(iou=float(iou), miou=miou, per_class_iou=per_class)

"""Metrics tests: hand-counted IoU fixtures and symmetry properties."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voxfuse.errors import ShapeError
from voxfuse.metrics import compute_metrics


def loop_metrics(pred, gt, num_classes=None):
    """Reference: four full-volume masks per class, counted one class at a time."""
    pred, gt = np.asarray(pred).reshape(-1), np.asarray(gt).reshape(-1)
    if num_classes is None:
        num_classes = int(max(pred.max(initial=0), gt.max(initial=0))) + 1
    p_occ, g_occ = pred != 0, gt != 0
    union = int((p_occ | g_occ).sum())
    iou = int((p_occ & g_occ).sum()) / union if union else 1.0
    per_class = np.full(num_classes, np.nan)
    for c in range(1, num_classes):
        pc, gc = pred == c, gt == c
        u = int((pc | gc).sum())
        if u:
            per_class[c] = int((pc & gc).sum()) / u
    defined = ~np.isnan(per_class)
    miou = float(per_class[defined].mean()) if defined.any() else 0.0
    return float(iou), miou, per_class


@st.composite
def label_pairs(draw):
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=6))
    dtype = draw(st.sampled_from([np.int64, np.uint8]))
    labels = hnp.arrays(dtype, shape, elements=st.integers(0, 7))
    return draw(labels), draw(labels)


class TestGeometricIou:
    def test_two_two_overlap_one_gives_third(self):
        pred = np.zeros((4, 1, 1), dtype=int)
        gt = np.zeros((4, 1, 1), dtype=int)
        pred[0, 0, 0] = pred[1, 0, 0] = 1
        gt[1, 0, 0] = gt[2, 0, 0] = 1
        rep = compute_metrics(pred, gt)
        assert np.isclose(rep.iou, 1.0 / 3.0)

    def test_identical_volumes_perfect(self, rng):
        vol = rng.integers(0, 5, (6, 6, 6))
        rep = compute_metrics(vol, vol)
        assert rep.iou == 1.0
        assert rep.miou == 1.0
        for c in range(1, 5):
            if (vol == c).any():
                assert rep.per_class_iou[c] == 1.0

    def test_disjoint_occupancy_zero(self):
        pred = np.array([[[1, 0]]])
        gt = np.array([[[0, 1]]])
        assert compute_metrics(pred, gt).iou == 0.0

    def test_both_empty_defined_as_one(self):
        rep = compute_metrics(np.zeros((2, 2, 2), int), np.zeros((2, 2, 2), int))
        assert rep.iou == 1.0

    def test_swap_symmetry(self, rng):
        a = rng.integers(0, 4, (5, 5, 5))
        b = rng.integers(0, 4, (5, 5, 5))
        fwd, rev = compute_metrics(a, b), compute_metrics(b, a)
        assert fwd.iou == rev.iou
        assert fwd.miou == rev.miou

    def test_class_counts_do_not_change_geometry(self):
        pred = np.array([[[1, 2, 0]]])
        gt = np.array([[[3, 1, 0]]])
        assert compute_metrics(pred, gt).iou == 1.0


class TestPerClassIou:
    def test_undefined_classes_marked_and_excluded(self):
        pred = np.array([[[1, 1, 0, 0]]])
        gt = np.array([[[1, 0, 0, 0]]])
        rep = compute_metrics(pred, gt, num_classes=5)
        assert np.isclose(rep.per_class_iou[1], 0.5)
        assert np.isnan(rep.per_class_iou[2:]).all()
        assert np.isclose(rep.miou, 0.5)

    def test_empty_class_never_scored(self):
        vol = np.zeros((3, 3, 3), int)
        rep = compute_metrics(vol, vol, num_classes=2)
        assert np.isnan(rep.per_class_iou[0])

    def test_relabeling_permutation_preserves_miou(self, rng):
        pred = rng.integers(0, 5, (6, 6, 6))
        gt = rng.integers(0, 5, (6, 6, 6))
        perm = np.array([0, 3, 4, 1, 2])  # empty class stays fixed
        base = compute_metrics(pred, gt, num_classes=5)
        moved = compute_metrics(perm[pred], perm[gt], num_classes=5)
        assert np.isclose(base.miou, moved.miou)
        for c in range(1, 5):
            assert np.isclose(base.per_class_iou[c], moved.per_class_iou[perm[c]],
                              equal_nan=True)

    def test_miou_over_defined_classes_only(self):
        pred = np.array([[[1, 2]]])
        gt = np.array([[[1, 1]]])
        rep = compute_metrics(pred, gt, num_classes=3)
        # class 1: inter 1, union 2; class 2: inter 0, union 1
        assert np.isclose(rep.per_class_iou[1], 0.5)
        assert rep.per_class_iou[2] == 0.0
        assert np.isclose(rep.miou, 0.25)


class TestAgainstLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(label_pairs(), st.none() | st.integers(0, 10))
    def test_bincount_counts_equal_loop(self, pair, num_classes):
        pred, gt = pair
        rep = compute_metrics(pred, gt, num_classes=num_classes)
        iou, miou, per_class = loop_metrics(pred, gt, num_classes)
        assert rep.iou == iou
        assert rep.miou == miou
        assert np.array_equal(rep.per_class_iou, per_class, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["pred", "gt"]))
    def test_negative_label_in_one_volume_rejected(self, data, side):
        shape = data.draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=5), label="shape")
        labels = hnp.arrays(np.int64, shape, elements=st.integers(0, 7))
        vols = {"pred": data.draw(labels, label="pred"), "gt": data.draw(labels, label="gt")}
        at = tuple(data.draw(st.integers(0, n - 1), label=f"at{i}") for i, n in enumerate(shape))
        vols[side][at] = data.draw(st.integers(-128, -1), label="negative")
        with pytest.raises(ValueError, match="non-negative"):
            compute_metrics(vols["pred"], vols["gt"])

    def test_float_labels_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            compute_metrics(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), int))


class TestMasksAndIo:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compute_metrics(np.zeros((2, 2, 2), int), np.zeros((2, 2, 3), int))

    def test_json_round_trip_with_nulls(self):
        pred = np.array([[[1, 0]]])
        rep = compute_metrics(pred, pred, num_classes=3)
        data = json.loads(rep.to_json())
        assert list(data.keys()) == ["iou", "miou", "per_class_iou"]
        assert data["per_class_iou"][0] is None
        assert data["per_class_iou"][1] == 1.0
        assert data["per_class_iou"][2] is None

    def test_miou_bounds_random(self, rng):
        for _ in range(20):
            pred = rng.integers(0, 6, (4, 4, 4))
            gt = rng.integers(0, 6, (4, 4, 4))
            rep = compute_metrics(pred, gt)
            assert 0.0 <= rep.miou <= 1.0
            assert 0.0 <= rep.iou <= 1.0

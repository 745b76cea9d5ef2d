"""Loss-term tests: hand fixtures and a definition-based Lovász oracle."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from voxfuse.errors import NoLabels, ShapeError
from voxfuse.losses import (
    ClampWarning,
    LossReport,
    cross_entropy,
    geo_scal,
    loss_report,
    lovasz_softmax,
    occlusion_ce,
    rie_bce,
    sem_scal,
)

from oracles import lattice_rows, lovasz_oracle


def one_hot(labels, num_classes):
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestCrossEntropy:
    def test_one_hot_correct_is_zero(self):
        labels = np.array([0, 3, 7])
        assert cross_entropy(one_hot(labels, 18), labels) == 0.0

    def test_uniform_18_is_log18(self):
        probs = np.full((4, 18), 1.0 / 18.0)
        loss = cross_entropy(probs, np.array([0, 5, 11, 17]))
        assert np.isclose(loss, math.log(18.0), rtol=0, atol=1e-12)
        assert abs(loss - 2.8904) < 1e-4

    def test_two_voxel_hand_case(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        expected = -(math.log(0.7) + math.log(0.8)) / 2.0
        assert np.isclose(cross_entropy(probs, np.array([0, 1])), expected, atol=1e-12)

    def test_zero_probability_clamped_and_warned(self):
        probs = np.array([[1.0, 0.0]])
        with pytest.warns(ClampWarning):
            loss = cross_entropy(probs, np.array([1]))
        assert np.isclose(loss, -math.log(1e-12))

    def test_all_ignored_raises(self):
        with pytest.raises(NoLabels, match="no labeled voxels"):
            cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([[0.6, 0.6]]), np.array([0]))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([[0.5, 0.5]]), np.array([2]))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.array([[0.5, 0.5]]), np.array([0, 0]))


class TestLovasz:
    def test_perfect_one_hot_is_zero(self):
        labels = np.array([0, 1, 2, 1])
        assert lovasz_softmax(one_hot(labels, 3), labels) == 0.0

    def test_all_wrong_one_class_is_one(self):
        labels = np.array([1, 1, 1, 1])
        probs = one_hot(np.zeros(4, dtype=int), 2)
        assert np.isclose(lovasz_softmax(probs, labels), 1.0, atol=1e-12)

    def test_no_labels_raises(self):
        with pytest.raises(NoLabels):
            lovasz_softmax(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_exhaustive_two_class_up_to_six_voxels(self):
        pairs = [(row, lab) for row in lattice_rows(2) for lab in range(2)]
        checked = 0
        for n in range(1, 7):
            for combo in itertools.combinations_with_replacement(pairs, n):
                probs = np.array([p for p, _ in combo])
                labels = np.array([l for _, l in combo])
                got = lovasz_softmax(probs, labels)
                want = lovasz_oracle(probs, labels)
                assert abs(got - want) <= 1e-9, (probs, labels)
                checked += 1
        assert checked == 8007

    def test_exhaustive_three_class_up_to_three_voxels(self):
        pairs = [(row, lab) for row in lattice_rows(3) for lab in range(3)]
        checked = 0
        for n in range(1, 4):
            for combo in itertools.combinations_with_replacement(pairs, n):
                probs = np.array([p for p, _ in combo])
                labels = np.array([l for _, l in combo])
                got = lovasz_softmax(probs, labels)
                want = lovasz_oracle(probs, labels)
                assert abs(got - want) <= 1e-9, (probs, labels)
                checked += 1
        assert checked > 15000

    def test_random_three_class_lattice_instances(self, rng):
        rows = lattice_rows(3)
        for _ in range(2000):
            n = int(rng.integers(4, 7))
            probs = np.array([rows[i] for i in rng.integers(0, len(rows), n)])
            labels = rng.integers(0, 3, n)
            got = lovasz_softmax(probs, labels)
            want = lovasz_oracle(probs, labels)
            assert abs(got - want) <= 1e-9

    def test_random_dense_probabilities_match_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(2, 5))
            probs = rng.random((n, c)) + 1e-3
            probs /= probs.sum(axis=1, keepdims=True)
            labels = rng.integers(0, c, n)
            assert abs(lovasz_softmax(probs, labels) - lovasz_oracle(probs, labels)) <= 1e-9

    def test_voxel_order_invariance(self, rng):
        probs = rng.random((6, 3)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 6)
        perm = rng.permutation(6)
        assert np.isclose(lovasz_softmax(probs, labels),
                          lovasz_softmax(probs[perm], labels[perm]), atol=1e-12)


class TestScalTerms:
    def test_perfect_geo_and_sem_are_zero(self):
        labels = np.array([0, 1, 2, 0])
        probs = one_hot(labels, 3)
        assert geo_scal(probs, labels) == 0.0
        assert sem_scal(probs, labels) == 0.0

    def test_geo_scal_three_voxel_hand_case(self):
        # p_occupied = [0.2, 0.7, 0.6]; gt occupied = [no, yes, yes]
        probs = np.array([[0.8, 0.2], [0.3, 0.7], [0.4, 0.6]])
        labels = np.array([0, 1, 1])
        tp = 0.7 + 0.6
        expected = -(math.log(tp / 1.5) + math.log(tp / 2.0) + math.log(0.8 / 1.0))
        assert np.isclose(geo_scal(probs, labels), expected, atol=1e-12)

    def test_geo_scal_all_empty_prediction_clamped(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        with pytest.warns(ClampWarning):
            loss = geo_scal(probs, labels)
        assert loss > 20.0

    def test_sem_scal_three_voxel_hand_case(self):
        probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]])
        labels = np.array([0, 1, 2])
        expected = 0.0
        for c, (psum, tp, tn) in enumerate([(0.9, 0.6, 1.7), (1.2, 0.7, 1.5), (0.9, 0.7, 1.8)]):
            expected += -(math.log(tp / psum) + math.log(tp / 1.0) + math.log(tn / 2.0))
        expected /= 3.0
        assert np.isclose(sem_scal(probs, labels), expected, atol=1e-12)

    def test_sem_scal_skips_class_absent_everywhere(self):
        # class 2 has zero predicted mass and no GT voxels: skipped entirely
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        labels = np.array([0, 1])
        assert sem_scal(probs, labels) == 0.0

    def test_sem_scal_counts_class_with_pred_mass_but_no_gt(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        labels = np.array([0, 0])
        with pytest.warns(ClampWarning):
            loss = sem_scal(probs, labels)
        assert loss > 0.0

    def test_both_nonnegative_on_random_inputs(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            for _ in range(50):
                n = int(rng.integers(1, 20))
                c = int(rng.integers(2, 6))
                probs = rng.random((n, c)) + 1e-3
                probs /= probs.sum(axis=1, keepdims=True)
                labels = rng.integers(0, c, n)
                assert geo_scal(probs, labels) >= 0.0
                assert sem_scal(probs, labels) >= 0.0


class TestBinaryTerms:
    def test_perfect_scores_zero(self):
        assert rie_bce(np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1])) == 0.0

    def test_half_scores_give_log2(self):
        loss = rie_bce(np.full(7, 0.5), np.array([1, 0, 1, 0, 1, 0, 1]))
        assert np.isclose(loss, math.log(2.0), atol=1e-12)

    def test_mixed_hand_case(self):
        loss = rie_bce(np.array([0.9, 0.2, 0.5]), np.array([1, 0, 1]))
        expected = -(math.log(0.9) + math.log(0.8) + math.log(0.5)) / 3.0
        assert np.isclose(loss, expected, atol=1e-12)

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rie_bce(np.array([1.2]), np.array([1]))

    def test_empty_raises(self):
        with pytest.raises(NoLabels):
            rie_bce(np.zeros(0), np.zeros(0))

    def test_occlusion_uniform_gives_log3(self):
        probs = np.full((5, 3), 1.0 / 3.0)
        loss = occlusion_ce(probs, np.array([0, 1, 2, 1, 0]))
        assert np.isclose(loss, math.log(3.0), atol=1e-12)

    def test_occlusion_one_hot_zero(self):
        labels = np.array([0, 2, 1])
        assert occlusion_ce(one_hot(labels, 3), labels) == 0.0

    def test_occlusion_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            occlusion_ce(np.full((2, 4), 0.25), np.array([0, 1]))

    def test_occlusion_mixed_fixture(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
        expected = -(math.log(0.5) + math.log(0.8)) / 2.0
        assert np.isclose(occlusion_ce(probs, np.array([0, 1])), expected, atol=1e-12)


class TestLossReport:
    def test_total_is_sum(self):
        rep = LossReport(ce=1.0, lovasz=0.5, geo_scal=0.25, sem_scal=0.125,
                         rie_bce=2.0, occlusion_ce=0.0)
        assert rep.total == 3.875

    def test_negative_term_rejected(self):
        with pytest.raises(ValueError):
            LossReport(ce=-0.1, lovasz=0, geo_scal=0, sem_scal=0, rie_bce=0, occlusion_ce=0)

    def test_json_key_order_stable(self):
        rep = LossReport(ce=1.0, lovasz=0.0, geo_scal=0.0, sem_scal=0.0,
                         rie_bce=0.0, occlusion_ce=0.0)
        keys = list(json.loads(rep.to_json()).keys())
        assert keys == ["ce", "lovasz", "geo_scal", "sem_scal", "rie_bce",
                        "occlusion_ce", "total"]

    def test_report_zero_on_perfect_bundle(self):
        labels = np.array([0, 1, 2, 3])
        occ = np.array([0, 1, 2, 1])
        rep = loss_report(one_hot(labels, 4), labels, np.array([1.0, 0.0, 1.0, 1.0]),
                          np.array([1, 0, 1, 1]), one_hot(occ, 3), occ)
        assert rep.total == 0.0

    def test_report_positive_on_imperfect_bundle(self, rng):
        labels = rng.integers(0, 4, 10)
        probs = rng.random((10, 4)) + 0.1
        probs /= probs.sum(axis=1, keepdims=True)
        occp = rng.random((10, 3)) + 0.1
        occp /= occp.sum(axis=1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            rep = loss_report(probs, labels, rng.uniform(0.05, 0.95, 10),
                              rng.integers(0, 2, 10), occp, rng.integers(0, 3, 10))
        assert rep.total > 0.0
        data = json.loads(rep.to_json())
        assert np.isclose(data["total"], rep.total)

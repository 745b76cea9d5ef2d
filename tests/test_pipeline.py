"""Forward-pass composition tests: shapes, determinism, the identity path and the readout."""

import importlib.resources
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from voxfuse.config import PipelineConfig
from voxfuse.grid import GridGeometry, SparseVoxelGrid, subdivide_coords
from voxfuse.occlusion import BACKGROUND_ROW, OCC_CHANNELS, SEM_CHANNELS, assemble_output
from voxfuse.pipeline import (
    OUT_CHANNELS,
    _decode_fine,
    _head_logits,
    _split_probs,
    forward,
    forward_scene,
    refine_stages,
    scene_inputs,
    volume_labels,
)
from voxfuse.synthetic import load_scene, random_scene


@pytest.fixture(scope="module")
def scene():
    return random_scene(7)


@pytest.fixture(scope="module")
def result(scene):
    return forward_scene(scene, PipelineConfig())


class TestShapes:
    def test_out_channel_count(self):
        assert OUT_CHANNELS == 21
        assert SEM_CHANNELS + OCC_CHANNELS == 21

    def test_o4_shape(self, scene, result):
        dims4 = scene.geometry.with_scale(4).dims
        assert result.o4.shape == dims4 + (21,)

    def test_o1_shape(self, scene, result):
        assert result.o1.shape == scene.geometry.dims + (21,)

    def test_probability_blocks_normalized(self, result):
        for vol in (result.o4.to_dense(BACKGROUND_ROW), result.o1.to_dense(BACKGROUND_ROW)):
            assert np.allclose(vol[..., :SEM_CHANNELS].sum(axis=-1), 1.0)
            assert np.allclose(vol[..., SEM_CHANNELS:].sum(axis=-1), 1.0)

    def test_decoder_emits_64_children_per_visible_voxel(self, result):
        n_visible = np.count_nonzero(
            np.argmax(result.o4.to_dense(BACKGROUND_ROW)[..., SEM_CHANNELS:], axis=-1) != 0)
        assert len(result.o1) == 64 * n_visible
        assert result.counts["decode"] == 64 * n_visible

    def test_stage_report_mentions_every_stage(self, result):
        text = result.stage_report()
        for stage in ("voxelize", "pyramid", "densify", "fuse", "select",
                      "gather", "refine", "head", "decode"):
            assert stage in text
        assert "o4 shape" in text and "o1 shape" in text


class TestLabels:
    def test_labels_zero_outside_decoder_set(self, result):
        labels = result.labels_scale1()
        mask = np.zeros(labels.shape, dtype=bool)
        ch = result.o1.coords
        mask[ch[:, 0], ch[:, 1], ch[:, 2]] = True
        assert (labels[~mask] == 0).all()

    def test_volume_labels_visibility_rule(self):
        vol = np.zeros((1, 1, 2, 21))
        vol[..., 3] = 5.0          # strongest semantic class everywhere
        vol[0, 0, 0, SEM_CHANNELS + 1] = 1.0   # visible
        vol[0, 0, 1, SEM_CHANNELS + 0] = 1.0   # empty visibility
        labels = volume_labels(vol)
        assert labels[0, 0, 0] == 3
        assert labels[0, 0, 1] == 0


class TestDeterminism:
    def test_same_seed_bit_identical(self, scene):
        cfg = PipelineConfig(root_seed=31)
        a = forward_scene(scene, cfg)
        b = forward_scene(scene, cfg)
        assert np.array_equal(a.o4.to_dense(BACKGROUND_ROW), b.o4.to_dense(BACKGROUND_ROW))
        assert np.array_equal(a.o1.to_dense(BACKGROUND_ROW), b.o1.to_dense(BACKGROUND_ROW))
        assert np.array_equal(a.refined.features, b.refined.features)

    def test_different_seed_differs(self, scene, result):
        other = forward_scene(scene, PipelineConfig(root_seed=99))
        assert not np.array_equal(other.o4.to_dense(BACKGROUND_ROW),
                                  result.o4.to_dense(BACKGROUND_ROW))

    def test_seeds_recorded(self, result):
        assert set(result.seeds) >= {"backbone", "queries", "fusion", "rie", "head"}


class TestIdentityPath:
    def test_tau_above_one_disables_refinement(self, scene):
        res = forward_scene(scene, PipelineConfig(tau1=1.01, tau2=1.01))
        assert res.refine_identity
        assert res.counts["select"] == 0
        assert res.counts["gather"] == 0

    def test_default_taus_refine_something(self, result):
        assert result.counts["select"] > 0
        assert not result.refine_identity


class TestCounts:
    def test_counts_cover_stages(self, result):
        for stage in ("voxelize", "densify", "fuse", "refine", "decode"):
            assert result.counts[stage] >= 0
        assert result.counts["voxelize"] > 0

    def test_timings_nonnegative(self, result):
        assert all(t >= 0 for t in result.timings.values())
        assert result.total_seconds > 0


def _dense_reference(dims, coords, rows):
    """Separate one-hot semantic and visibility volumes, scattered, then assembled."""
    sem = np.zeros(tuple(dims) + (SEM_CHANNELS,))
    sem[..., 0] = 1.0
    occ = np.zeros(tuple(dims) + (OCC_CHANNELS,))
    occ[..., 0] = 1.0
    x, y, z = coords.T
    sem[x, y, z] = rows[:, :SEM_CHANNELS]
    occ[x, y, z] = rows[:, SEM_CHANNELS:]
    return assemble_output(sem, occ)


def _reference_outputs(res, config):
    """o4 and o1 rebuilt densely from the head and decoder definitions."""
    refined = res.refined
    probs4 = _split_probs(_head_logits(refined, config.lidar_channels, res.seeds["head"]))
    o4 = _dense_reference(refined.geometry.dims, refined.coords, probs4)

    parents = np.argwhere(np.argmax(o4[..., SEM_CHANNELS:], axis=-1) != 0)
    children = subdivide_coords(parents, 4)
    parent_rows = np.repeat(np.arange(parents.shape[0]), 64)
    offsets = (children - parents[parent_rows] * 4) / 4.0
    w = np.random.default_rng(res.seeds["decoder"]).normal(
        0.0, 1.0 / np.sqrt(OUT_CHANNELS + 3), size=(OUT_CHANNELS + 3, OUT_CHANNELS))
    w[:OUT_CHANNELS] += np.eye(OUT_CHANNELS)
    parent_vecs = o4[parents[:, 0], parents[:, 1], parents[:, 2]][parent_rows]
    probs1 = _split_probs(np.hstack([parent_vecs, offsets]) @ w)
    dims1 = res.geometry.dims
    keep = (children < np.asarray(dims1)).all(axis=1)
    return o4, _dense_reference(dims1, children[keep], probs1[keep])


def _demo_scene():
    path = importlib.resources.files("voxfuse").joinpath("data/demo_scene.json")
    with importlib.resources.as_file(path) as p:
        return load_scene(str(p))


def _kitti_scene():
    return random_scene(0, GridGeometry.preset("semantickitti"), min_foreground=0.02)


@pytest.fixture(scope="module", params=["demo", "semantickitti"])
def readout(request):
    scene = _demo_scene() if request.param == "demo" else _kitti_scene()
    return forward_scene(scene, PipelineConfig(), n_cameras=2, image_size=(32, 32))


class TestRowReadout:
    def test_labels_scale1_match_dense_argmax(self, readout):
        assert len(readout.o1) > 0
        assert np.array_equal(readout.labels_scale1(),
                              volume_labels(readout.o1.to_dense(BACKGROUND_ROW)))

    def test_labels_scale4_match_dense_argmax(self, readout):
        assert np.array_equal(readout.labels_scale4(),
                              volume_labels(readout.o4.to_dense(BACKGROUND_ROW)))

    @pytest.mark.parametrize("scene_name", ["demo", "random-7"])
    def test_outputs_equal_dense_reference(self, scene_name):
        scene = _demo_scene() if scene_name == "demo" else random_scene(7)
        config = PipelineConfig()
        res = forward_scene(scene, config)
        o4, o1 = _reference_outputs(res, config)
        assert np.array_equal(res.o4.to_dense(BACKGROUND_ROW), o4)
        assert np.array_equal(res.o1.to_dense(BACKGROUND_ROW), o1)

    def test_no_visible_parent_gives_empty_o1(self, scene, result):
        parents = SparseVoxelGrid.empty(scene.geometry.with_scale(4), OUT_CHANNELS)
        o1 = _decode_fine(parents, scene.geometry, result.seeds["decoder"])
        assert len(o1) == 0
        assert o1.shape == scene.geometry.dims + (OUT_CHANNELS,)
        labels = replace(result, o1=o1).labels_scale1()
        assert labels.shape == scene.geometry.dims
        assert not labels.any()


class TestRefineStages:
    def test_reproduces_forward_on_demo_scene(self):
        scene = _demo_scene()
        config = PipelineConfig()
        pc, rig, maps = scene_inputs(scene, config)
        res = forward(pc, rig, maps, config, geometry=scene.geometry)
        entered = []

        @contextmanager
        def stage(name):
            entered.append(name)
            yield

        sets, fs2, ff1, refined = refine_stages(res.fused, res.pyramid, rig, maps,
                                                config, res.seeds, stage)
        assert entered == ["select", "gather", "refine"]
        assert res.counts["select"] > 0
        assert np.array_equal(sets.semi_fine, res.sets.semi_fine)
        assert np.array_equal(sets.fine, res.sets.fine)
        assert len(fs2) + len(ff1) == res.counts["gather"]
        assert np.array_equal(refined.coords, res.refined.coords)
        assert np.array_equal(refined.features, res.refined.features)

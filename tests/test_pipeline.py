"""Forward-pass composition tests: shapes, determinism, the identity path and the readout."""

import importlib.resources
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

from voxfuse.config import PipelineConfig
from voxfuse.fusion import softmax_rows
from voxfuse.grid import GridGeometry, SparseVoxelGrid, subdivide_coords
from voxfuse.lidar import SparseConvSpec, sparse_conv
from voxfuse.occlusion import (
    BACKGROUND_ROW,
    OCC_CHANNELS,
    SEM_CHANNELS,
    assemble_output,
    decoder_input_set,
)
from voxfuse.pipeline import (
    OUT_CHANNELS,
    SEED_NAMES,
    _decode_fine,
    forward,
    forward_scene,
    refine_stages,
    volume_labels,
)
from voxfuse.refine import seeded_projection
from voxfuse.synthetic import Box, SyntheticScene, load_scene, random_scene, ring_rig

from oracles import dense_view, in_grid_children


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
        for vol in (dense_view(result.o4, BACKGROUND_ROW), dense_view(result.o1, BACKGROUND_ROW)):
            assert np.allclose(vol[..., :SEM_CHANNELS].sum(axis=-1), 1.0)
            assert np.allclose(vol[..., SEM_CHANNELS:].sum(axis=-1), 1.0)

    def test_decoder_emits_64_children_per_visible_voxel(self, result):
        n_visible = np.count_nonzero(
            np.argmax(dense_view(result.o4, BACKGROUND_ROW)[..., SEM_CHANNELS:], axis=-1) != 0)
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

    def test_label_volumes_are_uint8(self, result):
        # labels lie in [0, SEM_CHANNELS), the range write_volume stores as uint8
        assert volume_labels(np.zeros((2, 1, 1, 21))).dtype == np.uint8
        assert result.labels_scale1().dtype == np.uint8
        assert result.labels_scale4().dtype == np.uint8


class TestDeterminism:
    def test_same_seed_bit_identical(self, scene):
        cfg = PipelineConfig(root_seed=31)
        a = forward_scene(scene, cfg)
        b = forward_scene(scene, cfg)
        assert np.array_equal(dense_view(a.o4, BACKGROUND_ROW), dense_view(b.o4, BACKGROUND_ROW))
        assert np.array_equal(dense_view(a.o1, BACKGROUND_ROW), dense_view(b.o1, BACKGROUND_ROW))
        assert np.array_equal(a.refined.features, b.refined.features)

    def test_different_seed_differs(self, scene, result):
        other = forward_scene(scene, PipelineConfig(root_seed=99))
        assert not np.array_equal(dense_view(other.o4, BACKGROUND_ROW),
                                  dense_view(result.o4, BACKGROUND_ROW))

    def test_seeds_recorded(self, result):
        assert set(result.seeds) >= {"backbone", "queries", "fusion", "rie", "head"}

    def test_every_drawn_seed_is_reported(self, monkeypatch):
        # forward_report.json lists result.seeds, one per SEED_NAMES entry; a
        # stage that draws a seed of its own under another name goes unreported
        drawn = []
        seed_for = PipelineConfig.seed_for

        def spy(config, name):
            drawn.append(name)
            return seed_for(config, name)

        monkeypatch.setattr(PipelineConfig, "seed_for", spy)
        result = forward_scene(_demo_scene(), PipelineConfig())
        assert set(drawn) <= set(SEED_NAMES)
        assert set(result.seeds) == set(SEED_NAMES)
        # refine_stages draws its own seeds, so the spy saw past forward's table
        assert drawn.count("refine-a") == 2


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


def _split_softmax(logits):
    """The semantic and the visibility block of each row, each normalized on its own."""
    return np.concatenate([softmax_rows(logits[:, :SEM_CHANNELS]),
                           softmax_rows(logits[:, SEM_CHANNELS:])], axis=1)


def _reference_outputs(res, config):
    """o4 and o1 rebuilt densely from the head and decoder definitions."""
    refined = res.refined
    c = config.lidar_channels
    seed = res.seeds["head"]
    # the head: set-preserving conv, ReLU, then a 1x1 map to the 21 output channels
    spec = SparseConvSpec.seeded(c, c, seed=seed)
    hidden = np.maximum(sparse_conv(refined, spec).features, 0.0)
    probs4 = _split_softmax(hidden @ seeded_projection(c, OUT_CHANNELS, seed=seed + 1))
    o4 = _dense_reference(refined.geometry.dims, refined.coords, probs4)

    parents = np.argwhere(np.argmax(o4[..., SEM_CHANNELS:], axis=-1) != 0)
    dims1 = res.o1.geometry.dims
    children, parent_rows = subdivide_coords(parents, 4, dims1)
    offsets = (children - parents[parent_rows] * 4) / 4.0
    w = np.random.default_rng(res.seeds["decoder"]).normal(
        0.0, 1.0 / np.sqrt(OUT_CHANNELS + 3), size=(OUT_CHANNELS + 3, OUT_CHANNELS))
    w[:OUT_CHANNELS] += np.eye(OUT_CHANNELS)
    parent_vecs = o4[parents[:, 0], parents[:, 1], parents[:, 2]][parent_rows]
    probs1 = _split_softmax(np.hstack([parent_vecs, offsets]) @ w)
    return o4, _dense_reference(dims1, children, probs1)


def _demo_scene():
    path = importlib.resources.files("voxfuse").joinpath("data/demo_scene.json")
    with importlib.resources.as_file(path) as p:
        return load_scene(str(p))


def _kitti_scene():
    return random_scene(0, GridGeometry.preset("semantickitti"), min_foreground=0.02)


@pytest.fixture(scope="module", params=["demo", "semantickitti"])
def readout(request):
    scene = _demo_scene() if request.param == "demo" else _kitti_scene()
    config = PipelineConfig()
    rig = ring_rig(scene, n_cameras=2, image_size=(32, 32))
    return forward(scene.lidar_scan(), rig, scene.feature_maps(rig, config.image_channels),
                   config, geometry=scene.geometry)


class TestRowReadout:
    def test_labels_scale1_match_dense_argmax(self, readout):
        assert len(readout.o1) > 0
        assert np.array_equal(readout.labels_scale1(),
                              volume_labels(dense_view(readout.o1, BACKGROUND_ROW)))

    def test_labels_scale4_match_dense_argmax(self, readout):
        assert np.array_equal(readout.labels_scale4(),
                              volume_labels(dense_view(readout.o4, BACKGROUND_ROW)))

    @pytest.mark.parametrize("scene_name", ["demo", "random-7"])
    def test_outputs_equal_dense_reference(self, scene_name):
        scene = _demo_scene() if scene_name == "demo" else random_scene(7)
        config = PipelineConfig()
        res = forward_scene(scene, config)
        o4, o1 = _reference_outputs(res, config)
        assert np.array_equal(dense_view(res.o4, BACKGROUND_ROW), o4)
        assert np.array_equal(dense_view(res.o1, BACKGROUND_ROW), o1)

    def test_no_visible_parent_gives_empty_o1(self, scene, result):
        parents = SparseVoxelGrid.empty(scene.geometry.with_scale(4), OUT_CHANNELS)
        o1 = _decode_fine(parents, result.seeds["decoder"])
        assert len(o1) == 0
        assert o1.shape == scene.geometry.dims + (OUT_CHANNELS,)
        labels = replace(result, o1=o1).labels_scale1()
        assert labels.shape == scene.geometry.dims
        assert not labels.any()


class TestStageCounters:
    """A grid's meta holds the counters of the stage that built it, none copied downstream."""

    def test_each_counter_has_one_grid(self):
        res = forward_scene(_demo_scene(), PipelineConfig())
        assert set(res.pyramid[1].meta) == {"points_total", "points_dropped"}
        assert all(res.pyramid[s].meta == {} for s in (2, 4, 8, 16))
        assert set(res.fused.meta) == {"miss_count", "hit_counts"}
        assert res.counts["select"] > 0
        assert set(res.refined.meta) == {"dropped_refined"}
        assert res.o4.meta == {} and res.o1.meta == {}

    @pytest.mark.parametrize("tau", [None, 1.01], ids=["refined", "nothing-refined"])
    def test_refined_grid_always_counts_dropped_rows(self, tau):
        # above 1 no parent passes either threshold, so both refinement sets are empty
        config = PipelineConfig() if tau is None else PipelineConfig(tau1=tau, tau2=tau)
        res = forward_scene(random_scene(7), config)
        assert (res.counts["select"] == 0) == (tau is not None)
        assert set(res.refined.meta) == {"dropped_refined"}
        if tau is not None:
            assert res.refined.meta["dropped_refined"] == 0
            np.testing.assert_array_equal(res.refined.coords, res.fused.coords)
            np.testing.assert_array_equal(res.refined.features, res.fused.features)


class TestRefineStages:
    def test_reproduces_forward_on_demo_scene(self):
        scene = _demo_scene()
        config = PipelineConfig()
        rig = ring_rig(scene)
        maps = scene.feature_maps(rig, config.image_channels)
        res = forward(scene.lidar_scan(), rig, maps, config, geometry=scene.geometry)
        assert np.array_equal(res.o1.features, forward_scene(scene, config).o1.features)
        entered = []

        @contextmanager
        def stage(name):
            entered.append(name)
            yield

        sets, fs2, ff1, refined = refine_stages(res.fused, res.pyramid, rig, maps,
                                                config, stage)
        assert entered == ["select", "gather", "refine"]
        assert res.counts["select"] > 0
        assert np.array_equal(sets.semi_fine, res.sets.semi_fine)
        assert np.array_equal(sets.fine, res.sets.fine)
        assert len(fs2) + len(ff1) == res.counts["gather"]
        assert np.array_equal(refined.coords, res.refined.coords)
        assert np.array_equal(refined.features, res.refined.features)


class TestPartialLastCell:
    """Axes that are not multiples of 4 end in a partial coarse cell."""

    @pytest.mark.parametrize("rem", [1, 2, 3])
    def test_children_are_the_in_grid_ones(self, rem):
        geom = GridGeometry((0.0, 0.0, 0.0), 0.2, (32 + rem, 32 + rem, 16 + rem))
        sx, sy, sz = np.asarray(geom.dims) * geom.voxel_size
        base = random_scene(0, geom)
        # thin walls in the last x and y cells put returns in the partial coarse cells
        walls = (Box((sx - 0.1, 0.0, 0.0), (sx, sy, sz), 3),
                 Box((0.0, sy - 0.1, 0.0), (sx, sy, sz), 4))
        scene = SyntheticScene(geom, base.boxes + walls, base.sensor_origin, base.seed)
        config = PipelineConfig()
        rig = ring_rig(scene)
        maps = scene.feature_maps(rig, config.image_channels)
        res = forward(scene.lidar_scan(), rig, maps, config, geometry=geom)
        _, fs2, ff1, _ = refine_stages(res.fused, res.pyramid, rig, maps, config,
                                       lambda name: nullcontext())
        last = np.asarray(geom.with_scale(4).dims) - 1
        for parents, factor, children in ((res.sets.semi_fine, 2, fs2), (res.sets.fine, 4, ff1),
                                          (decoder_input_set(res.o4).coords, 4, res.o1)):
            assert (parents == last).any(), "no parent lies in a partial cell"
            want, _ = in_grid_children(parents, factor, children.geometry.dims)
            assert np.array_equal(children.coords, np.unique(want, axis=0).reshape(-1, 3))


class TestSparsity:
    def test_forward_cost_tracks_occupied_voxels_not_volume(self):
        """One scene on grids of 1x, 4x and 16x the volume gives the same rows
        for the same traced peak memory.

        The grids scale the x and y dims and keep the origin, so the boxes, the
        sensor and the occupied cells stay the same. ``counts`` and the o4 and
        o1 coords and rows must be equal, and the ``tracemalloc`` peak of
        ``forward`` must stay within 10% of the 1x peak; allocation sizes are
        deterministic, so this is a count, not a timing. The readouts
        (``labels_scale1``) and label-gen are O(volume) by design, because the
        label file formats are dense, so they are not part of this check.
        """
        scene = _demo_scene()
        config = PipelineConfig()
        rig = ring_rig(scene)
        maps = scene.feature_maps(rig, config.image_channels)
        pc = scene.lidar_scan()
        forward(pc, rig, maps, config, geometry=scene.geometry)  # warm-up
        x, y, z = scene.geometry.dims_scale1
        runs = []
        for k in (1, 2, 4):
            geom = replace(scene.geometry, dims_scale1=(x * k, y * k, z))
            tracemalloc.start()
            try:
                res = forward(pc, rig, maps, config, geometry=geom)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append((res, peak))
        (base, base_peak), *bigger = runs
        assert len(base.o1) > 0
        for res, peak in bigger:
            assert res.counts == base.counts
            for name in ("o4", "o1"):
                a, b = getattr(base, name), getattr(res, name)
                assert np.array_equal(a.coords, b.coords)
                assert np.array_equal(a.features, b.features)
            assert peak <= 1.1 * base_peak, (peak, base_peak)

import numpy as np
import pytest

from voxfuse.camera import CameraModel, FeatureMap2D, project_points
from voxfuse.errors import InvalidScale, ShapeError
from voxfuse.fusion import DeformableAttnParams, fuse, guide_queries, softmax_rows
from voxfuse.grid import GridGeometry, SparseVoxelGrid

from oracles import constant_maps, identity_attention


GEOM = GridGeometry((0.0, 0.0, 0.0), 0.2, (64, 64, 64), scale=4)


def grid4(coords, feats):
    return SparseVoxelGrid(GEOM, coords, feats)


def forward_cam(size=(64, 64), fov_deg=100.0, eye=(-2.0, 2.56, 2.56)):
    # looks down +x across the grid, wide enough to cover the interior cells
    w, h = size
    fx = (w / 2) / np.tan(np.radians(fov_deg / 2))
    return CameraModel.from_lookat(eye, (10.0, 2.56, 2.56), fx, fx, w / 2, h / 2, size)


class TestParams:
    def test_seeded_reproducible(self):
        a = DeformableAttnParams.seeded(3, 5, seed=11)
        b = DeformableAttnParams.seeded(3, 5, seed=11)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.value_proj, b.value_proj)

    def test_weights_sum_to_one(self):
        p = DeformableAttnParams.seeded(2, 2, n_ref=6, seed=3)
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identity_uniform_weights(self):
        p = identity_attention(4, n_ref=4)
        np.testing.assert_allclose(p.weights, 0.25)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            DeformableAttnParams(np.zeros((4, 3)), np.zeros(4), np.eye(2), np.eye(2))
        with pytest.raises(ShapeError):
            DeformableAttnParams(np.zeros((4, 2)), np.zeros(3), np.eye(2), np.eye(2))
        with pytest.raises(ShapeError):
            DeformableAttnParams(np.zeros((4, 2)), np.zeros(4), np.ones((3, 2)), np.eye(3))

    def test_query_conditioned_offset_map_shape(self):
        p = DeformableAttnParams.seeded(3, 5, n_ref=4, seed=0, query_conditioned=True)
        assert p.offset_map.shape == (5, 8)


class TestGuideQueries:
    def test_keeps_grid_cells(self, rng):
        feats = rng.normal(size=(4, 3))
        grid = grid4([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], feats)
        qs = guide_queries(grid, qv_seed=0)
        assert qs.geometry == grid.geometry
        np.testing.assert_array_equal(qs.coords, grid.coords)
        assert qs.features.shape == feats.shape

    def test_zero_grid_feature_gives_base(self):
        grid = grid4([[2, 2, 2]], np.zeros((1, 3)))
        qs = guide_queries(grid, qv_seed=5)
        np.testing.assert_array_equal(qs.features, np.random.default_rng(5).normal(size=(1, 3)))

    def test_guided_is_elementwise_sum(self, rng):
        feats = rng.normal(size=(5, 4))
        coords = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]]
        qs = guide_queries(grid4(coords, feats), qv_seed=9)
        base = np.random.default_rng(9).normal(size=(5, 4))
        np.testing.assert_array_equal(qs.features, feats + base)

    def test_seed_determinism(self, rng):
        grid = grid4([[1, 2, 3]], rng.normal(size=(1, 3)))
        a = guide_queries(grid, qv_seed=42)
        b = guide_queries(grid, qv_seed=42)
        np.testing.assert_array_equal(a.features, b.features)

    def test_requires_scale4(self, rng):
        g = SparseVoxelGrid(GEOM.with_scale(2), [[0, 0, 0]], rng.normal(size=(1, 3)))
        with pytest.raises(InvalidScale):
            guide_queries(g)


def interior_queries(channels=3):
    # zero guided queries on cells well inside the camera footprint, so
    # every bilinear tap is interior
    coords = [[2, 3, 3], [3, 3, 3], [2, 4, 3], [3, 2, 4]]
    return grid4(coords, np.zeros((len(coords), channels)))


class TestFuse:
    def test_constant_field_invariance(self):
        rig = [forward_cam()]
        c = np.array([1.5, -2.0, 0.5])
        maps = constant_maps(rig, c)
        params = identity_attention(3, n_ref=4, offsets=np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        qs = interior_queries()
        out = fuse(qs, rig, maps, params)
        assert out.meta["miss_count"] == 0
        for row in out.features:
            np.testing.assert_array_equal(row, c)

    def test_all_miss_returns_guided_query(self, rng):
        # camera looks away from the grid
        rig = [CameraModel.from_lookat((0, 0, 0), (-10, 0, 0), 100, 100, 32, 32, (64, 64))]
        maps = FeatureMap2D.seeded(rig, 3, seed=0)
        coords = [[2, 3, 3], [3, 3, 3]]
        grid = grid4(coords, rng.normal(size=(2, 3)))
        qs = guide_queries(grid, qv_seed=1)
        out = fuse(qs, rig, maps, DeformableAttnParams.seeded(3, 3, seed=2))
        assert out.meta["miss_count"] == 2
        np.testing.assert_array_equal(out.features, qs.features)

    def test_no_residual_miss_is_zero(self, rng):
        rig = [CameraModel.from_lookat((0, 0, 0), (-10, 0, 0), 100, 100, 32, 32, (64, 64))]
        maps = FeatureMap2D.seeded(rig, 3, seed=0)
        grid = grid4([[2, 3, 3]], rng.normal(size=(1, 3)))
        qs = guide_queries(grid, qv_seed=1)
        out = fuse(qs, rig, maps, DeformableAttnParams.seeded(3, 3, seed=2), residual=False)
        np.testing.assert_array_equal(out.features[0], np.zeros(3))

    def test_hand_weighted_sum(self):
        # one camera, two ref points landing on pixels valued 1 and 3
        rig = [forward_cam(size=(16, 16), fov_deg=90.0)]
        cam = rig[0]
        qs = grid4([[3, 3, 3]], np.zeros((1, 1)))
        uv, _, _ = project_points(cam, qs.centers())
        u, v = uv[0]
        img = np.zeros((16, 16, 1))
        # place values at the exact integer pixels the two offsets select
        base = np.array([np.floor(u), np.floor(v)])
        img[int(base[1]), int(base[0]), 0] = 1.0
        img[int(base[1]) + 1, int(base[0]) + 1, 0] = 3.0
        offsets = np.array([base - [u, v], base + 1.0 - [u, v]])
        logits = np.log([1.0, 3.0])  # softmax_rows -> (0.25, 0.75)
        params = identity_attention(1, n_ref=2, offsets=offsets, logits=logits)
        out = fuse(qs, rig, [img] and FeatureMap2D([img]), params)
        assert out.features[0, 0] == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)

    def test_convex_hull_with_identity_maps(self, rng):
        rig = [forward_cam()]
        maps = FeatureMap2D.seeded(rig, 1, seed=4)
        qs = interior_queries(channels=1)
        params = identity_attention(1, n_ref=4, offsets=rng.normal(0, 2, (4, 2)))
        out = fuse(qs, rig, maps, params)
        lo, hi = maps.maps[0].min(), maps.maps[0].max()
        # zero-padding can only pull toward 0, widen hull accordingly
        lo, hi = min(lo, 0.0), max(hi, 0.0)
        assert (out.features[:, 0] >= lo - 1e-9).all()
        assert (out.features[:, 0] <= hi + 1e-9).all()

    def test_camera_order_invariance(self, rng):
        rig = [forward_cam(eye=(-2.0, 2.56, 2.56)), forward_cam(eye=(-2.0, 2.2, 2.2))]
        maps = FeatureMap2D.seeded(rig, 3, seed=7)
        grid = grid4([[2, 3, 3], [3, 3, 3]], rng.normal(size=(2, 3)))
        qs = guide_queries(grid, qv_seed=3)
        params = DeformableAttnParams.seeded(3, 3, seed=8)
        out_a = fuse(qs, rig, maps, params)
        out_b = fuse(qs, rig[::-1], FeatureMap2D(maps.maps[::-1]), params)
        np.testing.assert_allclose(out_a.features, out_b.features, atol=1e-12)

    def test_bit_determinism(self, rng):
        rig = [forward_cam()]
        maps = FeatureMap2D.seeded(rig, 3, seed=9)
        grid = grid4([[2, 3, 3], [3, 3, 3], [2, 4, 3]], rng.normal(size=(3, 3)))
        qs = guide_queries(grid, qv_seed=5)
        params = DeformableAttnParams.seeded(3, 3, seed=10, query_conditioned=True)
        a = fuse(qs, rig, maps, params)
        b = fuse(qs, rig, maps, params)
        assert np.array_equal(a.features, b.features)

    def test_channel_mismatch(self, rng):
        rig = [forward_cam()]
        maps = FeatureMap2D.seeded(rig, 2, seed=0)
        qs = interior_queries(channels=3)
        with pytest.raises(ShapeError):
            fuse(qs, rig, maps, DeformableAttnParams.seeded(3, 3, seed=0))

    def test_equal_samples_give_v_plus_query(self, rng):
        rig = [forward_cam()]
        v = np.array([2.0, -1.0, 0.25])
        maps = constant_maps(rig, v)
        coords = [[2, 3, 3], [3, 3, 3]]
        feats = rng.normal(size=(2, 3))
        grid = grid4(coords, feats)
        qs = guide_queries(grid, qv_seed=2)
        params = identity_attention(3, n_ref=3, offsets=np.array(
            [[0.5, 0.5], [-0.5, 0.25], [1.0, -1.0]]))
        out = fuse(qs, rig, maps, params)
        np.testing.assert_allclose(out.features, v + qs.features, atol=1e-9)


class TestSoftmax:
    def test_matches_definition(self, rng):
        z = rng.normal(size=7)
        expect = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(softmax_rows(z), expect, atol=1e-12)

    def test_shift_invariant(self, rng):
        z = rng.normal(size=5)
        np.testing.assert_allclose(softmax_rows(z), softmax_rows(z + 100.0), atol=1e-12)

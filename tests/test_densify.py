import numpy as np
import pytest

from voxfuse.densify import (
    MultiScaleFeatures,
    densify,
    project_channels,
)
from voxfuse.errors import EmptyInput, InvalidScale, ShapeError
from voxfuse.grid import GridGeometry, SparseVoxelGrid


BASE = GridGeometry((0.0, 0.0, 0.0), 0.2, (64, 64, 64))


def grid_at(scale, coords, feats):
    return SparseVoxelGrid(BASE.with_scale(scale), coords, feats)


def empty_ms(channels=3, skip=()):
    grids = {s: SparseVoxelGrid.empty(BASE.with_scale(s), channels) for s in (4, 8, 16)}
    return grids


def random_ms(rng, channels=3, n4=60, n8=25, n16=10):
    grids = {}
    for s, n in ((4, n4), (8, n8), (16, n16)):
        dims = BASE.with_scale(s).dims
        coords = np.unique(np.stack([rng.integers(0, d, size=n) for d in dims], axis=1), axis=0)
        grids[s] = grid_at(s, coords, rng.normal(size=(coords.shape[0], channels)))
    return MultiScaleFeatures(grids)


def oracle(ms):
    """Group the aligned multiset by coordinate and mean it, one python loop per row."""
    bucket = {}
    for s in (4, 8, 16):
        g = ms.grids[s]
        f = s // 4
        for row in range(len(g)):
            key = tuple(int(c) * f for c in g.coords[row])
            bucket.setdefault(key, []).append(g.features[row])
    coords = sorted(bucket)
    feats = np.array([np.mean(bucket[k], axis=0) for k in coords])
    return np.array(coords), feats


class TestTypes:
    def test_channel_mismatch_rejected(self, rng):
        grids = empty_ms(channels=3)
        grids[8] = SparseVoxelGrid.empty(BASE.with_scale(8), 4)
        with pytest.raises(ShapeError):
            MultiScaleFeatures(grids)

    def test_missing_scale_rejected(self):
        grids = empty_ms()
        del grids[16]
        with pytest.raises(InvalidScale):
            MultiScaleFeatures(grids)

    def test_origin_mismatch_rejected(self):
        grids = empty_ms()
        other = GridGeometry((1.0, 0.0, 0.0), 0.2, (64, 64, 64), 8)
        grids[8] = SparseVoxelGrid.empty(other, 3)
        with pytest.raises(ValueError):
            MultiScaleFeatures(grids)

    def test_from_stack_projects_unequal_widths(self, rng):
        grids = {4: grid_at(4, [[0, 0, 0]], [[1.0, 2.0, 3.0]]),
                 8: grid_at(8, [[0, 0, 0]], [[1.0, 2.0]]),
                 16: SparseVoxelGrid.empty(BASE.with_scale(16), 3)}
        ms = MultiScaleFeatures.from_stack(grids)
        assert ms.channels == 3
        assert ms.grids[8].channels == 3

    def test_project_channels_deterministic(self, rng):
        g = grid_at(4, [[1, 1, 1]], [[1.0, 2.0]])
        a = project_channels(g, 5, seed=3)
        b = project_channels(g, 5, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.channels == 5


class TestDensify:
    def test_only_scale4_is_identity(self, rng):
        grids = empty_ms()
        coords = np.unique(rng.integers(0, 16, size=(30, 3)), axis=0)
        feats = rng.normal(size=(coords.shape[0], 3))
        grids[4] = grid_at(4, coords, feats)
        out = densify(MultiScaleFeatures(grids))
        np.testing.assert_array_equal(out.coords, grids[4].coords)
        np.testing.assert_allclose(out.features, grids[4].features, atol=1e-12)

    def test_two_scale_overlap_mean(self):
        grids = empty_ms(channels=1)
        grids[4] = grid_at(4, [[2, 2, 2]], [[10.0]])
        grids[8] = grid_at(8, [[1, 1, 1]], [[4.0]])
        out = densify(MultiScaleFeatures(grids))
        assert len(out) == 1
        assert tuple(out.coords[0]) == (2, 2, 2)
        assert out.features[0, 0] == pytest.approx(7.0)

    def test_scale16_anchor_alignment(self):
        grids = empty_ms(channels=1)
        grids[16] = grid_at(16, [[1, 1, 1]], [[5.0]])
        out = densify(MultiScaleFeatures(grids))
        assert tuple(out.coords[0]) == (4, 4, 4)
        assert out.scale == 4

    def test_all_empty_raises(self):
        with pytest.raises(EmptyInput):
            densify(MultiScaleFeatures(empty_ms()))

    def test_union_count_lower_bound(self, rng):
        ms = random_ms(rng)
        out = densify(ms)
        assert len(out) >= max(len(ms.grids[s]) for s in (4, 8, 16))

    def test_matches_oracle(self, rng):
        for _ in range(25):
            ms = random_ms(rng)
            out = densify(ms)
            coords, feats = oracle(ms)
            np.testing.assert_array_equal(out.coords, coords)
            np.testing.assert_allclose(out.features, feats, atol=1e-6)

    def test_row_order_insensitive(self, rng):
        ms = random_ms(rng)
        shuffled = {}
        for s, g in ms.grids.items():
            perm = rng.permutation(len(g))
            shuffled[s] = grid_at(s, g.coords[perm], g.features[perm])
        out_a = densify(ms)
        out_b = densify(MultiScaleFeatures(shuffled))
        np.testing.assert_array_equal(out_a.coords, out_b.coords)
        np.testing.assert_allclose(out_a.features, out_b.features, atol=1e-12)

    def test_mean_idempotence(self):
        v = np.array([1.5, -2.0, 0.25])
        grids = empty_ms()
        grids[4] = grid_at(4, [[4, 4, 4]], [v])
        grids[8] = grid_at(8, [[2, 2, 2]], [v])
        grids[16] = grid_at(16, [[1, 1, 1]], [v])
        out = densify(MultiScaleFeatures(grids))
        assert len(out) == 1
        np.testing.assert_allclose(out.features[0], v, atol=1e-12)

    def test_contributor_counts_recorded(self):
        grids = empty_ms(channels=1)
        grids[4] = grid_at(4, [[4, 4, 4], [0, 0, 0]], [[1.0], [2.0]])
        grids[16] = grid_at(16, [[1, 1, 1]], [[3.0]])
        out = densify(MultiScaleFeatures(grids))
        counts = {tuple(c): n for c, n in zip(out.coords, out.meta["contributor_counts"])}
        assert counts[(4, 4, 4)] == 2
        assert counts[(0, 0, 0)] == 1

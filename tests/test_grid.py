import numpy as np
import pytest

from voxfuse.errors import DuplicateVoxels, InvalidFactor, InvalidScale, OutOfBounds, ShapeError
from voxfuse.grid import (
    GridGeometry,
    SparseVoxelGrid,
    VoxelIndex,
    align_coords,
    align_scale,
    centers_for,
    pack_keys,
    subdivide,
    subdivide_coords,
    unique_coords,
    unpack_keys,
    voxel_center,
)


def small_geom(scale=1):
    return GridGeometry((0.0, 0.0, 0.0), 0.1, (64, 64, 64), scale)


class TestGeometry:
    def test_preset_nuscenes(self):
        g = GridGeometry.preset("nuscenes-occ")
        assert g.origin == (-51.2, -51.2, -5.0)
        assert g.voxel_size == 0.2
        assert g.dims == (512, 512, 40)

    def test_preset_semantickitti(self):
        g = GridGeometry.preset("semantickitti")
        assert g.origin == (0.0, -25.6, -2.0)
        assert g.dims == (256, 256, 32)

    def test_dims_ceil_division(self):
        g = GridGeometry((0, 0, 0), 0.2, (512, 512, 40), scale=16)
        assert g.dims == (32, 32, 3)

    def test_dims_at_each_scale(self):
        for scale, expect in [(1, 512), (2, 256), (4, 128), (8, 64), (16, 32)]:
            g = GridGeometry.preset("nuscenes-occ", scale=scale)
            assert g.dims[0] == expect

    def test_cell_size(self):
        assert GridGeometry.preset("nuscenes-occ", scale=4).cell_size == pytest.approx(0.8)

    def test_invalid_scale_rejected(self):
        with pytest.raises(InvalidScale):
            GridGeometry((0, 0, 0), 0.2, (16, 16, 16), scale=3)

    @pytest.mark.parametrize("origin", [(float("nan"), 0, 0), (0, 0, float("-inf"))])
    def test_non_finite_origin_rejected(self, origin):
        with pytest.raises(ValueError, match="origin must be finite"):
            GridGeometry(origin, 0.2, (16, 16, 16))

    def test_world_to_index_floor(self):
        g = small_geom()
        idx = g.world_to_index(np.array([[0.05, 0.1, 0.199], [0.0, 0.0, 0.0]]))
        # a point exactly on a face belongs to the upper cell
        assert idx.tolist() == [[0, 1, 1], [0, 0, 0]]

    def test_world_to_index_negative(self):
        g = small_geom()
        idx = g.world_to_index(np.array([[-0.01, 0.0, 0.0]]))
        assert idx[0, 0] == -1

    def test_contains_index(self):
        g = small_geom(scale=2)
        mask = g.contains_index(np.array([[0, 0, 0], [31, 31, 31], [32, 0, 0], [-1, 0, 0]]))
        assert mask.tolist() == [True, True, False, False]


class TestAlignScale:
    def test_coarse_to_fine(self):
        out = align_scale(VoxelIndex(1, 1, 1, scale=8), 4)
        assert out == VoxelIndex(2, 2, 2, scale=4)

    def test_coarse_to_fine_16(self):
        out = align_scale(VoxelIndex(2, 2, 2, scale=16), 4)
        assert out == VoxelIndex(8, 8, 8, scale=4)

    def test_fine_to_coarse_floors(self):
        assert align_scale(VoxelIndex(7, 5, 3, scale=1), 4) == VoxelIndex(1, 1, 0, scale=4)

    def test_same_scale_identity(self):
        v = VoxelIndex(3, 4, 5, scale=2)
        assert align_scale(v, 2) == v

    def test_roundtrip_coarse_fine_coarse(self, rng):
        for _ in range(50):
            xyz = rng.integers(0, 30, size=3)
            v = VoxelIndex(int(xyz[0]), int(xyz[1]), int(xyz[2]), scale=8)
            assert align_scale(align_scale(v, 2), 8) == v

    def test_unrelated_scales_raise(self):
        # 8 and 16 are fine (factor 2); fabricate a non-integer ratio via raw coords
        with pytest.raises(InvalidScale):
            align_coords(np.zeros((1, 3), dtype=np.int64), 8, 3)

    def test_array_matches_scalar(self, rng):
        coords = rng.integers(0, 20, size=(40, 3))
        out = align_coords(coords, 8, 2)
        for row_in, row_out in zip(coords, out):
            v = align_scale(VoxelIndex(*map(int, row_in), scale=8), 2)
            assert tuple(row_out) == v.xyz


class TestSubdivide:
    def test_factor2_count_and_scale(self):
        kids = subdivide(VoxelIndex(3, 1, 2, scale=4), 2)
        assert len(kids) == 8
        assert all(k.scale == 2 for k in kids)

    def test_factor4_count(self):
        kids = subdivide(VoxelIndex(0, 0, 0, scale=4), 4)
        assert len(kids) == 64
        assert all(k.scale == 1 for k in kids)

    def test_children_tile_parent_exactly(self):
        parent = VoxelIndex(3, 1, 2, scale=4)
        kids = subdivide(parent, 2)
        # every child aligns back to the parent, and children are distinct
        assert all(align_scale(k, 4) == parent for k in kids)
        assert len({k.xyz for k in kids}) == 8

    def test_sibling_disjointness(self):
        a = set(k.xyz for k in subdivide(VoxelIndex(0, 0, 0, scale=2), 2))
        b = set(k.xyz for k in subdivide(VoxelIndex(1, 0, 0, scale=2), 2))
        assert not (a & b)

    def test_lexicographic_order_z_fastest(self):
        kids = subdivide(VoxelIndex(0, 0, 0, scale=2), 2)
        assert [k.xyz for k in kids] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]

    def test_bad_factor(self):
        with pytest.raises(InvalidFactor):
            subdivide(VoxelIndex(0, 0, 0, scale=4), 3)

    def test_scale_not_divisible(self):
        with pytest.raises(InvalidScale):
            subdivide(VoxelIndex(0, 0, 0, scale=2), 4)

    def test_array_matches_scalar(self, rng):
        coords = rng.integers(0, 10, size=(7, 3))
        arr = subdivide_coords(coords, 4)
        assert arr.shape == (7 * 64, 3)
        flat = []
        for row in coords:
            flat.extend(k.xyz for k in subdivide(VoxelIndex(*map(int, row), scale=4), 4))
        assert arr.tolist() == [list(t) for t in flat]


class TestVoxelCenter:
    def test_known_value_scale1(self):
        g = GridGeometry((-51.2, -51.2, -5.0), 0.4, (256, 256, 20))
        c = voxel_center(VoxelIndex(256 // 2, 256 // 2, 10, scale=1), g)
        np.testing.assert_allclose(c, [0.2, 0.2, -0.8])

    def test_known_value_nuscenes(self):
        g = GridGeometry.preset("nuscenes-occ")
        c = voxel_center(VoxelIndex(256, 256, 20, scale=1), g)
        np.testing.assert_allclose(c, [0.1, 0.1, -0.9])

    def test_scale2_origin_cell(self):
        g = GridGeometry((0.0, 0.0, 0.0), 0.1, (64, 64, 64))
        np.testing.assert_allclose(voxel_center(VoxelIndex(0, 0, 0, scale=2), g), [0.1, 0.1, 0.1])

    def test_center_roundtrips_through_world_to_index(self, rng):
        g = GridGeometry.preset("semantickitti")
        for scale in (1, 2, 4, 8, 16):
            gs = g.with_scale(scale)
            coords = np.stack([rng.integers(0, d, size=20) for d in gs.dims], axis=1)
            ctr = centers_for(coords, scale, g)
            back = gs.world_to_index(ctr)
            np.testing.assert_array_equal(back, coords)

    def test_out_of_bounds_raises(self):
        g = small_geom()
        with pytest.raises(OutOfBounds):
            voxel_center(VoxelIndex(64, 0, 0, scale=1), g)


class TestKeyPacking:
    def test_roundtrip(self, rng):
        coords = rng.integers(0, 2**21, size=(200, 3))
        np.testing.assert_array_equal(unpack_keys(pack_keys(coords)), coords)

    def test_lexicographic_monotone(self, rng):
        coords = rng.integers(0, 1000, size=(300, 3))
        keys = pack_keys(coords)
        order_keys = np.argsort(keys, kind="stable")
        order_lex = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
        np.testing.assert_array_equal(coords[order_keys], coords[order_lex])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfBounds):
            pack_keys(np.array([[0, 0, 2**21]]))
        with pytest.raises(OutOfBounds):
            pack_keys(np.array([[-1, 0, 0]]))

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_unique_coords_matches_row_unique(self, rng, n):
        coords = rng.integers(0, 6, size=(n, 3))
        got = unique_coords(coords)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.unique(coords, axis=0).reshape(-1, 3))


class TestSparseVoxelGrid:
    def test_insert_then_lookup_exact(self, rng):
        g = small_geom()
        coords = np.unique(rng.integers(0, 64, size=(100, 3)), axis=0)
        feats = rng.normal(size=(coords.shape[0], 5))
        grid = SparseVoxelGrid(g, coords, feats)
        for i in rng.choice(coords.shape[0], size=20, replace=False):
            got = grid.feature_at(tuple(coords[i]))
            np.testing.assert_array_equal(got, feats[i])

    def test_absent_lookup_none(self):
        g = small_geom()
        grid = SparseVoxelGrid(g, [[1, 2, 3]], [[1.0]])
        assert grid.lookup((3, 2, 1)) is None
        assert grid.feature_at((3, 2, 1)) is None

    def test_construction_order_invariance(self, rng):
        g = small_geom()
        coords = np.unique(rng.integers(0, 64, size=(80, 3)), axis=0)
        feats = rng.normal(size=(coords.shape[0], 3))
        a = SparseVoxelGrid(g, coords, feats)
        perm = rng.permutation(coords.shape[0])
        b = SparseVoxelGrid(g, coords[perm], feats[perm])
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.features, b.features)

    def test_sorted_lexicographically(self, rng):
        g = small_geom()
        coords = np.unique(rng.integers(0, 64, size=(60, 3)), axis=0)
        grid = SparseVoxelGrid(g, coords[rng.permutation(coords.shape[0])],
                               np.zeros((coords.shape[0], 1)))
        order = np.lexsort((grid.coords[:, 2], grid.coords[:, 1], grid.coords[:, 0]))
        np.testing.assert_array_equal(order, np.arange(len(grid)))

    def test_duplicate_rejected(self):
        g = small_geom()
        with pytest.raises(DuplicateVoxels):
            SparseVoxelGrid(g, [[1, 1, 1], [1, 1, 1]], [[0.0], [1.0]])

    def test_out_of_bounds_rejected(self):
        g = small_geom(scale=2)
        with pytest.raises(OutOfBounds):
            SparseVoxelGrid(g, [[32, 0, 0]], [[0.0]])

    def test_shape_mismatch_rejected(self):
        g = small_geom()
        with pytest.raises(ShapeError):
            SparseVoxelGrid(g, [[1, 1, 1]], [[0.0], [1.0]])

    def test_rows_for_batch(self, rng):
        g = small_geom()
        coords = np.unique(rng.integers(0, 64, size=(50, 3)), axis=0)
        grid = SparseVoxelGrid(g, coords, rng.normal(size=(coords.shape[0], 2)))
        queries = np.vstack([coords[:5], [[63, 63, 63]]])
        rows, found = grid.rows_for(queries)
        assert found[:5].all()
        np.testing.assert_array_equal(grid.coords[rows[:5]], coords[:5])
        if grid.lookup((63, 63, 63)) is None:
            assert not found[5] and rows[5] == -1

    def test_rows_for_keys_keeps_query_shape(self, rng):
        coords = np.unique(rng.integers(0, 64, size=(40, 3)), axis=0)
        grid = SparseVoxelGrid(small_geom(), coords, rng.normal(size=(coords.shape[0], 1)))
        queries = np.vstack([coords[:6], [[63, 63, 63]] * 2])
        rows, found = grid.rows_for_keys(pack_keys(queries).reshape(2, 4))
        flat_rows, flat_found = grid.rows_for(queries)
        np.testing.assert_array_equal(rows, flat_rows.reshape(2, 4))
        np.testing.assert_array_equal(found, flat_found.reshape(2, 4))

    def test_empty_grid(self):
        g = small_geom()
        grid = SparseVoxelGrid.empty(g, channels=4)
        assert len(grid) == 0 and grid.channels == 4
        rows, found = grid.rows_for(np.array([[0, 0, 0]]))
        assert not found[0]

    def test_to_dense_roundtrip(self, rng):
        g = GridGeometry((0, 0, 0), 0.1, (8, 8, 8))
        coords = np.unique(rng.integers(0, 8, size=(20, 3)), axis=0)
        feats = rng.normal(size=(coords.shape[0], 2))
        dense = SparseVoxelGrid(g, coords, feats).to_dense()
        assert dense.shape == (8, 8, 8, 2)
        for c, f in zip(coords, feats):
            np.testing.assert_array_equal(dense[tuple(c)], f)

    def test_shape_is_logical_dense_shape(self):
        g = GridGeometry((0, 0, 0), 0.1, (9, 8, 7), scale=4)
        assert SparseVoxelGrid.empty(g, channels=21).shape == (3, 2, 2, 21)
        grid = SparseVoxelGrid(g, [[2, 1, 1]], np.ones((1, 5)))
        assert grid.shape == (3, 2, 2, 5)

    def test_nbytes_counts_rows_not_volume(self):
        g = GridGeometry((0, 0, 0), 0.1, (256, 256, 32))
        grid = SparseVoxelGrid(g, [[0, 0, 0], [255, 255, 31]], np.zeros((2, 21)))
        # two int64 coord triples, two float64 21-rows, two int64 keys
        assert grid.nbytes == 2 * 3 * 8 + 2 * 21 * 8 + 2 * 8
        assert SparseVoxelGrid.empty(g, channels=21).nbytes == 0

    def test_to_dense_vector_fill(self, rng):
        g = GridGeometry((0, 0, 0), 0.1, (4, 3, 2))
        coords = np.array([[0, 0, 0], [3, 2, 1]])
        feats = rng.normal(size=(2, 21))
        fill = np.arange(21, dtype=np.float64)
        dense = SparseVoxelGrid(g, coords, feats).to_dense(fill)
        assert dense.shape == (4, 3, 2, 21)
        mask = np.zeros((4, 3, 2), dtype=bool)
        mask[tuple(coords.T)] = True
        np.testing.assert_array_equal(dense[tuple(coords.T)], feats)
        assert (dense[~mask] == fill).all()

    def test_features_immutable(self):
        g = small_geom()
        grid = SparseVoxelGrid(g, [[1, 1, 1]], [[1.0]])
        with pytest.raises(ValueError):
            grid.features[0, 0] = 2.0

    def test_centers_row_aligned(self):
        g = small_geom(scale=4)
        grid = SparseVoxelGrid(g, [[0, 0, 0], [1, 2, 3]], np.zeros((2, 1)))
        np.testing.assert_allclose(grid.centers()[1], [0.6, 1.0, 1.4])

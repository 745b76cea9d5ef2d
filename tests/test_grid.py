import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voxfuse.errors import DuplicateVoxels, InvalidFactor, InvalidScale, OutOfBounds, ShapeError
from voxfuse.grid import (
    VALID_SCALES,
    GridGeometry,
    SparseVoxelGrid,
    align_coords,
    group_coords,
    subdivide_coords,
    unique_coords,
)

from oracles import dense_view, in_grid_children


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
            g = GridGeometry.preset("nuscenes-occ").with_scale(scale)
            assert g.dims[0] == expect

    def test_cell_size(self):
        assert GridGeometry.preset("nuscenes-occ").with_scale(4).cell_size == pytest.approx(0.8)

    def test_invalid_scale_rejected(self):
        with pytest.raises(InvalidScale):
            GridGeometry((0, 0, 0), 0.2, (16, 16, 16), scale=3)

    @pytest.mark.parametrize("origin", [(float("nan"), 0, 0), (0, 0, float("-inf"))])
    def test_non_finite_origin_rejected(self, origin):
        with pytest.raises(ValueError, match="origin must be finite"):
            GridGeometry(origin, 0.2, (16, 16, 16))

    @pytest.mark.parametrize("origin, voxel_size, needle", [
        ((True, 0, 0), 0.2, "origin must be a number, got True"),
        ((0, 0, 0), True, "voxel_size must be a number, got True"),
        ((0, 0, 0), float("inf"), "voxel_size must be finite, got inf")])
    def test_boolean_or_non_finite_float_rejected(self, origin, voxel_size, needle):
        with pytest.raises(ValueError, match=needle):
            GridGeometry(origin, voxel_size, (16, 16, 16))

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

    def test_voxel_count_must_fit_int64_keys(self):
        # 64897 * 2359 * 60247241209 == 2**63 - 1, the largest int64 key
        g = GridGeometry((0, 0, 0), 0.1, (64897, 2359, 60247241209))
        assert g.strides.tolist() == [2359 * 60247241209, 60247241209, 1]
        with pytest.raises(ValueError, match=r"^dims_scale1 \(2097152, 2097152, 2097152\) "
                                             r"hold more voxels than int64 keys can index$"):
            GridGeometry((0, 0, 0), 0.1, (2**21,) * 3)


def align(xyz, from_scale, to_scale):
    """``align_coords`` on one coordinate triple, as a tuple."""
    return tuple(align_coords(np.array([xyz]), from_scale, to_scale)[0].tolist())


class TestAlignScale:
    def test_coarse_to_fine(self):
        assert align((1, 1, 1), 8, 4) == (2, 2, 2)

    def test_coarse_to_fine_16(self):
        assert align((2, 2, 2), 16, 4) == (8, 8, 8)

    def test_fine_to_coarse_floors(self):
        assert align((7, 5, 3), 1, 4) == (1, 1, 0)

    def test_same_scale_identity(self):
        coords = np.array([[3, 4, 5], [0, 1, 2]])
        out = align_coords(coords, 2, 2)
        np.testing.assert_array_equal(out, coords)
        assert not np.shares_memory(out, coords)

    def test_roundtrip_coarse_fine_coarse(self, rng):
        coords = rng.integers(0, 30, size=(50, 3))
        np.testing.assert_array_equal(align_coords(align_coords(coords, 8, 2), 2, 8), coords)

    def test_unrelated_scales_raise(self):
        # 8 and 16 are fine (factor 2); fabricate a non-integer ratio via raw coords
        with pytest.raises(InvalidScale):
            align_coords(np.zeros((1, 3), dtype=np.int64), 8, 3)

    def test_array_matches_scalar(self, rng):
        coords = rng.integers(0, 20, size=(40, 3))
        for from_scale, to_scale in ((8, 2), (2, 8), (1, 4)):
            out = align_coords(coords, from_scale, to_scale)
            for row_in, row_out in zip(coords.tolist(), out.tolist()):
                if from_scale > to_scale:
                    want = [v * (from_scale // to_scale) for v in row_in]
                else:
                    want = [v // (to_scale // from_scale) for v in row_in]
                assert row_out == want


# a child extent that holds every child of the parents below
DIMS = (64, 64, 64)


class TestSubdivide:
    def test_factor2_count_and_scale(self):
        kids, rows = subdivide_coords([[3, 1, 2]], 2, DIMS)
        assert kids.shape == (8, 3)
        assert rows.tolist() == [0] * 8
        # scale-2 children align back onto their scale-4 parent
        np.testing.assert_array_equal(align_coords(kids, 2, 4), np.tile([3, 1, 2], (8, 1)))

    def test_factor4_count(self):
        kids, _ = subdivide_coords([[0, 0, 0]], 4, DIMS)
        assert kids.shape == (64, 3)
        np.testing.assert_array_equal(align_coords(kids, 1, 4), np.zeros((64, 3)))

    def test_children_tile_parent_exactly(self):
        kids, _ = subdivide_coords([[3, 1, 2]], 2, DIMS)
        # every child aligns back to the parent, and children are distinct
        assert all(align(k, 2, 4) == (3, 1, 2) for k in kids.tolist())
        assert len({tuple(k) for k in kids.tolist()}) == 8

    def test_sibling_disjointness(self):
        a = {tuple(k) for k in subdivide_coords([[0, 0, 0]], 2, DIMS)[0].tolist()}
        b = {tuple(k) for k in subdivide_coords([[1, 0, 0]], 2, DIMS)[0].tolist()}
        assert not (a & b)

    def test_lexicographic_order_z_fastest(self):
        kids, _ = subdivide_coords([[0, 0, 0]], 2, DIMS)
        assert [tuple(k) for k in kids.tolist()] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]

    def test_bad_factor(self):
        with pytest.raises(InvalidFactor):
            subdivide_coords([[0, 0, 0]], 3, DIMS)

    def test_array_matches_scalar(self, rng):
        coords = rng.integers(0, 10, size=(7, 3))
        arr, rows = subdivide_coords(coords, 4, DIMS)
        assert arr.shape == (7 * 64, 3)
        flat = [[4 * x + i, 4 * y + j, 4 * z + k]
                for x, y, z in coords.tolist()
                for i in range(4) for j in range(4) for k in range(4)]
        assert arr.tolist() == flat
        assert rows.tolist() == np.repeat(np.arange(7), 64).tolist()

    def test_partial_last_cell(self):
        # dims 5 x 6 x 7: the parent (1, 1, 1) keeps x = 4, y = 4..5, z = 4..6
        kids, rows = subdivide_coords([[0, 0, 0], [1, 1, 1]], 4, (5, 6, 7))
        assert kids[rows == 0].shape == (64, 3)
        assert kids[rows == 1].tolist() == [[4, y, z] for y in (4, 5) for z in (4, 5, 6)]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 4]), st.tuples(*[st.integers(1, 40)] * 3), st.booleans(),
           st.data())
    def test_matches_brute_force(self, factor, dims, last_cell, data):
        # parents anywhere on the coarse grid (possibly none), or each in the
        # last, often partial, coarse cell of one of its axes
        top = [-(-d // factor) - 1 for d in dims]
        parent = st.tuples(*[st.integers(0, t) for t in top])
        if last_cell:
            parent = st.tuples(st.integers(0, 2), parent).map(
                lambda ap: tuple(top[i] if i == ap[0] else v for i, v in enumerate(ap[1])))
        parents = np.array(data.draw(st.lists(parent, max_size=12, unique=True)),
                           dtype=np.int64).reshape(-1, 3)
        kids, rows = subdivide_coords(parents, factor, dims)
        want_kids, want_rows = in_grid_children(parents, factor, dims)
        assert kids.dtype == rows.dtype == np.int64
        assert np.array_equal(kids, want_kids)
        assert np.array_equal(rows, want_rows)


class TestVoxelCenter:
    def test_known_value_scale1(self):
        g = GridGeometry((-51.2, -51.2, -5.0), 0.4, (256, 256, 20))
        c = g.centers([[256 // 2, 256 // 2, 10]])
        np.testing.assert_allclose(c, [[0.2, 0.2, -0.8]])

    def test_known_value_nuscenes(self):
        g = GridGeometry.preset("nuscenes-occ")
        c = g.centers([[256, 256, 20]])
        np.testing.assert_allclose(c, [[0.1, 0.1, -0.9]])

    def test_scale2_origin_cell(self):
        g = GridGeometry((0.0, 0.0, 0.0), 0.1, (64, 64, 64))
        np.testing.assert_allclose(g.with_scale(2).centers([[0, 0, 0]]), [[0.1, 0.1, 0.1]])

    def test_center_roundtrips_through_world_to_index(self, rng):
        g = GridGeometry.preset("semantickitti")
        for scale in (1, 2, 4, 8, 16):
            gs = g.with_scale(scale)
            coords = np.stack([rng.integers(0, d, size=20) for d in gs.dims], axis=1)
            back = gs.world_to_index(gs.centers(coords))
            np.testing.assert_array_equal(back, coords)


@st.composite
def lattices(draw):
    """A geometry at any valid scale whose base dims (1-40) need not be multiples of it."""
    origin = tuple(draw(st.sampled_from([0.0, -51.2, -25.6, -2.0, 3.3])
                        | st.floats(-60.0, 60.0), label=f"o{i}") for i in range(3))
    voxel_size = draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.4]) | st.floats(0.01, 2.0),
                      label="voxel_size")
    dims = tuple(draw(st.integers(1, 40), label=f"d{i}") for i in range(3))
    return GridGeometry(origin, voxel_size, dims, draw(st.sampled_from(VALID_SCALES), label="scale"))


class TestLatticeFacts:
    """Centres, span and diagonal: the lattice facts ``GridGeometry`` is the one home of."""

    @settings(max_examples=200, deadline=None)
    @given(lattices())
    # partial last cells on every axis at scale 16
    @example(GridGeometry((0.0, 0.0, 0.0), 0.2, (17, 33, 40), 16))
    def test_centers_span_and_diagonal(self, geom):
        coords = np.indices(geom.dims).reshape(3, -1).T
        assert np.array_equal(geom.world_to_index(geom.centers(coords)), coords)
        assert np.array_equal(geom.span, np.asarray(geom.dims) * geom.cell_size)
        base = geom.with_scale(1)
        # the form the diagonal had before it read the span
        old = float(np.linalg.norm(np.asarray(base.dims_scale1, dtype=np.float64) * base.voxel_size))
        assert base.diagonal == old


# a lattice near the int64 key budget: 2**21 cells on two axes, one fewer on the last
KEY_GEOM = GridGeometry((0.0, 0.0, 0.0), 0.1, (2**21, 2**21, 2**21 - 1))


class TestKeyPacking:
    def test_roundtrip(self, rng):
        coords = rng.integers(0, 2**21 - 1, size=(200, 3))
        back = np.stack(np.unravel_index(KEY_GEOM.flat_index(coords), KEY_GEOM.dims), axis=1)
        np.testing.assert_array_equal(back, coords)

    def test_lexicographic_monotone(self, rng):
        coords = rng.integers(0, 1000, size=(300, 3))
        keys = KEY_GEOM.flat_index(coords)
        order_keys = np.argsort(keys, kind="stable")
        order_lex = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
        np.testing.assert_array_equal(coords[order_keys], coords[order_lex])

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_unique_coords_matches_row_unique(self, rng, n):
        coords = rng.integers(0, 6, size=(n, 3))
        got = unique_coords(coords, small_geom())
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.unique(coords, axis=0).reshape(-1, 3))

    # a few fixed values, border cells of the key budget among them, so that
    # draws repeat rows; plus any in-range value
    _AXIS = st.one_of(st.sampled_from([0, 1, 2**21 - 2]), st.integers(0, 2**21 - 2))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int64, st.tuples(st.integers(0, 40), st.just(3)), elements=_AXIS))
    def test_group_coords_matches_row_unique(self, coords):
        cells, inverse, counts = group_coords(coords, KEY_GEOM)
        want_cells, want_inverse, want_counts = np.unique(
            coords, axis=0, return_inverse=True, return_counts=True)
        assert np.array_equal(cells, want_cells.reshape(-1, 3))
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        assert np.array_equal(counts, want_counts)
        assert cells.dtype == inverse.dtype == counts.dtype == np.int64


@st.composite
def index_cases(draw):
    """A geometry, maybe with one axis past 2**21, and (N, 3) in-grid coords biased onto its border."""
    dims = [draw(st.integers(1, 9), label=f"d{i}") for i in range(3)]
    long_axis = draw(st.sampled_from([None, 0, 1, 2]), label="long_axis")
    if long_axis is not None:
        dims[long_axis] = draw(st.sampled_from([2**21 + 1, 2**40]), label="long_dim")
    axis = [st.one_of(st.sampled_from([0, d - 1]), st.integers(0, d - 1)) for d in dims]
    coords = draw(st.lists(st.tuples(*axis), max_size=40), label="coords")
    return (GridGeometry((0.0, 0.0, 0.0), 0.1, tuple(dims)),
            np.array(coords, dtype=np.int64).reshape(-1, 3))


class TestFlatIndex:
    @settings(max_examples=300, deadline=None)
    @given(index_cases())
    # a full grid: every query past a face aliases a cell that is present
    @example((GridGeometry((0.0, 0.0, 0.0), 0.1, (2, 3, 4)),
              np.indices((2, 3, 4)).reshape(3, -1).T.astype(np.int64)))
    def test_matches_numpy(self, case):
        geom, coords = case
        assert np.array_equal(geom.flat_index(coords),
                              np.ravel_multi_index(tuple(coords.T), geom.dims))

        cells, inverse, counts = group_coords(coords, geom)
        want_cells, want_inverse, want_counts = np.unique(
            coords, axis=0, return_inverse=True, return_counts=True)
        want_cells = want_cells.reshape(-1, 3)
        assert np.array_equal(cells, want_cells)
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(unique_coords(coords, geom), want_cells)
        assert cells.dtype == inverse.dtype == counts.dtype == np.int64

        grid = SparseVoxelGrid(geom, want_cells, np.zeros((want_cells.shape[0], 1)))
        # each cell's face neighbours, and each cell with one axis at -1 and at dims
        queries = [want_cells + step for step in np.vstack([np.eye(3), -np.eye(3)]).astype(np.int64)]
        for ax in range(3):
            for v in (-1, geom.dims[ax]):
                q = want_cells.copy()
                q[:, ax] = v
                queries.append(q)
        queries = np.vstack(queries)
        rows, found = grid.rows_for(queries)
        present = set(map(tuple, want_cells.tolist()))
        want_found = np.array([q in present for q in map(tuple, queries.tolist())], dtype=bool)
        assert np.array_equal(found, want_found)
        assert np.array_equal(grid.coords[rows[found]], queries[found])
        assert (rows[~found] == -1).all()


class TestSparseVoxelGrid:
    def test_insert_then_lookup_exact(self, rng):
        g = small_geom()
        coords = np.unique(rng.integers(0, 64, size=(100, 3)), axis=0)
        feats = rng.normal(size=(coords.shape[0], 5))
        grid = SparseVoxelGrid(g, coords, feats)
        picked = rng.choice(coords.shape[0], size=20, replace=False)
        rows, found = grid.rows_for(coords[picked])
        assert found.all()
        np.testing.assert_array_equal(grid.features[rows], feats[picked])

    def test_absent_lookup_none(self):
        g = small_geom()
        grid = SparseVoxelGrid(g, [[1, 2, 3]], [[1.0]])
        rows, found = grid.rows_for(np.array([[3, 2, 1]]))
        assert not found[0] and rows[0] == -1

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
        # plain ints, not NumPy scalar reprs
        with pytest.raises(DuplicateVoxels, match=r"^duplicate coordinate \(1, 1, 1\)$"):
            SparseVoxelGrid(g, [[1, 1, 1], [1, 1, 1]], [[0.0], [1.0]])

    def test_out_of_bounds_rejected(self):
        g = small_geom(scale=2)
        with pytest.raises(OutOfBounds,
                           match=r"^coord \(32, 0, 0\) outside dims \(32, 32, 32\) at scale 2$"):
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
        if not (coords == 63).all(axis=1).any():
            assert not found[5] and rows[5] == -1

    def test_rows_for_keys_keeps_query_shape(self, rng):
        coords = np.unique(rng.integers(0, 64, size=(40, 3)), axis=0)
        grid = SparseVoxelGrid(small_geom(), coords, rng.normal(size=(coords.shape[0], 1)))
        queries = np.vstack([coords[:6], [[63, 63, 63]] * 2])
        rows, found = grid.rows_for_keys(grid.geometry.flat_index(queries.reshape(2, 4, 3)))
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
        dense = dense_view(SparseVoxelGrid(g, coords, feats))
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
        dense = dense_view(SparseVoxelGrid(g, coords, feats), fill)
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

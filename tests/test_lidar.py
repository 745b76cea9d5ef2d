import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from voxfuse.errors import EmptyInput, InvalidFactor, InvalidScale, ParseError, ShapeError
from voxfuse.grid import GridGeometry, SparseVoxelGrid
from voxfuse.lidar import (
    PointCloud,
    SparseConvSpec,
    downsample,
    kernel_offsets,
    multi_scale_stack,
    read_velodyne_bin,
    sparse_conv,
    voxelize,
)


def geom16(scale=1):
    return GridGeometry((0.0, 0.0, 0.0), 0.2, (16, 16, 16), scale)


def random_grid(rng, geom, channels=3, n=40):
    dims = geom.dims
    coords = np.unique(
        np.stack([rng.integers(0, d, size=n) for d in dims], axis=1), axis=0)
    feats = rng.normal(size=(coords.shape[0], channels))
    return SparseVoxelGrid(geom, coords, feats)


def _reference_sparse_conv(grid, spec, stride=1):
    """The per-tap loop that preceded the kernel map: one lookup and one matmul per tap."""
    offsets = kernel_offsets(spec.kernel_extent)
    dims = np.asarray(grid.geometry.dims)
    if stride == 1:
        out_geom = grid.geometry
        if spec.mode == "submanifold":
            out_coords = grid.coords
        else:
            dil = (grid.coords[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
            dil = dil[np.logical_and(dil >= 0, dil < dims).all(axis=1)]
            out_coords = np.unique(dil, axis=0)
        anchors = out_coords
    else:
        out_geom = grid.geometry.with_scale(grid.scale * stride)
        out_coords = np.unique(grid.coords // stride, axis=0)
        anchors = out_coords * stride

    out = np.tile(spec.bias, (out_coords.shape[0], 1))
    for o, d in enumerate(offsets):
        q = anchors + d
        ok = np.logical_and(q >= 0, q < dims).all(axis=1)
        rows = np.full(q.shape[0], -1, dtype=np.int64)
        if ok.any():
            r, f = grid.rows_for(q[ok])
            rows[np.flatnonzero(ok)[f]] = r[f]
        hit = rows >= 0
        if hit.any():
            i, j, k = np.unravel_index(o, (spec.kernel_extent,) * 3)
            out[hit] += grid.features[rows[hit]] @ spec.weights[i, j, k]
    return SparseVoxelGrid(out_geom, out_coords, out, grid.meta)


@st.composite
def conv_cases(draw):
    """A grid (possibly empty, cells biased onto its border), a spec and a stride."""
    dims = tuple(draw(st.integers(1, 9), label=f"d{i}") for i in range(3))
    axis = [st.one_of(st.sampled_from([0, d - 1]), st.integers(0, d - 1)) for d in dims]
    cells = draw(st.lists(st.tuples(*axis), max_size=40, unique=True), label="cells")
    cin = draw(st.integers(1, 8), label="cin")
    cout = draw(st.integers(1, 8), label="cout")
    extent = draw(st.sampled_from([1, 3, 5]), label="extent")
    mode = draw(st.sampled_from(["submanifold", "expanding"]), label="mode")
    stride = draw(st.sampled_from([1, 2, 4]), label="stride")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    coords = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    grid = SparseVoxelGrid(GridGeometry((0.0, 0.0, 0.0), 0.2, dims), coords,
                           rng.normal(size=(coords.shape[0], cin)))
    spec = SparseConvSpec(rng.normal(size=(extent,) * 3 + (cin, cout)),
                          rng.normal(size=cout), mode)
    return grid, spec, stride


def dense_conv_oracle(grid, spec, stride=1):
    """scipy correlate on the densified grid; returns a dense (X, Y, Z, Cout) array."""
    dense = grid.to_dense()
    out = np.zeros(dense.shape[:3] + (spec.out_channels,))
    for co in range(spec.out_channels):
        acc = np.zeros(dense.shape[:3])
        for ci in range(spec.in_channels):
            acc += ndimage.correlate(dense[..., ci], spec.weights[..., ci, co],
                                     mode="constant", cval=0.0)
        out[..., co] = acc + spec.bias[co]
    if stride > 1:
        out = out[::stride, ::stride, ::stride]
    return out


class TestVelodyneReader:
    def test_roundtrip(self, tmp_path, rng):
        rows = rng.normal(size=(25, 4)).astype("<f4")
        rows[:, 3] = np.abs(rows[:, 3]) % 1.0
        path = tmp_path / "scan.bin"
        rows.tofile(path)
        pc = read_velodyne_bin(path)
        assert len(pc) == 25
        np.testing.assert_allclose(pc.points, rows[:, :3].astype(np.float64))
        np.testing.assert_allclose(pc.intensity, rows[:, 3].astype(np.float64))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(ParseError):
            read_velodyne_bin(path)

    @pytest.mark.parametrize("col,value", [(0, np.nan), (3, np.inf)])
    def test_non_finite_row(self, tmp_path, col, value):
        rows = np.zeros((10, 4), dtype="<f4")
        rows[4, col] = value
        path = tmp_path / "nan.bin"
        rows.tofile(path)
        with pytest.raises(ParseError, match="first at row 4"):
            read_velodyne_bin(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(EmptyInput):
            read_velodyne_bin(path)


class TestVoxelize:
    def test_single_center_point(self):
        g = geom16()
        pc = PointCloud([[0.1, 0.1, 0.1]], [0.5])
        grid = voxelize(pc, g, channels=8)
        assert len(grid) == 1
        assert tuple(grid.coords[0]) == (0, 0, 0)
        f = grid.features[0]
        assert f[0] == pytest.approx(1 / 2)
        assert f[1] == pytest.approx(0.5)
        np.testing.assert_allclose(f[2:5], 0.0, atol=1e-12)
        np.testing.assert_array_equal(f[5:], 0.0)

    def test_mean_intensity_two_points(self):
        g = geom16()
        pc = PointCloud([[0.05, 0.05, 0.05], [0.15, 0.15, 0.15]], [0.2, 0.4])
        grid = voxelize(pc, g)
        assert len(grid) == 1
        assert grid.features[0, 1] == pytest.approx(0.3)
        assert grid.features[0, 0] == pytest.approx(2 / 3)

    def test_boundary_point_floors_to_upper_cell(self):
        g = geom16()
        grid = voxelize(PointCloud([[0.2, 0.0, 0.0]], [1.0]), g)
        assert tuple(grid.coords[0]) == (1, 0, 0)

    def test_offset_feature_in_cell_units(self):
        g = geom16()
        # cell (0,0,0) spans [0,0.2)^3, center 0.1; point at 0.15 -> offset +0.25
        grid = voxelize(PointCloud([[0.15, 0.1, 0.1]], [0.0]), g)
        np.testing.assert_allclose(grid.features[0, 2:5], [0.25, 0.0, 0.0], atol=1e-12)

    def test_out_of_bounds_dropped_and_counted(self):
        g = geom16()
        pc = PointCloud([[0.1, 0.1, 0.1], [-1.0, 0.0, 0.0], [99.0, 0.0, 0.0]], [0.1, 0.2, 0.3])
        grid = voxelize(pc, g)
        assert len(grid) == 1
        assert grid.meta["points_dropped"] == 2
        assert grid.meta["points_total"] == 3

    def test_permutation_invariance(self, rng):
        g = geom16()
        pts = rng.uniform(0.0, 3.2, size=(200, 3))
        intens = rng.uniform(size=200)
        a = voxelize(PointCloud(pts, intens), g)
        perm = rng.permutation(200)
        b = voxelize(PointCloud(pts[perm], intens[perm]), g)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_allclose(a.features, b.features, atol=1e-12)

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyInput):
            voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), geom16())

    def test_requires_scale1(self):
        with pytest.raises(InvalidScale):
            voxelize(PointCloud([[0.1, 0.1, 0.1]], [0.0]), geom16(scale=2))

    def test_all_points_outside_gives_empty_grid(self):
        grid = voxelize(PointCloud([[-5.0, 0.0, 0.0]], [0.0]), geom16())
        assert len(grid) == 0
        assert grid.meta["points_dropped"] == 1


class TestSparseConvSpec:
    def test_seeded_reproducible(self):
        a = SparseConvSpec.seeded(3, 4, seed=7)
        b = SparseConvSpec.seeded(3, 4, seed=7)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.seed == 7

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            SparseConvSpec(np.zeros((2, 2, 2, 1, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            SparseConvSpec(np.zeros((3, 3, 3, 1, 1)), np.zeros(2))

    def test_offsets_lexicographic(self):
        off = kernel_offsets(3)
        assert off.shape == (27, 3)
        assert off[0].tolist() == [-1, -1, -1]
        assert off[13].tolist() == [0, 0, 0]
        assert off[26].tolist() == [1, 1, 1]


class TestSparseConv:
    def test_identity_kernel(self, rng):
        grid = random_grid(rng, geom16(), channels=4)
        out = sparse_conv(grid, SparseConvSpec.identity(4))
        np.testing.assert_array_equal(out.coords, grid.coords)
        np.testing.assert_allclose(out.features, grid.features, atol=1e-12)

    def test_single_voxel_ones_kernel(self):
        g = geom16()
        grid = SparseVoxelGrid(g, [[5, 5, 5]], [[2.0]])
        spec = SparseConvSpec(np.ones((3, 3, 3, 1, 1)), np.zeros(1))
        out = sparse_conv(grid, spec)
        assert out.features[0, 0] == pytest.approx(2.0)

    def test_two_adjacent_voxels_ones_kernel(self):
        g = geom16()
        grid = SparseVoxelGrid(g, [[5, 5, 5], [5, 5, 6]], [[2.0], [3.0]])
        spec = SparseConvSpec(np.ones((3, 3, 3, 1, 1)), np.zeros(1))
        out = sparse_conv(grid, spec)
        np.testing.assert_allclose(out.features[:, 0], [5.0, 5.0])

    def test_channel_mismatch(self, rng):
        grid = random_grid(rng, geom16(), channels=3)
        with pytest.raises(ShapeError):
            sparse_conv(grid, SparseConvSpec.seeded(4, 2))

    def test_submanifold_matches_dense_oracle(self, rng):
        for trial in range(20):
            grid = random_grid(rng, geom16(), channels=3, n=50)
            spec = SparseConvSpec.seeded(3, 2, seed=trial)
            out = sparse_conv(grid, spec)
            dense = dense_conv_oracle(grid, spec)
            np.testing.assert_array_equal(out.coords, grid.coords)
            got = dense[out.coords[:, 0], out.coords[:, 1], out.coords[:, 2]]
            np.testing.assert_allclose(out.features, got, atol=1e-6)

    def test_expanding_matches_dense_oracle(self, rng):
        for trial in range(10):
            grid = random_grid(rng, geom16(), channels=2, n=30)
            spec = SparseConvSpec.seeded(2, 2, mode="expanding", seed=trial)
            out = sparse_conv(grid, spec)
            dense = dense_conv_oracle(grid, spec)
            got = dense[out.coords[:, 0], out.coords[:, 1], out.coords[:, 2]]
            np.testing.assert_allclose(out.features, got, atol=1e-6)
            # all dense mass lives inside the declared output set
            mask = np.zeros(dense.shape[:3], dtype=bool)
            mask[out.coords[:, 0], out.coords[:, 1], out.coords[:, 2]] = True
            assert np.abs(dense[~mask]).max() < 1e-12

    def test_expanding_set_is_dilation(self):
        g = geom16()
        grid = SparseVoxelGrid(g, [[5, 5, 5]], [[1.0]])
        out = sparse_conv(grid, SparseConvSpec.seeded(1, 1, mode="expanding"))
        assert len(out) == 27

    def test_expanding_clips_to_bounds(self):
        g = geom16()
        grid = SparseVoxelGrid(g, [[0, 0, 0]], [[1.0]])
        out = sparse_conv(grid, SparseConvSpec.seeded(1, 1, mode="expanding"))
        assert len(out) == 8
        assert out.coords.min() >= 0

    def test_strided_matches_dense_oracle(self, rng):
        for trial in range(10):
            grid = random_grid(rng, geom16(), channels=3, n=60)
            spec = SparseConvSpec.seeded(3, 3, seed=100 + trial)
            out = sparse_conv(grid, spec, stride=2)
            assert out.scale == 2
            expect_set = np.unique(grid.coords // 2, axis=0)
            np.testing.assert_array_equal(out.coords, expect_set)
            dense = dense_conv_oracle(grid, spec, stride=2)
            got = dense[out.coords[:, 0], out.coords[:, 1], out.coords[:, 2]]
            np.testing.assert_allclose(out.features, got, atol=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(conv_cases())
    def test_bit_identical_to_per_tap_loop(self, case):
        grid, spec, stride = case
        out = sparse_conv(grid, spec, stride)
        ref = _reference_sparse_conv(grid, spec, stride)
        assert out.scale == ref.scale
        assert np.array_equal(out.coords, ref.coords)
        assert np.array_equal(out.features, ref.features)

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_taps_without_hits_contribute_nothing(self, stride):
        g = GridGeometry((0.0, 0.0, 0.0), 0.2, (8, 8, 8))
        grid = SparseVoxelGrid(g, [[0, 0, 0], [7, 7, 7]], [[1.0], [2.0]])
        spec = SparseConvSpec(np.ones((5, 5, 5, 1, 1)), np.full(1, 0.5), "expanding")
        out = sparse_conv(grid, spec, stride)
        ref = _reference_sparse_conv(grid, spec, stride)
        assert np.array_equal(out.coords, ref.coords)
        assert np.array_equal(out.features, ref.features)
        # an output row whose window holds no cell keeps the bare bias
        assert set(out.features[:, 0]) <= {0.5, 1.5, 2.5}

    def test_bit_determinism(self, rng):
        grid = random_grid(rng, geom16(), channels=3, n=50)
        spec = SparseConvSpec.seeded(3, 3, seed=5)
        a = sparse_conv(grid, spec)
        b = sparse_conv(grid, spec)
        assert np.array_equal(a.features, b.features)


class TestDownsample:
    def test_empty_grid(self):
        out = downsample(SparseVoxelGrid.empty(geom16(), 4), 2)
        assert len(out) == 0 and out.scale == 2

    def test_conv_mode_set_is_integer_division_image(self, rng):
        grid = random_grid(rng, geom16(), channels=3, n=80)
        out = downsample(grid, 2)
        np.testing.assert_array_equal(out.coords, np.unique(grid.coords // 2, axis=0))

    def test_set_idempotence(self, rng):
        grid = random_grid(rng, geom16(), channels=2, n=80)
        twice = downsample(downsample(grid, 2), 2)
        once = downsample(grid, 4)
        np.testing.assert_array_equal(twice.coords, once.coords)
        assert twice.scale == once.scale == 4

    def test_bad_factor(self, rng):
        with pytest.raises(InvalidFactor):
            downsample(random_grid(rng, geom16()), 3)


class TestMultiScaleStack:
    def test_full_pyramid(self, rng):
        g = GridGeometry((0, 0, 0), 0.2, (32, 32, 32))
        grid = random_grid(rng, g, channels=4, n=200)
        stack = multi_scale_stack(grid)
        assert sorted(stack) == [1, 2, 4, 8, 16]
        for s, sub in stack.items():
            assert sub.scale == s
        assert stack[1] is grid
        np.testing.assert_array_equal(stack[4].coords, np.unique(grid.coords // 4, axis=0))

    def test_requires_scale1(self, rng):
        grid = random_grid(rng, geom16(scale=2), channels=2)
        with pytest.raises(InvalidScale):
            multi_scale_stack(grid)

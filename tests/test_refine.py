import numpy as np
import pytest
from scipy import ndimage

from voxfuse.camera import CameraModel, FeatureMap2D, project_points, sample_array
from voxfuse.errors import ShapeError
from voxfuse.grid import GridGeometry, SparseVoxelGrid, subdivide_coords
from voxfuse.lidar import SparseConvSpec, sparse_conv
from voxfuse.refine import (
    ImportanceMap,
    _aligned_sum,
    estimate_importance,
    fuse_refined,
    gather_fine,
    gather_semi_fine,
    seeded_projection,
    select_sets,
    sigmoid,
)

from oracles import dense_view, occupied_fraction


BASE = GridGeometry((0.0, 0.0, 0.0), 0.2, (64, 64, 64))


def grid_at(scale, coords, feats):
    return SparseVoxelGrid(BASE.with_scale(scale), coords, feats)


def random_grid4(rng, channels=3, n=30):
    coords = np.unique(rng.integers(0, 16, size=(n, 3)), axis=0)
    return grid_at(4, coords, rng.normal(size=(coords.shape[0], channels)))


def wide_cam():
    w, h = 96, 96
    fx = (w / 2) / np.tan(np.radians(55))
    return CameraModel.from_lookat((-4.0, 6.4, 6.4), (20.0, 6.4, 6.4), fx, fx,
                                   w / 2, h / 2, (w, h))


class TestImportance:
    def test_zero_conv_gives_half(self, rng):
        fm = random_grid4(rng, channels=3)
        rie = SparseConvSpec(np.zeros((3, 3, 3, 3, 1)), np.zeros(1))
        imp = estimate_importance(fm, rie)
        np.testing.assert_allclose(imp.scores, 0.5)

    def test_large_bias_saturates(self, rng):
        fm = random_grid4(rng, channels=2)
        rie = SparseConvSpec(np.zeros((3, 3, 3, 2, 1)), np.array([50.0]))
        imp = estimate_importance(fm, rie)
        np.testing.assert_allclose(imp.scores, 1.0, atol=1e-12)

    def test_matches_dense_sigmoid_oracle(self, rng):
        for trial in range(10):
            fm = random_grid4(rng, channels=3)
            rie = SparseConvSpec.seeded(3, 1, seed=trial)
            imp = estimate_importance(fm, rie)
            dense = dense_view(fm)
            acc = np.zeros(dense.shape[:3])
            for ci in range(3):
                acc += ndimage.correlate(dense[..., ci], rie.weights[..., ci, 0],
                                         mode="constant", cval=0.0)
            expect = 1.0 / (1.0 + np.exp(-acc[fm.coords[:, 0], fm.coords[:, 1], fm.coords[:, 2]]))
            np.testing.assert_allclose(imp.scores, expect, atol=1e-6)

    def test_requires_single_channel(self, rng):
        fm = random_grid4(rng, channels=3)
        with pytest.raises(ShapeError):
            estimate_importance(fm, SparseConvSpec.seeded(3, 2))

    def test_scores_range_validated(self, rng):
        fm = random_grid4(rng, channels=2)
        with pytest.raises(ValueError):
            ImportanceMap(fm, np.full(len(fm), 1.5))


class TestSelectSets:
    def test_all_zero_scores(self, rng):
        fm = random_grid4(rng)
        sets = select_sets(ImportanceMap(fm, np.zeros(len(fm))))
        assert sets.semi_fine.shape[0] == sets.fine.shape[0] == 0

    def test_tie_handling_at_defaults(self):
        fm = grid_at(4, [[0, 0, 0], [1, 1, 1], [2, 2, 2]], np.zeros((3, 1)))
        imp = ImportanceMap(fm, [0.4, 0.69, 0.7])
        sets = select_sets(imp, 0.4, 0.7)
        assert (sets.semi_fine.shape[0], sets.fine.shape[0]) == (3, 1)
        assert tuple(sets.fine[0]) == (2, 2, 2)

    def test_fine_subset_of_semi_fine(self, rng):
        fm = random_grid4(rng, n=60)
        imp = ImportanceMap(fm, rng.uniform(size=len(fm)))
        sets = select_sets(imp, 0.4, 0.7)
        semi = {tuple(c) for c in sets.semi_fine}
        assert all(tuple(c) in semi for c in sets.fine)

    def test_monotone_in_thresholds(self, rng):
        fm = random_grid4(rng, n=60)
        imp = ImportanceMap(fm, rng.uniform(size=len(fm)))
        sizes = [select_sets(imp, t, 1.0).semi_fine.shape[0] for t in (0.1, 0.3, 0.5, 0.9)]
        assert sizes == sorted(sizes, reverse=True)

    def test_thresholds_above_one_disable(self, rng):
        fm = random_grid4(rng)
        imp = ImportanceMap(fm, np.ones(len(fm)))
        sets = select_sets(imp, 1.01, 1.01)
        assert sets.semi_fine.shape[0] == sets.fine.shape[0] == 0

    def test_negative_threshold_rejected(self, rng):
        fm = random_grid4(rng)
        imp = ImportanceMap(fm, np.zeros(len(fm)))
        with pytest.raises(ValueError):
            select_sets(imp, -0.1, 0.5)

    def test_nan_threshold_rejected(self, rng):
        fm = random_grid4(rng)
        imp = ImportanceMap(fm, np.ones(len(fm)))
        for taus in ((np.nan, 0.7), (0.4, np.nan)):
            with pytest.raises(ValueError, match="non-negative"):
                select_sets(imp, *taus)
        sets = select_sets(imp, np.inf, np.inf)
        assert sets.semi_fine.shape[0] == sets.fine.shape[0] == 0


class TestGathers:
    def setup_method(self):
        self.rig = [wide_cam()]
        self.maps = FeatureMap2D.seeded(self.rig, 2, seed=3)

    def test_semi_fine_eight_children(self, rng):
        lidar2 = SparseVoxelGrid.empty(BASE.with_scale(2), 3)
        proj = seeded_projection(5, 4, seed=0)
        out = gather_semi_fine(np.array([[4, 8, 8]]), lidar2, self.rig, self.maps, proj)
        assert len(out) == 8
        assert out.scale == 2

    def test_fine_sixtyfour_children(self, rng):
        lidar1 = SparseVoxelGrid.empty(BASE.with_scale(1), 3)
        proj = seeded_projection(5, 4, seed=0)
        out = gather_fine(np.array([[4, 8, 8]]), lidar1, self.rig, self.maps, proj)
        assert len(out) == 64
        assert out.scale == 1

    def test_empty_fine_set(self):
        lidar1 = SparseVoxelGrid.empty(BASE.with_scale(1), 3)
        out = gather_fine(np.zeros((0, 3)), lidar1, self.rig, self.maps,
                          seeded_projection(5, 4))
        assert len(out) == 0
        assert out.features.shape == (0, 4) and out.scale == 1 and out.meta == {}

    def test_child_counts_scale_with_parents(self, rng):
        parents = np.unique(rng.integers(2, 14, size=(9, 3)), axis=0)
        lidar2 = SparseVoxelGrid.empty(BASE.with_scale(2), 2)
        out = gather_semi_fine(parents, lidar2, self.rig, self.maps, seeded_projection(4, 4))
        assert len(out) == 8 * parents.shape[0]

    def test_invisible_absent_child_maps_zero(self):
        # camera pointed away, empty grid: concat input is all zero
        rig = [CameraModel.from_lookat((0, 0, 0), (-5, 0, 0), 50, 50, 16, 16, (32, 32))]
        maps = FeatureMap2D.seeded(rig, 2, seed=1)
        lidar2 = SparseVoxelGrid.empty(BASE.with_scale(2), 3)
        proj = seeded_projection(5, 4, seed=2)
        out = gather_semi_fine(np.array([[8, 8, 8]]), lidar2, rig, maps, proj)
        np.testing.assert_array_equal(out.features, np.zeros((8, 4)))

    def test_identity_map_concats_lidar_and_image(self, rng):
        parent = np.array([[4, 8, 8]])
        children, _ = subdivide_coords(parent, 2, BASE.with_scale(2).dims)
        feats = rng.normal(size=(8, 3))
        lidar2 = grid_at(2, children, feats)
        proj = np.eye(5)
        out = gather_semi_fine(parent, lidar2, self.rig, self.maps, proj)
        np.testing.assert_allclose(out.features[:, :3], feats, atol=1e-12)
        # image part equals a direct sample at each child center
        uv, _, hit = project_points(self.rig[0], out.centers())
        assert hit.all()
        expect = sample_array(self.maps.maps[0], uv)
        np.testing.assert_allclose(out.features[:, 3:], expect, atol=1e-12)

    def test_overlap_fine_and_semi_children_coexist(self):
        parent = np.array([[4, 8, 8]])
        lidar2 = SparseVoxelGrid.empty(BASE.with_scale(2), 2)
        lidar1 = SparseVoxelGrid.empty(BASE.with_scale(1), 2)
        s = gather_semi_fine(parent, lidar2, self.rig, self.maps, seeded_projection(4, 3))
        f = gather_fine(parent, lidar1, self.rig, self.maps, seeded_projection(4, 3))
        assert len(s) == 8 and len(f) == 64
        # the fine children at scale 1 integer-divide onto the semi children at scale 2
        np.testing.assert_array_equal(np.unique(f.coords // 2, axis=0), s.coords)

    def test_wrong_scale_grid_rejected(self):
        lidar4 = SparseVoxelGrid.empty(BASE.with_scale(4), 2)
        with pytest.raises(ShapeError):
            gather_semi_fine(np.array([[1, 1, 1]]), lidar4, self.rig, self.maps,
                             seeded_projection(4, 3))


def image_means_reference(centers, rig, maps):
    """The per-camera loop ``_gather`` ran before ``camera.camera_mean``;
    returns the means and the per-point hit counts."""
    n = centers.shape[0]
    acc = np.zeros((n, maps.channels))
    n_hit = np.zeros(n, dtype=np.int64)
    for cam_id in range(len(rig)):
        uv, _, hit = project_points(rig[cam_id], centers)
        rows = np.flatnonzero(hit)
        if rows.size:
            acc[rows] += sample_array(maps.maps[cam_id], uv[rows])
            n_hit[rows] += 1
    out = acc / np.maximum(n_hit, 1)[:, None]
    out[n_hit == 0] = 0.0
    return out, n_hit


class TestCameraMean:
    """``_gather``'s image features equal the old per-camera loop bit for bit."""

    def rig(self):
        def cam(target):
            return CameraModel.from_lookat((-4.0, 6.4, 6.4), target, 40.0, 40.0,
                                           15.5, 15.5, (32, 32))
        # the middle camera looks away from the grid and sees nothing
        return [cam((20.0, 6.4, 6.4)), cam((-20.0, 6.4, 6.4)), cam((20.0, 9.0, 6.4))]

    @pytest.mark.parametrize("factor", [2, 4])
    def test_gather_matches_reference(self, rng, factor):
        rig = self.rig()
        maps = FeatureMap2D.seeded(rig, 3, seed=5)
        parents = np.unique(rng.integers(0, 16, size=(40, 3)), axis=0)
        scale = 4 // factor
        children, _ = subdivide_coords(parents, factor, BASE.with_scale(scale).dims)
        keep = rng.random(children.shape[0]) < 0.5
        lidar = grid_at(scale, children[keep], rng.normal(size=(int(keep.sum()), 2)))
        proj = seeded_projection(5, 4, seed=9)
        gather = gather_semi_fine if factor == 2 else gather_fine
        out = gather(parents, lidar, rig, maps, proj)

        centers = BASE.with_scale(scale).centers(children)
        img, n_hit = image_means_reference(centers, rig, maps)
        assert (n_hit == 0).any() and (n_hit == 2).any()
        assert not project_points(rig[1], centers)[2].any()
        lidar_feats = np.zeros((children.shape[0], 2))
        lidar_feats[keep] = lidar.features[lidar.rows_for(children[keep])[0]]
        want = SparseVoxelGrid(lidar.geometry, children, np.hstack([lidar_feats, img]) @ proj)
        assert np.array_equal(out.coords, want.coords)
        assert np.array_equal(out.features, want.features)


def aligned_sum_reference(a, b):
    """The ``rows_for`` form ``_aligned_sum`` had before ``grid.group_coords``."""
    if len(a) == 0:
        return b.with_features(b.features.copy())
    if len(b) == 0:
        return a.with_features(a.features.copy())
    coords = np.unique(np.vstack([a.coords, b.coords]), axis=0)
    feats = np.zeros((coords.shape[0], a.channels))
    for g in (a, b):
        rows, found = g.rows_for(coords)
        feats[found] += g.features[rows[found]]
    return SparseVoxelGrid(a.geometry, coords, feats)


class TestAlignedSum:
    @pytest.mark.parametrize("n_a, n_b", [(0, 0), (0, 20), (20, 0), (1, 1), (30, 30), (60, 5)])
    def test_matches_reference(self, rng, n_a, n_b):
        def grid(n):
            coords = np.unique(rng.integers(0, 8, size=(n, 3)), axis=0)
            return grid_at(2, coords, rng.normal(size=(coords.shape[0], 3)))

        a, b = grid(n_a), grid(n_b)
        got, want = _aligned_sum(a, b), aligned_sum_reference(a, b)
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.features, want.features)
        assert got.scale == 2 and got.channels == 3

    def test_rejects_another_lattice(self):
        a = SparseVoxelGrid.empty(BASE.with_scale(2), 3)
        b = SparseVoxelGrid.empty(GridGeometry((0.0, 0.0, 0.0), 0.2, (32, 32, 32), 2), 3)
        with pytest.raises(ShapeError, match="lattices"):
            _aligned_sum(a, b)


def dense_strided_conv(dense, spec):
    out = np.zeros(tuple(-(-d // 2) for d in dense.shape[:3]) + (spec.out_channels,))
    full = np.zeros(dense.shape[:3] + (spec.out_channels,))
    for co in range(spec.out_channels):
        acc = np.zeros(dense.shape[:3])
        for ci in range(spec.in_channels):
            acc += ndimage.correlate(dense[..., ci], spec.weights[..., ci, co],
                                     mode="constant", cval=0.0)
        full[..., co] = acc + spec.bias[co]
    out = full[::2, ::2, ::2]
    return out


class TestFuseRefined:
    def make_inputs(self, rng, refined_parents):
        channels = 3
        coords4 = np.unique(np.vstack([rng.integers(0, 4, size=(10, 3)), refined_parents]), axis=0)
        geom = GridGeometry((0.0, 0.0, 0.0), 0.2, (16, 16, 16))
        fm4 = SparseVoxelGrid(geom.with_scale(4), coords4,
                              rng.normal(size=(coords4.shape[0], channels)))
        fine_children, _ = subdivide_coords(refined_parents, 4, geom.dims)
        ff1 = SparseVoxelGrid(geom, fine_children,
                              rng.normal(size=(fine_children.shape[0], channels)))
        semi_children, _ = subdivide_coords(refined_parents, 2, geom.with_scale(2).dims)
        fs2 = SparseVoxelGrid(geom.with_scale(2), semi_children,
                              rng.normal(size=(semi_children.shape[0], channels)))
        s1 = SparseConvSpec.seeded(channels, channels, seed=21)
        s2 = SparseConvSpec.seeded(channels, channels, seed=22)
        return ff1, fs2, fm4, s1, s2

    def test_empty_sets_identity(self, rng):
        _, _, fm4, s1, s2 = self.make_inputs(rng, np.array([[1, 1, 1]]))
        geom = fm4.geometry
        empty1 = SparseVoxelGrid.empty(geom.with_scale(1), 3)
        empty2 = SparseVoxelGrid.empty(geom.with_scale(2), 3)
        out = fuse_refined(empty1, empty2, fm4, s1, s2)
        assert np.array_equal(out.features, fm4.features)
        np.testing.assert_array_equal(out.coords, fm4.coords)
        assert out.meta == {"dropped_refined": 0}

    def test_zero_weights_identity(self, rng):
        ff1, fs2, fm4, _, _ = self.make_inputs(rng, np.array([[1, 1, 1], [2, 2, 2]]))
        z1 = SparseConvSpec(np.zeros((3, 3, 3, 3, 3)), np.zeros(3))
        z2 = SparseConvSpec(np.zeros((3, 3, 3, 3, 3)), np.zeros(3))
        out = fuse_refined(ff1, fs2, fm4, z1, z2)
        assert np.array_equal(out.features, fm4.features)

    def test_output_coordinate_set_is_coarse_set(self, rng):
        ff1, fs2, fm4, s1, s2 = self.make_inputs(rng, np.array([[1, 1, 1]]))
        out = fuse_refined(ff1, fs2, fm4, s1, s2)
        np.testing.assert_array_equal(out.coords, fm4.coords)

    def test_matches_dense_oracle(self, rng):
        refined = np.array([[1, 1, 1], [2, 1, 0]])
        ff1, fs2, fm4, s1, s2 = self.make_inputs(rng, refined)
        out = fuse_refined(ff1, fs2, fm4, s1, s2)

        mid_dense = dense_strided_conv(dense_view(ff1), s1)
        # restrict to the sparse branch's declared set before the union-sum
        mask_mid = np.zeros(mid_dense.shape[:3], dtype=bool)
        mask_mid[tuple(np.unique(ff1.coords // 2, axis=0).T)] = True
        mid_dense[~mask_mid] = 0.0
        mid_dense += dense_view(fs2)
        union = np.unique(np.vstack([np.unique(ff1.coords // 2, axis=0), fs2.coords]), axis=0)
        keep = np.zeros(mid_dense.shape[:3], dtype=bool)
        keep[tuple(union.T)] = True
        mid_dense[~keep] = 0.0

        coarse_dense = dense_strided_conv(mid_dense, s2)
        mask4 = np.zeros(coarse_dense.shape[:3], dtype=bool)
        mask4[tuple((union // 2).T)] = True
        coarse_dense[~mask4] = 0.0

        expect = fm4.features + coarse_dense[tuple(fm4.coords.T)]
        np.testing.assert_allclose(out.features, expect, atol=1e-5)

    def test_semi_only_path(self, rng):
        _, fs2, fm4, s1, s2 = self.make_inputs(rng, np.array([[1, 1, 1]]))
        empty1 = SparseVoxelGrid.empty(fm4.geometry.with_scale(1), 3)
        out = fuse_refined(empty1, fs2, fm4, s1, s2)
        # the refined parent's row changed, all others untouched
        rows, found = fm4.rows_for(np.array([[1, 1, 1]]))
        assert found[0]
        row = rows[0]
        others = np.ones(len(fm4), dtype=bool)
        others[row] = False
        assert not np.allclose(out.features[row], fm4.features[row])
        np.testing.assert_array_equal(out.features[others], fm4.features[others])

    def test_empty_fine_set_adds_the_semi_fine_conv(self, rng):
        """An empty fine set leaves ``sparse_conv(fs2, sconv2, stride=2)`` added
        at the rows it finds, bit for bit, though the general path sums fs2
        onto +0.0 (which turns its -0.0 entries into +0.0) and convolves that."""
        _, fs2, fm4, s1, s2 = self.make_inputs(rng, np.array([[1, 1, 1], [2, 1, 0], [3, 3, 3]]))
        feats = fs2.features.copy()
        feats[::3, 1] = -0.0
        fs2 = fs2.with_features(feats)
        empty1 = SparseVoxelGrid.empty(fm4.geometry.with_scale(1), 3)
        out = fuse_refined(empty1, fs2, fm4, s1, s2)
        coarse = sparse_conv(fs2, s2, stride=2)
        rows, found = fm4.rows_for(coarse.coords)
        expect = fm4.features.copy()
        expect[rows[found]] += coarse.features[found]
        assert np.array_equal(out.features.view(np.int64), expect.view(np.int64))
        np.testing.assert_array_equal(out.coords, fm4.coords)
        assert out.meta == {"dropped_refined": int((~found).sum())}

    def test_scale_mismatch_rejected(self, rng):
        ff1, fs2, fm4, s1, s2 = self.make_inputs(rng, np.array([[1, 1, 1]]))
        with pytest.raises(ShapeError):
            fuse_refined(fs2, fs2, fm4, s1, s2)


class TestOracleScorer:
    def test_occupied_fraction_exact(self):
        parents = np.array([[0, 0, 0], [1, 0, 0]])
        # 3 occupied children under the first parent, none under the second
        occ = np.array([[0, 0, 0], [1, 2, 3], [3, 3, 3]])
        frac = occupied_fraction(parents, occ)
        np.testing.assert_allclose(frac, [3 / 64, 0.0])

    def test_full_parent(self):
        parents = np.array([[2, 2, 2]])
        occ, _ = subdivide_coords(parents, 4, BASE.dims)
        np.testing.assert_allclose(occupied_fraction(parents, occ), [1.0])

    def test_empty_occupied(self):
        parents = np.array([[0, 0, 0]])
        np.testing.assert_allclose(occupied_fraction(parents, np.zeros((0, 3))), [0.0])

    def test_foreground_focus_ordering(self, rng):
        # parents with high child occupancy should be picked for refinement
        parents = np.unique(rng.integers(0, 8, size=(40, 3)), axis=0)
        n = parents.shape[0]
        fractions = rng.uniform(size=n)
        occupied = []
        for p, target in zip(parents, fractions):
            kids, _ = subdivide_coords(p[None, :], 4, BASE.dims)
            k = int(round(target * 64))
            if k:
                occupied.append(kids[rng.choice(64, size=k, replace=False)])
        occ = np.vstack(occupied)
        fm = grid_at(4, parents, np.zeros((n, 1)))
        scores = occupied_fraction(fm.coords, occ)
        sets = select_sets(ImportanceMap(fm, scores), 0.4, 0.7)
        frac_all = occupied_fraction(fm.coords, occ)
        semi = {tuple(c) for c in sets.semi_fine}
        fine = {tuple(c) for c in sets.fine}
        coarse_mask = np.array([tuple(c) not in semi for c in fm.coords])
        fg_coarse = frac_all[coarse_mask].mean()
        fg_semi = occupied_fraction(sets.semi_fine, occ).mean()
        fg_fine = occupied_fraction(sets.fine, occ).mean()
        assert fg_fine > fg_semi > fg_coarse


class TestSigmoid:
    def test_symmetry_and_range(self, rng):
        x = rng.normal(scale=10, size=100)
        s = sigmoid(x)
        assert ((s > 0) & (s < 1)).all()
        np.testing.assert_allclose(s + sigmoid(-x), 1.0, atol=1e-12)

    def test_extreme_values_stable(self):
        assert sigmoid(np.array([1e4]))[0] == 1.0
        assert sigmoid(np.array([-1e4]))[0] == 0.0

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfuse.camera import CameraModel, back_project
from voxfuse.errors import ParseError, ShapeError
from voxfuse.grid import GridGeometry, SparseVoxelGrid, VoxelIndex
from voxfuse.lidar import PointCloud
from voxfuse.occlusion import (
    BACKGROUND_ROW,
    OcclusionLabel,
    OcclusionVolume,
    _length,
    _traverse_arrays,
    _walk,
    assemble_output,
    build_volume,
    combine,
    combine_volumes,
    decoder_input_set,
    dense_from_sparse_labels,
    downsample_occlusion,
    downsample_semantics,
    label_camera,
    label_lidar,
    read_kitti_bitmask,
    read_kitti_label_volume,
    read_nuscenes_occupancy,
    read_volume,
    traverse,
    write_volume,
)

E, N, O = OcclusionLabel.EMPTY, OcclusionLabel.NON_OCCLUDED, OcclusionLabel.OCCLUDED

GEOM16 = GridGeometry((0.0, 0.0, 0.0), 0.2, (16, 16, 16))
GEOM32 = GridGeometry((0.0, 0.0, 0.0), 0.2, (32, 32, 32))
# off-origin, uneven dims, and a cell size whose faces are exact in binary
GEOM_ODD = GridGeometry((-1.0, 0.5, -0.75), 0.25, (8, 12, 6))


def center(cell, geom=GEOM16):
    return geom.origin_array + (np.asarray(cell, dtype=np.float64) + 0.5) * geom.cell_size


def oracle_traverse(origin, target, geom, margin=0.0):
    """Slab-test every cell in the segment's bounding box; order by entry t."""
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(target, dtype=np.float64) - o
    seg = np.linalg.norm(d)
    dirn = d / seg
    t_end = seg + margin
    end = o + dirn * t_end
    lo = geom.origin_array
    h = geom.cell_size
    dims = np.asarray(geom.dims)
    cmin = np.maximum(0, np.floor((np.minimum(o, end) - lo) / h).astype(int) - 1)
    cmax = np.minimum(dims - 1, np.floor((np.maximum(o, end) - lo) / h).astype(int) + 1)
    if (cmin > cmax).any():
        return np.zeros((0, 3), dtype=np.int64)
    grids = np.meshgrid(*(np.arange(cmin[i], cmax[i] + 1) for i in range(3)), indexing="ij")
    cells = np.stack([g.reshape(-1) for g in grids], axis=1)
    box_lo = lo + cells * h
    box_hi = box_lo + h
    t_in = np.zeros(cells.shape[0])
    t_out = np.full(cells.shape[0], t_end)
    for i in range(3):
        if abs(dirn[i]) < 1e-15:
            inside = (box_lo[:, i] <= o[i]) & (o[i] < box_hi[:, i])
            t_out[~inside] = -np.inf
        else:
            ta = (box_lo[:, i] - o[i]) / dirn[i]
            tb = (box_hi[:, i] - o[i]) / dirn[i]
            lo_t, hi_t = np.minimum(ta, tb), np.maximum(ta, tb)
            t_in = np.maximum(t_in, lo_t)
            t_out = np.minimum(t_out, hi_t)
    keep = t_out - t_in > 1e-12
    cells = cells[keep]
    order = np.argsort(t_in[keep], kind="stable")
    return cells[order].astype(np.int64)


class TestTraverse:
    def test_axis_ray_through_centers(self):
        cells = traverse(center((0, 0, 0)), center((5, 0, 0)), GEOM16)
        assert [c.xyz for c in cells] == [(x, 0, 0) for x in range(6)]
        assert all(c.scale == 1 for c in cells)

    def test_each_cell_once(self, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 3.2, size=3)
            b = rng.uniform(0.0, 3.2, size=3)
            cells = [c.xyz for c in traverse(a, b, GEOM16)]
            assert len(cells) == len(set(cells))

    def test_origin_outside_starts_at_entry(self):
        cells = traverse((-1.0, 0.1, 0.1), (0.5, 0.1, 0.1), GEOM16)
        assert cells[0].xyz == (0, 0, 0)

    def test_miss_returns_empty(self):
        assert traverse((-1.0, -1.0, 0.1), (-0.5, -2.0, 0.1), GEOM16) == []

    def test_margin_extends_past_target(self):
        a, b = center((0, 0, 0)), center((2, 0, 0))
        short = traverse(a, b, GEOM16)
        extended = traverse(a, b, GEOM16, margin=1.0)
        assert len(extended) > len(short)
        assert [c.xyz for c in extended[:len(short)]] == [c.xyz for c in short]

    def test_degenerate_segment(self):
        cells = traverse(center((3, 3, 3)), center((3, 3, 3)), GEOM16)
        assert [c.xyz for c in cells] == [(3, 3, 3)]

    @pytest.mark.parametrize("tiny", [1e-310, -1e-310])
    def test_subnormal_component_walks_silently(self, tiny):
        # y = 0 is mid-cell, so a subnormal y step survives the subtraction
        geom = GridGeometry((0.0, -0.1, 0.0), 0.2, (16, 16, 16))
        o = np.array([0.05, 0.0, 0.45])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = traverse(o, o + [3.0, tiny, 0.0], geom)
        # the tiny component never wins a step, so the walk stays on its row
        assert [c.xyz for c in cells] == [(x, 0, 2) for x in range(16)]

    def test_matches_oracle_random_rays(self, rng):
        for _ in range(500):
            a = rng.uniform(-1.0, 7.4, size=3)
            b = rng.uniform(-1.0, 7.4, size=3)
            if np.linalg.norm(b - a) < 1e-6:
                continue
            got, _ = _traverse_arrays(a, b, GEOM32)
            want = oracle_traverse(a, b, GEOM32)
            np.testing.assert_array_equal(got, want)

    def test_matches_oracle_with_margin(self, rng):
        for _ in range(100):
            a = rng.uniform(0.0, 6.4, size=3)
            b = rng.uniform(0.0, 6.4, size=3)
            if np.linalg.norm(b - a) < 1e-6:
                continue
            got, _ = _traverse_arrays(a, b, GEOM32, margin=2.0)
            want = oracle_traverse(a, b, GEOM32, margin=2.0)
            np.testing.assert_array_equal(got, want)

    def test_entry_parameters_increase(self, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 3.2, size=3)
            b = rng.uniform(0.0, 3.2, size=3)
            if np.linalg.norm(b - a) < 1e-6:
                continue
            _, ts = _traverse_arrays(a, b, GEOM16)
            assert (np.diff(ts) > 0).all()


def _coordinate(geom, axis):
    """A generic coordinate near the grid, or one exactly on a cell face."""
    lo = float(geom.origin_array[axis])
    n = geom.dims[axis]
    h = geom.cell_size
    return (st.floats(lo - 1.0, lo + n * h + 1.0, allow_nan=False)
            | st.integers(-3, n + 3).map(lambda k: lo + k * h))


@st.composite
def ray_batches(draw):
    """Segments covering axis-parallel, near-parallel, face-start, outside,
    missing and zero-length rays, plus a margin."""
    geom = draw(st.sampled_from([GEOM16, GEOM_ODD]))
    component = (st.sampled_from([0.0, 1e-17, -1e-17])
                 | st.floats(-3.0, 3.0, allow_nan=False))
    origins, targets = [], []
    for _ in range(draw(st.integers(1, 25))):
        o = np.array([draw(_coordinate(geom, i)) for i in range(3)])
        d = np.array([draw(component) for _ in range(3)])
        origins.append(o)
        targets.append(o + d)
    margin = draw(st.sampled_from([0.0, 0.3, geom.diagonal]) | st.floats(0.0, 2.0))
    return geom, np.array(origins), np.array(targets), margin


class TestBatchedWalk:
    """The lockstep walk against one scalar walk per ray."""

    @settings(max_examples=200, deadline=None)
    @given(ray_batches())
    def test_rows_equal_scalar_walk(self, batch):
        geom, origins, targets, margin = batch
        rows = {}
        for ids, cells, t_entry in _walk(origins, targets, geom, margin):
            assert len(set(ids.tolist())) == ids.size
            for i, c, t in zip(ids.tolist(), cells, t_entry):
                rows.setdefault(i, ([], []))
                rows[i][0].append(c)
                rows[i][1].append(t)
        for i, (o, t) in enumerate(zip(origins, targets)):
            coords, entries = _traverse_arrays(o, t, geom, margin)
            cells, got = rows.pop(i, ([], []))
            want_cells = np.ravel_multi_index(tuple(coords.T), geom.dims)
            np.testing.assert_array_equal(cells, want_cells)
            # bit for bit, signed zeros included
            np.testing.assert_array_equal(np.array(got, dtype=np.float64).view(np.int64),
                                          entries.view(np.int64))
        assert not rows

    def test_no_rays(self):
        assert list(_walk(np.zeros((0, 3)), np.zeros((0, 3)), GEOM16)) == []

    def test_length_matches_norm_to_rounding(self, rng):
        d = rng.normal(size=(200, 3))
        np.testing.assert_allclose(_length(d), np.linalg.norm(d, axis=1), rtol=1e-15)
        assert float(_length(d[0])) == _length(d)[0]


def loop_label_lidar(pc, semantics, geom, margin=None):
    """Reference: one scalar walk per return, scattered into a priority volume."""
    if margin is None:
        margin = geom.diagonal
    prio = np.zeros(geom.dims, dtype=np.uint8)
    lo = geom.origin_array
    h = geom.cell_size
    dims = np.asarray(geom.dims)
    origin = pc.sensor_origin
    for p in pc.points:
        coords, entries = _traverse_arrays(origin, p, geom, margin)
        if coords.shape[0] == 0:
            continue
        t_point = float(_length(p - origin))
        cell_pt = np.floor((p - lo) / h).astype(np.int64)
        if (cell_pt >= 0).all() and (cell_pt < dims).all():
            c = tuple(cell_pt)
            if prio[c] < 2:
                prio[c] = 2
        beyond = entries > t_point + 1e-9
        if beyond.any():
            bc = coords[beyond]
            occupied = semantics[bc[:, 0], bc[:, 1], bc[:, 2]] > 0
            bc = bc[occupied]
            if bc.shape[0]:
                np.maximum.at(prio, (bc[:, 0], bc[:, 1], bc[:, 2]), np.uint8(1))
    return np.array([0, 2, 1], dtype=np.uint8)[prio]


def loop_label_camera(rig, semantics, geom, pixel_stride=4):
    """Reference: one back-projected pixel and one scalar walk at a time."""
    prio = np.zeros(geom.dims, dtype=np.uint8)
    lo = geom.origin_array
    span = np.asarray(geom.dims) * geom.cell_size
    corners = lo + span * np.stack(np.meshgrid([0, 1], [0, 1], [0, 1],
                                               indexing="ij"), axis=-1).reshape(-1, 3)
    for cam in rig:
        r = cam.extrinsics[:3, :3]
        eye = -r.T @ cam.extrinsics[:3, 3]
        reach = float(np.linalg.norm(corners - eye, axis=1).max()) + geom.cell_size
        w, h_img = cam.image_size
        for v in range(0, h_img, pixel_stride):
            for u in range(0, w, pixel_stride):
                direction = back_project(cam, float(u), float(v), 1.0) - eye
                direction /= _length(direction)
                coords, _ = _traverse_arrays(eye, eye + direction * reach, geom)
                if coords.shape[0] == 0:
                    continue
                occ = semantics[coords[:, 0], coords[:, 1], coords[:, 2]] > 0
                hits = np.flatnonzero(occ)
                if hits.size == 0:
                    continue
                first = tuple(coords[hits[0]])
                if prio[first] < 2:
                    prio[first] = 2
                rest = coords[hits[1:]]
                if rest.shape[0]:
                    np.maximum.at(prio, (rest[:, 0], rest[:, 1], rest[:, 2]), np.uint8(1))
    return np.array([0, 2, 1], dtype=np.uint8)[prio]


def random_labelling_scene(geom, seed):
    """Sparse random occupancy, returns around and beyond the grid, and a rig
    mixing an axis-aligned camera on a cell corner with free-standing ones."""
    rng = np.random.default_rng(seed)
    sem = (rng.uniform(size=geom.dims) < 0.12) * rng.integers(1, 5, size=geom.dims)
    lo = geom.origin_array
    span = np.asarray(geom.dims) * geom.cell_size
    sensor = lo + span * rng.uniform(0.3, 0.7, size=3)
    pts = lo + span * rng.uniform(-0.2, 1.2, size=(150, 3))
    faces = lo + geom.cell_size * rng.integers(0, geom.dims[0], size=(20, 3))
    pts = np.concatenate([pts, faces, [sensor]])
    pc = PointCloud(pts, np.ones(len(pts)), sensor_origin=sensor)
    corner = lo + geom.cell_size * (np.asarray(geom.dims) // 2)
    rig = [CameraModel.from_lookat(corner, corner + [1.0, 0.0, 0.0],
                                   8.0, 8.0, 7.5, 5.5, (16, 12))]
    for eye in (sensor, lo - 0.5 * span):
        target = lo + span * rng.uniform(0.3, 0.7, size=3)
        rig.append(CameraModel.from_lookat(eye, target, 10.0, 9.0, 8.0, 6.0, (16, 12)))
    return sem, pc, rig


class TestLabelsMatchPerRayLoops:
    @pytest.mark.parametrize("geom", [GEOM16, GEOM32], ids=["16", "32"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_label_lidar(self, geom, seed):
        sem, pc, _ = random_labelling_scene(geom, seed)
        got = label_lidar(pc, sem, geom)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, loop_label_lidar(pc, sem, geom))
        np.testing.assert_array_equal(label_lidar(pc, sem, geom, margin=0.0),
                                      loop_label_lidar(pc, sem, geom, margin=0.0))

    @pytest.mark.parametrize("geom", [GEOM16, GEOM32], ids=["16", "32"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    def test_label_camera(self, geom, stride):
        sem, _, rig = random_labelling_scene(geom, stride)
        got = label_camera(rig, sem, geom, pixel_stride=stride)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, loop_label_camera(rig, sem, geom, stride))


class TestLabelLidar:
    def test_single_point_nothing_behind(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        sem[5, 8, 8] = 1
        pc = PointCloud([center((5, 8, 8))], [1.0], sensor_origin=center((0, 8, 8)))
        labels = label_lidar(pc, sem, GEOM16)
        assert labels[5, 8, 8] == N
        assert (labels == E).sum() == labels.size - 1

    def test_wall_behind_wall(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        sem[5, 8, 8] = 1
        sem[7, 8, 8] = 2
        pc = PointCloud([center((5, 8, 8))], [1.0], sensor_origin=center((0, 8, 8)))
        labels = label_lidar(pc, sem, GEOM16)
        assert labels[5, 8, 8] == N
        assert labels[7, 8, 8] == O

    def test_free_space_before_hit_stays_empty(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        sem[5, 8, 8] = 1
        pc = PointCloud([center((5, 8, 8))], [1.0], sensor_origin=center((0, 8, 8)))
        labels = label_lidar(pc, sem, GEOM16)
        for x in range(5):
            assert labels[x, 8, 8] == E

    def test_priority_merge_nonoccluded_wins(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        sem[5, 8, 8] = 1
        sem[9, 8, 8] = 1
        # first ray occludes (9,8,8); second ray hits it directly
        pc = PointCloud([center((5, 8, 8)), center((9, 8, 8))], [1.0, 1.0],
                        sensor_origin=center((0, 8, 8)))
        labels = label_lidar(pc, sem, GEOM16)
        assert labels[9, 8, 8] == N

    def test_every_point_voxel_nonoccluded(self, rng):
        sem = (rng.uniform(size=GEOM16.dims) < 0.2).astype(np.uint16)
        pts = rng.uniform(0.05, 3.15, size=(40, 3))
        pc = PointCloud(pts, np.ones(40), sensor_origin=(0.01, 0.01, 0.01))
        labels = label_lidar(pc, sem, GEOM16)
        for p in pts:
            cell = tuple(GEOM16.world_to_index(p.reshape(1, 3))[0])
            assert labels[cell] == N

    def test_occluded_lies_beyond_the_hit(self):
        sem = np.ones(GEOM16.dims, dtype=np.uint16)
        origin = center((0, 8, 8))
        target = center((6, 9, 7))
        pc = PointCloud([target], [1.0], sensor_origin=origin)
        labels = label_lidar(pc, sem, GEOM16)
        coords, ts = _traverse_arrays(origin, target, GEOM16, margin=GEOM16.diagonal)
        t_point = np.linalg.norm(target - origin)
        occluded = np.argwhere(labels == O)
        visited = {tuple(c): t for c, t in zip(coords, ts)}
        for cell in occluded:
            assert visited[tuple(cell)] > t_point

    def test_return_whose_ray_crosses_no_cell_marks_nothing(self):
        # the segment only touches the grid at its corner, where the return lies
        sem = np.ones(GEOM16.dims, dtype=np.uint16)
        pc = PointCloud([[0.0, 0.0, 0.0]], [1.0], sensor_origin=(-1.0, -1.0, -1.0))
        assert (label_lidar(pc, sem, GEOM16, margin=0.0) == E).all()
        assert label_lidar(pc, sem, GEOM16)[0, 0, 0] == N

    def test_point_outside_grid_marks_nothing_nonoccluded(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        pc = PointCloud([[10.0, 1.7, 1.7]], [1.0], sensor_origin=center((0, 8, 8)))
        labels = label_lidar(pc, sem, GEOM16)
        assert (labels == E).all()


class TestLabelCamera:
    def make_cam(self):
        return CameraModel.from_lookat(center((0, 8, 8)), center((15, 8, 8)),
                                       20.0, 20.0, 8.0, 8.0, (16, 16))

    def test_wall_and_behind(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        sem[5, 8, 8] = 1
        sem[9, 8, 8] = 2
        labels = label_camera([self.make_cam()], sem, GEOM16, pixel_stride=1)
        assert labels[5, 8, 8] == N
        assert labels[9, 8, 8] == O

    def test_no_gt_on_ray_all_empty(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        labels = label_camera([self.make_cam()], sem, GEOM16, pixel_stride=1)
        assert (labels == E).all()

    def test_outside_frustum_stays_empty(self):
        sem = np.zeros(GEOM16.dims, dtype=np.uint16)
        sem[5, 8, 8] = 1   # in front
        sem[0, 0, 0] = 1   # far off-axis corner, behind/outside the frustum
        cam = CameraModel.from_lookat(center((0, 8, 8)), center((15, 8, 8)),
                                      40.0, 40.0, 8.0, 8.0, (16, 16))
        labels = label_camera([cam], sem, GEOM16, pixel_stride=1)
        assert labels[5, 8, 8] == N
        assert labels[0, 0, 0] == E

    def test_empty_rig_rejected(self):
        with pytest.raises(ValueError):
            label_camera([], np.zeros(GEOM16.dims, dtype=np.uint16), GEOM16)


class TestCombine:
    def test_full_truth_table(self):
        table = {
            (E, E): E, (E, N): N, (E, O): E,
            (N, E): N, (N, N): N, (N, O): N,
            (O, E): E, (O, N): N, (O, O): O,
        }
        for (a, b), want in table.items():
            assert combine(a, b) == want, (a, b)

    def test_array_matches_scalar(self, rng):
        a = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
        b = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
        merged = combine_volumes(a, b)
        for idx in np.ndindex(4, 4, 4):
            assert merged[idx] == combine(int(a[idx]), int(b[idx]))

    def test_nonoccluded_rows_commute(self):
        for other in (E, N, O):
            assert combine(N, other) == combine(other, N) == N
        assert combine(O, O) == O


class TestVolume:
    def test_gt_empty_never_visible(self, rng):
        geom = GridGeometry((0, 0, 0), 0.2, (4, 4, 4))
        sem = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint16)
        lidar = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
        cam = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
        vol = build_volume(sem, lidar, cam, geom)
        assert (vol.occlusion[sem == 0] == E).all()

    def test_invariant_enforced_on_construction(self):
        geom = GridGeometry((0, 0, 0), 0.2, (2, 2, 2))
        sem = np.zeros((2, 2, 2), dtype=np.uint16)
        occ = np.zeros((2, 2, 2), dtype=np.uint8)
        occ[0, 0, 0] = N
        with pytest.raises(ValueError):
            OcclusionVolume(geom, sem, occ)

    def test_assemble_21_channels(self, rng):
        sem = rng.normal(size=(4, 4, 2, 18))
        occ = rng.normal(size=(4, 4, 2, 3))
        out = assemble_output(sem, occ)
        assert out.shape == (4, 4, 2, 21)
        np.testing.assert_array_equal(out[..., :18], sem)
        np.testing.assert_array_equal(out[..., 18:], occ)

    def test_assemble_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            assemble_output(rng.normal(size=(2, 2, 2, 17)), rng.normal(size=(2, 2, 2, 3)))
        with pytest.raises(ShapeError):
            assemble_output(rng.normal(size=(2, 2, 2, 18)), rng.normal(size=(2, 2, 2, 4)))

    def test_decoder_set_empty_when_argmax_empty(self):
        geom = GridGeometry((0, 0, 0), 0.2, (3, 3, 3))
        out = SparseVoxelGrid(geom, [(0, 0, 0), (1, 2, 0)], np.zeros((2, 21)))
        assert decoder_input_set(out).coords.shape == (0, 3)

    def test_decoder_set_picks_visible(self):
        geom = GridGeometry((0, 0, 0), 0.2, (3, 3, 3))
        rows = np.zeros((3, 21))
        rows[0, 18 + N] = 5.0
        rows[1, 18 + O] = 3.0
        out = SparseVoxelGrid(geom, [(1, 2, 0), (2, 2, 2), (0, 1, 1)], rows)
        got = decoder_input_set(out).coords
        assert {tuple(c) for c in got} == {(1, 2, 0), (2, 2, 2)}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decoder_set_equals_dense_argwhere(self, data):
        dims = tuple(data.draw(st.integers(1, 5), label=f"d{i}") for i in range(3))
        geom = GridGeometry((0, 0, 0), 0.2, dims)
        cells = np.argwhere(np.ones(dims, dtype=bool))
        n = data.draw(st.integers(0, len(cells)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        coords = cells[rng.permutation(len(cells))[:n]]
        rows = rng.normal(size=(n, 21))
        # rows tied at zero: argmax picks the empty channel, as the background row does
        rows[rng.random(n) < 0.2, 18:] = 0.0
        grid = SparseVoxelGrid(geom, coords, rows)
        dense = grid.to_dense(BACKGROUND_ROW)
        want = np.argwhere(np.argmax(dense[..., 18:], axis=-1) != E)
        got = decoder_input_set(grid)
        assert np.array_equal(got.coords, want)
        assert np.array_equal(got.features, dense[tuple(want.T)])

    def test_decoder_set_rejects_other_widths(self):
        grid = SparseVoxelGrid(GridGeometry((0, 0, 0), 0.2, (2, 2, 2)), [(0, 0, 0)],
                               np.zeros((1, 20)))
        with pytest.raises(ShapeError):
            decoder_input_set(grid)


class TestDownsample:
    def test_semantics_majority_among_occupied(self):
        sem = np.zeros((2, 2, 2), dtype=np.uint16)
        sem[0, 0, 0] = 3
        sem[0, 0, 1] = 3
        sem[0, 1, 0] = 5
        out = downsample_semantics(sem, 2)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 3

    def test_semantics_all_empty_block(self):
        assert downsample_semantics(np.zeros((2, 2, 2), dtype=np.uint16), 2)[0, 0, 0] == 0

    def test_semantics_tie_resolves_to_smaller_id(self):
        sem = np.zeros((2, 2, 2), dtype=np.uint16)
        sem[0, 0, 0] = 4
        sem[1, 1, 1] = 2
        assert downsample_semantics(sem, 2)[0, 0, 0] == 2

    def test_occlusion_priority(self):
        occ = np.zeros((2, 2, 2), dtype=np.uint8)
        occ[0, 0, 0] = O
        assert downsample_occlusion(occ, 2)[0, 0, 0] == O
        occ[1, 1, 1] = N
        assert downsample_occlusion(occ, 2)[0, 0, 0] == N

    def test_factor4_block_shape(self, rng):
        occ = rng.integers(0, 3, size=(8, 8, 8)).astype(np.uint8)
        assert downsample_occlusion(occ, 4).shape == (2, 2, 2)


class TestVolumeIO:
    def test_uint8_roundtrip(self, tmp_path, rng):
        geom = GridGeometry((-1.0, 0.0, 0.5), 0.25, (8, 4, 4), scale=4)
        vol = rng.integers(0, 3, size=geom.dims).astype(np.uint8)
        path = tmp_path / "occ.bin"
        write_volume(path, vol, geom)
        back, geom2 = read_volume(path)
        np.testing.assert_array_equal(back, vol)
        assert geom2.dims == geom.dims
        assert geom2.scale == 4
        assert geom2.origin == geom.origin

    def test_uint16_roundtrip(self, tmp_path, rng):
        geom = GridGeometry((0, 0, 0), 0.2, (4, 4, 4))
        vol = rng.integers(0, 18, size=geom.dims).astype(np.uint16)
        path = tmp_path / "sem.bin"
        write_volume(path, vol, geom)
        back, _ = read_volume(path)
        np.testing.assert_array_equal(back, vol)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.bin"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(ParseError):
            read_volume(path)

    def test_kitti_label_volume(self, tmp_path, rng):
        vol = rng.integers(0, 20, size=(4, 4, 2)).astype("<u2")
        path = tmp_path / "000000.label"
        vol.tofile(path)
        back = read_kitti_label_volume(path, dims=(4, 4, 2))
        np.testing.assert_array_equal(back, vol)

    def test_kitti_label_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.label"
        np.zeros(7, dtype="<u2").tofile(path)
        with pytest.raises(ParseError):
            read_kitti_label_volume(path, dims=(2, 2, 2))

    def test_kitti_bitmask_msb_first(self, tmp_path):
        path = tmp_path / "000000.invalid"
        path.write_bytes(bytes([0b10000000]))
        mask = read_kitti_bitmask(path, dims=(2, 2, 2))
        assert mask.reshape(-1).tolist() == [True] + [False] * 7

    def test_kitti_bitmask_roundtrip(self, tmp_path, rng):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        path = tmp_path / "m.occluded"
        np.packbits(bits).tofile(path)
        mask = read_kitti_bitmask(path, dims=(4, 4, 4))
        np.testing.assert_array_equal(mask.reshape(-1), bits.astype(bool))

    def test_nuscenes_sparse_rows(self, tmp_path, rng):
        rows = np.column_stack([rng.integers(0, 100, size=(30, 3)),
                                rng.integers(1, 18, size=30)]).astype(np.int32)
        path = tmp_path / "occupancy.npy"
        np.save(path, rows)
        coords, labels = read_nuscenes_occupancy(path)
        np.testing.assert_array_equal(coords, rows[:, :3])
        np.testing.assert_array_equal(labels, rows[:, 3])

    def test_nuscenes_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((5, 3)))
        with pytest.raises(ParseError):
            read_nuscenes_occupancy(path)

    def test_dense_from_sparse(self):
        geom = GridGeometry((0, 0, 0), 0.2, (4, 4, 4))
        dense = dense_from_sparse_labels([[1, 2, 3], [0, 0, 0]], [7, 2], geom)
        assert dense[1, 2, 3] == 7
        assert dense[0, 0, 0] == 2
        assert dense.sum() == 9

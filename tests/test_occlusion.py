import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfuse import occlusion
from voxfuse.camera import CameraModel, read_kitti_calib
from voxfuse.errors import ParseError, ShapeError
from voxfuse.grid import VALID_SCALES, GridGeometry, SparseVoxelGrid
from voxfuse.lidar import PointCloud
from voxfuse.occlusion import (
    BACKGROUND_ROW,
    OcclusionLabel,
    OcclusionVolume,
    _length,
    _walk,
    assemble_output,
    build_volume,
    combine_volumes,
    decoder_input_set,
    label_camera,
    label_lidar,
    read_kitti_bitmask,
    read_kitti_label_volume,
    read_volume,
    write_volume,
)

from oracles import back_project, dense_view, exact_walk, slab_oracle, traverse_arrays

E, N, O = OcclusionLabel.EMPTY, OcclusionLabel.NON_OCCLUDED, OcclusionLabel.OCCLUDED

GEOM16 = GridGeometry((0.0, 0.0, 0.0), 0.2, (16, 16, 16))
GEOM32 = GridGeometry((0.0, 0.0, 0.0), 0.2, (32, 32, 32))
# off-origin, uneven dims, and a cell size whose faces are exact in binary
GEOM_ODD = GridGeometry((-1.0, 0.5, -0.75), 0.25, (8, 12, 6))


def center(cell, geom=GEOM16):
    return geom.origin_array + (np.asarray(cell, dtype=np.float64) + 0.5) * geom.cell_size


class TestTraverse:
    def test_axis_ray_through_centers(self):
        cells, _ = traverse_arrays(center((0, 0, 0)), center((5, 0, 0)), GEOM16)
        assert cells.dtype == np.int64
        assert cells.tolist() == [[x, 0, 0] for x in range(6)]

    def test_each_cell_once(self, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 3.2, size=3)
            b = rng.uniform(0.0, 3.2, size=3)
            cells = [tuple(c) for c in traverse_arrays(a, b, GEOM16)[0].tolist()]
            assert len(cells) == len(set(cells))

    def test_origin_outside_starts_at_entry(self):
        cells, ts = traverse_arrays((-1.0, 0.1, 0.1), (0.5, 0.1, 0.1), GEOM16)
        assert cells[0].tolist() == [0, 0, 0]
        # the walk enters at the grid face, 1 m along the ray
        assert ts[0] == pytest.approx(1.0)

    def test_miss_returns_empty(self):
        cells, ts = traverse_arrays((-1.0, -1.0, 0.1), (-0.5, -2.0, 0.1), GEOM16)
        assert cells.shape == (0, 3) and ts.shape == (0,)

    def test_margin_extends_past_target(self):
        a, b = center((0, 0, 0)), center((2, 0, 0))
        short, _ = traverse_arrays(a, b, GEOM16)
        extended, _ = traverse_arrays(a, b, GEOM16, margin=1.0)
        assert len(extended) > len(short)
        np.testing.assert_array_equal(extended[:len(short)], short)

    def test_degenerate_segment(self):
        cells, ts = traverse_arrays(center((3, 3, 3)), center((3, 3, 3)), GEOM16)
        assert cells.tolist() == [[3, 3, 3]]
        assert ts.tolist() == [0.0]

    @pytest.mark.parametrize("tiny", [1e-310, -1e-310])
    def test_subnormal_component_walks_silently(self, tiny):
        # y = 0 is mid-cell, so a subnormal y step survives the subtraction
        geom = GridGeometry((0.0, -0.1, 0.0), 0.2, (16, 16, 16))
        o = np.array([0.05, 0.0, 0.45])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells, _ = traverse_arrays(o, o + [3.0, tiny, 0.0], geom)
        # the tiny component never wins a step, so the walk stays on its row
        assert cells.tolist() == [[x, 0, 2] for x in range(16)]

    def test_matches_oracle_random_rays(self, rng):
        for _ in range(500):
            a = rng.uniform(-1.0, 7.4, size=3)
            b = rng.uniform(-1.0, 7.4, size=3)
            if np.linalg.norm(b - a) < 1e-6:
                continue
            got, _ = traverse_arrays(a, b, GEOM32)
            want = slab_oracle(a, b, GEOM32)
            np.testing.assert_array_equal(got, want)

    def test_matches_oracle_with_margin(self, rng):
        for _ in range(100):
            a = rng.uniform(0.0, 6.4, size=3)
            b = rng.uniform(0.0, 6.4, size=3)
            if np.linalg.norm(b - a) < 1e-6:
                continue
            got, _ = traverse_arrays(a, b, GEOM32, margin=2.0)
            want = slab_oracle(a, b, GEOM32, margin=2.0)
            np.testing.assert_array_equal(got, want)

    def test_entry_parameters_increase(self, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 3.2, size=3)
            b = rng.uniform(0.0, 3.2, size=3)
            if np.linalg.norm(b - a) < 1e-6:
                continue
            _, ts = traverse_arrays(a, b, GEOM16)
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
            coords, entries = traverse_arrays(o, t, geom, margin)
            cells, got = rows.pop(i, ([], []))
            want_cells = np.ravel_multi_index(tuple(coords.T), geom.dims)
            np.testing.assert_array_equal(cells, want_cells)
            # bit for bit, signed zeros included
            np.testing.assert_array_equal(np.array(got, dtype=np.float64).view(np.int64),
                                          entries.view(np.int64))
        assert not rows

    def test_no_rays(self):
        assert list(_walk(np.zeros((0, 3)), np.zeros((0, 3)), GEOM16)) == []

    @pytest.mark.parametrize("share", [0.0, occlusion._COMPACT, 1.0],
                             ids=["never", "default", "every-step"])
    def test_finished_rays_left_in_place(self, monkeypatch, share):
        """One long ray among zero-length, short, axis-parallel, subnormal,
        grid-leaving and outside-start rays.

        With share 0 the state is never compacted, so the finished rays step
        on (inf included) beside the long one for its whole walk; share 1
        compacts on every step a ray finishes. All rows match the scalar walk.
        """
        monkeypatch.setattr(occlusion, "_COMPACT", share)
        c = center((3, 5, 7))
        segments = [
            (center((0, 0, 0)) - 0.01, center((15, 15, 15)) + 0.01),  # long diagonal
            (c, c),  # zero length: its own cell once
            (c, c + 1e-13),  # shorter than _EPS
            (c + [0.04, 0.0, 0.0], c + [0.04, 0.0, 0.0]),  # zero length, off-centre
            (c, c + [0.2, 0.0, 0.0]),  # two cells along x
            (c, c + [0.0, -0.3, 0.0]),  # two cells along -y
            (c, c + [0.05, 0.05, 0.05]),  # stays in its cell
            (c * [0, 1, 1], c * [0, 1, 1] + [1e-310, 0.3, 0.0]),  # subnormal x step on x = 0
            (c, c + [0.1, 0.0, 0.0]),  # ends on a cell face
            (c, c + [-9.0, 0.0, 0.0]),  # leaves the grid through x = 0
            ([-1.0, -1.0, -1.0], c),  # starts outside, enters at the corner
        ]
        origins, targets = (np.array(side, dtype=np.float64) for side in zip(*segments))
        rows = {}
        steps = 0
        for ids, cells, t_entry in _walk(origins, targets, GEOM16):
            steps += 1
            for i, cell, t in zip(ids.tolist(), cells.tolist(), t_entry.tolist()):
                rows.setdefault(i, []).append((cell, t))
        for i, (o, t) in enumerate(zip(origins, targets)):
            coords, entries = traverse_arrays(o, t, GEOM16)
            want = list(zip(np.ravel_multi_index(tuple(coords.T), GEOM16.dims).tolist(),
                            entries.tolist()))
            assert rows.pop(i, []) == want, i
        assert not rows
        assert steps == len(traverse_arrays(origins[0], targets[0], GEOM16)[0])

    @settings(max_examples=100, deadline=None)
    @given(ray_batches())
    def test_step_k_holds_the_rays_longer_than_k(self, batch):
        """The rule by which _camera_rows places step k's cells: ids ascend, and
        they are exactly the rays with more than k rows."""
        geom, origins, targets, margin = batch
        steps = [ids for ids, _, _ in _walk(origins, targets, geom, margin)]
        length = np.zeros(origins.shape[0], dtype=np.int64)
        for ids in steps:
            length[ids] += 1
        for k, ids in enumerate(steps):
            np.testing.assert_array_equal(ids, np.flatnonzero(length > k))

    def test_length_matches_norm_to_rounding(self, rng):
        d = rng.normal(size=(200, 3))
        np.testing.assert_allclose(_length(d), np.linalg.norm(d, axis=1), rtol=1e-15)
        assert float(_length(d[0])) == _length(d)[0]


class TestTieRule:
    """The walk against rational arithmetic, where a tie is a tie."""

    def test_diagonal_rays_match_exact_walk(self):
        """3,000 rays whose direction components all have one magnitude, from
        origins inside a grid of 0.5 m cells, with quarter-cell endpoints: every
        float is exact, and crossings that tie exactly also tie as floats, so
        the walk must step the lower axis first at every edge and corner."""
        geom = GridGeometry((0.0, 0.0, 0.0), 0.5, (16, 16, 8))
        rng = np.random.default_rng(26)
        n, quarter = 3000, 0.125
        origins = rng.integers(1, [64, 64, 32], size=(n, 3)) * quarter
        reach = rng.integers(1, 65, size=(n, 1)) * quarter
        targets = origins + rng.choice([-1.0, 1.0], size=(n, 3)) * reach
        rows = [[] for _ in range(n)]
        for ids, cells, _ in _walk(origins, targets, geom):
            for i, cell in zip(ids.tolist(), cells.tolist()):
                rows[i].append(cell)
        assert [i for i in range(n) if rows[i] != exact_walk(origins[i], targets[i], geom)] == []


def loop_label_lidar(pc, semantics, geom):
    """Reference: one scalar walk per return, scattered into a priority volume."""
    prio = np.zeros(geom.dims, dtype=np.uint8)
    lo = geom.origin_array
    h = geom.cell_size
    dims = np.asarray(geom.dims)
    origin = pc.sensor_origin
    for p in pc.points:
        coords, entries = traverse_arrays(origin, p, geom, geom.diagonal)
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
                coords, _ = traverse_arrays(eye, eye + direction * reach, geom)
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

    @pytest.mark.parametrize("geom", [GEOM16, GEOM32], ids=["16", "32"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    def test_label_camera(self, geom, stride):
        sem, _, rig = random_labelling_scene(geom, stride)
        got = label_camera(rig, sem, geom, pixel_stride=stride)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, loop_label_camera(rig, sem, geom, stride))


# two grids mirrored about the camera's x: the same corner distances give the
# same ray reach, so both grids send bit-equal origins and targets to the walk
GEOM_MIRROR_A = GridGeometry((0.0, 0.0, 0.0), 0.25, (16, 16, 16))
GEOM_MIRROR_B = GridGeometry((-2.0, 0.0, 0.0), 0.25, (16, 16, 16))
MIRROR_EYE = np.array([1.0, 2.0, 2.0])


class TestCameraRayTable:
    """label_camera walks a rig's rays once and reuses the table while the walk's inputs are equal."""

    @pytest.fixture(autouse=True)
    def no_table(self, monkeypatch):
        monkeypatch.setattr(occlusion, "_camera_memo", None)

    def spy_rows(self, monkeypatch):
        """Record the (origins, targets, geom) each label_camera call hands to the table."""
        calls = []
        rows = occlusion._camera_rows

        def spy(origins, targets, geom):
            calls.append((origins.copy(), targets.copy(), geom))
            return rows(origins, targets, geom)
        monkeypatch.setattr(occlusion, "_camera_rows", spy)
        return calls

    def test_one_rig_many_volumes(self):
        _, _, rig = random_labelling_scene(GEOM16, 0)
        for seed in (1, 2, 3):
            sem, _, _ = random_labelling_scene(GEOM16, seed)
            got = label_camera(rig, sem, GEOM16, pixel_stride=2)
            np.testing.assert_array_equal(got, loop_label_camera(rig, sem, GEOM16, 2))

    def test_walks_once_per_rig(self, monkeypatch):
        walks = []
        walk = occlusion._walk

        def counting_walk(*args, **kwargs):
            walks.append(1)
            return walk(*args, **kwargs)
        monkeypatch.setattr(occlusion, "_walk", counting_walk)
        _, _, rig = random_labelling_scene(GEOM16, 0)
        for seed in range(5):
            sem, _, _ = random_labelling_scene(GEOM16, seed)
            label_camera(rig, sem, GEOM16, pixel_stride=2)
        assert len(walks) == 1

    def test_grid_with_shifted_origin(self, monkeypatch):
        calls = self.spy_rows(monkeypatch)
        rig = [CameraModel.from_lookat(MIRROR_EYE, MIRROR_EYE + [1.0, 0.0, 0.0],
                                       8.0, 8.0, 7.5, 5.5, (16, 12))]
        sem, _, _ = random_labelling_scene(GEOM_MIRROR_A, 0)
        label_camera(rig, sem, GEOM_MIRROR_A, pixel_stride=1)
        got = label_camera(rig, sem, GEOM_MIRROR_B, pixel_stride=1)
        # only the geometry tells the two calls apart
        assert np.array_equal(calls[0][0], calls[1][0])
        assert np.array_equal(calls[0][1], calls[1][1])
        np.testing.assert_array_equal(got, loop_label_camera(rig, sem, GEOM_MIRROR_B, 1))

    def test_another_stride(self):
        sem, _, rig = random_labelling_scene(GEOM16, 0)
        label_camera(rig, sem, GEOM16, pixel_stride=2)
        got = label_camera(rig, sem, GEOM16, pixel_stride=3)
        np.testing.assert_array_equal(got, loop_label_camera(rig, sem, GEOM16, 3))

    def test_another_rig(self):
        sem, _, rig = random_labelling_scene(GEOM16, 0)
        _, _, other = random_labelling_scene(GEOM16, 1)
        label_camera(rig, sem, GEOM16, pixel_stride=2)
        got = label_camera(other, sem, GEOM16, pixel_stride=2)
        np.testing.assert_array_equal(got, loop_label_camera(other, sem, GEOM16, 2))

    def test_camera_edited_in_place(self):
        sem, _, rig = random_labelling_scene(GEOM16, 0)
        before = label_camera(rig, sem, GEOM16, pixel_stride=2)
        rig[1].extrinsics[:3, 3] += [0.3, -0.2, 0.1]
        got = label_camera(rig, sem, GEOM16, pixel_stride=2)
        expect = loop_label_camera(rig, sem, GEOM16, 2)
        assert not np.array_equal(expect, before)
        np.testing.assert_array_equal(got, expect)

    def test_build_peak_stays_near_the_table(self, tmp_path):
        """A cold table for one KITTI-sized camera: the build holds the
        walk's rows once more beside the table, and little else."""
        calib = tmp_path / "calib.txt"
        calib.write_text("P2: 718.856 0 607.1928 45.38225 0 718.856 185.2157 -0.1130887 "
                         "0 0 1 0.003779761\nTr: 0 -1 0 0 0 0 -1 0 1 0 0 0\n")
        rig = [read_kitti_calib(str(calib))]
        geom = GridGeometry.preset("semantickitti")
        sem = np.zeros(geom.dims, dtype=np.uint8)
        tracemalloc.start()
        try:
            label_camera(rig, sem, geom, pixel_stride=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells, starts = occlusion._camera_memo[3]
        table = cells.nbytes + starts.nbytes
        print(f"table {table / 2**20:.1f} MiB, cold build peak {peak / 2**20:.1f} MiB")
        assert peak < 2 * table + 4 * 2**20

    def test_table_is_read_only_and_ray_major(self):
        _, _, rig = random_labelling_scene(GEOM_ODD, 0)
        label_camera(rig, np.zeros(GEOM_ODD.dims, dtype=np.uint8), GEOM_ODD, pixel_stride=3)
        origins, targets, geom, (cells, starts) = occlusion._camera_memo
        assert geom == GEOM_ODD and cells.dtype == np.int32 and cells.size
        for a in (origins, targets, cells, starts):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            cells[0] = 0
        ends = np.append(starts[1:], cells.size)
        for o, t, lo, hi in zip(origins, targets, starts, ends):
            coords, _ = traverse_arrays(o, t, GEOM_ODD)
            flat = np.ravel_multi_index(tuple(coords.T), GEOM_ODD.dims) if coords.size else []
            np.testing.assert_array_equal(cells[lo:hi], flat)


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
        coords, ts = traverse_arrays(origin, target, GEOM16, margin=GEOM16.diagonal)
        t_point = np.linalg.norm(target - origin)
        occluded = np.argwhere(labels == O)
        visited = {tuple(c): t for c, t in zip(coords, ts)}
        for cell in occluded:
            assert visited[tuple(cell)] > t_point

    def test_return_whose_ray_crosses_no_cell_marks_nothing(self):
        # the ray touches the grid only on its x = y = 0 edge, where the return
        # lies, and leaves it past the return, so it crosses no cell
        sem = np.ones(GEOM16.dims, dtype=np.uint16)
        pc = PointCloud([[0.0, 0.0, 1.0]], [1.0], sensor_origin=(-1.0, 1.0, 1.0))
        assert GEOM16.contains_index(GEOM16.world_to_index(pc.points)).all()
        assert (label_lidar(pc, sem, GEOM16) == E).all()
        # a ray that reaches the same corner cell and goes on into the grid marks it
        pc = PointCloud([[0.0, 0.0, 0.0]], [1.0], sensor_origin=(-1.0, -1.0, -1.0))
        assert label_lidar(pc, sem, GEOM16)[0, 0, 0] == N

    def test_empty_scan_marks_nothing(self):
        sem = np.ones(GEOM16.dims, dtype=np.uint16)
        labels = label_lidar(PointCloud([], []), sem, GEOM16)
        assert labels.dtype == np.uint8 and (labels == E).all()

    @pytest.mark.parametrize("far", [(3e38, 0.0, 0.0), (0.0, -3e38, 1.0),
                                     (1e200, 0.0, 0.0), (0.0, -1.7e308, 1.0)])
    def test_far_finite_return_changes_nothing(self, rng, far):
        # its index floors past int64, or its ray's length overflows to inf;
        # it labels nothing, without a warning
        sem = (rng.uniform(size=GEOM16.dims) < 0.2).astype(np.uint16)
        pts = rng.uniform(0.05, 3.15, size=(20, 3))
        origin = (1.6, 1.6, 1.6)
        want = label_lidar(PointCloud(pts, np.ones(20), sensor_origin=origin), sem, GEOM16)
        pc = PointCloud(np.vstack([pts, far]), np.ones(21), sensor_origin=origin)
        assert np.array_equal(label_lidar(pc, sem, GEOM16), want)

    def test_far_sensor_origin_labels_nothing(self):
        # the far return's offset from the sensor overflows to inf, and every
        # ray is too long for a float to hold its length; no warning either way
        sem = np.ones(GEOM16.dims, dtype=np.uint16)
        pc = PointCloud([[1.0, 1.0, 1.0], [1.7e308, 0.0, 0.0]], [1.0, 1.0],
                        sensor_origin=(-1e308, 1.6, 1.6))
        assert (label_lidar(pc, sem, GEOM16) == E).all()

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

    def test_empty_rig_labels_nothing(self):
        labels = label_camera([], np.ones(GEOM16.dims, dtype=np.uint16), GEOM16)
        assert labels.dtype == np.uint8 and (labels == E).all()


# the cross-sensor merge: rows are the LiDAR label E, N, O, columns the camera label
MERGE = np.array([[E, N, E],
                  [N, N, N],
                  [E, N, O]], dtype=np.uint8)


class TestCombine:
    def test_full_truth_table(self):
        lidar, cam = np.meshgrid(np.array([E, N, O]), np.array([E, N, O]), indexing="ij")
        np.testing.assert_array_equal(combine_volumes(lidar, cam), MERGE)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_array_all_pairs(self, dtype):
        lidar = np.repeat(np.array([E, N, O], dtype=dtype), 3)
        cam = np.tile(np.array([E, N, O], dtype=dtype), 3)
        merged = combine_volumes(lidar, cam)
        assert merged.dtype == np.uint8
        assert merged.tolist() == [MERGE[a, b] for a, b in zip(lidar.tolist(), cam.tolist())]

    def test_array_matches_scalar(self, rng):
        a = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
        b = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
        merged = combine_volumes(a, b)
        for idx in np.ndindex(4, 4, 4):
            assert merged[idx] == MERGE[a[idx], b[idx]]

    def test_nonoccluded_rows_commute(self):
        labels = np.array([E, N, O], dtype=np.uint8)
        with_n = np.full(3, N, dtype=np.uint8)
        np.testing.assert_array_equal(combine_volumes(with_n, labels), with_n)
        np.testing.assert_array_equal(combine_volumes(labels, with_n), with_n)
        assert combine_volumes(labels, labels)[O] == O


def near_wall(dtype, label):
    """A 5x5 wall at x = 5 in front of the sensor of every reader below."""
    sem = np.zeros(GEOM16.dims, dtype=dtype)
    sem[5, 6:11, 6:11] = label
    return sem


# every function that reads a semantic volume, each returning its label volume
SEMANTIC_READERS = {
    "label_lidar": lambda sem: label_lidar(
        PointCloud([center((5, 8, 8))], [1.0], sensor_origin=center((0, 8, 8))), sem, GEOM16),
    "label_camera": lambda sem: label_camera(
        [CameraModel.from_lookat(center((0, 8, 8)), center((15, 8, 8)), 20.0, 20.0, 8.0, 8.0,
                                 (16, 16))], sem, GEOM16, pixel_stride=2),
    "build_volume": lambda sem: build_volume(
        sem, np.full(GEOM16.dims, N, dtype=np.uint8), np.zeros(GEOM16.dims, dtype=np.uint8),
        GEOM16).occlusion,
}


class TestSemanticLabels:
    """Label generation reads occupancy one way: a label other than 0, never negative."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("reader", SEMANTIC_READERS)
    def test_negative_label_rejected(self, reader, dtype):
        with pytest.raises(ValueError, match="non-negative"):
            SEMANTIC_READERS[reader](near_wall(dtype, -1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reader", SEMANTIC_READERS)
    def test_non_integer_labels_rejected(self, reader, dtype):
        with pytest.raises(ValueError, match="integers"):
            SEMANTIC_READERS[reader](near_wall(dtype, 1))

    @pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.int64, np.uint16])
    @pytest.mark.parametrize("reader", SEMANTIC_READERS)
    def test_integer_labels_read_alike(self, reader, dtype):
        want = SEMANTIC_READERS[reader](near_wall(np.uint8, 1))
        assert (want == N).sum() >= 1
        assert np.array_equal(SEMANTIC_READERS[reader](near_wall(dtype, 1)), want)


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

    def test_valid_volume_accepted(self):
        geom = GridGeometry((0, 0, 0), 0.2, (2, 2, 3))
        sem = np.zeros((2, 2, 3), dtype=np.uint16)
        occ = np.zeros((2, 2, 3), dtype=np.uint8)
        sem[1, 0, 2], occ[1, 0, 2] = 4, O
        sem[0, 1, 1], occ[0, 1, 1] = 7, N
        sem[1, 1, 0] = 2  # occupied but never seen: empty is allowed
        vol = OcclusionVolume(geom, sem, occ)
        assert (vol.semantics > 0).sum() == 3

    def test_label_on_unoccupied_voxel_rejected(self):
        geom = GridGeometry((0, 0, 0), 0.2, (2, 2, 3))
        sem = np.ones((2, 2, 3), dtype=np.uint16)
        occ = np.full((2, 2, 3), N, dtype=np.uint8)
        sem[1, 1, 2], occ[1, 1, 2] = 0, O
        with pytest.raises(ValueError, match="unoccupied voxels must carry the empty label"):
            OcclusionVolume(geom, sem, occ)

    def test_label_three_rejected(self):
        geom = GridGeometry((0, 0, 0), 0.2, (2, 2, 3))
        sem = np.ones((2, 2, 3), dtype=np.uint16)
        occ = np.zeros((2, 2, 3), dtype=np.uint8)
        occ[0, 1, 2] = 3
        with pytest.raises(ValueError, match="occlusion labels must be 0, 1 or 2"):
            OcclusionVolume(geom, sem, occ)

    def test_shape_mismatch_rejected(self):
        geom = GridGeometry((0, 0, 0), 0.2, (2, 2, 3))
        with pytest.raises(ShapeError, match="volume arrays must have shape"):
            OcclusionVolume(geom, np.zeros((2, 2, 3), np.uint16), np.zeros((2, 3, 2), np.uint8))
        with pytest.raises(ShapeError, match="volume arrays must have shape"):
            OcclusionVolume(geom, np.zeros((3, 2, 2), np.uint16), np.zeros((2, 2, 3), np.uint8))

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
        dense = dense_view(grid, BACKGROUND_ROW)
        want = np.argwhere(np.argmax(dense[..., 18:], axis=-1) != E)
        got = decoder_input_set(grid)
        assert np.array_equal(got.coords, want)
        assert np.array_equal(got.features, dense[tuple(want.T)])

    def test_decoder_set_rejects_other_widths(self):
        grid = SparseVoxelGrid(GridGeometry((0, 0, 0), 0.2, (2, 2, 2)), [(0, 0, 0)],
                               np.zeros((1, 20)))
        with pytest.raises(ShapeError):
            decoder_input_set(grid)


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

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 40)] * 3), scale=st.sampled_from(VALID_SCALES),
           origin=st.tuples(*[st.floats(-60.0, 60.0)] * 3), voxel_size=st.floats(0.01, 2.0))
    def test_sidecar_roundtrips_its_grid(self, tmp_path_factory, dims, scale, origin, voxel_size):
        """Base dims that are not multiples of the scale come back as written."""
        geom = GridGeometry(origin, voxel_size, dims, scale)
        path = tmp_path_factory.mktemp("roundtrip") / "vol.u8"
        write_volume(path, np.zeros(geom.dims, dtype=np.uint8), geom)
        assert read_volume(path)[1] == geom

    @pytest.mark.parametrize("key", ["dims", "dims_scale1", "scale", "origin", "voxel_size",
                                     "dtype"])
    def test_sidecar_names_a_missing_key(self, tmp_path, key):
        geom = GridGeometry((0, 0, 0), 0.2, (4, 4, 4))
        path = tmp_path / "vol.u8"
        write_volume(path, np.zeros(geom.dims, dtype=np.uint8), geom)
        meta = path.with_name("vol.u8.meta")
        meta.write_text("".join(line for line in meta.read_text().splitlines(keepends=True)
                                if not line.startswith(f"{key}=")))
        with pytest.raises(ParseError, match=rf"malformed: the required key {key} is missing$"):
            read_volume(path)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.float64])
    def test_write_rejects_wider_dtypes(self, tmp_path, dtype):
        geom = GridGeometry((0, 0, 0), 0.2, (4, 4, 4))
        with pytest.raises(ShapeError, match="must be uint8"):
            write_volume(tmp_path / "sem.bin", np.zeros(geom.dims, dtype=dtype), geom)

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

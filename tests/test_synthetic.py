"""Synthetic scene tests: exact rasterization and sensor-consistency checks."""

import json

import numpy as np
import pytest

from voxfuse.errors import EmptyInput, ParseError
from voxfuse.grid import GridGeometry
from voxfuse.synthetic import (
    Box,
    SyntheticScene,
    default_geometry,
    first_hits,
    load_scene,
    random_scene,
    ring_rig,
    save_scene,
)

SMALL = GridGeometry(origin=(0.0, 0.0, 0.0), voxel_size=0.2, dims_scale1=(8, 8, 8), scale=1)


def scene_with(boxes, sensor=(0.1, 0.1, 0.1), geom=SMALL, seed=0):
    return SyntheticScene(geometry=geom, boxes=tuple(boxes), sensor_origin=sensor, seed=seed)


class TestBox:
    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Box(lo=(0, 0, 0), hi=(1, -1, 1), class_id=1)

    def test_class_zero_rejected(self):
        with pytest.raises(ValueError):
            Box(lo=(0, 0, 0), hi=(1, 1, 1), class_id=0)

    def test_contains_is_open(self):
        b = Box(lo=(0, 0, 0), hi=(1, 1, 1), class_id=1)
        assert b.contains((0.5, 0.5, 0.5))
        assert not b.contains((1.0, 0.5, 0.5))


class TestRasterization:
    def test_interior_box_covers_expected_cells(self):
        # box spans world [0.2, 0.6] per axis: cells 1 and 2 in each axis
        scene = scene_with([Box(lo=(0.2,) * 3, hi=(0.6,) * 3, class_id=4)])
        vol = scene.gt_volume()
        assert (vol != 0).sum() == 8
        assert (vol[1:3, 1:3, 1:3] == 4).all()

    def test_face_touching_cell_excluded(self):
        # box hi sits exactly on the 0.4 boundary: cell 2 has zero overlap
        scene = scene_with([Box(lo=(0.2,) * 3, hi=(0.4,) * 3, class_id=2)])
        vol = scene.gt_volume()
        assert (vol != 0).sum() == 1
        assert vol[1, 1, 1] == 2

    def test_partial_cell_counts_as_inside(self):
        scene = scene_with([Box(lo=(0.25,) * 3, hi=(0.35,) * 3, class_id=3)])
        vol = scene.gt_volume()
        assert vol[1, 1, 1] == 3
        assert (vol != 0).sum() == 1

    def test_later_box_overwrites(self):
        a = Box(lo=(0.2,) * 3, hi=(0.6,) * 3, class_id=1)
        b = Box(lo=(0.2,) * 3, hi=(0.4,) * 3, class_id=7)
        vol = scene_with([a, b]).gt_volume()
        assert vol[1, 1, 1] == 7
        assert vol[2, 2, 2] == 1

    def test_box_outside_grid_ignored(self):
        scene = scene_with([Box(lo=(5.0,) * 3, hi=(6.0,) * 3, class_id=1)])
        assert (scene.gt_volume() == 0).all()

    def test_foreground_fraction(self):
        scene = scene_with([Box(lo=(0.2,) * 3, hi=(0.6,) * 3, class_id=4)])
        assert np.isclose(scene.foreground_fraction(), 8 / 512)


class TestRays:
    def test_axis_hit_distance_and_class(self):
        boxes = [Box(lo=(1.0, -0.5, -0.5), hi=(2.0, 0.5, 0.5), class_id=6)]
        t, cls, hit = first_hits((0, 0, 0), np.array([[1.0, 0.0, 0.0]]), boxes)
        assert hit[0] and np.isclose(t[0], 1.0) and cls[0] == 6

    def test_nearest_box_wins(self):
        boxes = [Box(lo=(3.0, -1, -1), hi=(4.0, 1, 1), class_id=2),
                 Box(lo=(1.0, -1, -1), hi=(2.0, 1, 1), class_id=9)]
        t, cls, hit = first_hits((0, 0, 0), np.array([[1.0, 0.0, 0.0]]), boxes)
        assert cls[0] == 9 and np.isclose(t[0], 1.0)

    def test_box_behind_ray_missed(self):
        boxes = [Box(lo=(-2.0, -1, -1), hi=(-1.0, 1, 1), class_id=2)]
        _, _, hit = first_hits((0, 0, 0), np.array([[1.0, 0.0, 0.0]]), boxes)
        assert not hit[0]

    def test_zero_direction_component_handled(self):
        boxes = [Box(lo=(1.0, -0.1, -0.1), hi=(2.0, 0.1, 0.1), class_id=3)]
        t, _, hit = first_hits((0, 0, 0), np.array([[1.0, 0.0, 0.0]]), boxes)
        assert hit[0] and np.isclose(t[0], 1.0)
        # same slab geometry but the ray runs parallel outside the box
        _, _, miss = first_hits((0, 0.5, 0), np.array([[1.0, 0.0, 0.0]]), boxes)
        assert not miss[0]


class TestLidarScan:
    def test_every_point_lands_in_an_occupied_voxel(self):
        scene = random_scene(11)
        pc = scene.lidar_scan()
        vol = scene.gt_volume()
        idx = scene.geometry.world_to_index(pc.points)
        inside = np.logical_and(idx >= 0, idx < np.asarray(scene.geometry.dims)).all(axis=1)
        hit_classes = vol[idx[inside, 0], idx[inside, 1], idx[inside, 2]]
        assert inside.any()
        assert (hit_classes != 0).all()

    def test_intensity_encodes_class(self):
        boxes = [Box(lo=(1.0, -1.0, -1.0), hi=(2.0, 1.0, 1.0), class_id=10)]
        scene = SyntheticScene(geometry=default_geometry(), boxes=boxes,
                               sensor_origin=(0.0, 0.0, 0.0))
        pc = scene.lidar_scan(n_azimuth=8, n_elevation=3, elevation_range=(-0.1, 0.1))
        assert np.allclose(pc.intensity, 0.5)

    def test_no_boxes_raises(self):
        scene = scene_with([])
        with pytest.raises(EmptyInput):
            scene.lidar_scan()

    def test_scan_is_deterministic(self):
        scene = random_scene(3)
        a, b = scene.lidar_scan(), scene.lidar_scan()
        assert np.array_equal(a.points, b.points)


class TestRender:
    def test_center_pixel_sees_box_class(self):
        boxes = [Box(lo=(2.0, -1.0, -1.0), hi=(3.0, 1.0, 1.0), class_id=5)]
        scene = SyntheticScene(geometry=default_geometry(), boxes=boxes,
                               sensor_origin=(0.0, 0.0, 0.0), seed=4)
        rig = ring_rig(scene, n_cameras=1, image_size=(32, 32))
        img = scene.render(rig[0], channels=6)
        table = scene.class_embeddings(6)
        assert img.shape == (32, 32, 6)
        # the +x camera's central pixel looks straight at the box
        assert np.allclose(img[15, 15], table[5])

    def test_miss_pixels_use_background_row(self):
        # the only box sits behind the +x-facing camera, so every pixel misses
        scene = scene_with([Box(lo=(-1.0, -0.3, -0.3), hi=(-0.5, 0.3, 0.3), class_id=2)],
                           seed=9)
        rig = ring_rig(scene, n_cameras=1, image_size=(16, 16))
        img = scene.render(rig[0], channels=4)
        table = scene.class_embeddings(4)
        assert np.allclose(img, table[0][None, None, :])

    def test_feature_maps_share_channels(self):
        scene = random_scene(5)
        rig = ring_rig(scene, n_cameras=3, image_size=(16, 16))
        maps = scene.feature_maps(rig, channels=7)
        assert maps.num_cameras == 3
        assert maps.channels == 7


class TestRandomScene:
    def test_deterministic_per_seed(self):
        a, b = random_scene(21), random_scene(21)
        assert a.boxes == b.boxes
        assert random_scene(22).boxes != a.boxes

    def test_foreground_floor(self):
        for seed in range(8):
            assert random_scene(seed).foreground_fraction() >= 0.05

    def test_unreachable_floor_message_keeps_precision(self):
        # no box fits beside the sensor in a 4x4x4 grid, so every floor is out of reach
        geom = GridGeometry((0.0, 0.0, 0.0), 0.2, (4, 4, 4))
        with pytest.raises(EmptyInput, match=r"reach 0\.5% foreground for seed 3"):
            random_scene(3, geom, min_foreground=0.005)

    def test_sensor_outside_every_box(self):
        for seed in range(8):
            scene = random_scene(seed)
            assert not any(b.contains(scene.sensor_origin) for b in scene.boxes)


class TestSceneJson:
    def test_round_trip(self, tmp_path):
        scene = random_scene(13)
        path = tmp_path / "scene.json"
        save_scene(scene, str(path))
        back = load_scene(str(path))
        assert back.geometry == scene.geometry
        assert back.boxes == scene.boxes
        assert back.sensor_origin == scene.sensor_origin
        assert back.seed == scene.seed

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"geometry": {"origin": [0,0,0]}}')
        with pytest.raises(ParseError):
            load_scene(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scene(str(path))

    @staticmethod
    def _load_edited(tmp_path, edit):
        """Save a scene, apply ``edit`` to its JSON dict, and load it back."""
        path = tmp_path / "scene.json"
        save_scene(random_scene(13), str(path))
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        return load_scene(str(path))

    @pytest.mark.parametrize("origin", [["nan", 1, 1], [1, float("inf"), 1], [1, 1]])
    def test_bad_sensor_origin_rejected(self, tmp_path, origin):
        with pytest.raises(ParseError, match="sensor_origin"):
            self._load_edited(tmp_path, lambda d: d.update(sensor_origin=origin))

    def test_non_finite_box_corner_rejected(self, tmp_path):
        def nan_corner(data):
            data["boxes"][0]["hi"][2] = "nan"
        with pytest.raises(ParseError, match="box corners must be finite"):
            self._load_edited(tmp_path, nan_corner)

    def test_missing_file_raises_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene(str(tmp_path / "absent.json"))


class TestRingRig:
    def test_cameras_centered_on_sensor(self):
        scene = random_scene(2)
        rig = ring_rig(scene, n_cameras=4)
        for cam in rig:
            rot = cam.extrinsics[:3, :3]
            trans = cam.extrinsics[:3, 3]
            center = -rot.T @ trans
            assert np.allclose(center, scene.sensor_origin, atol=1e-9)

    def test_camera_count(self):
        assert len(ring_rig(random_scene(2), n_cameras=6)) == 6

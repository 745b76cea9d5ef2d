import numpy as np
import pytest

from voxfuse.camera import (
    KITTI_IMAGE_SIZE,
    CameraModel,
    FeatureMap2D,
    project_points,
    read_kitti_calib,
    sample_array,
)
from voxfuse.errors import ParseError, ShapeError

from oracles import back_project


def project(cam, p):
    """``project_points`` on one point: (u, v, depth), or None on a miss."""
    uv, depth, hit = project_points(cam, np.asarray(p, dtype=np.float64).reshape(1, 3))
    return (float(uv[0, 0]), float(uv[0, 1]), float(depth[0])) if hit[0] else None


def roundtrip_residual(cam, p):
    """Pixel residual of ``p`` through project -> back_project -> project."""
    u, v, depth = project(cam, p)
    again = project(cam, back_project(cam, u, v, depth))
    return float("inf") if again is None else float(np.hypot(again[0] - u, again[1] - v))


def simple_cam(fx=100.0, fy=100.0, cx=50.0, cy=50.0, size=(101, 101), extrinsics=None):
    k = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    e = np.eye(4) if extrinsics is None else extrinsics
    return CameraModel(k, e, size)


def random_rig_camera(rng):
    eye = rng.uniform(-5, 5, size=3)
    target = eye + rng.uniform(-1, 1, size=3)
    while np.linalg.norm(target - eye) < 0.5 or abs((target - eye) / np.linalg.norm(target - eye))[2] > 0.95:
        target = eye + rng.uniform(-1, 1, size=3)
    fx, fy = rng.uniform(80, 400, size=2)
    w, h = int(rng.integers(100, 800)), int(rng.integers(100, 600))
    return CameraModel.from_lookat(eye, target, fx, fy, w / 2, h / 2, (w, h))


class TestCameraModel:
    def test_rejects_non_rotation(self):
        e = np.eye(4)
        e[0, 0] = 2.0
        with pytest.raises(ValueError):
            simple_cam(extrinsics=e)

    def test_rejects_reflection(self):
        e = np.eye(4)
        e[0, 0] = -1.0
        with pytest.raises(ValueError):
            simple_cam(extrinsics=e)

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            simple_cam(fx=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a NaN focal length passes a "<= 0" test, and a NaN translation leaves the rotation valid
        for build in (lambda: simple_cam(fx=bad), lambda: simple_cam(cy=bad)):
            with pytest.raises(ValueError, match="finite"):
                build()
        e = np.eye(4)
        e[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            simple_cam(extrinsics=e)

    def test_lookat_points_axis_at_target(self):
        cam = CameraModel.from_lookat((0, 0, 0), (5, 0, 0), 100, 100, 32, 32, (64, 64))
        hit = project(cam, (5, 0, 0))
        assert hit is not None
        assert hit[0] == pytest.approx(32.0)
        assert hit[1] == pytest.approx(32.0)
        assert hit[2] == pytest.approx(5.0)


class TestProject:
    def test_principal_point(self):
        cam = simple_cam()
        u, v, d = project(cam, (0, 0, 5))
        assert (u, v) == (pytest.approx(50.0), pytest.approx(50.0))
        assert d == pytest.approx(5.0)

    def test_hand_pinhole_arithmetic(self):
        cam = simple_cam(size=(128, 128))
        u, v, d = project(cam, (1, 1, 2))
        assert u == pytest.approx(100.0)
        assert v == pytest.approx(100.0)
        assert d == pytest.approx(2.0)

    def test_behind_camera_misses(self):
        assert project(simple_cam(), (0, 0, -5)) is None

    def test_near_plane_cut(self):
        cam = simple_cam()
        assert project(cam, (0, 0, 0.05)) is None
        assert project(cam, (0, 0, 0.1)) is None
        assert project(cam, (0, 0, 0.11)) is not None

    def test_off_image_misses(self):
        cam = simple_cam(size=(64, 64))
        assert project(cam, (10, 0, 2)) is None

    def test_pixel_bound_is_half_open(self):
        cam = simple_cam(fx=1.0, fy=1.0, cx=0.0, cy=0.0, size=(4, 4))
        assert project(cam, (0, 0, 1.0)) is not None       # u = 0 in bounds
        assert project(cam, (4.0, 0, 1.0)) is None         # u = 4 = W out
        assert project(cam, (3.999, 0, 1.0)) is not None

    def test_depth_scale_invariance(self, rng):
        cam = simple_cam(size=(1000, 1000), cx=500, cy=500)
        for _ in range(50):
            p = rng.uniform(-1, 1, size=3)
            p[2] = rng.uniform(1.0, 3.0)
            a = project(cam, p)
            b = project(cam, p * 2.5)
            if a is None or b is None:
                continue
            assert a[0] == pytest.approx(b[0], abs=1e-9)
            assert a[1] == pytest.approx(b[1], abs=1e-9)

    def test_batch_matches_scalar(self, rng):
        cam = random_rig_camera(rng)
        pts = rng.uniform(-10, 10, size=(100, 3))
        uv, depth, hit = project_points(cam, pts)
        for i in range(100):
            single = project(cam, pts[i])
            if single is None:
                assert not hit[i]
            else:
                assert hit[i]
                assert single[0] == pytest.approx(uv[i, 0])
                assert single[2] == pytest.approx(depth[i])


class TestBilinear:
    def test_exact_at_integer_coords(self, rng):
        img = rng.normal(size=(6, 7, 3))
        for (v, u) in [(0, 0), (2, 3), (5, 6)]:
            np.testing.assert_allclose(sample_array(img, [[u, v]])[0], img[v, u], atol=1e-12)

    def test_halfway_between_two_pixels(self):
        img = np.zeros((2, 2, 1))
        img[0, 1, 0] = 1.0
        assert sample_array(img, [[0.5, 0.0]])[0, 0] == pytest.approx(0.5)

    def test_fully_outside_is_zero(self):
        img = np.ones((4, 4, 2))
        np.testing.assert_array_equal(sample_array(img, [[-5.0, -5.0]])[0], [0.0, 0.0])
        np.testing.assert_array_equal(sample_array(img, [[10.0, 2.0]])[0], [0.0, 0.0])
        assert sample_array(img, np.zeros((0, 2))).shape == (0, 2)

    def test_affine_along_axis(self, rng):
        img = rng.normal(size=(3, 5, 1))
        u = np.linspace(1.0, 2.0, 11)
        vals = sample_array(img, np.stack([u, np.full(11, 1.0)], axis=1))[:, 0]
        # linear interpolation between the two knots
        expect = img[1, 1, 0] * (2.0 - u) + img[1, 2, 0] * (u - 1.0)
        np.testing.assert_allclose(vals, expect, atol=1e-12)

    def test_border_fade(self):
        # tap outside contributes zero, so the value halves past the last pixel center
        img = np.ones((1, 2, 1))
        assert sample_array(img, [[1.5, 0.0]])[0, 0] == pytest.approx(0.5)

    def test_channel_width_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            FeatureMap2D([rng.normal(size=(4, 4, 2)), rng.normal(size=(4, 4, 3))])


class TestRoundtrip:
    def test_identity_axis_point(self):
        assert roundtrip_residual(simple_cam(), (0, 0, 5)) == pytest.approx(0.0, abs=1e-12)

    def test_back_project_inverts(self, rng):
        cam = random_rig_camera(rng)
        for _ in range(20):
            p = rng.uniform(-8, 8, size=3)
            hit = project(cam, p)
            if hit is None:
                continue
            back = back_project(cam, *hit)
            np.testing.assert_allclose(back, p, atol=1e-9)

    def test_random_rigs_residual(self, rng):
        worst = 0.0
        tried = 0
        while tried < 100:
            cam = random_rig_camera(rng)
            p = rng.uniform(-10, 10, size=3)
            if project(cam, p) is None:
                continue
            worst = max(worst, roundtrip_residual(cam, p))
            tried += 1
        assert worst < 1e-4


class TestCalibIO:
    def test_kitti_calib_composition(self, tmp_path, rng):
        k = np.array([[707.0, 0, 604.0], [0, 707.0, 180.5], [0, 0, 1.0]])
        t2 = np.array([0.06, 0.0, 0.0])
        p2 = np.hstack([k, (k @ t2)[:, None]])
        # velodyne-to-camera: swap axes so x-forward becomes z-forward
        r = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        t = np.array([0.01, -0.05, 0.2])
        tr = np.hstack([r, t[:, None]])
        lines = ["P0: " + " ".join("0" for _ in range(12)),
                 "P2: " + " ".join(f"{x:.9f}" for x in p2.reshape(-1)),
                 "Tr: " + " ".join(f"{x:.9f}" for x in tr.reshape(-1))]
        path = tmp_path / "calib.txt"
        path.write_text("\n".join(lines) + "\n")

        cam = read_kitti_calib(path)
        w, h = cam.image_size
        assert (w, h) == KITTI_IMAGE_SIZE == (1226, 370)
        for _ in range(20):
            p = rng.uniform([2, -3, -1], [20, 3, 2])
            uvw = p2 @ np.append(r @ p + t, 1.0)
            expect = uvw[:2] / uvw[2]
            got = project(cam, p)
            if not (0 <= expect[0] < w and 0 <= expect[1] < h and uvw[2] > 0.1):
                assert got is None
                continue
            assert got is not None
            np.testing.assert_allclose(got[:2], expect, atol=1e-9)

    def test_kitti_missing_row(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P2: " + " ".join("1" for _ in range(12)) + "\n")
        with pytest.raises(ParseError):
            read_kitti_calib(path)

"""Pinhole cameras: projection, calibration reading, bilinear feature sampling.

Conventions: zero skew, camera frame is x-right / y-down / z-forward, pixel
(0, 0) is the center of the top-left pixel, and a projection counts as a hit
only when camera-frame depth exceeds the near plane and the pixel lands in
[0, W) x [0, H).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ShapeError

NEAR_PLANE = 0.1
# (width, height) of KITTI's left-color image; its calib files do not carry it
KITTI_IMAGE_SIZE = (1226, 370)


@dataclass(frozen=True)
class CameraModel:
    """Zero-skew pinhole camera with a rigid world-to-camera transform."""

    intrinsics: np.ndarray
    extrinsics: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64)
        e = np.asarray(self.extrinsics, dtype=np.float64)
        if k.shape != (3, 3):
            raise ShapeError(f"intrinsics must be 3x3, got {k.shape}")
        if e.shape != (4, 4):
            raise ShapeError(f"extrinsics must be 4x4, got {e.shape}")
        if not (np.isfinite(k).all() and np.isfinite(e).all()):
            raise ValueError("intrinsics and extrinsics must be finite")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        r = e[:3, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6):
            raise ValueError("extrinsic rotation block is not orthonormal")
        if not np.isclose(np.linalg.det(r), 1.0, atol=1e-6):
            raise ValueError("extrinsic rotation block must have determinant +1")
        if not np.allclose(e[3], [0, 0, 0, 1], atol=1e-12):
            raise ValueError("extrinsics last row must be [0, 0, 0, 1]")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "extrinsics", e)
        object.__setattr__(self, "image_size", (int(self.image_size[0]), int(self.image_size[1])))

    @property
    def fx(self) -> float:
        return float(self.intrinsics[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsics[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsics[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsics[1, 2])

    @classmethod
    def from_lookat(cls, eye, target, fx: float, fy: float, cx: float, cy: float,
                    image_size: tuple[int, int]) -> CameraModel:
        """Place a camera at ``eye`` with its optical axis toward ``target``, up +z."""
        eye = np.asarray(eye, dtype=np.float64)
        fwd = np.asarray(target, dtype=np.float64) - eye
        n = np.linalg.norm(fwd)
        if n < 1e-12:
            raise ValueError("eye and target coincide")
        z = fwd / n
        x = np.cross(z, np.array([0.0, 0.0, 1.0]))
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            raise ValueError("view direction is parallel to up (+z)")
        x /= nx
        y = np.cross(z, x)
        r = np.stack([x, y, z])
        e = np.eye(4)
        e[:3, :3] = r
        e[:3, 3] = -r @ eye
        k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
        return cls(k, e, image_size)

    def world_to_cam(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return p @ self.extrinsics[:3, :3].T + self.extrinsics[:3, 3]


def project_points(cam: CameraModel, points: np.ndarray):
    """Batch projection: (uv (N, 2), depth (N,), hit (N,) bool).

    uv and depth are valid only where hit is True.
    """
    pc = cam.world_to_cam(points)
    depth = pc[:, 2]
    safe = np.where(depth > NEAR_PLANE, depth, 1.0)
    u = cam.fx * pc[:, 0] / safe + cam.cx
    v = cam.fy * pc[:, 1] / safe + cam.cy
    w, h = cam.image_size
    hit = (depth > NEAR_PLANE) & (u >= 0) & (u < w) & (v >= 0) & (v < h)
    return np.stack([u, v], axis=1), depth, hit


def camera_mean(rig: list[CameraModel], points: np.ndarray, channels: int, per_camera):
    """Per-point mean of a per-camera value over the cameras that see the point.

    ``per_camera(cam_id, rows, uv)`` returns one ``channels``-wide row for
    each hit row index in ``rows``, whose pixel positions are ``uv``. Cameras
    accumulate in id order, so results are bit-stable; points no camera sees
    read zero. Returns ``(mean (N, channels), n_hit (N,))``.
    """
    n = points.shape[0]
    acc = np.zeros((n, channels))
    n_hit = np.zeros(n, dtype=np.int64)
    for cam_id, cam in enumerate(rig):
        uv, _, hit = project_points(cam, points)
        rows = np.flatnonzero(hit)
        if rows.size:
            acc[rows] += per_camera(cam_id, rows, uv[rows])
            n_hit[rows] += 1
    mean = acc / np.maximum(n_hit, 1)[:, None]
    mean[n_hit == 0] = 0.0
    return mean, n_hit


@dataclass
class FeatureMap2D:
    """Per-camera 2D feature arrays (H, W, C); all cameras share C."""

    maps: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.maps = [np.asarray(m, dtype=np.float64) for m in self.maps]
        if not self.maps:
            raise ShapeError("at least one camera map is required")
        for m in self.maps:
            if m.ndim != 3:
                raise ShapeError(f"each map must be (H, W, C), got shape {m.shape}")
        widths = {m.shape[2] for m in self.maps}
        if len(widths) != 1:
            raise ShapeError(f"all cameras must share a channel width, got {sorted(widths)}")

    @property
    def channels(self) -> int:
        return self.maps[0].shape[2]

    @property
    def num_cameras(self) -> int:
        return len(self.maps)

    @classmethod
    def seeded(cls, rig: list[CameraModel], channels: int, seed: int = 0) -> FeatureMap2D:
        """Deterministic pseudo-random maps sized from the rig's image sizes."""
        rng = np.random.default_rng(seed)
        maps = []
        for cam in rig:
            w, h = cam.image_size
            maps.append(rng.normal(size=(h, w, channels)))
        return cls(maps)


def sample_array(img: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Bilinear sample an (H, W, C) array at (N, 2) pixel positions.

    Taps outside the array contribute zero (zero-padding border). Nested
    lerp form, so a constant image samples to exactly that constant at
    interior positions.
    """
    h, w, c = img.shape
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    u, v = uv[:, 0], uv[:, 1]
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    du, dv = (u - u0)[:, None], (v - v0)[:, None]

    def tap(iu, iv):
        ok = (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
        out = np.zeros((uv.shape[0], c))
        out[ok] = img[iv[ok], iu[ok]]
        return out

    a, b = tap(u0, v0), tap(u0 + 1, v0)
    cc, d = tap(u0, v0 + 1), tap(u0 + 1, v0 + 1)
    top = a + du * (b - a)
    bottom = cc + du * (d - cc)
    return top + dv * (bottom - top)


def read_kitti_calib(path) -> CameraModel:
    """Build the left-color camera from a calib file with P2 and Tr rows.

    P2 factors as K [I | K^-1 t]; composing with the velodyne-to-camera
    transform Tr gives a single world(velodyne)-to-image model. The file
    carries no image size, so the camera gets ``KITTI_IMAGE_SIZE``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, _, rest = line.partition(":")
        try:
            entries[key.strip()] = np.array([float(t) for t in rest.split()])
        except ValueError as exc:
            raise ParseError(f"{path}: bad numeric row for {key!r}") from exc
    for key in ("P2", "Tr"):
        if key not in entries or entries[key].size != 12:
            raise ParseError(f"{path}: missing or malformed {key} row")
        if not np.isfinite(entries[key]).all():
            raise ParseError(f"{path}: {key} row holds a non-finite value")
    p2 = entries["P2"].reshape(3, 4)
    tr = entries["Tr"].reshape(3, 4)
    k = p2[:, :3]
    try:
        t_cam = np.linalg.solve(k, p2[:, 3])
    except np.linalg.LinAlgError as exc:
        raise ParseError(f"{path}: P2 intrinsic block is singular") from exc
    e = np.eye(4)
    e[:3, :3] = tr[:, :3]
    e[:3, 3] = tr[:, 3] + t_cam
    try:
        return CameraModel(k, e, KITTI_IMAGE_SIZE)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


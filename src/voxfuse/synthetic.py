"""Synthetic scenes: axis-aligned boxes with exact voxel ground truth plus
simulated LiDAR scans and camera renders derived from the same geometry.

Everything an end-to-end run needs is computed analytically from the box
set, so ground truth, points, and image features agree by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, FeatureMap2D
from .errors import EmptyInput, ParseError, ShapeError
from .grid import GridGeometry
from .lidar import PointCloud
from .occlusion import SEM_CHANNELS

_EPS = 1e-9


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box labeled with one semantic class."""

    lo: tuple
    hi: tuple
    class_id: int

    def __post_init__(self):
        if len(self.lo) != 3 or len(self.hi) != 3:
            raise ShapeError("box corners must be 3-vectors")
        if not np.isfinite(np.asarray([self.lo, self.hi], dtype=np.float64)).all():
            raise ValueError(f"box corners must be finite, got lo={self.lo} hi={self.hi}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"box must have positive extent, got lo={self.lo} hi={self.hi}")
        if not 1 <= self.class_id < SEM_CHANNELS:
            raise ValueError(f"class_id must lie in [1, {SEM_CHANNELS}), got {self.class_id}")

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool((p > np.asarray(self.lo)).all() and (p < np.asarray(self.hi)).all())


def _slab_hits(origin: np.ndarray, dirs: np.ndarray, box: Box):
    """Entry/exit parameters of rays against one box; entry must be ahead."""
    lo = np.asarray(box.lo) - origin
    hi = np.asarray(box.hi) - origin
    t0 = np.full(dirs.shape[0], -np.inf)
    t1 = np.full(dirs.shape[0], np.inf)
    for ax in range(3):
        d = dirs[:, ax]
        moving = d != 0.0
        a = np.where(moving, lo[ax] / np.where(moving, d, 1.0), -np.inf)
        b = np.where(moving, hi[ax] / np.where(moving, d, 1.0), np.inf)
        t0 = np.maximum(t0, np.minimum(a, b))
        t1 = np.minimum(t1, np.maximum(a, b))
        inside = (lo[ax] < 0.0) & (0.0 < hi[ax])
        t0 = np.where(moving, t0, np.where(inside, t0, np.inf))
        t1 = np.where(moving, t1, np.where(inside, t1, -np.inf))
    hit = (t1 > t0) & (t0 > _EPS)
    return np.where(hit, t0, np.inf)


def first_hits(origin, directions, boxes):
    """Nearest strictly-forward box hit per ray: (distance, class_id, hit)."""
    dirs = np.asarray(directions, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    best_t = np.full(dirs.shape[0], np.inf)
    best_c = np.zeros(dirs.shape[0], dtype=np.int64)
    for box in boxes:
        t = _slab_hits(origin, dirs, box)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_c = np.where(closer, box.class_id, best_c)
    hit = np.isfinite(best_t)
    return best_t, best_c, hit


@dataclass(frozen=True)
class SyntheticScene:
    """Box world plus the sensor pose all measurements are cast from."""

    geometry: GridGeometry
    boxes: tuple
    sensor_origin: tuple
    seed: int = 0

    def __post_init__(self):
        if self.geometry.scale != 1:
            raise ValueError("scene geometry must be at scale 1")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        origin = tuple(float(v) for v in self.sensor_origin)
        if len(origin) != 3 or not np.isfinite(origin).all():
            raise ValueError(f"sensor_origin must be 3 finite numbers, got {self.sensor_origin}")
        object.__setattr__(self, "sensor_origin", origin)

    def gt_volume(self) -> np.ndarray:
        """Exact semantic labels: a voxel is inside a box iff the open
        interiors overlap; later boxes overwrite earlier ones."""
        geom = self.geometry
        vol = np.zeros(geom.dims, dtype=np.int64)
        origin = geom.origin_array
        h = geom.voxel_size
        for box in self.boxes:
            ranges = []
            for ax in range(3):
                idx = np.arange(geom.dims[ax])
                vox_lo = origin[ax] + idx * h
                vox_hi = vox_lo + h
                keep = np.nonzero((vox_lo < box.hi[ax]) & (vox_hi > box.lo[ax]))[0]
                if keep.size == 0:
                    ranges = None
                    break
                ranges.append((keep[0], keep[-1] + 1))
            if ranges is not None:
                (x0, x1), (y0, y1), (z0, z1) = ranges
                vol[x0:x1, y0:y1, z0:z1] = box.class_id
        return vol

    def foreground_fraction(self) -> float:
        return float((self.gt_volume() != 0).mean())

    def lidar_scan(self, n_azimuth: int = 120, n_elevation: int = 9,
                   elevation_range: tuple = (-0.25, 0.25)) -> PointCloud:
        """Cast an azimuth/elevation ray grid and return one point per hit,
        inset a quarter voxel past the entry face so it lies inside the box."""
        az = np.linspace(0.0, 2.0 * np.pi, n_azimuth, endpoint=False)
        el = np.linspace(elevation_range[0], elevation_range[1], n_elevation)
        aa, ee = np.meshgrid(az, el, indexing="ij")
        dirs = np.stack([np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa),
                         np.sin(ee)], axis=-1).reshape(-1, 3)
        t, cls, hit = first_hits(self.sensor_origin, dirs, self.boxes)
        if not hit.any():
            raise EmptyInput("no ray hits any box")
        inset = 0.25 * self.geometry.voxel_size
        pts = np.asarray(self.sensor_origin) + dirs[hit] * (t[hit] + inset)[:, None]
        intensity = np.clip(cls[hit] / 20.0, 0.0, 1.0)
        return PointCloud(points=pts, intensity=intensity,
                          sensor_origin=np.asarray(self.sensor_origin))

    def class_embeddings(self, channels: int) -> np.ndarray:
        """Per-class feature rows; row 0 is the background embedding."""
        rng = np.random.default_rng(self.seed + 77)
        return rng.normal(0.0, 1.0, size=(SEM_CHANNELS, channels))

    def render(self, camera: CameraModel, channels: int) -> np.ndarray:
        """Nearest-hit class embedding per pixel, background where no box."""
        w, h = camera.image_size
        table = self.class_embeddings(channels)
        rot = camera.extrinsics[:3, :3]
        trans = camera.extrinsics[:3, 3]
        center = -rot.T @ trans
        us, vs = np.meshgrid(np.arange(w), np.arange(h), indexing="xy")
        pix = np.stack([us.ravel(), vs.ravel(), np.ones(w * h)], axis=0)
        dirs = (rot.T @ (np.linalg.inv(camera.intrinsics) @ pix)).T
        _, cls, hit = first_hits(center, dirs, self.boxes)
        img = table[np.where(hit, cls, 0)]
        return img.reshape(h, w, channels)

    def feature_maps(self, rig: list[CameraModel], channels: int) -> FeatureMap2D:
        return FeatureMap2D(maps=[self.render(cam, channels) for cam in rig])


def default_geometry() -> GridGeometry:
    return GridGeometry(origin=(0.0, 0.0, 0.0), voxel_size=0.2,
                        dims_scale1=(64, 64, 16), scale=1)


def ring_rig(scene: SyntheticScene, n_cameras: int = 4,
             image_size: tuple = (64, 64)) -> list[CameraModel]:
    """Cameras at the sensor pose looking outward at even azimuth spacing."""
    w, h = image_size
    fx = fy = w / 2.0
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    eye = np.asarray(scene.sensor_origin)
    cams = []
    for k in range(n_cameras):
        theta = 2.0 * np.pi * k / n_cameras
        target = eye + np.array([np.cos(theta), np.sin(theta), 0.0])
        cams.append(CameraModel.from_lookat(eye, target, fx, fy, cx, cy, image_size))
    return cams


def random_scene(seed: int, geometry: GridGeometry | None = None,
                 min_foreground: float = 0.05) -> SyntheticScene:
    """Sample boxes away from the sensor until foreground covers the floor
    fraction; extents are generic floats so coarse cells get partial cover."""
    geom = geometry or default_geometry()
    rng = np.random.default_rng(seed)
    origin = geom.origin_array
    span = np.asarray(geom.dims) * geom.voxel_size
    sensor = origin + span / 2.0
    lo_bound = origin + 0.05 * span
    hi_bound = origin + 0.95 * span

    boxes = []
    scene = None
    for _ in range(80):
        center = rng.uniform(lo_bound, hi_bound)
        half = rng.uniform([0.3, 0.3, 0.25], [1.4, 1.4, 0.9])
        lo = np.maximum(center - half, lo_bound)
        hi = np.minimum(center + half, hi_bound)
        if (hi - lo).min() < 2.0 * geom.voxel_size:
            continue
        if ((lo - 0.4 < sensor) & (sensor < hi + 0.4)).all():
            continue  # keep the sensor outside every box
        boxes.append(Box(lo=tuple(lo), hi=tuple(hi), class_id=int(rng.integers(1, SEM_CHANNELS))))
        scene = SyntheticScene(geometry=geom, boxes=tuple(boxes),
                               sensor_origin=tuple(sensor), seed=seed)
        if len(boxes) >= 3 and scene.foreground_fraction() >= min_foreground:
            return scene
    if scene is None or scene.foreground_fraction() < min_foreground:
        raise EmptyInput(f"could not reach {min_foreground * 100:.4g}% foreground for seed {seed}")
    return scene


def save_scene(scene: SyntheticScene, path: str):
    geom = scene.geometry
    data = {
        "seed": scene.seed,
        "geometry": {
            "origin": list(geom.origin),
            "voxel_size": geom.voxel_size,
            "dims": list(geom.dims_scale1),
        },
        "sensor_origin": list(scene.sensor_origin),
        "boxes": [{"lo": list(b.lo), "hi": list(b.hi), "class_id": b.class_id}
                  for b in scene.boxes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def scene_from_dict(data: dict) -> SyntheticScene:
    try:
        geom = GridGeometry(origin=tuple(data["geometry"]["origin"]),
                            voxel_size=float(data["geometry"]["voxel_size"]),
                            dims_scale1=tuple(data["geometry"]["dims"]), scale=1)
        boxes = tuple(Box(lo=tuple(b["lo"]), hi=tuple(b["hi"]),
                          class_id=int(b["class_id"])) for b in data["boxes"])
        return SyntheticScene(geometry=geom, boxes=boxes,
                              sensor_origin=tuple(data["sensor_origin"]),
                              seed=int(data.get("seed", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scene spec: {exc}") from None


def load_scene(path: str) -> SyntheticScene:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"cannot read scene {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene {path} is not valid JSON: {exc}") from None
    return scene_from_dict(data)

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
from .grid import GridGeometry, as_float, as_int
from .lidar import PointCloud
from .occlusion import SEM_CHANNELS, pixel_rays

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
        for name in ("lo", "hi"):
            object.__setattr__(self, name, tuple(as_float(v, "box corners")
                                                 for v in getattr(self, name)))
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"box must have positive extent, got lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "class_id", as_int(self.class_id, "class_id"))
        if not 1 <= self.class_id < SEM_CHANNELS:
            raise ValueError(f"class_id must lie in [1, {SEM_CHANNELS}), got {self.class_id}")


def _slab_hits(origin: np.ndarray, dirs: np.ndarray, box: Box):
    """Entry parameter of each ray into one box; inf unless the entry is ahead.

    ``dirs`` holds one ray direction per column, (3, rays). The slab test
    divides by the raw direction (Williams et al., JGT 2005). A zero
    component gives +-inf on its axis, which leaves the axis unconstrained
    when the origin lies strictly inside the slab and makes the ray miss when
    it lies outside; an origin on a face plane gives NaN, which also misses.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = (np.asarray(box.lo) - origin)[:, None] / dirs
        b = (np.asarray(box.hi) - origin)[:, None] / dirs
        t0 = np.minimum(a, b).max(axis=0)
        t1 = np.maximum(a, b).min(axis=0)
        hit = (t1 > t0) & (t0 > _EPS)
    return np.where(hit, t0, np.inf)


def first_hits(origin, directions, boxes):
    """Nearest strictly-forward box hit per ray: (distance, class_id, hit)."""
    # one contiguous row per axis, so the slab test reduces along rows
    dirs = np.ascontiguousarray(np.asarray(directions, dtype=np.float64).T)
    origin = np.asarray(origin, dtype=np.float64)
    best_t = np.full(dirs.shape[1], np.inf)
    best_c = np.zeros(dirs.shape[1], dtype=np.int64)
    for box in boxes:
        t = _slab_hits(origin, dirs, box)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_c = np.where(closer, box.class_id, best_c)
    hit = np.isfinite(best_t)
    return best_t, best_c, hit


def _box_cells(geom: GridGeometry, box: Box):
    """Slices of the voxels whose open interiors overlap the box, or None."""
    origin = geom.origin_array
    h = geom.voxel_size
    cells = []
    for ax in range(3):
        idx = np.arange(geom.dims[ax])
        vox_lo = origin[ax] + idx * h
        vox_hi = vox_lo + h
        keep = np.nonzero((vox_lo < box.hi[ax]) & (vox_hi > box.lo[ax]))[0]
        if keep.size == 0:
            return None
        cells.append(slice(keep[0], keep[-1] + 1))
    return tuple(cells)


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
        origin = tuple(as_float(v, "sensor_origin") for v in self.sensor_origin)
        if len(origin) != 3:
            raise ValueError(f"sensor_origin must be 3 numbers, got {self.sensor_origin}")
        object.__setattr__(self, "sensor_origin", origin)

    def gt_volume(self) -> np.ndarray:
        """Exact semantic labels: a voxel is inside a box iff the open
        interiors overlap; later boxes overwrite earlier ones. Class ids lie
        below ``SEM_CHANNELS``, so the volume is uint8 like every label volume."""
        vol = np.zeros(self.geometry.dims, dtype=np.uint8)
        for box in self.boxes:
            cells = _box_cells(self.geometry, box)
            if cells is not None:
                vol[cells] = box.class_id
        return vol

    def lidar_scan(self, n_azimuth: int = 120, n_elevation: int = 9) -> PointCloud:
        """Cast an azimuth/elevation ray grid (elevations within +-0.25 rad) and
        return one point per hit, inset a quarter voxel past the entry face so
        it lies inside the box."""
        az = np.linspace(0.0, 2.0 * np.pi, n_azimuth, endpoint=False)
        el = np.linspace(-0.25, 0.25, n_elevation)
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
        _, cls, hit = first_hits(*pixel_rays(camera, 1), self.boxes)
        return table[np.where(hit, cls, 0)].reshape(h, w, channels)

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
    span = geom.span
    sensor = origin + span / 2.0
    lo_bound = origin + 0.05 * span
    hi_bound = origin + 0.95 * span

    boxes = []
    # foreground is counted box by box: each box adds its not yet covered cells
    covered = np.zeros(geom.dims, dtype=bool)
    n_covered = 0
    for _ in range(80):
        center = rng.uniform(lo_bound, hi_bound)
        half = rng.uniform([0.3, 0.3, 0.25], [1.4, 1.4, 0.9])
        lo = np.maximum(center - half, lo_bound)
        hi = np.minimum(center + half, hi_bound)
        if (hi - lo).min() < 2.0 * geom.voxel_size:
            continue
        if ((lo - 0.4 < sensor) & (sensor < hi + 0.4)).all():
            continue  # keep the sensor outside every box
        box = Box(lo=tuple(lo), hi=tuple(hi), class_id=int(rng.integers(1, SEM_CHANNELS)))
        boxes.append(box)
        cells = _box_cells(geom, box)
        if cells is not None:
            n_covered += np.count_nonzero(~covered[cells])
            covered[cells] = True
        if len(boxes) >= 3 and n_covered / covered.size >= min_foreground:
            break
    if not boxes or n_covered / covered.size < min_foreground:
        raise EmptyInput(f"could not reach {min_foreground * 100:.4g}% foreground for seed {seed}")
    return SyntheticScene(geometry=geom, boxes=tuple(boxes), sensor_origin=tuple(sensor), seed=seed)


def scene_from_dict(data: dict) -> SyntheticScene:
    try:
        geom = GridGeometry(origin=tuple(data["geometry"]["origin"]),
                            voxel_size=data["geometry"]["voxel_size"],
                            dims_scale1=tuple(data["geometry"]["dims"]), scale=1)
        boxes = tuple(Box(lo=tuple(b["lo"]), hi=tuple(b["hi"]),
                          class_id=b["class_id"]) for b in data["boxes"])
        scene = SyntheticScene(geometry=geom, boxes=boxes,
                               sensor_origin=tuple(data["sensor_origin"]),
                               seed=as_int(data.get("seed", 0), "seed"))
        try:
            ring_rig(scene)
        except ValueError as exc:
            # so far out that the ring's unit view offsets vanish in float64
            raise ValueError(f"no camera ring fits at sensor_origin "
                             f"{scene.sensor_origin}: {exc}") from None
        return scene
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise ParseError(f"bad scene spec: {exc}") from None


def load_scene(path: str) -> SyntheticScene:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"cannot read scene {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"scene {path} is not valid JSON: {exc}") from None
    return scene_from_dict(data)

"""Visibility-aware ground truth: ray traversal, per-sensor labels, merging.

Each sensor ray marks the voxel it hits as non-occluded and every occupied
voxel further along the ray as occluded. Per-voxel merging ranks
non-occluded > occluded > empty: each labeller writes all its occluded
voxels first and its non-occluded voxels last, so a voxel any ray saw ends
non-occluded and results do not depend on ray order. The
cross-sensor combination keeps a voxel non-occluded if either sensor saw it,
occluded only when both agree, and empty otherwise; unoccupied voxels are
forced to empty at the end.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .camera import CameraModel
from .errors import ConfigError, InvalidScale, ParseError, ShapeError
from .grid import GridGeometry, SparseVoxelGrid
from .lidar import PointCloud

SEM_CHANNELS = 18
OCC_CHANNELS = 3
# the 21-channel row of a voxel no prediction reached: empty class, empty visibility
BACKGROUND_ROW = np.zeros(SEM_CHANNELS + OCC_CHANNELS)
BACKGROUND_ROW[[0, SEM_CHANNELS]] = 1.0
BACKGROUND_ROW.flags.writeable = False


class OcclusionLabel(IntEnum):
    EMPTY = 0
    NON_OCCLUDED = 1
    OCCLUDED = 2


_EPS = 1e-12
# _walk compacts its state once fewer than this share of the stored rays are alive
_COMPACT = 7 / 8


def _length(d):
    """Euclidean length over the last axis, summed in one fixed order.

    One ray and a batch of rays then get bit-identical lengths, which
    ``np.linalg.norm`` on a single 3-vector (a BLAS dot) does not give.
    """
    return np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2])


def _walk(origins, targets, geom: GridGeometry, margin: float = 0.0):
    """A grid walk of many segments at once, all rays in lockstep.

    Yields one ``(ray_ids, flat_cells, t_entry)`` triple per step: step k
    holds row k of every ray that has one, with cells as flat C-order indices
    into ``geom.dims``, and ``t_entry`` the distance along the ray at which
    the cell is entered. A ray that stops yielding never yields again, so
    step k's ``ray_ids`` are exactly the rays with more than k rows, in
    ascending order. A ray runs from its origin to ``margin`` past its
    target. The arithmetic is that of the one-ray walk ``traverse_arrays``
    in ``tests/oracles.py``, operation for operation, so each ray's rows
    equal that walk's rows bit for bit.

    Where two axes' next crossings are equal as floats, the lower axis steps
    first. Where crossings tie only in exact arithmetic, rounding picks the
    order: a general ray through a cell edge or corner may step either axis
    first, and a ray entering the grid exactly at a cell corner may have its
    entry point ``o + dirn * t0`` round into the neighbouring cell. Rays whose
    direction components share one magnitude, from origins inside a grid
    whose faces and endpoints are exact in binary, tie in floats exactly
    where they tie exactly, so they follow the rule at every corner.

    Compaction is lazy: a finished ray stays in the state arrays behind an
    ``alive`` mask and keeps stepping on values nothing reads, and the state
    is compacted only once fewer than ``_COMPACT`` of its rows are alive. So
    a step copies the yielded rows, not every per-ray array, and memory stays
    proportional to the ray count.
    """
    o = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    lo = geom.origin_array[:, None]
    h = geom.cell_size
    dims = np.asarray(geom.dims)[:, None]
    hi = lo + geom.span[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = np.asarray(targets, dtype=np.float64).reshape(-1, 3) - o
        seg = _length(d)
        zero = seg < _EPS
        # per-ray state is (3, rays): one contiguous row per axis
        o = np.broadcast_to(o, d.shape).T
        dirn = d.T / np.where(zero, 1.0, seg)
        flat_axis = np.abs(dirn) < 1e-15
        # a segment too long for a float to hold its length crosses no cell
        keep = ~zero & np.isfinite(seg) & ~(flat_axis & ((o < lo) | (o >= hi))).any(axis=0)
        t0 = np.zeros(seg.shape[0])
        t1 = seg + margin
        ta = (lo - o) / dirn
        tb = (hi - o) / dirn
        for near, far, skip in zip(np.minimum(ta, tb), np.maximum(ta, tb), flat_axis):
            t0 = np.where(~skip & (near > t0), near, t0)
            t1 = np.where(~skip & (far < t1), far, t1)
        keep &= t1 - t0 > _EPS
        p = o + dirn * t0
        cell = np.clip(np.floor((p - lo) / h), 0, dims - 1).astype(np.int64)
        step = np.sign(dirn).astype(np.int64)
        t_max = np.where(dirn > 0, (lo + (cell + 1) * h - o) / dirn,
                         np.where(dirn < 0, (lo + cell * h - o) / dirn, np.inf))
        t_delta = np.where(step != 0, h / np.abs(dirn), np.inf)

    # a zero-length segment yields its own cell once, when that cell is inside
    start = np.floor((o[:, zero] - lo) / h).astype(np.int64)
    keep[zero] = ((start >= 0) & (start < dims)).all(axis=0)
    cell[:, zero] = start
    t0[zero] = 0.0
    t_max[:, zero] = np.inf

    # per axis: flat-index increment of one step, and steps left inside the grid
    inc = step * geom.strides[:, None]
    left = np.where(step < 0, cell, dims - 1 - cell)
    flat = geom.flat_index(cell.compress(keep, axis=1).T)
    ids, t_cur, t1 = np.flatnonzero(keep), t0[keep], t1[keep]
    t_max, t_delta, inc, left = (a.compress(keep, axis=1) for a in (t_max, t_delta, inc, left))
    alive = np.ones(ids.size, dtype=bool)
    live = ids.size
    rows = np.arange(ids.size)
    while live:
        if live == ids.size:
            yield ids, flat, t_cur
        else:
            yield ids[alive], flat[alive], t_cur[alive]
        n = ids.size
        # ties go to the lower axis, as with the scalar walk's strict comparisons
        at = (t_max[1] < t_max[0]).astype(np.intp)
        at[t_max[2] < np.minimum(t_max[0], t_max[1])] = 2
        # flat index of (axis, ray) into the (3, n) state
        at *= n
        at += rows
        tm, lf = t_max.reshape(-1), left.reshape(-1)
        t_cur = tm[at]
        # a finished ray's t_cur may be inf; inf + t_delta (>= 0) stays inf
        tm[at] = t_cur + t_delta.reshape(-1)[at]
        flat = flat + inc.reshape(-1)[at]
        rem = lf[at] - 1
        lf[at] = rem
        alive &= t1 - t_cur > _EPS
        alive &= rem >= 0
        live = np.count_nonzero(alive)
        if live < _COMPACT * n:
            ids, flat, t_cur, t1 = (a[alive] for a in (ids, flat, t_cur, t1))
            t_max, t_delta, inc, left = (a.compress(alive, axis=1)
                                         for a in (t_max, t_delta, inc, left))
            alive, rows = np.ones(live, dtype=bool), rows[:live]


def label_lidar(pc: PointCloud, semantics: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Per-voxel visibility from the point sensor, as a dense label array.

    Each return's voxel becomes non-occluded; occupied voxels further along
    the same ray (continued by the grid diagonal) become occluded. Free space
    stays empty. Returns whose ray crosses no cell mark nothing, and so does
    an empty point cloud. Return voxels are written after every occluded
    voxel, so they end non-occluded (the module's rank rule).
    """
    semantics = _check_semantics(semantics, geom)
    occupied = semantics.reshape(-1) != 0
    labels = np.zeros(occupied.shape[0], dtype=np.uint8)
    pts = pc.points
    with np.errstate(over="ignore"):
        beyond = _length(pts - pc.sensor_origin) + 1e-9
    cell_pt = geom.world_to_index(pts)
    inside = geom.contains_index(cell_pt)
    returns = np.zeros(0, dtype=np.int64)
    for k, (ids, cells, t_entry) in enumerate(_walk(pc.sensor_origin, pts, geom, geom.diagonal)):
        if k == 0:
            returns = geom.flat_index(cell_pt[ids[inside[ids]]])
        far = cells[t_entry > beyond[ids]]
        labels[far[occupied[far]]] = OcclusionLabel.OCCLUDED
    labels[returns] = OcclusionLabel.NON_OCCLUDED
    return labels.reshape(geom.dims)


def pixel_rays(cam: CameraModel, pixel_stride: int):
    """Camera center and unit ray direction per sampled pixel.

    Every ``pixel_stride``-th pixel of every ``pixel_stride``-th row, in
    row-major order, with the arithmetic of the pixel-to-world ``back_project``
    in ``tests/oracles.py`` at depth 1.
    """
    r = cam.extrinsics[:3, :3]
    t = cam.extrinsics[:3, 3]
    center = -r.T @ t
    w, h_img = cam.image_size
    v, u = np.meshgrid(np.arange(0, h_img, pixel_stride, dtype=np.float64),
                       np.arange(0, w, pixel_stride, dtype=np.float64), indexing="ij")
    pix = np.stack([(u.ravel() - cam.cx) / cam.fx, (v.ravel() - cam.cy) / cam.fy,
                    np.ones(u.size)], axis=1)
    direction = (pix - t) @ r - center
    return center, direction / _length(direction)[:, None]


def label_camera(rig: list[CameraModel], semantics: np.ndarray, geom: GridGeometry,
                 pixel_stride: int = 4) -> np.ndarray:
    """Per-voxel visibility from the cameras, as a dense label array.

    One ray per sampled pixel: the first occupied voxel it reaches becomes
    non-occluded, occupied voxels behind it become occluded. First hits are
    written after every occluded voxel, so they end non-occluded (the
    module's rank rule). Voxels outside every frustum stay empty, so an
    empty rig labels every voxel empty.
    The rays' cells do not depend on ``semantics``: they are walked once per
    rig, grid and stride (see :func:`_camera_rows`), and each call only
    gathers its occupancy along them.
    """
    semantics = _check_semantics(semantics, geom)
    if pixel_stride < 1:
        raise ConfigError(f"pixel stride must be a positive integer, got {pixel_stride}")
    if not rig:
        return np.zeros(geom.dims, dtype=np.uint8)
    corners = geom.origin_array + geom.span * np.stack(
        np.meshgrid([0, 1], [0, 1], [0, 1], indexing="ij"), axis=-1).reshape(-1, 3)
    origins, targets = [], []
    for cam in rig:
        center, direction = pixel_rays(cam, pixel_stride)
        reach = float(np.linalg.norm(corners - center, axis=1).max()) + geom.cell_size
        origins.append(np.broadcast_to(center, direction.shape))
        targets.append(center + direction * reach)
    cells, starts = _camera_rows(np.concatenate(origins), np.concatenate(targets), geom)
    hit = np.flatnonzero(semantics.reshape(-1)[cells] != 0)
    # rows are ray-major, so a ray's first hit is the first hit row past its start
    ray = np.searchsorted(starts, hit, side="right")
    first = np.diff(ray, prepend=-1) != 0
    labels = np.zeros(semantics.size, dtype=np.uint8)
    labels[cells[hit]] = OcclusionLabel.OCCLUDED
    labels[cells[hit[first]]] = OcclusionLabel.NON_OCCLUDED
    return labels.reshape(geom.dims)


# the last camera ray table: walk inputs (origins, targets, geom), then (cells, starts)
_camera_memo = None


def _camera_rows(origins: np.ndarray, targets: np.ndarray, geom: GridGeometry):
    """Cells the camera rays cross, as a read-only ray-major table.

    Returns ``(cells, starts)``: ray r's cells in walk order are
    ``cells[starts[r]:starts[r + 1]]`` (the last ray runs to the end), as
    flat C-order indices into ``geom.dims``. The cells depend only on the
    rays and the grid, not on a frame's semantics, so the table of the last
    call is kept and reused while ``origins``, ``targets`` and ``geom`` are
    exactly equal to that call's; any other input replaces it.
    """
    global _camera_memo
    memo = _camera_memo
    if (memo is not None and memo[2] == geom and np.array_equal(memo[0], origins)
            and np.array_equal(memo[1], targets)):
        return memo[3]
    dtype = np.int32 if math.prod(geom.dims) <= np.iinfo(np.int32).max else np.int64
    length = np.zeros(origins.shape[0], dtype=np.int64)
    steps = []
    for step_ids, step_cells, _ in _walk(origins, targets, geom):
        length[step_ids] += 1
        steps.append(step_cells.astype(dtype))
    # step k holds row k of exactly the rays longer than k, in ascending ray order
    starts = np.cumsum(length) - length
    cells = np.empty(int(length.sum()), dtype=dtype)
    for k, step_cells in enumerate(steps):
        cells[starts[length > k] + k] = step_cells
    for a in (origins, targets, cells, starts):
        a.flags.writeable = False
    _camera_memo = (origins, targets, geom, (cells, starts))
    return cells, starts


def combine_volumes(lidar: np.ndarray, cam: np.ndarray) -> np.ndarray:
    """Merge two sensors' integer label arrays voxel by voxel, as uint8.

    Non-occluded if either sensor says so; occluded only when both agree;
    empty whenever either sensor reports empty and neither saw the voxel.
    Non-occluded (1) is the only label with bit 0 set and occluded (2) the
    only one with bit 1 set. ``(l | c) & 1`` is 1 when either sensor saw the
    voxel; ``l & c`` is non-zero only when both labels are equal, so it adds
    occluded exactly when both agree on it.
    """
    if lidar.shape != cam.shape:
        raise ShapeError(f"label arrays differ in shape: {lidar.shape} vs {cam.shape}")
    out = np.bitwise_or(lidar, cam, dtype=np.uint8, casting="unsafe")
    out &= 1
    out |= np.bitwise_and(lidar, cam, dtype=np.uint8, casting="unsafe")
    return out


@dataclass
class OcclusionVolume:
    """Dense semantic classes plus visibility labels on one lattice."""

    geometry: GridGeometry
    semantics: np.ndarray
    occlusion: np.ndarray

    def __post_init__(self):
        self.semantics = np.asarray(self.semantics)
        self.occlusion = np.asarray(self.occlusion)
        dims = self.geometry.dims
        if self.semantics.shape != dims or self.occlusion.shape != dims:
            raise ShapeError(f"volume arrays must have shape {dims}, got "
                             f"{self.semantics.shape} and {self.occlusion.shape}")
        if self.occlusion.size and self.occlusion.max() > 2:
            raise ValueError("occlusion labels must be 0, 1 or 2")
        # gather the few labelled voxels, not the ~98% unoccupied ones
        labelled = np.flatnonzero(self.occlusion != OcclusionLabel.EMPTY)
        if (self.semantics.reshape(-1)[labelled] == 0).any():
            raise ValueError("unoccupied voxels must carry the empty label")


def build_volume(semantics: np.ndarray, lidar_labels: np.ndarray, cam_labels: np.ndarray,
                 geom: GridGeometry) -> OcclusionVolume:
    """Combine both sensors and force unoccupied voxels to empty."""
    semantics = _check_semantics(semantics, geom)
    merged = combine_volumes(lidar_labels, cam_labels)
    # EMPTY is 0, so zeroing unoccupied voxels is one in-place product
    np.multiply(merged, semantics != 0, out=merged)
    return OcclusionVolume(geom, semantics, merged)


def assemble_output(sem: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """Concatenate semantic and visibility channels into one 21-channel array."""
    sem = np.asarray(sem, dtype=np.float64)
    occ = np.asarray(occ, dtype=np.float64)
    if sem.shape[-1] != SEM_CHANNELS:
        raise ShapeError(f"semantic block must carry {SEM_CHANNELS} channels, got {sem.shape[-1]}")
    if occ.shape[-1] != OCC_CHANNELS:
        raise ShapeError(f"visibility block must carry {OCC_CHANNELS} channels, got {occ.shape[-1]}")
    if sem.shape[:-1] != occ.shape[:-1]:
        raise ShapeError(f"spatial shapes differ: {sem.shape[:-1]} vs {occ.shape[:-1]}")
    return np.concatenate([sem, occ], axis=-1)


def decoder_input_set(output: SparseVoxelGrid) -> SparseVoxelGrid:
    """Rows of a 21-channel grid whose visibility argmax is non-occluded or occluded.

    Cells absent from ``output`` hold :data:`BACKGROUND_ROW`, whose visibility
    argmax is empty, so only the grid's rows are read. The result keeps the
    grid's sorted row order, which is ``np.argwhere`` order over the dense view.
    """
    if output.channels != SEM_CHANNELS + OCC_CHANNELS:
        raise ShapeError(f"expected {SEM_CHANNELS + OCC_CHANNELS} channels, got {output.channels}")
    visible = np.argmax(output.features[:, SEM_CHANNELS:], axis=1) != OcclusionLabel.EMPTY
    return SparseVoxelGrid(output.geometry, output.coords[visible], output.features[visible])


def _check_semantics(semantics: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """``semantics`` as an array of ``geom``'s shape; its labels are integers, none negative."""
    semantics = np.asarray(semantics)
    if semantics.shape != geom.dims:
        raise ShapeError(f"semantic volume must have shape {geom.dims}, got {semantics.shape}")
    kind = semantics.dtype.kind  # an unsigned volume holds no negative label, so is not scanned
    if kind not in "biu" or kind == "i" and semantics.min(initial=0) < 0:
        raise ValueError(f"semantic labels must be non-negative integers (dtype {semantics.dtype})")
    return semantics


# ---------------------------------------------------------------------------
# file formats


def write_volume(path, vol: np.ndarray, geom: GridGeometry) -> None:
    """Flat uint8 array (x slowest) plus a text sidecar '<path>.meta'.

    uint8 is the only format: every label volume the program writes fits in a byte.
    """
    vol = np.asarray(vol)
    if vol.shape != geom.dims:
        raise ShapeError(f"volume shape {vol.shape} does not match dims {geom.dims}")
    if vol.dtype != np.uint8:
        raise ShapeError(f"volumes must be uint8, got {vol.dtype}")
    np.ascontiguousarray(vol).tofile(path)
    lines = [
        f"dims={geom.dims[0]} {geom.dims[1]} {geom.dims[2]}",
        "dims_scale1={} {} {}".format(*geom.dims_scale1),
        f"scale={geom.scale}",
        f"origin={geom.origin[0]} {geom.origin[1]} {geom.origin[2]}",
        f"voxel_size={geom.voxel_size}",
        "dtype=uint8",
    ]
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_volume(path):
    """Inverse of :func:`write_volume`; returns (array, GridGeometry)."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"volume file {path} does not exist")
    meta = {}
    try:
        with open(f"{path}.meta", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    key, _, val = line.partition("=")
                    meta[key] = val
    except FileNotFoundError:
        raise ParseError(f"{path}.meta not found; volumes need their sidecar header") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}.meta is not UTF-8 text: {exc}") from None
    try:
        dims = tuple(int(v) for v in meta["dims"].split())
        scale = int(meta["scale"])
        origin = tuple(float(v) for v in meta["origin"].split())
        voxel_size = float(meta["voxel_size"])
        dims_scale1 = tuple(int(v) for v in meta["dims_scale1"].split())
        if meta["dtype"] != "uint8":
            raise ValueError(f"dtype must be uint8, got {meta['dtype']!r}")
        geom = GridGeometry(origin, voxel_size, dims_scale1, scale)
        if dims != geom.dims:
            raise ValueError(f"dims {dims} are not dims_scale1 {geom.dims_scale1} at scale {scale}")
    except KeyError as exc:
        raise ParseError(f"{path}.meta is malformed: the required key {exc.args[0]} is missing") from None
    except (ValueError, InvalidScale) as exc:
        raise ParseError(f"{path}.meta is malformed: {exc}") from exc
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size != dims[0] * dims[1] * dims[2]:
        raise ParseError(f"{path}: expected {dims[0] * dims[1] * dims[2]} voxels, got {raw.size}")
    return raw.reshape(dims), geom


def read_kitti_label_volume(path, dims) -> np.ndarray:
    """Dense label volume: one little-endian uint16 per voxel, x slowest."""
    raw = np.fromfile(path, dtype="<u2")
    want = dims[0] * dims[1] * dims[2]
    if raw.size != want:
        raise ParseError(f"{path}: expected {want} voxels, got {raw.size}")
    return raw.reshape(dims).astype(np.uint16, copy=False)


def read_kitti_bitmask(path, dims) -> np.ndarray:
    """Bit-packed boolean volume (most significant bit first, x slowest)."""
    raw = np.fromfile(path, dtype=np.uint8)
    want = dims[0] * dims[1] * dims[2]
    if raw.size * 8 < want:
        raise ParseError(f"{path}: expected at least {want} bits, got {raw.size * 8}")
    bits = np.unpackbits(raw)[:want]
    return bits.reshape(dims).astype(bool)

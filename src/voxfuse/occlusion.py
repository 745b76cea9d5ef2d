"""Visibility-aware ground truth: ray traversal, per-sensor labels, merging.

Each sensor ray marks the voxel it hits as non-occluded and every occupied
voxel further along the ray as occluded. Per-voxel merging uses the priority
non-occluded > occluded > empty, so results do not depend on ray order. The
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
from .errors import ConfigError, ParseError, ShapeError
from .grid import GridGeometry, SparseVoxelGrid, VoxelIndex
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


# merge priority per label value: non-occluded beats occluded beats empty
_PRIORITY = np.array([0, 2, 1], dtype=np.uint8)
# inverse: priority-encoded value back to label
_FROM_PRIORITY = np.array([0, 2, 1], dtype=np.uint8)

_EPS = 1e-12


def _length(d):
    """Euclidean length over the last axis, summed in one fixed order.

    One ray and a batch of rays then get bit-identical lengths, which
    ``np.linalg.norm`` on a single 3-vector (a BLAS dot) does not give.
    """
    return np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2])


def _traverse_arrays(origin, target, geom: GridGeometry, margin: float = 0.0):
    """Cells crossed by the segment origin->target (+margin), with entry parameters.

    Returns (coords (M, 3) int64, t_entry (M,) float64) ordered by distance.
    Cells the segment touches with zero length are not reported.
    """
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    d = np.asarray(target, dtype=np.float64).reshape(3) - o
    seg = float(_length(d))
    lo = geom.origin_array
    h = geom.cell_size
    dims = geom.dims
    if seg < _EPS:
        idx = np.floor((o - lo) / h).astype(np.int64)
        if (idx >= 0).all() and (idx < np.asarray(dims)).all():
            return idx.reshape(1, 3), np.zeros(1)
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
    dirn = d / seg
    t1 = seg + margin
    t0 = 0.0
    for i in range(3):
        if abs(dirn[i]) < 1e-15:
            if o[i] < lo[i] or o[i] >= lo[i] + dims[i] * h:
                return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
        else:
            ta = (lo[i] - o[i]) / dirn[i]
            tb = (lo[i] + dims[i] * h - o[i]) / dirn[i]
            if ta > tb:
                ta, tb = tb, ta
            if ta > t0:
                t0 = ta
            if tb < t1:
                t1 = tb
    if t1 - t0 <= _EPS:
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0)

    p = o + dirn * t0
    cell = [min(dims[i] - 1, max(0, int(math.floor((p[i] - lo[i]) / h)))) for i in range(3)]
    step = [0, 0, 0]
    t_max = [math.inf, math.inf, math.inf]
    t_delta = [math.inf, math.inf, math.inf]
    # a subnormal direction component overflows these to inf, which is exact
    with np.errstate(over="ignore", divide="ignore"):
        for i in range(3):
            if dirn[i] > 0:
                step[i] = 1
                t_max[i] = (lo[i] + (cell[i] + 1) * h - o[i]) / dirn[i]
                t_delta[i] = h / dirn[i]
            elif dirn[i] < 0:
                step[i] = -1
                t_max[i] = (lo[i] + cell[i] * h - o[i]) / dirn[i]
                t_delta[i] = -h / dirn[i]

    coords = []
    entries = []
    t_cur = t0
    while True:
        coords.append((cell[0], cell[1], cell[2]))
        entries.append(t_cur)
        axis = 0
        if t_max[1] < t_max[axis]:
            axis = 1
        if t_max[2] < t_max[axis]:
            axis = 2
        t_cur = t_max[axis]
        if t1 - t_cur <= _EPS:
            break
        cell[axis] += step[axis]
        if cell[axis] < 0 or cell[axis] >= dims[axis]:
            break
        t_max[axis] += t_delta[axis]
    return np.array(coords, dtype=np.int64), np.array(entries)


def traverse(origin, target, geom: GridGeometry, margin: float = 0.0) -> list[VoxelIndex]:
    """Every voxel the segment passes through, nearest first, each exactly once.

    ``margin`` extends the walk that many meters past the target. Segments
    that miss the grid return an empty list; segments starting outside enter
    at the boundary.
    """
    coords, _ = _traverse_arrays(origin, target, geom, margin)
    return [VoxelIndex(int(x), int(y), int(z), geom.scale) for x, y, z in coords]


def _walk(origins, targets, geom: GridGeometry, margin: float = 0.0):
    """:func:`_traverse_arrays` on many segments at once, all rays in lockstep.

    Yields one ``(ray_ids, flat_cells, t_entry)`` triple per step: step k
    holds row k of every ray that has one, with cells as flat C-order indices
    into ``geom.dims``. The arithmetic is the scalar walk's, operation for
    operation, so each ray's rows equal its scalar rows bit for bit. Finished
    rays are dropped, so memory stays proportional to the ray count.
    """
    o = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    d = np.asarray(targets, dtype=np.float64).reshape(-1, 3) - o
    seg = _length(d)
    zero = seg < _EPS
    # per-ray state is (3, rays): one contiguous row per axis
    o = np.broadcast_to(o, d.shape).T
    dirn = d.T / np.where(zero, 1.0, seg)
    lo = geom.origin_array[:, None]
    h = geom.cell_size
    dims = np.asarray(geom.dims)[:, None]
    hi = lo + dims * h
    flat_axis = np.abs(dirn) < 1e-15
    keep = ~zero & ~(flat_axis & ((o < lo) | (o >= hi))).any(axis=0)
    t0 = np.zeros(seg.shape[0])
    t1 = seg + margin
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    inc = step * np.array([[dims[1, 0] * dims[2, 0]], [dims[2, 0]], [1]])
    left = np.where(step < 0, cell, dims - 1 - cell)
    flat = np.ravel_multi_index(tuple(cell), geom.dims, mode="clip")[keep]
    ids, t_cur, t1 = np.flatnonzero(keep), t0[keep], t1[keep]
    t_max, t_delta, inc, left = (a.compress(keep, axis=1) for a in (t_max, t_delta, inc, left))
    while ids.size:
        yield ids, flat, t_cur
        n = ids.size
        # ties go to the lower axis, as with the scalar walk's strict comparisons
        axis = (t_max[1] < t_max[0]).astype(np.intp)
        axis[t_max[2] < np.minimum(t_max[0], t_max[1])] = 2
        at = axis * n + np.arange(n)
        tm, lf = t_max.reshape(-1), left.reshape(-1)
        t_cur = tm[at]
        tm[at] = t_cur + t_delta.reshape(-1)[at]
        flat = flat + inc.reshape(-1)[at]
        rem = lf[at] - 1
        lf[at] = rem
        go = (t1 - t_cur > _EPS) & (rem >= 0)
        if not go.all():
            ids, flat, t_cur, t1 = (a[go] for a in (ids, flat, t_cur, t1))
            t_max, t_delta, inc, left = (a.compress(go, axis=1)
                                         for a in (t_max, t_delta, inc, left))


def label_lidar(pc: PointCloud, semantics: np.ndarray, geom: GridGeometry,
                margin: float | None = None) -> np.ndarray:
    """Per-voxel visibility from the point sensor, as a dense label array.

    Each return's voxel becomes non-occluded; occupied voxels further along
    the same ray (continued ``margin`` meters, default the grid diagonal)
    become occluded. Free space stays empty. Returns whose ray crosses no
    cell mark nothing.
    """
    semantics = _check_semantics(semantics, geom)
    if margin is None:
        margin = geom.diagonal
    sem = semantics.reshape(-1)
    prio = np.zeros(sem.shape[0], dtype=np.uint8)
    dims = np.asarray(geom.dims)
    pts = pc.points
    beyond = _length(pts - pc.sensor_origin) + 1e-9
    cell_pt = np.floor((pts - geom.origin_array) / geom.cell_size).astype(np.int64)
    inside = ((cell_pt >= 0) & (cell_pt < dims)).all(axis=1)
    flat_pt = np.ravel_multi_index(tuple(cell_pt.T), geom.dims, mode="clip")
    for k, (ids, cells, t_entry) in enumerate(_walk(pc.sensor_origin, pts, geom, margin)):
        if k == 0:
            prio[flat_pt[ids[inside[ids]]]] = 2
        far = cells[t_entry > beyond[ids]]
        far = far[sem[far] > 0]
        prio[far] = np.maximum(prio[far], 1)
    return _FROM_PRIORITY[prio].reshape(geom.dims)


def _pixel_rays(cam: CameraModel, pixel_stride: int):
    """Camera center and unit ray direction per sampled pixel.

    Same arithmetic as :func:`back_project` at depth 1 for each pixel.
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
    non-occluded, occupied voxels behind it become occluded. Voxels outside
    every frustum stay empty.
    """
    semantics = _check_semantics(semantics, geom)
    if not rig:
        raise ValueError("rig must hold at least one camera")
    if pixel_stride < 1:
        raise ConfigError(f"pixel stride must be a positive integer, got {pixel_stride}")
    lo = geom.origin_array
    span = np.asarray(geom.dims) * geom.cell_size
    corners = lo + span * np.stack(np.meshgrid([0, 1], [0, 1], [0, 1],
                                               indexing="ij"), axis=-1).reshape(-1, 3)
    origins, targets = [], []
    for cam in rig:
        center, direction = _pixel_rays(cam, pixel_stride)
        reach = float(np.linalg.norm(corners - center, axis=1).max()) + geom.cell_size
        origins.append(np.broadcast_to(center, direction.shape))
        targets.append(center + direction * reach)
    origins = np.concatenate(origins)
    sem = semantics.reshape(-1)
    prio = np.zeros(sem.shape[0], dtype=np.uint8)
    struck = np.zeros(origins.shape[0], dtype=bool)
    for ids, cells, _ in _walk(origins, np.concatenate(targets), geom):
        hit = sem[cells] > 0
        ids, cells = ids[hit], cells[hit]
        first = ~struck[ids]
        prio[cells[first]] = 2
        rest = cells[~first]
        prio[rest] = np.maximum(prio[rest], 1)
        struck[ids] = True
    return _FROM_PRIORITY[prio].reshape(geom.dims)


def combine(lidar: int, cam: int) -> int:
    """Merge one voxel's two sensor labels.

    Non-occluded if either sensor says so; occluded only when both agree;
    empty whenever either sensor reports empty (and neither saw it directly).
    """
    if lidar == OcclusionLabel.NON_OCCLUDED or cam == OcclusionLabel.NON_OCCLUDED:
        return OcclusionLabel.NON_OCCLUDED
    if lidar == OcclusionLabel.OCCLUDED and cam == OcclusionLabel.OCCLUDED:
        return OcclusionLabel.OCCLUDED
    return OcclusionLabel.EMPTY


def combine_volumes(lidar: np.ndarray, cam: np.ndarray) -> np.ndarray:
    """Array form of :func:`combine`."""
    if lidar.shape != cam.shape:
        raise ShapeError(f"label arrays differ in shape: {lidar.shape} vs {cam.shape}")
    out = np.zeros(lidar.shape, dtype=np.uint8)
    out[(lidar == OcclusionLabel.OCCLUDED) & (cam == OcclusionLabel.OCCLUDED)] = \
        OcclusionLabel.OCCLUDED
    out[(lidar == OcclusionLabel.NON_OCCLUDED) | (cam == OcclusionLabel.NON_OCCLUDED)] = \
        OcclusionLabel.NON_OCCLUDED
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
        if (self.occlusion[self.semantics == 0] != OcclusionLabel.EMPTY).any():
            raise ValueError("unoccupied voxels must carry the empty label")

    @property
    def occupied_mask(self) -> np.ndarray:
        return self.semantics > 0


def build_volume(semantics: np.ndarray, lidar_labels: np.ndarray, cam_labels: np.ndarray,
                 geom: GridGeometry) -> OcclusionVolume:
    """Combine both sensors and force unoccupied voxels to empty."""
    merged = combine_volumes(lidar_labels, cam_labels)
    merged[np.asarray(semantics) == 0] = OcclusionLabel.EMPTY
    return OcclusionVolume(geom, np.asarray(semantics), merged)


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
    semantics = np.asarray(semantics)
    if semantics.shape != geom.dims:
        raise ShapeError(f"semantic volume must have shape {geom.dims}, got {semantics.shape}")
    return semantics


def _blocks(vol: np.ndarray, factor: int) -> np.ndarray:
    x, y, z = vol.shape
    if x % factor or y % factor or z % factor:
        raise ShapeError(f"dims {vol.shape} not divisible by {factor}")
    return (vol.reshape(x // factor, factor, y // factor, factor, z // factor, factor)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(-1, factor ** 3))


def downsample_semantics(sem: np.ndarray, factor: int) -> np.ndarray:
    """Majority vote over each block's occupied voxels; empty when none are.

    Ties resolve to the smallest class id.
    """
    sem = np.asarray(sem)
    blocks = _blocks(sem, factor)
    n_classes = int(sem.max()) + 1 if sem.size else 1
    counts = np.zeros((blocks.shape[0], max(n_classes, 1)), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(blocks.shape[0]), blocks.shape[1]),
                       blocks.reshape(-1)), 1)
    counts[:, 0] = 0
    maj = np.argmax(counts, axis=1)
    maj[counts.sum(axis=1) == 0] = 0
    shape = tuple(d // factor for d in sem.shape)
    return maj.reshape(shape).astype(sem.dtype)


def downsample_occlusion(occ: np.ndarray, factor: int) -> np.ndarray:
    """Priority merge over each block: any non-occluded child wins, then occluded."""
    occ = np.asarray(occ, dtype=np.uint8)
    blocks = _blocks(occ, factor)
    merged = _FROM_PRIORITY[_PRIORITY[blocks].max(axis=1)]
    return merged.reshape(tuple(d // factor for d in occ.shape))


# ---------------------------------------------------------------------------
# file formats


def write_volume(path, vol: np.ndarray, geom: GridGeometry) -> None:
    """Flat little-endian array (x slowest) plus a text sidecar '<path>.meta'."""
    vol = np.asarray(vol)
    if vol.shape != geom.dims:
        raise ShapeError(f"volume shape {vol.shape} does not match dims {geom.dims}")
    if vol.dtype == np.uint8:
        dtype = "uint8"
        np.ascontiguousarray(vol).tofile(path)
    elif vol.dtype == np.uint16:
        dtype = "uint16"
        np.ascontiguousarray(vol.astype("<u2")).tofile(path)
    else:
        raise ShapeError(f"volumes must be uint8 or uint16, got {vol.dtype}")
    lines = [
        f"dims={geom.dims[0]} {geom.dims[1]} {geom.dims[2]}",
        f"scale={geom.scale}",
        f"origin={geom.origin[0]} {geom.origin[1]} {geom.origin[2]}",
        f"voxel_size={geom.voxel_size}",
        f"dtype={dtype}",
    ]
    with open(f"{path}.meta", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_volume(path):
    """Inverse of :func:`write_volume`; returns (array, GridGeometry)."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"volume file {path} does not exist")
    meta = {}
    try:
        with open(f"{path}.meta") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    key, _, val = line.partition("=")
                    meta[key] = val
    except FileNotFoundError:
        raise ParseError(f"{path}.meta not found; volumes need their sidecar header") from None
    try:
        dims = tuple(int(v) for v in meta["dims"].split())
        scale = int(meta["scale"])
        origin = tuple(float(v) for v in meta["origin"].split())
        voxel_size = float(meta["voxel_size"])
        dtype = {"uint8": np.uint8, "uint16": "<u2"}[meta["dtype"]]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}.meta is malformed: {exc}") from exc
    raw = np.fromfile(path, dtype=dtype)
    if raw.size != dims[0] * dims[1] * dims[2]:
        raise ParseError(f"{path}: expected {dims[0] * dims[1] * dims[2]} voxels, got {raw.size}")
    geom = GridGeometry(origin, voxel_size, tuple(d * scale for d in dims), scale)
    return raw.reshape(dims).astype(np.uint16 if meta["dtype"] == "uint16" else np.uint8), geom


def read_kitti_label_volume(path, dims=(256, 256, 32)) -> np.ndarray:
    """Dense label volume: one little-endian uint16 per voxel, x slowest."""
    raw = np.fromfile(path, dtype="<u2")
    want = dims[0] * dims[1] * dims[2]
    if raw.size != want:
        raise ParseError(f"{path}: expected {want} voxels, got {raw.size}")
    return raw.reshape(dims).astype(np.uint16)


def read_kitti_bitmask(path, dims=(256, 256, 32)) -> np.ndarray:
    """Bit-packed boolean volume (most significant bit first, x slowest)."""
    raw = np.fromfile(path, dtype=np.uint8)
    want = dims[0] * dims[1] * dims[2]
    if raw.size * 8 < want:
        raise ParseError(f"{path}: expected at least {want} bits, got {raw.size * 8}")
    bits = np.unpackbits(raw)[:want]
    return bits.reshape(dims).astype(bool)


def read_nuscenes_occupancy(path):
    """Sparse annotation rows (x, y, z, class) -> (coords (N, 3), labels (N,)).

    Accepts an .npy/.npz holding an (N, 4) integer array. Other layouts exist
    in the wild; they must be converted to flat rows first.
    """
    try:
        loaded = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if isinstance(loaded, np.lib.npyio.NpzFile):
        keys = list(loaded.keys())
        arr = loaded[keys[0]]
    else:
        arr = loaded
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ParseError(f"{path}: expected flat (x, y, z, class) rows of shape (N, 4), "
                         f"got {arr.shape}")
    return arr[:, :3].astype(np.int64), arr[:, 3].astype(np.int64)


def dense_from_sparse_labels(coords: np.ndarray, labels: np.ndarray,
                             geom: GridGeometry) -> np.ndarray:
    """Scatter sparse class rows into a dense uint16 volume (0 where absent)."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    labels = np.asarray(labels).reshape(-1)
    if coords.shape[0] != labels.shape[0]:
        raise ShapeError(f"{coords.shape[0]} coords but {labels.shape[0]} labels")
    dims = np.asarray(geom.dims)
    if coords.size and ((coords < 0).any() or (coords >= dims).any()):
        raise ParseError("sparse label coordinates fall outside the grid")
    out = np.zeros(geom.dims, dtype=np.uint16)
    out[coords[:, 0], coords[:, 1], coords[:, 2]] = labels.astype(np.uint16)
    return out

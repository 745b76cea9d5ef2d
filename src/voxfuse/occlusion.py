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

from .camera import CameraModel, back_project
from .errors import ConfigError, ParseError, ShapeError
from .grid import GridGeometry, VoxelIndex
from .lidar import PointCloud

SEM_CHANNELS = 18
OCC_CHANNELS = 3


class OcclusionLabel(IntEnum):
    EMPTY = 0
    NON_OCCLUDED = 1
    OCCLUDED = 2


# merge priority per label value: non-occluded beats occluded beats empty
_PRIORITY = np.array([0, 2, 1], dtype=np.uint8)
# inverse: priority-encoded value back to label
_FROM_PRIORITY = np.array([0, 2, 1], dtype=np.uint8)

_EPS = 1e-12


def _traverse_arrays(origin, target, geom: GridGeometry, margin: float = 0.0):
    """Cells crossed by the segment origin->target (+margin), with entry parameters.

    Returns (coords (M, 3) int64, t_entry (M,) float64) ordered by distance.
    Cells the segment touches with zero length are not reported.
    """
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    d = np.asarray(target, dtype=np.float64).reshape(3) - o
    seg = float(np.linalg.norm(d))
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


def label_lidar(pc: PointCloud, semantics: np.ndarray, geom: GridGeometry,
                margin: float | None = None) -> np.ndarray:
    """Per-voxel visibility from the point sensor, as a dense label array.

    Each return's voxel becomes non-occluded; occupied voxels further along
    the same ray (continued ``margin`` meters, default the grid diagonal)
    become occluded. Free space stays empty.
    """
    semantics = _check_semantics(semantics, geom)
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
        t_point = float(np.linalg.norm(p - origin))
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
                sel = (bc[:, 0], bc[:, 1], bc[:, 2])
                np.maximum.at(prio, sel, np.uint8(1))
    return _FROM_PRIORITY[prio]


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
    prio = np.zeros(geom.dims, dtype=np.uint8)
    lo = geom.origin_array
    span = np.asarray(geom.dims) * geom.cell_size
    corners = lo + span * np.stack(np.meshgrid([0, 1], [0, 1], [0, 1],
                                               indexing="ij"), axis=-1).reshape(-1, 3)
    for cam in rig:
        r = cam.extrinsics[:3, :3]
        center = -r.T @ cam.extrinsics[:3, 3]
        reach = float(np.linalg.norm(corners - center, axis=1).max()) + geom.cell_size
        w, h_img = cam.image_size
        for v in range(0, h_img, pixel_stride):
            for u in range(0, w, pixel_stride):
                direction = back_project(cam, float(u), float(v), 1.0) - center
                direction /= np.linalg.norm(direction)
                coords, _ = _traverse_arrays(center, center + direction * reach, geom)
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
    return _FROM_PRIORITY[prio]


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


def decoder_input_set(output21: np.ndarray) -> np.ndarray:
    """Coordinates whose visibility argmax is non-occluded or occluded.

    The all-zero visibility block argmaxes to empty, so untouched voxels are
    excluded.
    """
    out = np.asarray(output21)
    if out.shape[-1] != SEM_CHANNELS + OCC_CHANNELS:
        raise ShapeError(f"expected {SEM_CHANNELS + OCC_CHANNELS} channels, got {out.shape[-1]}")
    occ_arg = np.argmax(out[..., SEM_CHANNELS:], axis=-1)
    return np.argwhere(occ_arg != OcclusionLabel.EMPTY).astype(np.int64)


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

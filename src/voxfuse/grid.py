"""Multi-scale sparse voxel grids, index algebra and world<->voxel transforms.

Coordinates are non-negative integers on a lattice whose cell edge grows with
the scale factor; scale 1 is the finest resolution. Points map to indices by
flooring, so a point exactly on a cell face belongs to the upper cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateVoxels, InvalidFactor, InvalidScale, OutOfBounds, ShapeError

VALID_SCALES = (1, 2, 4, 8, 16)

# 21 bits per axis in the packed 64-bit lookup key
_AXIS_BITS = 21
_AXIS_MAX = 1 << _AXIS_BITS

_PRESETS = {
    "nuscenes-occ": ((-51.2, -51.2, -5.0), 0.2, (512, 512, 40)),
    "semantickitti": ((0.0, -25.6, -2.0), 0.2, (256, 256, 32)),
}


@dataclass(frozen=True)
class GridGeometry:
    """Axis-aligned voxel lattice: world origin, base cell edge, base extent, scale."""

    origin: tuple[float, float, float]
    voxel_size: float
    dims_scale1: tuple[int, int, int]
    scale: int = 1

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "dims_scale1", tuple(int(v) for v in self.dims_scale1))
        if not all(math.isfinite(v) for v in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if self.voxel_size <= 0:
            raise ValueError(f"voxel_size must be positive, got {self.voxel_size}")
        if self.scale not in VALID_SCALES:
            raise InvalidScale(f"scale must be one of {VALID_SCALES}, got {self.scale}")
        if any(d <= 0 for d in self.dims_scale1):
            raise ValueError(f"dims_scale1 must be positive, got {self.dims_scale1}")
        if any(d > _AXIS_MAX for d in self.dims_scale1):
            raise ValueError(f"dims_scale1 {self.dims_scale1} exceed the {_AXIS_BITS}-bit key budget")

    @classmethod
    def preset(cls, name: str, scale: int = 1) -> GridGeometry:
        """Named dataset geometry: 'nuscenes-occ' (512x512x40) or 'semantickitti' (256x256x32)."""
        try:
            origin, voxel_size, dims = _PRESETS[name]
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}") from None
        return cls(origin, voxel_size, dims, scale)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Grid extent at this scale: ceil(dims_scale1 / scale) per axis."""
        return tuple(-(-d // self.scale) for d in self.dims_scale1)

    @property
    def cell_size(self) -> float:
        """Cell edge length in meters at this scale."""
        return self.voxel_size * self.scale

    @property
    def origin_array(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=np.float64)

    @property
    def diagonal(self) -> float:
        """World-space diagonal of the full grid, in meters."""
        ext = np.asarray(self.dims_scale1, dtype=np.float64) * self.voxel_size
        return float(np.linalg.norm(ext))

    def with_scale(self, scale: int) -> GridGeometry:
        return GridGeometry(self.origin, self.voxel_size, self.dims_scale1, scale)

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Floor points (N, 3) onto this scale's lattice. No bounds check."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return np.floor((pts - self.origin_array) / self.cell_size).astype(np.int64)

    def contains_index(self, coords: np.ndarray) -> np.ndarray:
        """Boolean in-bounds mask for integer coords (N, 3) at this scale."""
        c = np.asarray(coords).reshape(-1, 3)
        dims = np.asarray(self.dims)
        return np.logical_and(c >= 0, c < dims).all(axis=1)


@dataclass(frozen=True, order=True)
class VoxelIndex:
    """A single cell: non-negative lattice coordinates plus the scale they live at."""

    x: int
    y: int
    z: int
    scale: int = 1

    @property
    def xyz(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def align_scale(idx: VoxelIndex, target_scale: int) -> VoxelIndex:
    """Re-express an index at another scale.

    Coarser->finer multiplies coordinates by the scale ratio (anchor corner);
    finer->coarser integer-divides, which drops sub-cell phase and is lossy by
    construction. Scales must be related by an integer factor.
    """
    if target_scale < 1:
        raise InvalidScale(f"target scale must be >= 1, got {target_scale}")
    if idx.scale == target_scale:
        return idx
    if idx.scale % target_scale == 0:
        f = idx.scale // target_scale
        return VoxelIndex(idx.x * f, idx.y * f, idx.z * f, target_scale)
    if target_scale % idx.scale == 0:
        f = target_scale // idx.scale
        return VoxelIndex(idx.x // f, idx.y // f, idx.z // f, target_scale)
    raise InvalidScale(f"scales {idx.scale} and {target_scale} are not related by an integer factor")


def align_coords(coords: np.ndarray, from_scale: int, to_scale: int) -> np.ndarray:
    """Array version of :func:`align_scale` for (N, 3) integer coords."""
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if from_scale == to_scale:
        return c.copy()
    if from_scale % to_scale == 0:
        return c * (from_scale // to_scale)
    if to_scale % from_scale == 0:
        return c // (to_scale // from_scale)
    raise InvalidScale(f"scales {from_scale} and {to_scale} are not related by an integer factor")


def subdivide(idx: VoxelIndex, factor: int) -> list[VoxelIndex]:
    """Tile a cell into factor^3 children one or two scale levels finer.

    Children are returned in lexicographic order (z fastest) and exactly tile
    the parent: factor 2 gives the 8 sub-voxels, factor 4 the 64.
    """
    if factor not in (2, 4):
        raise InvalidFactor(f"subdivision factor must be 2 or 4, got {factor}")
    if idx.scale % factor != 0:
        raise InvalidScale(f"scale {idx.scale} is not divisible by factor {factor}")
    child_scale = idx.scale // factor
    bx, by, bz = idx.x * factor, idx.y * factor, idx.z * factor
    return [
        VoxelIndex(bx + i, by + j, bz + k, child_scale)
        for i in range(factor)
        for j in range(factor)
        for k in range(factor)
    ]


def subdivide_coords(coords: np.ndarray, factor: int) -> np.ndarray:
    """Children of (N, 3) parent coords as (N * factor^3, 3), z fastest per parent."""
    if factor not in (2, 4):
        raise InvalidFactor(f"subdivision factor must be 2 or 4, got {factor}")
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    rng = np.arange(factor, dtype=np.int64)
    off = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    return (c[:, None, :] * factor + off[None, :, :]).reshape(-1, 3)


def voxel_center(idx: VoxelIndex, geom: GridGeometry) -> np.ndarray:
    """World-space center of a cell: origin + (idx + 0.5) * cell edge at idx.scale."""
    dims = geom.with_scale(idx.scale).dims
    if not (0 <= idx.x < dims[0] and 0 <= idx.y < dims[1] and 0 <= idx.z < dims[2]):
        raise OutOfBounds(f"{idx} outside dims {dims} at scale {idx.scale}")
    size = geom.voxel_size * idx.scale
    return geom.origin_array + (np.array([idx.x, idx.y, idx.z], dtype=np.float64) + 0.5) * size


def centers_for(coords: np.ndarray, scale: int, geom: GridGeometry) -> np.ndarray:
    """World-space centers for (N, 3) integer coords at the given scale. No bounds check."""
    c = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    return geom.origin_array + (c + 0.5) * (geom.voxel_size * scale)


def pack_keys(coords: np.ndarray) -> np.ndarray:
    """Pack (N, 3) non-negative coords into 64-bit keys, 21 bits per axis.

    The packing is monotone in lexicographic (x, y, z) order, so sorted keys
    iterate the grid deterministically.
    """
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if c.size and (c.min() < 0 or c.max() >= _AXIS_MAX):
        raise OutOfBounds(f"coords outside the {_AXIS_BITS}-bit packing range")
    return (c[:, 0] << (2 * _AXIS_BITS)) | (c[:, 1] << _AXIS_BITS) | c[:, 2]


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    k = np.asarray(keys, dtype=np.int64).reshape(-1)
    mask = _AXIS_MAX - 1
    return np.stack([(k >> (2 * _AXIS_BITS)) & mask, (k >> _AXIS_BITS) & mask, k & mask], axis=1)


def unique_coords(coords: np.ndarray) -> np.ndarray:
    """Distinct (N, 3) non-negative coords in lexicographic order.

    The same rows as ``np.unique(coords, axis=0)``, found by one sort of the
    packed keys.
    """
    return unpack_keys(np.unique(pack_keys(coords)))


class SparseVoxelGrid:
    """Immutable coordinate-indexed feature storage at a single scale.

    Rows are sorted lexicographically by (x, y, z) at construction, so grids
    built from the same cells in any order are identical. Lookup is binary
    search over the packed keys. Arrays are frozen after construction; the
    grid is safe for concurrent reads.
    """

    __slots__ = ("geometry", "coords", "features", "meta", "_keys")

    def __init__(self, geometry: GridGeometry, coords, features, meta: dict | None = None):
        coords = np.ascontiguousarray(np.asarray(coords, dtype=np.int64).reshape(-1, 3))
        features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        if features.ndim != 2:
            raise ShapeError(f"features must be (N, C), got shape {features.shape}")
        if features.shape[0] != coords.shape[0]:
            raise ShapeError(f"{coords.shape[0]} coords but {features.shape[0]} feature rows")
        dims = np.asarray(geometry.dims)
        if coords.size and (coords.min() < 0 or (coords >= dims).any()):
            bad = coords[~np.logical_and(coords >= 0, coords < dims).all(axis=1)][0]
            raise OutOfBounds(f"coord {tuple(bad)} outside dims {geometry.dims} at scale {geometry.scale}")
        keys = pack_keys(coords)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys.size > 1 and (np.diff(keys) == 0).any():
            dup = unpack_keys(keys[1:][np.diff(keys) == 0][:1])[0]
            raise DuplicateVoxels(f"duplicate coordinate {tuple(dup)}")
        self.geometry = geometry
        self.coords = coords[order]
        self.features = features[order]
        self.meta = dict(meta) if meta else {}
        self._keys = keys
        self.coords.flags.writeable = False
        self.features.flags.writeable = False

    @classmethod
    def empty(cls, geometry: GridGeometry, channels: int) -> SparseVoxelGrid:
        return cls(geometry, np.zeros((0, 3), dtype=np.int64), np.zeros((0, channels)))

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def scale(self) -> int:
        return self.geometry.scale

    @property
    def shape(self) -> tuple:
        """Logical dense shape, ``geometry.dims + (channels,)``."""
        return self.geometry.dims + (self.channels,)

    @property
    def nbytes(self) -> int:
        """Bytes held by the coords, features and lookup keys."""
        return self.coords.nbytes + self.features.nbytes + self._keys.nbytes

    def rows_for(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row index (or -1) and found mask for each query coord (M, 3)."""
        return self.rows_for_keys(pack_keys(coords))

    def rows_for_keys(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`rows_for` on an array of packed keys of any shape."""
        if self._keys.size == 0:
            return np.full(q.shape, -1, dtype=np.int64), np.zeros(q.shape, dtype=bool)
        pos = np.searchsorted(self._keys, q)
        pos_c = np.minimum(pos, self._keys.size - 1)
        found = self._keys[pos_c] == q
        rows = np.where(found, pos_c, -1)
        return rows, found

    def lookup(self, idx) -> int | None:
        """Row for a VoxelIndex or (x, y, z) triple, or None if absent."""
        if isinstance(idx, VoxelIndex):
            if idx.scale != self.scale:
                raise InvalidScale(f"index at scale {idx.scale}, grid at scale {self.scale}")
            idx = idx.xyz
        rows, found = self.rows_for(np.asarray(idx).reshape(1, 3))
        return int(rows[0]) if found[0] else None

    def feature_at(self, idx) -> np.ndarray | None:
        row = self.lookup(idx)
        return None if row is None else self.features[row]

    def with_features(self, features: np.ndarray, meta: dict | None = None) -> SparseVoxelGrid:
        """Same cells, new per-row feature matrix."""
        return SparseVoxelGrid(self.geometry, self.coords, features, meta or self.meta)

    def centers(self) -> np.ndarray:
        """World-space centers of all cells, row-aligned with features."""
        return centers_for(self.coords, self.scale, self.geometry)

    def to_dense(self, fill=0.0) -> np.ndarray:
        """Dense (X, Y, Z, C) array at this scale. Intended for small grids.

        ``fill`` is a scalar or a C-vector broadcast to every absent cell.
        """
        out = np.full(self.shape, fill, dtype=np.float64)
        if len(self):
            out[self.coords[:, 0], self.coords[:, 1], self.coords[:, 2]] = self.features
        return out

    def __repr__(self) -> str:
        return (f"SparseVoxelGrid(scale={self.scale}, n={len(self)}, "
                f"channels={self.channels}, dims={self.geometry.dims})")

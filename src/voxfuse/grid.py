"""Multi-scale sparse voxel grids, index algebra and world<->voxel transforms.

Coordinates are non-negative integers on a lattice whose cell edge grows with
the scale factor; scale 1 is the finest resolution. Points map to indices by
flooring, so a point exactly on a cell face belongs to the upper cell. The
one integer index of a voxel is ``GridGeometry.flat_index``, C-order. Cell
centres (``centers``) and the world extent (``span``) live there too, and two
grids lie on one lattice exactly when their geometries are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateVoxels, InvalidFactor, InvalidScale, OutOfBounds, ShapeError

VALID_SCALES = (1, 2, 4, 8, 16)

_PRESETS = {
    "nuscenes-occ": ((-51.2, -51.2, -5.0), 0.2, (512, 512, 40)),
    "semantickitti": ((0.0, -25.6, -2.0), 0.2, (256, 256, 32)),
}


# not numbers, though int() and float() accept them: True is 1, "0.2" parses
_NOT_NUMBERS = (bool, str, bytes)


def as_int(value, name: str) -> int:
    """``value`` as an int; a bool, a string, or a number with a fractional part, is rejected."""
    if isinstance(value, _NOT_NUMBERS) or not (isinstance(value, int)
                                               or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str) -> float:
    """``value`` as a float; a bool, a string, or a non-finite number, is rejected."""
    if isinstance(value, _NOT_NUMBERS):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(out := float(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class GridGeometry:
    """Axis-aligned voxel lattice: world origin, base cell edge, base extent, scale."""

    origin: tuple[float, float, float]
    voxel_size: float
    dims_scale1: tuple[int, int, int]
    scale: int = 1

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(as_float(v, "origin") for v in self.origin))
        object.__setattr__(self, "voxel_size", as_float(self.voxel_size, "voxel_size"))
        object.__setattr__(self, "dims_scale1",
                           tuple(as_int(v, "dims_scale1") for v in self.dims_scale1))
        if len(self.origin) != 3:
            raise ValueError(f"origin needs 3 values, got {self.origin}")
        if self.voxel_size <= 0:
            raise ValueError(f"voxel_size must be positive, got {self.voxel_size}")
        if self.scale not in VALID_SCALES:
            raise InvalidScale(f"scale must be one of {VALID_SCALES}, got {self.scale}")
        if len(self.dims_scale1) != 3:
            raise ValueError(f"dims_scale1 needs 3 values, got {self.dims_scale1}")
        if any(d <= 0 for d in self.dims_scale1):
            raise ValueError(f"dims_scale1 must be positive, got {self.dims_scale1}")
        if math.prod(self.dims_scale1) > np.iinfo(np.int64).max:
            raise ValueError(f"dims_scale1 {self.dims_scale1} hold more voxels than int64 keys can index")

    @classmethod
    def preset(cls, name: str) -> GridGeometry:
        """Named dataset geometry: 'nuscenes-occ' (512x512x40) or 'semantickitti' (256x256x32)."""
        try:
            origin, voxel_size, dims = _PRESETS[name]
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}") from None
        return cls(origin, voxel_size, dims)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Grid extent at this scale: ceil(dims_scale1 / scale) per axis."""
        return tuple(-(-d // self.scale) for d in self.dims_scale1)

    @property
    def strides(self) -> np.ndarray:
        """C-order step of the flat index per axis: ``(dims[1] * dims[2], dims[2], 1)``."""
        _, ny, nz = self.dims
        return np.array([ny * nz, nz, 1], dtype=np.int64)

    def flat_index(self, coords) -> np.ndarray:
        """C-order index into ``dims`` of coords (..., 3): lexicographic in-grid, may alias outside."""
        return np.asarray(coords, dtype=np.int64) @ self.strides

    @property
    def cell_size(self) -> float:
        """Cell edge length in meters at this scale."""
        return self.voxel_size * self.scale

    @property
    def origin_array(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=np.float64)

    @property
    def span(self) -> np.ndarray:
        """World-space extent of the grid per axis, in meters: ``dims * cell_size``."""
        return np.asarray(self.dims) * self.cell_size

    @property
    def diagonal(self) -> float:
        """World-space diagonal of the full grid, in meters."""
        return float(np.linalg.norm(self.span))

    def centers(self, coords) -> np.ndarray:
        """World-space centers of (N, 3) integer coords on this lattice. No bounds check."""
        c = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
        return self.origin_array + (c + 0.5) * self.cell_size

    def with_scale(self, scale: int) -> GridGeometry:
        return GridGeometry(self.origin, self.voxel_size, self.dims_scale1, scale)

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Floor points (N, 3) onto this scale's lattice, clipped to [-1, max(dims)]."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        with np.errstate(over="ignore"):  # an index past the float range is inf until clipped
            idx = np.floor((pts - self.origin_array) / self.cell_size)
        return np.clip(idx, -1, max(self.dims)).astype(np.int64)

    def contains_index(self, coords: np.ndarray) -> np.ndarray:
        """Boolean in-bounds mask for integer coords (N, 3) at this scale."""
        c = np.asarray(coords).reshape(-1, 3)
        ok = (c >= 0) & (c < np.asarray(self.dims))
        return ok[:, 0] & ok[:, 1] & ok[:, 2]


def align_coords(coords: np.ndarray, from_scale: int, to_scale: int) -> np.ndarray:
    """Re-express (N, 3) integer coords at another scale.

    Coarser->finer multiplies coordinates by the scale ratio (anchor corner);
    finer->coarser floor-divides, which drops sub-cell phase and is lossy by
    construction. Scales must be related by an integer factor.
    """
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if from_scale == to_scale:
        return c.copy()
    if from_scale % to_scale == 0:
        return c * (from_scale // to_scale)
    if to_scale % from_scale == 0:
        return c // (to_scale // from_scale)
    raise InvalidScale(f"scales {from_scale} and {to_scale} are not related by an integer factor")


def subdivide_coords(coords: np.ndarray, factor: int,
                     dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Children of (N, 3) parents as ``(children (M, 3), parent_rows (M,))``.

    A parent's children are ``parent * factor + offset`` for offsets in
    ``[0, factor)^3``, parent-major with z fastest. A child past ``dims``, the
    child grid's extent, does not exist, so a partial last cell has fewer.
    """
    if factor not in (2, 4):
        raise InvalidFactor(f"subdivision factor must be 2 or 4, got {factor}")
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    off = np.indices((factor,) * 3, dtype=np.int64).reshape(3, -1).T
    children = (c[:, None, :] * factor + off[None, :, :]).reshape(-1, 3)
    rows = np.repeat(np.arange(c.shape[0]), factor ** 3)
    keep = (children < np.asarray(dims)).all(axis=1)
    return children[keep], rows[keep]


def unique_coords(coords: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Distinct in-grid (N, 3) coords of ``geom`` in lexicographic order.

    The same rows as ``np.unique(coords, axis=0)``, found by one sort of the
    flat indices.
    """
    return np.stack(np.unravel_index(np.unique(geom.flat_index(coords)), geom.dims), axis=1)


def group_coords(coords: np.ndarray, geom: GridGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group in-grid (N, 3) coords of ``geom`` by cell: ``(cells, inverse, counts)``.

    ``cells`` holds the distinct coords in lexicographic order, ``inverse``
    the cell row of each input coord and ``counts`` the inputs per cell: the
    same arrays as ``np.unique(coords, axis=0, return_inverse=True,
    return_counts=True)``, found by one sort of the flat indices.
    """
    keys, inverse, counts = np.unique(geom.flat_index(coords), return_inverse=True,
                                      return_counts=True)
    return np.stack(np.unravel_index(keys, geom.dims), axis=1), inverse, counts


class SparseVoxelGrid:
    """Immutable coordinate-indexed feature storage at a single scale.

    Rows are sorted by their flat index ``keys``, which is lexicographic (x,
    y, z) order, so grids built from the same cells in any order are
    identical. Lookup is binary search over ``keys``. Arrays are frozen after
    construction; the grid is safe for concurrent reads. ``meta`` starts
    empty and holds only the counters of the stage that built the grid.
    """

    __slots__ = ("geometry", "coords", "features", "meta", "keys")

    def __init__(self, geometry: GridGeometry, coords, features):
        coords = np.ascontiguousarray(np.asarray(coords, dtype=np.int64).reshape(-1, 3))
        features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        if features.ndim != 2:
            raise ShapeError(f"features must be (N, C), got shape {features.shape}")
        if features.shape[0] != coords.shape[0]:
            raise ShapeError(f"{coords.shape[0]} coords but {features.shape[0]} feature rows")
        dims = np.asarray(geometry.dims)
        if coords.size and (coords.min() < 0 or (coords >= dims).any()):
            bad = coords[~geometry.contains_index(coords)][0]
            raise OutOfBounds(f"coord {tuple(bad.tolist())} outside dims {geometry.dims} at scale {geometry.scale}")
        keys = geometry.flat_index(coords)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys.size > 1 and (np.diff(keys) == 0).any():
            dup = coords[order[1:][np.diff(keys) == 0][0]]
            raise DuplicateVoxels(f"duplicate coordinate {tuple(dup.tolist())}")
        self.geometry = geometry
        self.coords = coords[order]
        self.features = features[order]
        self.meta = {}
        self.keys = keys
        for a in (self.coords, self.features, self.keys):
            a.flags.writeable = False

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
        """Bytes held by the coords, features and search keys."""
        return self.coords.nbytes + self.features.nbytes + self.keys.nbytes

    def rows_for(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row index (or -1) and found mask for each query coord (M, 3).

        An out-of-grid query, whose index may alias a cell, searches -1: no cell's.
        """
        g = self.geometry
        return self.rows_for_keys(np.where(g.contains_index(coords), g.flat_index(coords), -1))

    def rows_for_keys(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`rows_for` on flat indices of any shape, as given: the caller masks out-of-grid cells."""
        if self.keys.size == 0:
            return np.full(q.shape, -1, dtype=np.int64), np.zeros(q.shape, dtype=bool)
        pos = np.searchsorted(self.keys, q)
        pos_c = np.minimum(pos, self.keys.size - 1)
        found = self.keys[pos_c] == q
        rows = np.where(found, pos_c, -1)
        return rows, found

    def with_features(self, features: np.ndarray) -> SparseVoxelGrid:
        """Same cells, new per-row feature matrix, empty ``meta``."""
        return SparseVoxelGrid(self.geometry, self.coords, features)

    def centers(self) -> np.ndarray:
        """World-space centers of all cells, row-aligned with features."""
        return self.geometry.centers(self.coords)

    def __repr__(self) -> str:
        return (f"SparseVoxelGrid(scale={self.scale}, n={len(self)}, "
                f"channels={self.channels}, dims={self.geometry.dims})")

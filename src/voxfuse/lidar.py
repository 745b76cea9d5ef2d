"""Point-cloud ingest: reading, voxelization, sparse 3D convolution, downsampling.

The feature encoding produced by :func:`voxelize` is a hand-crafted stand-in
for a learned point encoder; everything downstream treats the channels as
opaque. Convolutions accumulate taps in a fixed lexicographic order so
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, InvalidFactor, InvalidScale, ParseError, ShapeError
from .grid import GridGeometry, SparseVoxelGrid

# occupancy, mean intensity, mean offset-from-center (3)
BASE_FEATURES = 5


@dataclass
class PointCloud:
    """LiDAR return set: positions in meters plus per-point intensity in [0, 1]."""

    points: np.ndarray
    intensity: np.ndarray
    sensor_origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
        self.sensor_origin = np.asarray(self.sensor_origin, dtype=np.float64).reshape(3)
        if self.intensity.shape[0] != self.points.shape[0]:
            raise ShapeError(f"{self.points.shape[0]} points but {self.intensity.shape[0]} intensities")
        if not np.isfinite(self.points).all():
            raise ValueError("point coordinates must be finite")
        if not np.isfinite(self.sensor_origin).all():
            raise ValueError("sensor_origin must be finite")

    def __len__(self) -> int:
        return self.points.shape[0]


def read_velodyne_bin(path, sensor_origin=None) -> PointCloud:
    """Read a velodyne-style .bin: headerless little-endian float32 (x, y, z, intensity) rows."""
    raw = np.fromfile(path, dtype="<f4")
    if raw.size == 0:
        raise EmptyInput(f"{path} holds no points")
    if raw.size % 4 != 0:
        raise ParseError(f"{path}: byte length is not a multiple of 16")
    rows = raw.reshape(-1, 4).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: {bad.size} rows hold NaN or inf values, first at row {bad[0]}")
    origin = np.zeros(3) if sensor_origin is None else sensor_origin
    return PointCloud(rows[:, :3], rows[:, 3], origin)


def voxelize(pc: PointCloud, geom: GridGeometry, channels: int = 8) -> SparseVoxelGrid:
    """Bin points onto the scale-1 lattice, one feature row per occupied cell.

    Channels are [count / (count + 1), mean intensity, mean offset from the
    cell center in cell units (3)], zero-padded to ``channels``. Points
    outside the grid are dropped; the drop count lands in ``meta``.
    """
    if geom.scale != 1:
        raise InvalidScale(f"voxelize expects a scale-1 geometry, got scale {geom.scale}")
    if channels < BASE_FEATURES:
        raise ShapeError(f"channels must be >= {BASE_FEATURES}, got {channels}")
    if len(pc) == 0:
        raise EmptyInput("empty point cloud")
    idx = geom.world_to_index(pc.points)
    inside = geom.contains_index(idx)
    meta = {"points_total": len(pc), "points_dropped": int((~inside).sum())}
    idx = idx[inside]
    if idx.shape[0] == 0:
        grid = SparseVoxelGrid.empty(geom, channels)
        grid.meta.update(meta)
        return grid
    pts = pc.points[inside]
    intens = pc.intensity[inside]

    cells, inverse, counts = np.unique(idx, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    centers = geom.origin_array + (cells + 0.5) * geom.cell_size
    offsets = (pts - centers[inverse]) / geom.cell_size

    feats = np.zeros((cells.shape[0], channels))
    feats[:, 0] = counts / (counts + 1.0)
    np.add.at(feats[:, 1], inverse, intens)
    sums = np.zeros((cells.shape[0], 3))
    np.add.at(sums, inverse, offsets)
    feats[:, 1] /= counts
    feats[:, 2:5] = sums / counts[:, None]
    return SparseVoxelGrid(geom, cells, feats, meta)


def kernel_offsets(extent: int) -> np.ndarray:
    """All (extent^3, 3) tap offsets in lexicographic order, centered on zero."""
    r = extent // 2
    rng = np.arange(-r, r + 1, dtype=np.int64)
    return np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)


@dataclass(frozen=True)
class SparseConvSpec:
    """Weights for a 3D convolution over sparse grids.

    ``weights`` has shape (extent, extent, extent, in_channels, out_channels);
    ``mode`` picks the output set: "submanifold" keeps the input set,
    "expanding" dilates it by the kernel footprint.
    """

    weights: np.ndarray
    bias: np.ndarray
    mode: str = "submanifold"
    seed: int | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 5 or w.shape[0] != w.shape[1] or w.shape[1] != w.shape[2]:
            raise ShapeError(f"weights must be (k, k, k, Cin, Cout), got {w.shape}")
        if w.shape[0] % 2 == 0:
            raise ShapeError(f"kernel extent must be odd, got {w.shape[0]}")
        if b.shape != (w.shape[4],):
            raise ShapeError(f"bias must be ({w.shape[4]},), got {b.shape}")
        if self.mode not in ("submanifold", "expanding"):
            raise ValueError(f"mode must be 'submanifold' or 'expanding', got {self.mode!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def kernel_extent(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[3]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[4]

    @classmethod
    def seeded(cls, in_channels: int, out_channels: int, kernel_extent: int = 3,
               mode: str = "submanifold", seed: int = 0) -> SparseConvSpec:
        """Deterministic pseudo-random weights, scaled by fan-in; zero bias."""
        rng = np.random.default_rng(seed)
        fan_in = kernel_extent ** 3 * in_channels
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in),
                       size=(kernel_extent,) * 3 + (in_channels, out_channels))
        return cls(w, np.zeros(out_channels), mode, seed)

    @classmethod
    def identity(cls, channels: int, kernel_extent: int = 3,
                 mode: str = "submanifold") -> SparseConvSpec:
        """Center tap = identity matrix, all other taps zero."""
        w = np.zeros((kernel_extent,) * 3 + (channels, channels))
        c = kernel_extent // 2
        w[c, c, c] = np.eye(channels)
        return cls(w, np.zeros(channels), mode)


def _rows_or_missing(grid: SparseVoxelGrid, query: np.ndarray) -> np.ndarray:
    """Row index per query coord, -1 where absent or outside the grid."""
    q = np.asarray(query, dtype=np.int64).reshape(-1, 3)
    dims = np.asarray(grid.geometry.dims)
    ok = np.logical_and(q >= 0, q < dims).all(axis=1)
    rows = np.full(q.shape[0], -1, dtype=np.int64)
    if ok.any():
        r, f = grid.rows_for(q[ok])
        rows[np.flatnonzero(ok)[f]] = r[f]
    return rows


def sparse_conv(grid: SparseVoxelGrid, spec: SparseConvSpec, stride: int = 1) -> SparseVoxelGrid:
    """Gather-multiply-accumulate convolution over a sparse grid.

    stride 1 uses ``spec.mode`` to pick the output set. stride > 1 anchors
    each kernel window at ``stride * coord`` on a grid one scale level coarser
    whose non-empty set is the integer-division image of the input set.
    Missing neighbors contribute zero.
    """
    if spec.in_channels != grid.channels:
        raise ShapeError(f"spec expects {spec.in_channels} channels, grid has {grid.channels}")
    offsets = kernel_offsets(spec.kernel_extent)

    if stride == 1:
        out_geom = grid.geometry
        if spec.mode == "submanifold":
            out_coords = grid.coords
        else:
            dil = (grid.coords[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
            dims = np.asarray(out_geom.dims)
            dil = dil[np.logical_and(dil >= 0, dil < dims).all(axis=1)]
            out_coords = np.unique(dil, axis=0)
        anchors = out_coords
    else:
        out_geom = grid.geometry.with_scale(grid.scale * stride)
        out_coords = np.unique(grid.coords // stride, axis=0)
        anchors = out_coords * stride

    out = np.tile(spec.bias, (out_coords.shape[0], 1))
    for o, d in enumerate(offsets):
        rows = _rows_or_missing(grid, anchors + d)
        hit = rows >= 0
        if hit.any():
            i, j, k = np.unravel_index(o, (spec.kernel_extent,) * 3)
            out[hit] += grid.features[rows[hit]] @ spec.weights[i, j, k]
    return SparseVoxelGrid(out_geom, out_coords, out, grid.meta)


def downsample(grid: SparseVoxelGrid, factor: int = 2, mode: str = "conv",
               spec: SparseConvSpec | None = None, seed: int = 0) -> SparseVoxelGrid:
    """Coarsen a grid so the non-empty set is the integer-division image.

    mode "conv" runs a stride-``factor`` step of seeded 3x3x3 convolutions
    (one per factor-2 level); mode "mean" averages child features per parent
    and exists as the oracle-friendly path.
    """
    if factor not in (2, 4):
        raise InvalidFactor(f"downsample factor must be 2 or 4, got {factor}")
    if len(grid) == 0:
        return SparseVoxelGrid.empty(grid.geometry.with_scale(grid.scale * factor), grid.channels)

    if mode == "mean":
        parents, inverse = np.unique(grid.coords // factor, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        sums = np.zeros((parents.shape[0], grid.channels))
        np.add.at(sums, inverse, grid.features)
        counts = np.bincount(inverse, minlength=parents.shape[0]).astype(np.float64)
        return SparseVoxelGrid(grid.geometry.with_scale(grid.scale * factor),
                               parents, sums / counts[:, None], grid.meta)
    if mode == "conv":
        out = grid
        for level in range(factor // 2):
            s = spec or SparseConvSpec.seeded(out.channels, out.channels, seed=seed + level)
            out = sparse_conv(out, s, stride=2)
        return out
    raise ValueError(f"mode must be 'conv' or 'mean', got {mode!r}")


def multi_scale_stack(grid: SparseVoxelGrid, scales=(1, 2, 4, 8, 16), mode: str = "conv",
                      seed: int = 0) -> dict[int, SparseVoxelGrid]:
    """Downsample a scale-1 grid into a {scale: grid} pyramid over the given scales."""
    if grid.scale != 1:
        raise InvalidScale(f"expected a scale-1 grid, got scale {grid.scale}")
    stack = {1: grid}
    cur = grid
    for s in sorted(scales):
        if s == 1:
            continue
        if s != cur.scale * 2:
            raise InvalidScale(f"scales {scales} must step by factors of 2")
        cur = downsample(cur, 2, mode=mode, seed=seed + s)
        stack[s] = cur
    return {s: stack[s] for s in scales}

"""Point-cloud ingest: reading, voxelization, sparse 3D convolution, downsampling.

The feature encoding produced by :func:`voxelize` is a hand-crafted stand-in
for a learned point encoder; everything downstream treats the channels as
opaque.

:func:`sparse_conv` builds a kernel map (the "rulebook" of Graham et al.,
CVPR 2018): a (taps, output rows) table of input rows, -1 for a missing
neighbour, resolved in one batched key search. Each tap with hits runs one
matmul over its hit rows, and the products are added onto the bias one tap
at a time in lexicographic tap order. A matmul over all output rows at once
is avoided on purpose: BLAS rounds a row differently depending on how many
rows share the call, so only the per-tap row sets keep outputs bit-identical
from run to run and to the per-tap reference loop in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, InvalidFactor, InvalidScale, ParseError, ShapeError
from .grid import GridGeometry, SparseVoxelGrid, pack_keys, unique_coords

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
    return np.indices((extent,) * 3, dtype=np.int64).reshape(3, -1).T - extent // 2


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


def _kernel_map(grid: SparseVoxelGrid, anchors: np.ndarray, extent: int) -> np.ndarray:
    """(extent^3, anchors) table of the grid row at ``anchor + offset``.

    Rows follow :func:`kernel_offsets` order. Every tap is resolved in one
    batched key search; -1 marks a neighbour that is absent or outside the
    grid. Keys are linear in in-bounds coords, so a neighbour's key is its
    anchor's key plus the tap's key offset; an out-of-bounds neighbour's key
    may alias another cell and is masked out afterwards.
    """
    r = extent // 2
    steps = np.arange(-r, r + 1)
    per_axis = []
    for ax, dim in enumerate(grid.geometry.dims):
        c = anchors[None, :, ax] + steps[:, None]
        per_axis.append((c >= 0) & (c < dim))
    x, y, z = per_axis
    inside = (x[:, None, None] & y[None, :, None] & z[None, None, :]).reshape(extent ** 3, -1)
    tap_keys = pack_keys(kernel_offsets(extent) + r) - pack_keys(np.full((1, 3), r))
    rows, _ = grid.rows_for_keys(pack_keys(anchors)[None, :] + tap_keys[:, None])
    return np.where(inside, rows, -1)


def sparse_conv(grid: SparseVoxelGrid, spec: SparseConvSpec, stride: int = 1) -> SparseVoxelGrid:
    """Gather-multiply-accumulate convolution over a sparse grid.

    stride 1 uses ``spec.mode`` to pick the output set. stride > 1 anchors
    each kernel window at ``stride * coord`` on a grid one scale level coarser
    whose non-empty set is the integer-division image of the input set.
    Missing neighbors contribute zero.

    The kernel map (taps x output rows) is built once per call. Each tap's
    hit rows are multiplied by that tap's weights and added onto the bias,
    one tap at a time in lexicographic tap order.
    """
    if spec.in_channels != grid.channels:
        raise ShapeError(f"spec expects {spec.in_channels} channels, grid has {grid.channels}")
    if stride == 1:
        out_geom = grid.geometry
        if spec.mode == "submanifold":
            out_coords = grid.coords
        else:
            offsets = kernel_offsets(spec.kernel_extent)
            dil = (grid.coords[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
            out_coords = unique_coords(dil[out_geom.contains_index(dil)])
        anchors = out_coords
    else:
        out_geom = grid.geometry.with_scale(grid.scale * stride)
        out_coords = unique_coords(grid.coords // stride)
        anchors = out_coords * stride

    kmap = _kernel_map(grid, anchors, spec.kernel_extent)
    taps, outs = np.nonzero(kmap >= 0)
    src = grid.features[kmap[taps, outs]]
    weights = spec.weights.reshape(-1, spec.in_channels, spec.out_channels)
    products = np.empty((src.shape[0], spec.out_channels))
    start = 0
    for t, n in enumerate(np.bincount(taps, minlength=weights.shape[0]).tolist()):
        if n:
            hits = slice(start, start + n)
            np.matmul(src[hits], weights[t], out=products[hits])
            start += n
    # np.add.at applies the products in index order, which is tap-major, so
    # every output element sums its taps in lexicographic order.
    out = np.tile(spec.bias, (out_coords.shape[0], 1))
    flat = outs[:, None] * spec.out_channels + np.arange(spec.out_channels)
    np.add.at(out.reshape(-1), flat.reshape(-1), products.reshape(-1))
    return SparseVoxelGrid(out_geom, out_coords, out, grid.meta)


def downsample(grid: SparseVoxelGrid, factor: int = 2,
               spec: SparseConvSpec | None = None, seed: int = 0) -> SparseVoxelGrid:
    """Coarsen a grid so the non-empty set is the integer-division image.

    Runs a stride-``factor`` step of seeded 3x3x3 convolutions, one stride-2
    convolution per factor-2 level.
    """
    if factor not in (2, 4):
        raise InvalidFactor(f"downsample factor must be 2 or 4, got {factor}")
    if len(grid) == 0:
        return SparseVoxelGrid.empty(grid.geometry.with_scale(grid.scale * factor), grid.channels)
    out = grid
    for level in range(factor // 2):
        s = spec or SparseConvSpec.seeded(out.channels, out.channels, seed=seed + level)
        out = sparse_conv(out, s, stride=2)
    return out


def multi_scale_stack(grid: SparseVoxelGrid, scales=(1, 2, 4, 8, 16),
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
        cur = downsample(cur, 2, seed=seed + s)
        stack[s] = cur
    return {s: stack[s] for s in scales}

"""Point-cloud ingest: reading, voxelization, sparse 3D convolution, the scale pyramid.

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

from .errors import EmptyInput, InvalidScale, ParseError, ShapeError
from .grid import (
    VALID_SCALES,
    GridGeometry,
    SparseVoxelGrid,
    group_coords,
    unique_coords,
)

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


def read_velodyne_bin(path) -> PointCloud:
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
    return PointCloud(rows[:, :3], rows[:, 3])


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
    idx = idx[inside]
    pts = pc.points[inside]
    intens = pc.intensity[inside]

    cells, inverse, counts = group_coords(idx, geom)
    centers = geom.centers(cells)
    offsets = (pts - centers[inverse]) / geom.cell_size

    feats = np.zeros((cells.shape[0], channels))
    feats[:, 0] = counts / (counts + 1.0)
    np.add.at(feats[:, 1], inverse, intens)
    sums = np.zeros((cells.shape[0], 3))
    np.add.at(sums, inverse, offsets)
    feats[:, 1] /= counts
    feats[:, 2:5] = sums / counts[:, None]
    grid = SparseVoxelGrid(geom, cells, feats)
    grid.meta.update(points_total=len(pc), points_dropped=len(pc) - len(pts))
    return grid


def kernel_offsets(extent: int) -> np.ndarray:
    """All (extent^3, 3) tap offsets in lexicographic order, centered on zero."""
    return np.indices((extent,) * 3, dtype=np.int64).reshape(3, -1).T - extent // 2


@dataclass(frozen=True)
class SparseConvSpec:
    """Weights for a 3D convolution over sparse grids.

    ``weights`` has shape (extent, extent, extent, in_channels, out_channels);
    the stride alone picks the output set (see :func:`sparse_conv`).
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 5 or w.shape[0] != w.shape[1] or w.shape[1] != w.shape[2]:
            raise ShapeError(f"weights must be (k, k, k, Cin, Cout), got {w.shape}")
        if w.shape[0] % 2 == 0:
            raise ShapeError(f"kernel extent must be odd, got {w.shape[0]}")
        if b.shape != (w.shape[4],):
            raise ShapeError(f"bias must be ({w.shape[4]},), got {b.shape}")
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
    def seeded(cls, in_channels: int, out_channels: int, seed: int = 0) -> SparseConvSpec:
        """Deterministic pseudo-random 3x3x3 weights, scaled by fan-in; zero bias."""
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 1.0 / np.sqrt(27 * in_channels),
                       size=(3, 3, 3, in_channels, out_channels))
        return cls(w, np.zeros(out_channels))


def _kernel_map(grid: SparseVoxelGrid, anchors: np.ndarray, anchor_keys: np.ndarray,
                extent: int) -> np.ndarray:
    """(extent^3, anchors) table of the grid row at ``anchor + offset``.

    Rows follow :func:`kernel_offsets` order. Every tap is resolved in one
    batched search of the grid's keys; -1 marks a neighbour that is absent or
    outside the grid. The flat index is linear in coords, so a neighbour's
    key is its anchor's key (``anchor_keys``) plus the tap's offset times the
    grid's strides; an out-of-grid neighbour's key may alias another cell and
    is masked out afterwards.
    """
    steps = np.arange(extent) - extent // 2
    per_axis = []
    for ax, dim in enumerate(grid.geometry.dims):
        c = anchors[None, :, ax] + steps[:, None]
        per_axis.append((c >= 0) & (c < dim))
    x, y, z = per_axis
    inside = (x[:, None, None] & y[None, :, None] & z[None, None, :]).reshape(extent ** 3, -1)
    tap_keys = kernel_offsets(extent) @ grid.geometry.strides
    rows, _ = grid.rows_for_keys(anchor_keys[None, :] + tap_keys[:, None])
    return np.where(inside, rows, -1)


def sparse_conv(grid: SparseVoxelGrid, spec: SparseConvSpec, stride: int = 1) -> SparseVoxelGrid:
    """Gather-multiply-accumulate convolution over a sparse grid.

    stride 1 keeps the input set (a submanifold convolution, Graham et al.,
    CVPR 2018). stride > 1 anchors each kernel window at ``stride * coord`` on
    a grid ``stride`` times coarser whose non-empty set is the
    integer-division image of the input set. Missing neighbors contribute
    zero.

    The kernel map (taps x output rows) is built once per call. Each tap's
    hit rows are multiplied by that tap's weights and added onto the bias,
    one tap at a time in lexicographic tap order.
    """
    if spec.in_channels != grid.channels:
        raise ShapeError(f"spec expects {spec.in_channels} channels, grid has {grid.channels}")
    if stride == 1:
        out_geom = grid.geometry
        out_coords = anchors = grid.coords
        anchor_keys = grid.keys
    else:
        out_geom = grid.geometry.with_scale(grid.scale * stride)
        out_coords = unique_coords(grid.coords // stride, out_geom)
        anchors = out_coords * stride
        anchor_keys = grid.geometry.flat_index(anchors)

    kmap = _kernel_map(grid, anchors, anchor_keys, spec.kernel_extent)
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
    return SparseVoxelGrid(out_geom, out_coords, out)


def multi_scale_stack(grid: SparseVoxelGrid, seed: int = 0) -> dict[int, SparseVoxelGrid]:
    """Downsample a scale-1 grid into a {scale: grid} pyramid over ``VALID_SCALES``.

    Each level is a seeded stride-2 3x3x3 convolution of the level below, so
    its non-empty set is the integer-division image of that level's set.
    """
    if grid.scale != 1:
        raise InvalidScale(f"expected a scale-1 grid, got scale {grid.scale}")
    c = grid.channels
    stack = {1: grid}
    for s in VALID_SCALES[1:]:
        stack[s] = sparse_conv(stack[s // 2], SparseConvSpec.seeded(c, c, seed=seed + s), stride=2)
    return stack

"""Selective refinement: importance scoring, set selection, child gathers, fusion.

High-importance coarse voxels split into 8 (semi-fine, scale 2) or 64 (fine,
scale 1) children, fewer in a partial last cell (``grid.subdivide_coords``).
Children gather a grid feature (zero when absent) plus an averaged
multi-camera image sample, concatenated through a 1x1 linear map.
The refined branches re-enter the coarse grid through two stride-2 sparse
convolutions and a residual add, so empty refinement sets reproduce the
coarse features bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, FeatureMap2D, camera_mean, sample_array
from .errors import ShapeError
from .grid import SparseVoxelGrid, group_coords, subdivide_coords
from .lidar import SparseConvSpec, sparse_conv


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class ImportanceMap:
    """Per-voxel refinement scores in [0, 1], row-aligned with a scale-4 grid."""

    grid: SparseVoxelGrid
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if self.scores.shape[0] != len(self.grid):
            raise ShapeError(f"{len(self.grid)} voxels but {self.scores.shape[0]} scores")
        if self.scores.size and (self.scores.min() < 0.0 or self.scores.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")


@dataclass
class RefinementSets:
    """Scale-4 coordinate sets picked for 8-way (semi_fine) and 64-way (fine) splits."""

    semi_fine: np.ndarray
    fine: np.ndarray

    def __post_init__(self):
        self.semi_fine = np.asarray(self.semi_fine, dtype=np.int64).reshape(-1, 3)
        self.fine = np.asarray(self.fine, dtype=np.int64).reshape(-1, 3)


def estimate_importance(fm: SparseVoxelGrid, rie: SparseConvSpec) -> ImportanceMap:
    """Sigmoid of a single-channel convolution over the coarse feature grid."""
    if rie.out_channels != 1:
        raise ShapeError(f"importance conv must emit 1 channel, got {rie.out_channels}")
    logits = sparse_conv(fm, rie).features[:, 0]
    return ImportanceMap(fm, sigmoid(logits))


def select_sets(imp: ImportanceMap, tau1: float = 0.4, tau2: float = 0.7) -> RefinementSets:
    """Threshold scores into the two refinement sets (ties included via >=).

    Thresholds above 1 select nothing, which is a supported way to disable
    refinement. tau2 >= tau1 makes fine a subset of semi_fine.
    """
    if not (tau1 >= 0.0 and tau2 >= 0.0):  # NaN fails too
        raise ValueError(f"thresholds must be non-negative, got {tau1}, {tau2}")
    coords = imp.grid.coords
    return RefinementSets(coords[imp.scores >= tau1], coords[imp.scores >= tau2])


def seeded_projection(in_channels: int, out_channels: int, seed: int = 0) -> np.ndarray:
    """Deterministic (in, out) linear map, normal with standard deviation 1/sqrt(in).

    The gathers' 1x1 map after the concat, the head's output map and the
    fine decoder's map all draw their weights here.
    """
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(in_channels), size=(in_channels, out_channels))


def _gather(parents: np.ndarray, factor: int, lidar: SparseVoxelGrid,
            rig: list[CameraModel], maps: FeatureMap2D, proj: np.ndarray) -> SparseVoxelGrid:
    parents = np.asarray(parents, dtype=np.int64).reshape(-1, 3)
    proj = np.asarray(proj, dtype=np.float64)
    want_in = lidar.channels + maps.channels
    if proj.shape[0] != want_in:
        raise ShapeError(f"projection expects {proj.shape[0]} inputs, concat provides {want_in}")
    child_scale = 4 // factor
    if lidar.scale != child_scale:
        raise ShapeError(f"factor {factor} children live at scale {child_scale}, "
                         f"grid is at scale {lidar.scale}")
    geom = lidar.geometry
    children, _ = subdivide_coords(parents, factor, geom.dims)
    lidar_feats = np.zeros((children.shape[0], lidar.channels))
    rows, found = lidar.rows_for(children)
    lidar_feats[found] = lidar.features[rows[found]]
    img_feats, _ = camera_mean(rig, geom.centers(children), maps.channels,
                               lambda cam_id, rows, uv: sample_array(maps.maps[cam_id], uv))
    return SparseVoxelGrid(geom, children, np.hstack([lidar_feats, img_feats]) @ proj)


def gather_semi_fine(parents: np.ndarray, lidar2: SparseVoxelGrid,
                     rig: list[CameraModel], maps: FeatureMap2D,
                     proj: np.ndarray) -> SparseVoxelGrid:
    """Split each (N, 3) scale-4 parent into its in-grid scale-2 children and featurize them."""
    return _gather(parents, 2, lidar2, rig, maps, proj)


def gather_fine(parents: np.ndarray, lidar1: SparseVoxelGrid,
                rig: list[CameraModel], maps: FeatureMap2D,
                proj: np.ndarray) -> SparseVoxelGrid:
    """Split each (N, 3) scale-4 parent into its in-grid scale-1 children and featurize them."""
    return _gather(parents, 4, lidar1, rig, maps, proj)


def _aligned_sum(a: SparseVoxelGrid, b: SparseVoxelGrid) -> SparseVoxelGrid:
    """Coordinate-union sum; a coordinate missing from one grid contributes zero."""
    if a.geometry != b.geometry:
        raise ShapeError(f"cannot sum grids on lattices {a.geometry} and {b.geometry}")
    if a.channels != b.channels:
        raise ShapeError(f"cannot sum grids with {a.channels} and {b.channels} channels")
    cells, inverse, _ = group_coords(np.vstack([a.coords, b.coords]), a.geometry)
    feats = np.zeros((cells.shape[0], a.channels))
    # np.add.at applies rows in index order, so a cell in both grids sums 0 + a + b
    np.add.at(feats, inverse, np.vstack([a.features, b.features]))
    return SparseVoxelGrid(a.geometry, cells, feats)


def fuse_refined(ff1: SparseVoxelGrid, fs2: SparseVoxelGrid, fm4: SparseVoxelGrid,
                 sconv1: SparseConvSpec, sconv2: SparseConvSpec) -> SparseVoxelGrid:
    """Merge refined branches back into the coarse grid over its coordinate set.

    scale 1 -> stride-2 conv -> add scale 2 -> stride-2 conv -> add the coarse
    grid, all on one lattice. Output rows outside the refined region copy the
    coarse features unchanged; with both sets empty the output equals the
    coarse grid exactly. ``meta["dropped_refined"]`` counts refined cells it lacks.
    """
    if fm4.scale != 4 or fs2.scale != 2 or ff1.scale != 1:
        raise ShapeError(f"expected scales 1/2/4, got {ff1.scale}/{fs2.scale}/{fm4.scale}")
    mid = _aligned_sum(sparse_conv(ff1, sconv1, stride=2), fs2)
    coarse = sparse_conv(mid, sconv2, stride=2)
    if coarse.geometry != fm4.geometry:
        raise ShapeError(f"refined grids lie on another lattice than the coarse grid {fm4.geometry}")
    if coarse.channels != fm4.channels:
        raise ShapeError(f"fusion emits {coarse.channels} channels, coarse grid has {fm4.channels}")
    rows, found = fm4.rows_for_keys(coarse.keys)
    feats = fm4.features.copy()
    feats[rows[found]] += coarse.features[found]
    merged = fm4.with_features(feats)
    merged.meta["dropped_refined"] = int((~found).sum())
    return merged


"""Selective refinement: importance scoring, set selection, child gathers, fusion.

High-importance coarse voxels split into 8 (semi-fine, scale 2) or 64 (fine,
scale 1) children. Children gather a grid feature (zero when absent) plus an
averaged multi-camera image sample, concatenated through a 1x1 linear map.
The refined branches re-enter the coarse grid through two stride-2 sparse
convolutions and a residual add, so empty refinement sets reproduce the
coarse features bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, FeatureMap2D, project_points, sample_array
from .errors import ShapeError
from .grid import SparseVoxelGrid, centers_for, pack_keys, subdivide_coords, unique_coords
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
    tau1: float
    tau2: float

    def __post_init__(self):
        self.semi_fine = np.asarray(self.semi_fine, dtype=np.int64).reshape(-1, 3)
        self.fine = np.asarray(self.fine, dtype=np.int64).reshape(-1, 3)

    @property
    def counts(self) -> tuple[int, int]:
        return self.semi_fine.shape[0], self.fine.shape[0]


def estimate_importance(fm: SparseVoxelGrid, rie: SparseConvSpec) -> ImportanceMap:
    """Sigmoid of a single-channel convolution over the coarse feature grid."""
    if rie.out_channels != 1:
        raise ShapeError(f"importance conv must emit 1 channel, got {rie.out_channels}")
    if rie.mode != "submanifold":
        raise ValueError("importance conv must keep the input coordinate set (submanifold)")
    logits = sparse_conv(fm, rie).features[:, 0]
    return ImportanceMap(fm, sigmoid(logits))


def importance_from_scores(fm: SparseVoxelGrid, scores: np.ndarray) -> ImportanceMap:
    """Wrap externally computed scores (e.g. an oracle scorer) for set selection."""
    return ImportanceMap(fm, scores)


def select_sets(imp: ImportanceMap, tau1: float = 0.4, tau2: float = 0.7) -> RefinementSets:
    """Threshold scores into the two refinement sets (ties included via >=).

    Thresholds above 1 select nothing, which is a supported way to disable
    refinement. tau2 >= tau1 makes fine a subset of semi_fine.
    """
    if tau1 < 0.0 or tau2 < 0.0:
        raise ValueError(f"thresholds must be non-negative, got {tau1}, {tau2}")
    coords = imp.grid.coords
    return RefinementSets(coords[imp.scores >= tau1], coords[imp.scores >= tau2], tau1, tau2)


def seeded_projection(in_channels: int, out_channels: int, seed: int = 0) -> np.ndarray:
    """Deterministic 1x1 linear map used after the concat in the gathers."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(in_channels), size=(in_channels, out_channels))


def _image_means(centers: np.ndarray, rig: list[CameraModel], maps: FeatureMap2D) -> np.ndarray:
    """Per-point camera sample averaged over the cameras that see it; zero when none do."""
    n = centers.shape[0]
    acc = np.zeros((n, maps.channels))
    n_hit = np.zeros(n, dtype=np.int64)
    for cam_id in range(len(rig)):
        uv, _, hit = project_points(rig[cam_id], centers)
        rows = np.flatnonzero(hit)
        if rows.size:
            acc[rows] += sample_array(maps.maps[cam_id], uv[rows])
            n_hit[rows] += 1
    out = acc / np.maximum(n_hit, 1)[:, None]
    out[n_hit == 0] = 0.0
    return out


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
    if parents.shape[0] == 0:
        return SparseVoxelGrid.empty(geom, proj.shape[1])
    children = subdivide_coords(parents, factor)
    lidar_feats = np.zeros((children.shape[0], lidar.channels))
    rows, found = lidar.rows_for(children)
    lidar_feats[found] = lidar.features[rows[found]]
    img_feats = _image_means(centers_for(children, child_scale, geom), rig, maps)
    return SparseVoxelGrid(geom, children, np.hstack([lidar_feats, img_feats]) @ proj)


def gather_semi_fine(sets: RefinementSets | np.ndarray, lidar2: SparseVoxelGrid,
                     rig: list[CameraModel], maps: FeatureMap2D,
                     proj: np.ndarray) -> SparseVoxelGrid:
    """Split each selected parent into its 8 scale-2 children and featurize them."""
    parents = sets.semi_fine if isinstance(sets, RefinementSets) else sets
    return _gather(parents, 2, lidar2, rig, maps, proj)


def gather_fine(sets: RefinementSets | np.ndarray, lidar1: SparseVoxelGrid,
                rig: list[CameraModel], maps: FeatureMap2D,
                proj: np.ndarray) -> SparseVoxelGrid:
    """Split each selected parent into its 64 scale-1 children and featurize them."""
    parents = sets.fine if isinstance(sets, RefinementSets) else sets
    return _gather(parents, 4, lidar1, rig, maps, proj)


def _aligned_sum(a: SparseVoxelGrid, b: SparseVoxelGrid) -> SparseVoxelGrid:
    """Coordinate-union sum; a coordinate missing from one grid contributes zero."""
    if a.scale != b.scale:
        raise ShapeError(f"cannot sum grids at scales {a.scale} and {b.scale}")
    if a.channels != b.channels:
        raise ShapeError(f"cannot sum grids with {a.channels} and {b.channels} channels")
    if len(a) == 0:
        return b.with_features(b.features.copy())
    if len(b) == 0:
        return a.with_features(a.features.copy())
    coords = unique_coords(np.vstack([a.coords, b.coords]))
    feats = np.zeros((coords.shape[0], a.channels))
    for g in (a, b):
        rows, found = g.rows_for(coords)
        feats[found] += g.features[rows[found]]
    return SparseVoxelGrid(a.geometry, coords, feats)


def fuse_refined(ff1: SparseVoxelGrid, fs2: SparseVoxelGrid, fm4: SparseVoxelGrid,
                 sconv1: SparseConvSpec, sconv2: SparseConvSpec) -> SparseVoxelGrid:
    """Merge refined branches back into the coarse grid over its coordinate set.

    scale 1 -> stride-2 conv -> add scale 2 -> stride-2 conv -> add the coarse
    grid. Output rows outside the refined region copy the coarse features
    unchanged; with both sets empty the output equals the coarse grid exactly.
    """
    if fm4.scale != 4 or fs2.scale != 2 or ff1.scale != 1:
        raise ShapeError(f"expected scales 1/2/4, got {ff1.scale}/{fs2.scale}/{fm4.scale}")
    out = fm4.with_features(fm4.features.copy(), dict(fm4.meta))
    if len(ff1) == 0 and len(fs2) == 0:
        return out
    if len(ff1):
        mid = _aligned_sum(sparse_conv(ff1, sconv1, stride=2), fs2)
    else:
        mid = fs2
    coarse = sparse_conv(mid, sconv2, stride=2)
    if coarse.channels != fm4.channels:
        raise ShapeError(f"fusion emits {coarse.channels} channels, coarse grid has {fm4.channels}")
    rows, found = out.rows_for(coarse.coords)
    feats = out.features.copy()
    feats[rows[found]] += coarse.features[found]
    merged = out.with_features(feats, dict(out.meta))
    merged.meta["dropped_refined"] = int((~found).sum())
    return merged


def occupied_fraction(parents: np.ndarray, occupied_scale1: np.ndarray,
                      factor: int = 4) -> np.ndarray:
    """Share of each parent's factor^3 base-scale children that are occupied.

    ``occupied_scale1`` holds unique scale-1 coordinates; the result is the
    oracle importance scorer used in place of the learned estimator.
    """
    parents = np.asarray(parents, dtype=np.int64).reshape(-1, 3)
    occ = np.asarray(occupied_scale1, dtype=np.int64).reshape(-1, 3)
    counts = np.zeros(parents.shape[0], dtype=np.int64)
    if parents.size and occ.size:
        pkeys = pack_keys(parents)
        order = np.argsort(pkeys, kind="stable")
        sorted_keys = pkeys[order]
        okeys = pack_keys(occ // factor)
        pos = np.searchsorted(sorted_keys, okeys)
        pos_c = np.minimum(pos, sorted_keys.size - 1)
        hit = sorted_keys[pos_c] == okeys
        np.add.at(counts, order[pos_c[hit]], 1)
    return counts / float(factor ** 3)


def refinement_labels(parents: np.ndarray, occupied_scale1: np.ndarray) -> np.ndarray:
    """Binary target per parent: 1 iff any of its scale-1 children is occupied."""
    return (occupied_fraction(parents, occupied_scale1) > 0).astype(np.float64)

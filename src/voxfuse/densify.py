"""Merging multi-scale sparse features onto the scale-4 lattice.

Each coarse voxel lands on its scale-aligned anchor (coordinates multiplied by
the scale ratio); overlapping contributions at a coordinate are averaged with
equal weight. Contributions accumulate in ascending scale order, so results
are bit-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidScale, ShapeError
from .grid import GridGeometry, SparseVoxelGrid, align_coords

DENSIFY_SCALES = (4, 8, 16)


@dataclass
class MultiScaleFeatures:
    """Sparse grids at scales 4, 8 and 16 sharing origin and channel width."""

    grids: dict[int, SparseVoxelGrid]

    def __post_init__(self):
        if set(self.grids) != set(DENSIFY_SCALES):
            raise InvalidScale(f"expected grids at scales {DENSIFY_SCALES}, got {sorted(self.grids)}")
        base = self.grids[4]
        for s, g in self.grids.items():
            if g.scale != s:
                raise InvalidScale(f"grid registered at scale {s} reports scale {g.scale}")
            if g.geometry.origin != base.geometry.origin:
                raise ValueError(f"scale-{s} grid origin differs from scale-4 grid")
            if g.geometry.dims_scale1 != base.geometry.dims_scale1:
                raise ValueError(f"scale-{s} grid base dims differ from scale-4 grid")
            if g.channels != base.channels:
                raise ShapeError(
                    f"scale-{s} grid has {g.channels} channels, scale-4 has {base.channels}; "
                    "project to a common width first")

    @classmethod
    def from_stack(cls, stack: dict[int, SparseVoxelGrid], seed: int = 0) -> MultiScaleFeatures:
        """Pick scales 4/8/16 out of a pyramid, projecting unequal widths with a seeded map."""
        grids = {}
        want = max(stack[s].channels for s in DENSIFY_SCALES)
        for s in DENSIFY_SCALES:
            g = stack[s]
            if g.channels != want:
                g = project_channels(g, want, seed=seed + s)
            grids[s] = g
        return cls(grids)

    @property
    def channels(self) -> int:
        return self.grids[4].channels


def project_channels(grid: SparseVoxelGrid, out_channels: int, seed: int = 0) -> SparseVoxelGrid:
    """Map features through a seeded deterministic linear layer to a new width."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(grid.channels), size=(grid.channels, out_channels))
    return grid.with_features(grid.features @ w)


def densify(ms: MultiScaleFeatures) -> SparseVoxelGrid:
    """Average scale-aligned contributions from scales 4/8/16 onto scale 4.

    Output coords are the union of aligned input coords; the feature at each
    coordinate is the unweighted mean over every grid that contributes there.
    """
    geom4 = ms.grids[4].geometry if ms.grids[4].geometry.scale == 4 else None
    if geom4 is None:
        raise InvalidScale("scale-4 grid carries the wrong geometry scale")
    aligned = []
    feats = []
    for s in DENSIFY_SCALES:
        g = ms.grids[s]
        if len(g) == 0:
            continue
        aligned.append(align_coords(g.coords, s, 4))
        feats.append(g.features)
    if not aligned:
        raise EmptyInput("no non-empty voxels at any scale")
    coords_all = np.concatenate(aligned, axis=0)
    feats_all = np.concatenate(feats, axis=0)

    cells, inverse = np.unique(coords_all, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.zeros((cells.shape[0], feats_all.shape[1]))
    np.add.at(sums, inverse, feats_all)
    counts = np.bincount(inverse, minlength=cells.shape[0]).astype(np.float64)
    out = SparseVoxelGrid(geom4, cells, sums / counts[:, None])
    out.meta["contributor_counts"] = counts.astype(np.int64)
    return out

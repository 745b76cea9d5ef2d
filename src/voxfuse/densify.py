"""Merging multi-scale sparse features onto the scale-4 lattice.

The scale-4, 8 and 16 grids share one channel width: every level of
``lidar.multi_scale_stack`` keeps the width of its input, so no projection
runs between them. Each coarse voxel lands on its scale-aligned anchor
(coordinates multiplied by the scale ratio), and ``grid.group_coords`` groups
the anchors by their flat index on the scale-4 grid. Overlapping
contributions at a coordinate are averaged with equal weight. They
accumulate in ascending scale order, so results are bit-stable across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput, InvalidScale, ShapeError
from .grid import SparseVoxelGrid, align_coords, group_coords

DENSIFY_SCALES = (4, 8, 16)


def densify(pyramid: dict[int, SparseVoxelGrid]) -> SparseVoxelGrid:
    """Average scale-aligned contributions from scales 4/8/16 onto scale 4.

    ``pyramid`` maps scales to grids, as ``lidar.multi_scale_stack`` returns;
    only its scale-4, 8 and 16 grids are read, and they must lie on one
    lattice with one channel width. Output coords are the union of aligned
    input coords; the feature at each coordinate is the unweighted mean over
    every grid that contributes there.
    """
    if not set(DENSIFY_SCALES) <= set(pyramid):
        raise InvalidScale(f"expected grids at scales {DENSIFY_SCALES}, got {sorted(pyramid)}")
    base = pyramid[4]
    for s in DENSIFY_SCALES:
        g = pyramid[s]
        if g.scale != s:
            raise InvalidScale(f"grid registered at scale {s} reports scale {g.scale}")
        if g.geometry.with_scale(4) != base.geometry:
            raise ShapeError(f"scale-{s} grid lies on another lattice than the scale-4 grid")
        if g.channels != base.channels:
            raise ShapeError(f"scale-{s} grid has {g.channels} channels, "
                             f"scale-4 has {base.channels}")
    coords_all = np.concatenate([align_coords(pyramid[s].coords, s, 4) for s in DENSIFY_SCALES])
    if coords_all.shape[0] == 0:
        raise EmptyInput("no non-empty voxels at any scale")
    feats_all = np.concatenate([pyramid[s].features for s in DENSIFY_SCALES])
    cells, inverse, counts = group_coords(coords_all, base.geometry)
    sums = np.zeros((cells.shape[0], feats_all.shape[1]))
    np.add.at(sums, inverse, feats_all)
    out = SparseVoxelGrid(base.geometry, cells, sums / counts[:, None])
    out.meta["contributor_counts"] = counts
    return out

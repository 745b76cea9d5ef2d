"""Full forward pass: points and camera features in, 21-channel outputs out.

Stages compose the library modules in fixed order — voxelize, pyramid,
densify, camera fusion, importance-driven refinement, prediction head,
fine decoder — with per-stage wall time and non-empty counts recorded.
Both outputs are sparse grids of 21-channel probability rows. Every voxel
not in a grid holds ``occlusion.BACKGROUND_ROW``, so the dense view is
``dense_view(grid, BACKGROUND_ROW)`` from ``tests/oracles.py``.
Learned weights are replaced by seeded deterministic stand-ins throughout,
all split from one root seed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .camera import CameraModel, FeatureMap2D
from .config import PipelineConfig
from .densify import DENSIFY_SCALES, MultiScaleFeatures, densify
from .fusion import DeformableAttnParams, fuse, guide_queries, softmax_rows
from .grid import GridGeometry, SparseVoxelGrid, subdivide_coords
from .lidar import PointCloud, SparseConvSpec, multi_scale_stack, sparse_conv, voxelize
from .occlusion import OCC_CHANNELS, SEM_CHANNELS, decoder_input_set
from .refine import (
    RefinementSets,
    estimate_importance,
    fuse_refined,
    gather_fine,
    gather_semi_fine,
    seeded_projection,
    select_sets,
)
from .synthetic import SyntheticScene, ring_rig

OUT_CHANNELS = SEM_CHANNELS + OCC_CHANNELS
# every stand-in weight of a forward pass, seeded by config.seed_for(name)
SEED_NAMES = ("backbone", "queries", "fusion", "rie", "gather-semi", "gather-fine",
              "refine-a", "refine-b", "head", "decoder")


@contextmanager
def _timed(timings: dict, name: str):
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


@dataclass
class ForwardResult:
    """The intermediates of one forward pass that callers read, plus timings and counts."""

    pyramid: dict
    fused: SparseVoxelGrid
    sets: RefinementSets
    refined: SparseVoxelGrid
    o4: SparseVoxelGrid
    o1: SparseVoxelGrid
    refine_identity: bool
    timings: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.timings.values()))

    def labels_scale4(self) -> np.ndarray:
        """``volume_labels`` of o4's dense view, read from its rows only."""
        return _row_labels(self.o4)

    def labels_scale1(self) -> np.ndarray:
        """``volume_labels`` of o1's dense view, read from its rows only."""
        return _row_labels(self.o1)

    def stage_report(self) -> str:
        lines = ["stage            seconds   nonempty"]
        for name, secs in self.timings.items():
            count = self.counts.get(name, "")
            lines.append(f"{name:<16} {secs:8.4f}   {count}")
        lines.append(f"{'total':<16} {self.total_seconds:8.4f}")
        lines.append(f"o4 shape: {self.o4.shape}")
        lines.append(f"o1 shape: {self.o1.shape}")
        lines.append(f"refined equals fused: {self.refine_identity}")
        return "\n".join(lines)


def volume_labels(out21: np.ndarray) -> np.ndarray:
    """Semantic argmax where the visibility argmax is not empty, else 0.

    Labels lie in [0, SEM_CHANNELS), so the volume is uint8, the dtype
    ``write_volume`` stores.
    """
    out21 = np.asarray(out21)
    sem = np.argmax(out21[..., :SEM_CHANNELS], axis=-1)
    visible = np.argmax(out21[..., SEM_CHANNELS:], axis=-1) != 0
    return np.where(visible, sem, 0).astype(np.uint8)


def _row_labels(out: SparseVoxelGrid) -> np.ndarray:
    """Label volume of a row grid whose absent voxels hold the background row.

    A background voxel's visibility argmax is empty, so its label is 0 and
    only the grid's rows need an argmax.
    """
    labels = np.zeros(out.geometry.dims, dtype=np.uint8)
    x, y, z = out.coords.T
    labels[x, y, z] = volume_labels(out.features)
    return labels


def _head_logits(grid: SparseVoxelGrid, seed: int) -> np.ndarray:
    """Set-preserving conv, ReLU, then a 1x1 map to the 21 output channels."""
    channels = grid.channels
    spec = SparseConvSpec.seeded(channels, channels, seed=seed)
    hidden = np.maximum(sparse_conv(grid, spec).features, 0.0)
    return hidden @ seeded_projection(channels, OUT_CHANNELS, seed=seed + 1)


def _split_probs(logits: np.ndarray) -> np.ndarray:
    """Row-normalize the semantic and visibility blocks independently."""
    return np.concatenate([softmax_rows(logits[:, :SEM_CHANNELS]),
                           softmax_rows(logits[:, SEM_CHANNELS:])], axis=1)


def refine_stages(fused: SparseVoxelGrid, pyramid: dict, rig: list[CameraModel],
                  maps: FeatureMap2D, config: PipelineConfig, stage):
    """HVFR: select refinement sets, gather their children, fuse them back.

    ``pyramid`` needs the scale-2 and scale-1 LiDAR grids; weights are seeded
    by ``config.seed_for``. ``stage(name)`` is a context manager entered
    around each of the "select", "gather" and "refine" stages. Returns
    ``(sets, fs2, ff1, refined)``.
    """
    c = config.lidar_channels
    with stage("select"):
        rie = SparseConvSpec.seeded(c, 1, seed=config.seed_for("rie"))
        sets = select_sets(estimate_importance(fused, rie), config.tau1, config.tau2)

    with stage("gather"):
        proj2 = seeded_projection(c + maps.channels, c, seed=config.seed_for("gather-semi"))
        proj1 = seeded_projection(c + maps.channels, c, seed=config.seed_for("gather-fine"))
        fs2 = gather_semi_fine(sets.semi_fine, pyramid[2], rig, maps, proj2)
        ff1 = gather_fine(sets.fine, pyramid[1], rig, maps, proj1)

    with stage("refine"):
        sconv1 = SparseConvSpec.seeded(c, c, seed=config.seed_for("refine-a"))
        sconv2 = SparseConvSpec.seeded(c, c, seed=config.seed_for("refine-b"))
        refined = fuse_refined(ff1, fs2, fused, sconv1, sconv2)
    return sets, fs2, ff1, refined


def forward(pc: PointCloud, rig: list[CameraModel], maps: FeatureMap2D,
            config: PipelineConfig, geometry: GridGeometry) -> ForwardResult:
    c = config.lidar_channels
    seeds = {name: config.seed_for(name) for name in SEED_NAMES}
    timings: dict = {}
    counts: dict = {}

    with _timed(timings, "voxelize"):
        f_l1 = voxelize(pc, geometry, channels=c)
    counts["voxelize"] = len(f_l1)

    with _timed(timings, "pyramid"):
        pyramid = multi_scale_stack(f_l1, seed=seeds["backbone"])
    counts["pyramid"] = sum(len(g) for g in pyramid.values())

    with _timed(timings, "densify"):
        dense = densify(MultiScaleFeatures({s: pyramid[s] for s in DENSIFY_SCALES}))
    counts["densify"] = len(dense)

    with _timed(timings, "fuse"):
        queries = guide_queries(dense, qv_seed=seeds["queries"])
        params = DeformableAttnParams.seeded(maps.channels, c, n_ref=config.n_ref,
                                             seed=seeds["fusion"])
        fused = fuse(queries, rig, maps, params)
    counts["fuse"] = len(fused)

    sets, fs2, ff1, refined = refine_stages(fused, pyramid, rig, maps, config,
                                            partial(_timed, timings))
    counts["select"] = sets.semi_fine.shape[0] + sets.fine.shape[0]
    counts["gather"] = len(fs2) + len(ff1)
    counts["refine"] = len(refined)
    identity = bool(np.array_equal(refined.coords, fused.coords)
                    and np.array_equal(refined.features, fused.features))

    with _timed(timings, "head"):
        o4 = refined.with_features(_split_probs(_head_logits(refined, seeds["head"])))
    counts["head"] = len(refined)

    with _timed(timings, "decode"):
        o1 = _decode_fine(decoder_input_set(o4), seeds["decoder"])
    counts["decode"] = len(o1)

    return ForwardResult(pyramid=pyramid, fused=fused, sets=sets, refined=refined, o4=o4, o1=o1,
                         refine_identity=identity, timings=timings, counts=counts, seeds=seeds)


def _decode_fine(parents: SparseVoxelGrid, seed: int) -> SparseVoxelGrid:
    """Emit the in-grid scale-1 children of ``parents``, the visible coarse voxels.

    Children come from ``subdivide_coords``. Their logits come from a seeded
    linear map over the parent's 21 channels and the child's normalized offset.
    """
    geom = parents.geometry.with_scale(1)
    children, parent_rows = subdivide_coords(parents.coords, 4, geom.dims)
    parent_vecs = parents.features[parent_rows]
    offsets = (children - parents.coords[parent_rows] * 4) / 4.0
    w = seeded_projection(OUT_CHANNELS + 3, OUT_CHANNELS, seed=seed)
    # identity carry plus a seeded perturbation so children track their parent
    w[:OUT_CHANNELS] += np.eye(OUT_CHANNELS)
    probs = _split_probs(np.hstack([parent_vecs, offsets]) @ w)
    return SparseVoxelGrid(geom, children, probs)


def forward_scene(scene: SyntheticScene, config: PipelineConfig) -> ForwardResult:
    """:func:`forward` on a scene's LiDAR scan and ``ring_rig`` camera renders."""
    rig = ring_rig(scene)
    maps = scene.feature_maps(rig, config.image_channels)
    return forward(scene.lidar_scan(), rig, maps, config, geometry=scene.geometry)

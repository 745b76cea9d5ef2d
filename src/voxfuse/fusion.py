"""Query guidance and forward-only deformable cross-attention over camera maps.

Every voxel query projects into each camera; hits sample a small set of
offset pixel locations and combine them with ``softmax_rows`` weights through
value and output maps. ``camera.camera_mean`` averages the per-camera results
over the cameras that see the voxel, in camera id order, so outputs are
bit-stable. Voxels no camera sees fall back to zero attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, FeatureMap2D, camera_mean, sample_array
from .errors import InvalidScale, ShapeError
from .grid import SparseVoxelGrid


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class DeformableAttnParams:
    """Sampling geometry and projections for one attention layer.

    ``offsets`` are pixel displacements around the projected reference,
    ``softmax_rows(weights_logits)`` gives the per-reference-point weights,
    ``value_proj`` maps image channels to query channels and ``output_proj``
    maps query channels to themselves. ``offset_map``, when present, adds a
    query-conditioned displacement on top of the static offsets.
    """

    offsets: np.ndarray
    weights_logits: np.ndarray
    value_proj: np.ndarray
    output_proj: np.ndarray
    offset_map: np.ndarray | None = None

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.float64)
        logits = np.asarray(self.weights_logits, dtype=np.float64)
        vp = np.asarray(self.value_proj, dtype=np.float64)
        op = np.asarray(self.output_proj, dtype=np.float64)
        if off.ndim != 2 or off.shape[1] != 2:
            raise ShapeError(f"offsets must be (n_ref, 2), got {off.shape}")
        if logits.shape != (off.shape[0],):
            raise ShapeError(f"weights_logits must be ({off.shape[0]},), got {logits.shape}")
        if vp.ndim != 2 or op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ShapeError("value_proj must be (C_img, C); output_proj must be (C, C)")
        if vp.shape[1] != op.shape[0]:
            raise ShapeError(f"value_proj maps to {vp.shape[1]} channels, output_proj expects {op.shape[0]}")
        if abs(softmax_rows(logits).sum() - 1.0) > 1e-6:
            raise ValueError("softmax_rows(weights_logits) must sum to 1")
        if self.offset_map is not None:
            om = np.asarray(self.offset_map, dtype=np.float64)
            if om.shape != (op.shape[0], off.shape[0] * 2):
                raise ShapeError(f"offset_map must be ({op.shape[0]}, {off.shape[0] * 2}), got {om.shape}")
            object.__setattr__(self, "offset_map", om)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights_logits", logits)
        object.__setattr__(self, "value_proj", vp)
        object.__setattr__(self, "output_proj", op)

    @property
    def n_ref(self) -> int:
        return self.offsets.shape[0]

    @property
    def image_channels(self) -> int:
        return self.value_proj.shape[0]

    @property
    def query_channels(self) -> int:
        return self.output_proj.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return softmax_rows(self.weights_logits)

    @classmethod
    def seeded(cls, image_channels: int, query_channels: int, n_ref: int = 4,
               seed: int = 0, query_conditioned: bool = False) -> DeformableAttnParams:
        """Deterministic pseudo-random parameters; offsets in pixels, standard deviation 2."""
        rng = np.random.default_rng(seed)
        offsets = rng.normal(0.0, 2.0, size=(n_ref, 2))
        logits = rng.normal(size=n_ref)
        vp = rng.normal(0.0, 1.0 / np.sqrt(image_channels), size=(image_channels, query_channels))
        op = rng.normal(0.0, 1.0 / np.sqrt(query_channels), size=(query_channels, query_channels))
        om = None
        if query_conditioned:
            om = rng.normal(0.0, 0.1, size=(query_channels, n_ref * 2))
        return cls(offsets, logits, vp, op, om)


def guide_queries(dense: SparseVoxelGrid, qv_seed: int = 0) -> SparseVoxelGrid:
    """``dense`` with each row's feature shifted by a seeded base query.

    Guided query = grid feature + base query, elementwise, one row per
    non-empty voxel. Rows follow the grid's canonical coordinate order, so a
    fixed seed gives identical queries across runs.
    """
    if dense.scale != 4:
        raise InvalidScale(f"expected a scale-4 grid, got scale {dense.scale}")
    rng = np.random.default_rng(qv_seed)
    base = rng.normal(size=(len(dense), dense.channels))
    return dense.with_features(dense.features + base)


def fuse(queries: SparseVoxelGrid, rig: list[CameraModel], maps: FeatureMap2D,
         params: DeformableAttnParams, residual: bool = True) -> SparseVoxelGrid:
    """Cross-attend every query voxel into the camera maps.

    ``queries`` is the scale-4 grid from ``guide_queries``: its rows are the
    query voxels and its features the guided queries. Per camera, hits
    sample ``n_ref`` offset locations around the projected center, weight
    them by ``params.weights``, and pass through the value and output maps;
    the per-camera vectors average over the cameras that saw the voxel.
    Unseen voxels get zero attention. With ``residual`` the guided query adds
    back into every output row. ``meta['miss_count']`` reports how many
    voxels no camera saw.
    """
    if maps.channels != params.image_channels:
        raise ShapeError(f"maps carry {maps.channels} channels, params expect {params.image_channels}")
    if queries.channels != params.query_channels:
        raise ShapeError(f"queries carry {queries.channels} channels, params expect {params.query_channels}")
    if len(rig) != maps.num_cameras:
        raise ShapeError(f"{len(rig)} cameras but {maps.num_cameras} feature maps")

    n = len(queries)
    w = params.weights

    if params.offset_map is not None:
        dyn = (queries.features @ params.offset_map).reshape(n, params.n_ref, 2)
    else:
        dyn = None

    def attend(cam_id, rows, uv):
        pos = uv[:, None, :] + params.offsets[None, :, :]
        if dyn is not None:
            pos = pos + dyn[rows]
        samples = sample_array(maps.maps[cam_id], pos.reshape(-1, 2))
        samples = samples.reshape(rows.shape[0], params.n_ref, -1)
        # anchored convex combination: equals sum_r w_r * s_r since the
        # weights sum to 1, and keeps all-equal samples exactly equal
        pooled = samples[:, 0, :] + np.einsum(
            "mrc,r->mc", samples[:, 1:, :] - samples[:, :1, :], w[1:])
        return (pooled @ params.value_proj) @ params.output_proj

    out, n_hit = camera_mean(rig, queries.centers(), params.query_channels, attend)
    if residual:
        out = out + queries.features
    fused = queries.with_features(out)
    fused.meta["miss_count"] = int((n_hit == 0).sum())
    fused.meta["hit_counts"] = n_hit
    return fused

"""Reference implementations and fixture builders that only tests use.

The program never calls these. Tests compare the program's batched code
against the scalar references here, or build inputs with the builders:

- :func:`traverse_arrays` is the one-ray grid walk that ``occlusion._walk``
  matches bit for bit, ray by ray, :func:`slab_oracle` the brute-force
  cell set and order that both walks must reproduce, and
  :func:`exact_walk` the same walk in rational arithmetic, which pins the
  tie rule;
- :func:`masked_slab_hits` is the ray-box test with explicit masks for
  axis-parallel rays that ``synthetic._slab_hits`` matches bit for bit;
- :func:`back_project` is the pixel-to-world inverse that
  ``occlusion.pixel_rays``, the one pixel ray of label-gen and of
  ``SyntheticScene.render``, matches at depth 1;
- :func:`in_grid_children` enumerates the children that
  ``grid.subdivide_coords`` returns, one nested loop per axis;
- :func:`occupied_fraction` is the exact-occupancy importance scorer;
- :func:`lovasz_oracle` is the Lovász extension from its definition;
- :func:`dense_view` is a sparse grid's dense array, every absent cell
  holding ``fill``;
- :func:`config_text` writes a config as the ini text that
  ``PipelineConfig.loads`` reads.
"""

from __future__ import annotations

import configparser
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from voxfuse.camera import CameraModel, FeatureMap2D
from voxfuse.config import _SCHEMA, PipelineConfig
from voxfuse.fusion import DeformableAttnParams
from voxfuse.grid import GridGeometry, SparseVoxelGrid
from voxfuse.lidar import SparseConvSpec
from voxfuse.occlusion import _EPS, _length
from voxfuse.synthetic import _EPS as _SLAB_EPS
from voxfuse.synthetic import Box, SyntheticScene


def traverse_arrays(origin, target, geom: GridGeometry, margin: float = 0.0):
    """Cells crossed by the segment origin->target (+margin), with entry parameters.

    Returns (coords (M, 3) int64, t_entry (M,) float64) ordered by distance.
    Cells the segment touches with zero length are not reported.
    """
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    d = np.asarray(target, dtype=np.float64).reshape(3) - o
    seg = float(_length(d))
    lo = geom.origin_array
    h = geom.cell_size
    dims = geom.dims
    if seg < _EPS:
        idx = np.floor((o - lo) / h).astype(np.int64)
        if (idx >= 0).all() and (idx < np.asarray(dims)).all():
            return idx.reshape(1, 3), np.zeros(1)
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
    dirn = d / seg
    t1 = seg + margin
    t0 = 0.0
    for i in range(3):
        if abs(dirn[i]) < 1e-15:
            if o[i] < lo[i] or o[i] >= lo[i] + dims[i] * h:
                return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
        else:
            ta = (lo[i] - o[i]) / dirn[i]
            tb = (lo[i] + dims[i] * h - o[i]) / dirn[i]
            if ta > tb:
                ta, tb = tb, ta
            if ta > t0:
                t0 = ta
            if tb < t1:
                t1 = tb
    if t1 - t0 <= _EPS:
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0)

    p = o + dirn * t0
    cell = [min(dims[i] - 1, max(0, int(math.floor((p[i] - lo[i]) / h)))) for i in range(3)]
    step = [0, 0, 0]
    t_max = [math.inf, math.inf, math.inf]
    t_delta = [math.inf, math.inf, math.inf]
    # a subnormal direction component overflows these to inf, which is exact
    with np.errstate(over="ignore", divide="ignore"):
        for i in range(3):
            if dirn[i] > 0:
                step[i] = 1
                t_max[i] = (lo[i] + (cell[i] + 1) * h - o[i]) / dirn[i]
                t_delta[i] = h / dirn[i]
            elif dirn[i] < 0:
                step[i] = -1
                t_max[i] = (lo[i] + cell[i] * h - o[i]) / dirn[i]
                t_delta[i] = -h / dirn[i]

    coords = []
    entries = []
    t_cur = t0
    while True:
        coords.append((cell[0], cell[1], cell[2]))
        entries.append(t_cur)
        axis = 0
        if t_max[1] < t_max[axis]:
            axis = 1
        if t_max[2] < t_max[axis]:
            axis = 2
        t_cur = t_max[axis]
        if t1 - t_cur <= _EPS:
            break
        cell[axis] += step[axis]
        if cell[axis] < 0 or cell[axis] >= dims[axis]:
            break
        t_max[axis] += t_delta[axis]
    return np.array(coords, dtype=np.int64), np.array(entries)


def slab_oracle(origin, target, geom, margin=0.0):
    """Cells of the segment origin->target (+margin), by a slab test of every cell
    in its bounding box, ordered by entry distance; zero-length cells are dropped.
    """
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(target, dtype=np.float64) - o
    seg = np.linalg.norm(d)
    dirn = d / seg
    t_end = seg + margin
    end = o + dirn * t_end
    lo = geom.origin_array
    h = geom.cell_size
    dims = np.asarray(geom.dims)
    cmin = np.maximum(0, np.floor((np.minimum(o, end) - lo) / h).astype(int) - 1)
    cmax = np.minimum(dims - 1, np.floor((np.maximum(o, end) - lo) / h).astype(int) + 1)
    if (cmin > cmax).any():
        return np.zeros((0, 3), dtype=np.int64)
    grids = np.meshgrid(*(np.arange(cmin[i], cmax[i] + 1) for i in range(3)), indexing="ij")
    cells = np.stack([g.reshape(-1) for g in grids], axis=1)
    box_lo = lo + cells * h
    box_hi = box_lo + h
    t_in = np.zeros(cells.shape[0])
    t_out = np.full(cells.shape[0], t_end)
    for i in range(3):
        if abs(dirn[i]) < 1e-15:
            inside = (box_lo[:, i] <= o[i]) & (o[i] < box_hi[:, i])
            t_out[~inside] = -np.inf
        else:
            ta = (box_lo[:, i] - o[i]) / dirn[i]
            tb = (box_hi[:, i] - o[i]) / dirn[i]
            lo_t, hi_t = np.minimum(ta, tb), np.maximum(ta, tb)
            t_in = np.maximum(t_in, lo_t)
            t_out = np.minimum(t_out, hi_t)
    keep = t_out - t_in > 1e-12
    cells = cells[keep]
    order = np.argsort(t_in[keep], kind="stable")
    return cells[order].astype(np.int64)


def exact_walk(origin, target, geom: GridGeometry) -> list[int]:
    """Flat C-order cells of the segment origin->target, in exact arithmetic.

    Every crossing is a ``Fraction`` of the segment, so nothing rounds. On
    an exact tie the lower axis steps first. The segment ends at the target
    or where it leaves the grid, whichever comes first, and a cell it enters
    only at that end is not reported. The origin must lie inside the grid.
    """
    o = [Fraction(v) for v in origin]
    d = [Fraction(v) - a for v, a in zip(target, o)]
    lo = [Fraction(v) for v in geom.origin]
    h = Fraction(geom.cell_size)
    dims = geom.dims
    end = min([Fraction(1)] + [(lo[i] + dims[i] * h * (d[i] > 0) - o[i]) / d[i]
                               for i in range(3) if d[i]])
    cell = [math.floor((o[i] - lo[i]) / h) for i in range(3)]
    cells = []
    while True:
        cells.append((cell[0] * dims[1] + cell[1]) * dims[2] + cell[2])
        cross = [(lo[i] + (cell[i] + (d[i] > 0)) * h - o[i]) / d[i] if d[i] else math.inf
                 for i in range(3)]
        axis = min(range(3), key=cross.__getitem__)  # the first minimum: ties go low
        if cross[axis] >= end:
            return cells
        cell[axis] += 1 if d[axis] > 0 else -1


def masked_slab_hits(origin: np.ndarray, dirs: np.ndarray, box: Box):
    """Entry/exit parameters of rays against one box; entry must be ahead."""
    lo = np.asarray(box.lo) - origin
    hi = np.asarray(box.hi) - origin
    t0 = np.full(dirs.shape[0], -np.inf)
    t1 = np.full(dirs.shape[0], np.inf)
    for ax in range(3):
        d = dirs[:, ax]
        moving = d != 0.0
        a = np.where(moving, lo[ax] / np.where(moving, d, 1.0), -np.inf)
        b = np.where(moving, hi[ax] / np.where(moving, d, 1.0), np.inf)
        t0 = np.maximum(t0, np.minimum(a, b))
        t1 = np.minimum(t1, np.maximum(a, b))
        inside = (lo[ax] < 0.0) & (0.0 < hi[ax])
        t0 = np.where(moving, t0, np.where(inside, t0, np.inf))
        t1 = np.where(moving, t1, np.where(inside, t1, -np.inf))
    hit = (t1 > t0) & (t0 > _SLAB_EPS)
    return np.where(hit, t0, np.inf)


def back_project(cam: CameraModel, u: float, v: float, depth: float) -> np.ndarray:
    """Pixel plus depth back to a world point (inverse of ``project_points``)."""
    ray = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    p_cam = ray * depth
    r = cam.extrinsics[:3, :3]
    return r.T @ (p_cam - cam.extrinsics[:3, 3])


def in_grid_children(parents, factor: int, dims) -> tuple[np.ndarray, np.ndarray]:
    """Every ``p * factor + offset`` below ``dims`` and its parent row.

    Children are listed parent-major with z fastest, as (M, 3) and (M,) arrays.
    """
    children, rows = [], []
    for row, (x, y, z) in enumerate(np.asarray(parents).reshape(-1, 3).tolist()):
        for i, j, k in itertools.product(range(factor), repeat=3):
            child = (factor * x + i, factor * y + j, factor * z + k)
            if all(c < d for c, d in zip(child, dims)):
                children.append(child)
                rows.append(row)
    return np.array(children, dtype=np.int64).reshape(-1, 3), np.array(rows, dtype=np.int64)


def occupied_fraction(parents: np.ndarray, occupied_scale1: np.ndarray) -> np.ndarray:
    """Share of each scale-4 parent's 64 scale-1 children that are occupied.

    ``occupied_scale1`` holds unique scale-1 coordinates; the result is the
    oracle importance scorer used in place of the learned estimator.
    """
    parents = np.asarray(parents, dtype=np.int64).reshape(-1, 3)
    occ = np.asarray(occupied_scale1, dtype=np.int64).reshape(-1, 3)
    counts = np.zeros(parents.shape[0], dtype=np.int64)
    if parents.size and occ.size:
        cells = occ // 4
        # C-order flat indices into a box that holds every parent and cell
        dims = np.maximum(parents.max(axis=0), cells.max(axis=0)) + 1
        pkeys = np.ravel_multi_index(tuple(parents.T), dims)
        order = np.argsort(pkeys, kind="stable")
        sorted_keys = pkeys[order]
        okeys = np.ravel_multi_index(tuple(cells.T), dims)
        pos = np.searchsorted(sorted_keys, okeys)
        pos_c = np.minimum(pos, sorted_keys.size - 1)
        hit = sorted_keys[pos_c] == okeys
        np.add.at(counts, order[pos_c[hit]], 1)
    return counts / 64.0


def lovasz_oracle(probs, labels):
    """Evaluate the Lovász extension from its definition.

    For each present class, sort the per-voxel errors descending and combine
    the Jaccard losses of the prefix misprediction sets with the error
    increments: LE(e) = sum_k e_(k) * (J(S_k) - J(S_{k-1})).
    """
    labels = np.asarray(labels)
    losses = []
    for c in np.unique(labels):
        member = labels == c
        gsum = int(member.sum())
        e = np.where(member, 1.0 - probs[:, c], probs[:, c])
        order = np.argsort(-e, kind="stable")
        e_sorted, g_sorted = e[order], member[order]
        total, prev = 0.0, 0.0
        for k in range(1, len(e_sorted) + 1):
            m_in_g = int(g_sorted[:k].sum())
            m_out = k - m_in_g
            delta = 1.0 - (gsum - m_in_g) / (gsum + m_out)
            total += e_sorted[k - 1] * (delta - prev)
            prev = delta
        losses.append(total)
    return float(np.mean(losses))


LATTICE = [0.0, 0.25, 0.5, 0.75, 1.0]


def lattice_rows(num_classes):
    """Probability rows over ``num_classes`` classes with every entry on ``LATTICE``."""
    rows = []
    for combo in itertools.product(LATTICE, repeat=num_classes):
        if abs(sum(combo) - 1.0) < 1e-12:
            rows.append(combo)
    return rows


def dense_view(grid: SparseVoxelGrid, fill=0.0) -> np.ndarray:
    """Dense (X, Y, Z, C) array of ``grid``. Intended for small grids.

    ``fill`` is a scalar or a C-vector broadcast to every absent cell.
    """
    out = np.full(grid.shape, fill, dtype=np.float64)
    if len(grid):
        out[grid.coords[:, 0], grid.coords[:, 1], grid.coords[:, 2]] = grid.features
    return out


def constant_maps(rig: list[CameraModel], value: np.ndarray) -> FeatureMap2D:
    """Feature maps that hold ``value`` at every pixel of every camera."""
    value = np.asarray(value, dtype=np.float64).reshape(-1)
    maps = []
    for cam in rig:
        w, h = cam.image_size
        maps.append(np.broadcast_to(value, (h, w, value.shape[0])).copy())
    return FeatureMap2D(maps)


def identity_attention(channels: int, n_ref: int = 4, offsets=None,
                       logits=None) -> DeformableAttnParams:
    """Identity value/output maps; zero offsets and uniform weights by default."""
    off = np.zeros((n_ref, 2)) if offsets is None else np.asarray(offsets, dtype=np.float64)
    lg = np.zeros(off.shape[0]) if logits is None else np.asarray(logits, dtype=np.float64)
    return DeformableAttnParams(off, lg, np.eye(channels), np.eye(channels))


def identity_conv(channels: int) -> SparseConvSpec:
    """Submanifold 3x3x3 kernel: center tap = identity matrix, all other taps zero."""
    w = np.zeros((3, 3, 3, channels, channels))
    w[1, 1, 1] = np.eye(channels)
    return SparseConvSpec(w, np.zeros(channels))


def _ini_value(value) -> str:
    """A config value as ini text: a tuple as its items separated by spaces."""
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def config_text(cfg: PipelineConfig) -> str:
    """``cfg`` as the ini text that ``PipelineConfig.loads`` reads back to ``cfg``."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for section, keys in _SCHEMA.items():
        cp[section] = {key: _ini_value(getattr(cfg, name)) for key, (name, _) in keys.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def save_scene(scene: SyntheticScene, path: str):
    """Write ``scene`` in the JSON form that ``synthetic.load_scene`` reads."""
    geom = scene.geometry
    data = {
        "seed": scene.seed,
        "geometry": {
            "origin": list(geom.origin),
            "voxel_size": geom.voxel_size,
            "dims": list(geom.dims_scale1),
        },
        "sensor_origin": list(scene.sensor_origin),
        "boxes": [{"lo": list(b.lo), "hi": list(b.hi), "class_id": b.class_id}
                  for b in scene.boxes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")

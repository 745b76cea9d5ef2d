"""Release acceptance checklist.

One test per criterion. Each prints a single PASS/FAIL line; the terminal
summary hook in conftest.py repeats the collected lines after the run.
"""

import importlib.resources
import inspect
import io
import itertools
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
from scipy import ndimage

from voxfuse.camera import NEAR_PLANE, CameraModel, FeatureMap2D, project_points
from voxfuse.cli import main
from voxfuse.config import PipelineConfig
from voxfuse.densify import densify
from voxfuse.fusion import DeformableAttnParams, fuse, guide_queries
from voxfuse.grid import (
    GridGeometry,
    SparseVoxelGrid,
    align_coords,
    subdivide_coords,
)
from voxfuse.lidar import PointCloud, SparseConvSpec, sparse_conv
from voxfuse.losses import (
    cross_entropy,
    loss_report,
    lovasz_softmax,
)
from voxfuse.metrics import compute_metrics
from voxfuse.occlusion import (
    OCC_CHANNELS,
    SEM_CHANNELS,
    OcclusionLabel,
    _walk,
    combine_volumes,
    label_camera,
    label_lidar,
    pixel_rays,
    read_volume,
    write_volume,
)
from voxfuse.pipeline import OUT_CHANNELS, forward_scene
from voxfuse.refine import ImportanceMap, fuse_refined, select_sets
from voxfuse.synthetic import load_scene, random_scene

from oracles import (
    config_text,
    constant_maps,
    dense_view,
    identity_attention,
    lattice_rows,
    lovasz_oracle,
    occupied_fraction,
    slab_oracle,
)

RESULTS: list[str] = []


def record(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag} {'PASS' if ok else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# --- A01: multi-scale densification against a brute-force oracle -----------

def group_mean_oracle(grids):
    bucket = {}
    for s in (4, 8, 16):
        g = grids[s]
        f = s // 4
        for row in range(len(g)):
            key = tuple(int(c) * f for c in g.coords[row])
            bucket.setdefault(key, []).append(g.features[row])
    coords = sorted(bucket)
    feats = np.array([np.mean(bucket[k], axis=0) for k in coords])
    return np.array(coords), feats


def test_densify_matches_group_mean_oracle(rng):
    base = GridGeometry((0.0, 0.0, 0.0), 0.2, (128, 128, 64))
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for i in range(200):
        if i < 190:
            n4, n8, n16 = rng.integers(20, 400), rng.integers(10, 200), rng.integers(5, 100)
        else:
            n4, n8, n16 = 7000, 2200, 800
        channels = int(rng.integers(1, 6))
        grids = {}
        for s, n in ((4, n4), (8, n8), (16, n16)):
            g = base.with_scale(s)
            coords = np.unique(
                np.stack([rng.integers(0, d, size=n) for d in g.dims], axis=1), axis=0)
            grids[s] = SparseVoxelGrid(g, coords, rng.normal(size=(coords.shape[0], channels)))
        assert sum(len(g) for g in grids.values()) <= 10_000
        got = densify(grids)
        want_coords, want_feats = group_mean_oracle(grids)
        if not np.array_equal(got.coords, want_coords):
            failures += 1
            continue
        err = float(np.max(np.abs(got.features - want_feats)))
        worst = max(worst, err)
        if err > 1e-6:
            failures += 1
    elapsed = time.perf_counter() - start
    record("A01", failures == 0 and elapsed < 5.0,
           f"densify == group-by-mean oracle on 200 instances <= 1e4 voxels "
           f"(max err {worst:.2e} <= 1e-6, {elapsed:.2f} s < 5 s)")


# --- A02: subdivision tiles parents exactly ---------------------------------

def test_subdivision_tiles_parents_exactly(rng):
    parents = rng.integers(0, 2 ** 15, size=(1000, 3)).astype(np.int64)
    failures = 0
    for factor, child_scale in ((2, 2), (4, 1)):
        # a child extent that holds every child of the parents
        children, parent_rows = subdivide_coords(parents, factor, (2 ** 15 * factor,) * 3)
        if not np.array_equal(parent_rows, np.repeat(np.arange(1000), factor ** 3)):
            failures += 1
        per = children.reshape(1000, factor ** 3, 3)
        for i in range(1000):
            block = per[i]
            if block.shape[0] != factor ** 3:
                failures += 1
                continue
            if np.unique(block, axis=0).shape[0] != factor ** 3:
                failures += 1
                continue
            if not (block // factor == parents[i]).all():
                failures += 1
        # every child aligns back to its own parent
        back = align_coords(children, child_scale, child_scale * factor)
        if not np.array_equal(back, np.repeat(parents, factor ** 3, axis=0)):
            failures += 1
    record("A02", failures == 0,
           f"8-way and 64-way children of 1000 random parents tile, are unique, carry their "
           f"parent rows, and round-trip through scale alignment ({failures} failures)")


# --- A03: sparse convolution against a dense oracle -------------------------

def test_sparse_conv_matches_dense_oracle(rng):
    worst = 0.0
    failures = 0
    for i in range(100):
        dims = tuple(int(d) for d in rng.integers(4, 17, size=3))
        geom = GridGeometry((0.0, 0.0, 0.0), 0.2, dims)
        n = int(rng.integers(1, 60))
        coords = np.unique(
            np.stack([rng.integers(0, d, size=n) for d in dims], axis=1), axis=0)
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        grid = SparseVoxelGrid(geom, coords, rng.normal(size=(coords.shape[0], cin)))
        stride = 1 + i % 2
        spec = SparseConvSpec.seeded(cin, cout, seed=i)
        out = sparse_conv(grid, spec, stride)
        dense = dense_view(grid)
        full = np.zeros(dims + (cout,))
        for co in range(cout):
            acc = np.zeros(dims)
            for ci in range(cin):
                acc += ndimage.correlate(dense[..., ci], spec.weights[..., ci, co],
                                         mode="constant", cval=0.0)
            full[..., co] = acc + spec.bias[co]
        # stride 1 keeps the input set; stride 2 is its integer-division image,
        # each output row the dense result at its anchor 2 * coord
        if not np.array_equal(out.coords, np.unique(coords // stride, axis=0)):
            failures += 1
            continue
        at = out.coords * stride
        err = float(np.max(np.abs(out.features - full[at[:, 0], at[:, 1], at[:, 2]])))
        worst = max(worst, err)
        if err > 1e-6:
            failures += 1
    record("A03", failures == 0,
           f"sparse conv == dense conv oracle on 100 grids <= 16^3, 50 at stride 1 "
           f"and 50 at stride 2 ({failures} failures, max err {worst:.2e} <= 1e-6)")


# --- A04: pixel-to-voxel fusion invariants ----------------------------------

GEOM4 = GridGeometry((0.0, 0.0, 0.0), 0.2, (64, 64, 64), scale=4)


def _forward_cam(eye=(-2.0, 2.56, 2.56), target=(10.0, 2.56, 2.56)):
    fx = 32.0 / np.tan(np.radians(50.0))
    return CameraModel.from_lookat(eye, target, fx, fx, 32.0, 32.0, (64, 64))


def test_fusion_constant_field_miss_rule_and_determinism(rng):
    ok = True
    notes = []

    # constant maps + identity projections reproduce the constant bit-exactly
    c = np.array([1.5, -2.0, 0.5])
    coords = [[2, 3, 3], [3, 3, 3], [2, 4, 3], [3, 2, 4]]
    offsets = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for rig in ([_forward_cam()],
                [_forward_cam(), _forward_cam(eye=(7.12, 2.56, 2.56), target=(-10.0, 2.56, 2.56))]):
        maps = constant_maps(rig, c)
        params = identity_attention(3, n_ref=4, offsets=offsets)
        qs = SparseVoxelGrid(GEOM4, coords, np.zeros((len(coords), 3)))
        out = fuse(qs, rig, maps, params)
        exact = all(np.array_equal(row, c) for row in out.features)
        if out.meta["miss_count"] != 0 or not exact:
            ok = False
    notes.append("constant field exact")

    # voxels no camera sees keep the guided query (and zero without residual)
    away = [CameraModel.from_lookat((0, 0, 0), (-10, 0, 0), 100, 100, 32, 32, (64, 64))]
    maps = FeatureMap2D.seeded(away, 3, seed=0)
    grid = SparseVoxelGrid(GEOM4, [[2, 3, 3], [3, 3, 3]], rng.normal(size=(2, 3)))
    qs = guide_queries(grid, qv_seed=1)
    params = DeformableAttnParams.seeded(3, 3, seed=2)
    out = fuse(qs, away, maps, params)
    if out.meta["miss_count"] != 2 or not np.array_equal(out.features, qs.features):
        ok = False
    bare = fuse(qs, away, maps, params, residual=False)
    if not np.array_equal(bare.features, np.zeros((2, 3))):
        ok = False
    notes.append("all-miss keeps query")

    # rebuilding everything from the same seeds gives identical bits
    runs = []
    for _ in range(2):
        rig = [_forward_cam()]
        maps = FeatureMap2D.seeded(rig, 3, seed=9)
        g = SparseVoxelGrid(GEOM4, [[2, 3, 3], [3, 3, 3], [2, 4, 3]],
                            np.random.default_rng(6).normal(size=(3, 3)))
        q = guide_queries(g, qv_seed=5)
        p = DeformableAttnParams.seeded(3, 3, seed=10, query_conditioned=True)
        runs.append(fuse(q, rig, maps, p).features)
    if not np.array_equal(runs[0], runs[1]):
        ok = False
    notes.append("seeded runs bit-identical")

    record("A04", ok, "fusion: " + ", ".join(notes))


# --- A05: projection round trip ---------------------------------------------

def test_projection_round_trip_residual(rng):
    checked = 0
    rays = 0
    behind = 0
    worst = 0.0
    attempts = 0
    while checked < 1000 and attempts < 20000:
        attempts += 1
        eye = rng.uniform(-5, 5, size=3)
        target = eye + rng.normal(size=3)
        if np.linalg.norm(target - eye) < 0.1:
            continue
        fx = float(rng.uniform(50, 400))
        fy = float(rng.uniform(50, 400))
        w, h = int(rng.integers(32, 1024)), int(rng.integers(32, 1024))
        cx, cy = (w - 1) / 2 + rng.normal(), (h - 1) / 2 + rng.normal()
        cam = CameraModel.from_lookat(eye, target, fx, fy, cx, cy, (w, h))
        # the label-gen camera rays, about 256 per camera, out to random depths
        stride = math.ceil(math.sqrt(w * h / 256))
        center, direction = pixel_rays(cam, stride)
        depth = rng.uniform(0.5, 30.0, size=direction.shape[0])
        uv, cam_depth, _ = project_points(cam, center + direction * depth[:, None])
        v, u = np.meshgrid(np.arange(0, h, stride), np.arange(0, w, stride), indexing="ij")
        behind += np.count_nonzero(cam_depth <= 0.0)
        front = cam_depth > NEAR_PLANE
        residual = np.hypot(uv[front, 0] - u.ravel()[front], uv[front, 1] - v.ravel()[front])
        if residual.size:
            worst = max(worst, float(residual.max()))
        rays += residual.size
        checked += 1
    record("A05", checked == 1000 and behind == 0 and worst < 1e-4,
           f"pixel ray -> point -> project_points residual {worst:.2e} px < 1e-4 "
           f"over {rays} rays of {checked} random cameras ({behind} rays point behind)")


# --- A06: ray traversal against a segment/box oracle ------------------------

GEOM32 = GridGeometry((0.0, 0.0, 0.0), 0.2, (32, 32, 32))


def test_traversal_matches_slab_oracle(rng):
    start = time.perf_counter()
    origins, targets = [], []
    for _ in range(10_000):
        a = rng.uniform(-1.0, 7.4, size=3)
        b = rng.uniform(-1.0, 7.4, size=3)
        if np.linalg.norm(b - a) < 1e-6:
            continue
        origins.append(a)
        targets.append(b)
    checked = len(origins)
    # one walk of every ray; a stable sort by ray keeps each ray's rows in step order
    ids, cells = [], []
    for step_ids, step_cells, _ in _walk(np.array(origins), np.array(targets), GEOM32):
        ids.append(step_ids)
        cells.append(step_cells)
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    coords = np.stack(np.unravel_index(np.concatenate(cells)[order], GEOM32.dims), axis=1)
    starts = np.searchsorted(ids[order], np.arange(checked + 1))
    mismatches = sum(
        not np.array_equal(coords[starts[r]:starts[r + 1]], slab_oracle(a, b, GEOM32))
        for r, (a, b) in enumerate(zip(origins, targets)))
    elapsed = time.perf_counter() - start
    record("A06", checked == 10_000 and mismatches == 0 and elapsed < 10.0,
           f"grid walk == slab oracle, set and order, on {checked} rays in 32^3 "
           f"({mismatches} mismatches, {elapsed:.2f} s < 10 s)")


# --- A07: visibility label merge and the two-wall scene ----------------------

def test_visibility_merge_and_two_wall_scene():
    E, N, O = OcclusionLabel.EMPTY, OcclusionLabel.NON_OCCLUDED, OcclusionLabel.OCCLUDED
    # rows: the LiDAR label E, N, O; columns: the camera label E, N, O
    table = np.array([[E, N, E],
                      [N, N, N],
                      [E, N, O]], dtype=np.uint8)
    lidar, camera = np.meshgrid(np.array([E, N, O], dtype=np.uint8),
                                np.array([E, N, O], dtype=np.uint8), indexing="ij")
    ok = np.array_equal(combine_volumes(lidar, camera), table)

    # two parallel walls, the far one at twice the sensor distance: the sensor
    # rays through the 25 near-wall centers diverge 2x by the far wall, so only
    # the 3x3 grid of far cells on every other row/column stays on a ray
    geom = GridGeometry((0.0, 0.0, 0.0), 0.2, (16, 16, 16))
    sem = np.zeros((16, 16, 16), dtype=np.int64)
    sem[5, 6:11, 6:11] = 1
    sem[10, 6:11, 6:11] = 2
    sensor = np.array([0.1, 1.7, 1.7])
    centers = [(1.1, 1.3 + 0.2 * j, 1.3 + 0.2 * k) for j in range(5) for k in range(5)]
    pc = PointCloud(np.array(centers), np.full(25, 0.5), sensor)
    lid = label_lidar(pc, sem, geom)
    cam = CameraModel.from_lookat(sensor, (2.1, 1.7, 1.7), 32.0, 32.0, 31.5, 31.5, (64, 64))
    camv = label_camera([cam], sem, geom, pixel_stride=1)
    out = combine_volumes(lid, camv)

    expect = np.zeros((16, 16, 16), dtype=np.uint8)
    expect[5, 6:11, 6:11] = N
    for j in (6, 8, 10):
        for k in (6, 8, 10):
            expect[10, j, k] = O
    if not np.array_equal(out, expect):
        ok = False
    record("A07", ok,
           "visibility merge matches all 9 label pairs; two-wall scene yields the "
           "hand-traced 25 non-occluded + 9 occluded cells exactly")


# --- A08: loss terms ----------------------------------------------------------

def test_loss_terms_match_oracles_and_vanish_when_perfect(rng):
    ok = True

    # Jaccard surrogate vs its definition: voxel order does not matter, so
    # multiset representatives cover the 2-class lattice exhaustively; the
    # 3-class lattice is exhaustive to 3 voxels and sampled at 4-6
    worst = 0.0
    checked = 0
    pairs2 = [(row, lab) for row in lattice_rows(2) for lab in range(2)]
    for n in range(1, 7):
        for combo in itertools.combinations_with_replacement(pairs2, n):
            probs = np.array([p for p, _ in combo])
            labels = np.array([l for _, l in combo])
            worst = max(worst, abs(lovasz_softmax(probs, labels) - lovasz_oracle(probs, labels)))
            checked += 1
    if checked != 8007:
        ok = False
    pairs3 = [(row, lab) for row in lattice_rows(3) for lab in range(3)]
    for n in range(1, 4):
        for combo in itertools.combinations_with_replacement(pairs3, n):
            probs = np.array([p for p, _ in combo])
            labels = np.array([l for _, l in combo])
            worst = max(worst, abs(lovasz_softmax(probs, labels) - lovasz_oracle(probs, labels)))
            checked += 1
    rows3 = lattice_rows(3)
    for _ in range(2000):
        n = int(rng.integers(4, 7))
        probs = np.array([rows3[i] for i in rng.integers(0, len(rows3), n)])
        labels = rng.integers(0, 3, n)
        worst = max(worst, abs(lovasz_softmax(probs, labels) - lovasz_oracle(probs, labels)))
        checked += 1
    if worst > 1e-9:
        ok = False

    # uniform 18-way prediction scores ln 18
    uniform = cross_entropy(np.full((6, 18), 1.0 / 18.0), np.arange(6))
    if abs(uniform - math.log(18.0)) > 1e-9:
        ok = False

    # a perfect prediction bundle zeroes every term
    labels = np.array([0, 0, 3, 7, 7, 11])
    probs = np.zeros((6, 18))
    probs[np.arange(6), labels] = 1.0
    rie_targets = np.array([0.0, 1.0, 1.0, 0.0])
    occ_labels = np.array([0, 1, 2, 1])
    occ = np.zeros((4, 3))
    occ[np.arange(4), occ_labels] = 1.0
    report = loss_report(probs, labels, rie_targets.copy(), rie_targets, occ, occ_labels)
    perfect = (report.ce == 0.0 and report.lovasz == 0.0 and report.geo_scal == 0.0
               and report.sem_scal == 0.0 and report.rie_bce == 0.0
               and report.occlusion_ce == 0.0 and report.total == 0.0)
    if not perfect:
        ok = False

    record("A08", ok,
           f"Jaccard surrogate == definition oracle on {checked} lattice instances "
           f"(max err {worst:.2e} <= 1e-9); uniform CE == ln 18; perfect bundle -> all terms 0")


# --- A09: evaluation metrics --------------------------------------------------

def test_metric_fixture_values():
    pred = np.zeros((4, 4, 4), dtype=np.int64)
    gt = np.zeros((4, 4, 4), dtype=np.int64)
    pred[0, 0, 0] = 1
    pred[1, 0, 0] = 1
    gt[0, 0, 0] = 1
    gt[2, 0, 0] = 1
    m = compute_metrics(pred, gt, num_classes=3)
    third = 1.0 / 3.0
    ok = (m.iou == third and m.miou == third
          and m.per_class_iou[1] == third
          and np.isnan(m.per_class_iou[2]))

    same = compute_metrics(gt, gt, num_classes=3)
    if not (same.iou == 1.0 and same.miou == 1.0):
        ok = False
    record("A09", ok,
           "2-vs-2 voxels with 1 overlap -> IoU 1/3 (class 1 = 1/3, class 2 undefined); "
           "identical volumes -> mIoU 1.0")


# --- A10: refinement set structure --------------------------------------------

def test_refinement_set_structure(rng):
    ok = True

    # shipped defaults
    sig = inspect.signature(select_sets)
    if sig.parameters["tau1"].default != 0.4 or sig.parameters["tau2"].default != 0.7:
        ok = False
    cfg = PipelineConfig()
    if cfg.tau1 != 0.4 or cfg.tau2 != 0.7:
        ok = False

    # fine is a subset of semi-fine whenever tau2 >= tau1
    geom4 = GridGeometry((0.0, 0.0, 0.0), 0.2, (64, 64, 16)).with_scale(4)
    for trial in range(200):
        n = int(rng.integers(1, 120))
        coords = np.unique(
            np.stack([rng.integers(0, d, size=n) for d in geom4.dims], axis=1), axis=0)
        grid = SparseVoxelGrid(geom4, coords, np.zeros((coords.shape[0], 1)))
        scores = rng.random(coords.shape[0])
        if trial % 2 == 0:
            t1, t2 = 0.4, 0.7
        else:
            t1, t2 = sorted(rng.random(2))
        sets = select_sets(ImportanceMap(grid, scores), t1, t2)
        if not np.isin(geom4.flat_index(sets.fine), geom4.flat_index(sets.semi_fine)).all():
            ok = False

    # nothing selected leaves the coarse features untouched, bit for bit
    base = geom4.with_scale(1)
    fm4 = SparseVoxelGrid(geom4, [[1, 2, 0], [3, 3, 1]], rng.normal(size=(2, 5)))
    merged = fuse_refined(
        SparseVoxelGrid.empty(base, 5),
        SparseVoxelGrid.empty(base.with_scale(2), 5),
        fm4,
        SparseConvSpec.seeded(5, 5, seed=4),
        SparseConvSpec.seeded(5, 5, seed=5),
    )
    if not (np.array_equal(merged.coords, fm4.coords)
            and np.array_equal(merged.features, fm4.features)):
        ok = False

    # both outputs carry 18 semantic + 3 visibility channels
    if OUT_CHANNELS != 21 or SEM_CHANNELS + OCC_CHANNELS != OUT_CHANNELS:
        ok = False
    result = forward_scene(random_scene(0), PipelineConfig())
    if not result.o4.channels == result.o1.channels == OUT_CHANNELS:
        ok = False

    record("A10", ok,
           "thresholds default to 0.4/0.7; fine subset of semi-fine on 200 random maps; "
           "empty sets copy coarse features bit-exactly; outputs carry 18+3=21 channels")


# --- A11: selection concentrates on foreground --------------------------------

def test_selection_concentrates_on_foreground():
    passes = 0
    for seed in range(50):
        scene = random_scene(seed)
        gt = scene.gt_volume()
        occ1 = np.argwhere(gt > 0)
        geom4 = scene.geometry.with_scale(4)
        parents = np.stack(
            np.meshgrid(*(np.arange(d) for d in geom4.dims), indexing="ij"),
            axis=-1).reshape(-1, 3)
        scores = occupied_fraction(parents, occ1)
        grid4 = SparseVoxelGrid(geom4, parents, np.zeros((parents.shape[0], 1)))
        sets = select_sets(ImportanceMap(grid4, scores))
        if sets.semi_fine.shape[0] == 0 or sets.fine.shape[0] == 0:
            continue
        coarse = scores.mean()
        semi = occupied_fraction(sets.semi_fine, occ1).mean()
        fine = occupied_fraction(sets.fine, occ1).mean()
        if coarse < semi < fine:
            passes += 1
    record("A11", passes == 50,
           f"occupied share rises strictly coarse -> semi-fine -> fine on {passes}/50 "
           "generated scenes with the exact-occupancy scorer")


# --- A12: refinement cost tracks the selected sets, not the grid volume -------

def test_refinement_cost_tracks_sets_not_volume(tmp_path):
    cfg_path = tmp_path / "bench.ini"
    cfg_path.write_text(config_text(replace(PipelineConfig(), dims=(128, 128, 32))))
    csv_path = tmp_path / "bench.csv"
    sizes = [0, 64, 512, 4096]

    ok = False
    detail = ""
    for _ in range(2):  # timings only; the workload itself is deterministic
        with redirect_stdout(io.StringIO()):
            rc = main(["bench", "--config", str(cfg_path),
                       "--sizes", ",".join(str(s) for s in sizes),
                       "--out", str(csv_path)])
        assert rc == 0
        rows = [line.split(",") for line in
                csv_path.read_text().strip().splitlines()]
        header = rows[0]
        hvfr = [dict(zip(header, r)) for r in rows[1:] if r[0] == "hvfr"]
        base = {int(r["nonempty"]): r for r in hvfr if r["dims_x"] == "128"}
        big = {int(r["nonempty"]): r for r in hvfr if r["dims_x"] == "256"}

        walls = [float(base[k]["wall_s"]) for k in sorted(base)]
        set_counts = [int(base[k]["sets"]) for k in sorted(base)]
        grows = all(a < b for a, b in zip(walls, walls[1:]))
        grows = grows and all(a < b for a, b in zip(set_counts, set_counts[1:]))

        top = max(base)
        fixed_count = top in big and top == max(big)
        ratio = float(big[top]["wall_s"]) / float(base[top]["wall_s"])
        detail = (f"stage time strictly increases over sets {set_counts}; "
                  f"8x grid volume at {top} non-empty -> {ratio:.2f}x < 2x")
        if grows and fixed_count and ratio < 2.0:
            ok = True
            break
    record("A12", ok, detail)


# --- A13: one command end to end ----------------------------------------------

def test_forward_command_end_to_end(tmp_path):
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        rc = main(["forward", "--scene", "demo", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    ok = rc == 0 and elapsed < 30.0

    o4, g4 = read_volume(tmp_path / "o4_labels.u8")
    o1, g1 = read_volume(tmp_path / "o1_labels.u8")
    if o4.shape != (16, 16, 4) or g4.scale != 4:
        ok = False
    if o1.shape != (64, 64, 16) or g1.scale != 1:
        ok = False
    report = json.loads((tmp_path / "forward_report.json").read_text())
    if report["o4_shape"] != [16, 16, 4, 21] or report["o1_shape"] != [64, 64, 16, 21]:
        ok = False

    demo = importlib.resources.files("voxfuse").joinpath("data/demo_scene.json")
    with importlib.resources.as_file(demo) as p:
        scene = load_scene(str(p))
    gt_path = tmp_path / "gt.u8"
    write_volume(gt_path, scene.gt_volume().astype(np.uint8), scene.geometry)
    report_path = tmp_path / "self_eval.json"
    with redirect_stdout(io.StringIO()):
        rc = main(["eval", "--pred", str(gt_path), "--gt", str(gt_path),
                   "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    if rc != 0 or report["miou"] != 1.0 or report["iou"] != 1.0:
        ok = False

    record("A13", ok,
           f"forward on the bundled scene in {elapsed:.2f} s < 30 s with (16,16,4,21)- "
           f"and (64,64,16,21)-shaped outputs; self-eval of its labels scores mIoU 1.0")

"""Command-line surface: label generation, evaluation, forward runs, benchmarks.

Exit codes: 0 success, 1 config or usage error, 2 required file not found,
3 parse error, 4 dimension mismatch.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np

from .camera import CameraModel, FeatureMap2D, read_kitti_calib
from .config import DATA_ROOT_ENV, PipelineConfig
from .errors import ConfigError, EmptyInput, ParseError, ShapeError, VoxfuseError
from .grid import GridGeometry, SparseVoxelGrid
from .lidar import read_velodyne_bin
from .metrics import compute_metrics
from .occlusion import (
    OcclusionLabel,
    build_volume,
    label_camera,
    label_lidar,
    read_kitti_bitmask,
    read_kitti_label_volume,
    read_volume,
    write_volume,
)
from .pipeline import SEED_NAMES, forward_scene, refine_stages
from .synthetic import load_scene, ring_rig

BENCH_HEADER = ["stage", "nonempty", "sets", "dims_x", "dims_y", "dims_z",
                "wall_s", "peak_kb"]
_WARMUP_SIZE = 64

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_FOUND = 2
EXIT_PARSE = 3
EXIT_DIMS = 4


class _Parser(argparse.ArgumentParser):
    """Usage mistakes exit with the config-error code instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _load_config(path: str | None) -> PipelineConfig:
    return PipelineConfig.load(path) if path else PipelineConfig()


def _histogram(labels: np.ndarray) -> dict:
    return {
        "empty": int((labels == OcclusionLabel.EMPTY).sum()),
        "non_occluded": int((labels == OcclusionLabel.NON_OCCLUDED).sum()),
        "occluded": int((labels == OcclusionLabel.OCCLUDED).sum()),
    }


def _label_one(semantics: np.ndarray, pc, rig, geom: GridGeometry, stride: int):
    """Both sensors' labels merged, plus each sensor's ray count and wall time."""
    start = time.perf_counter()
    if pc is None:
        lidar_labels = np.zeros(geom.dims, dtype=np.uint8)
    else:
        lidar_labels = label_lidar(pc, semantics, geom)
    mid = time.perf_counter()
    if rig:
        cam_labels = label_camera(rig, semantics, geom, pixel_stride=stride)
    else:
        cam_labels = np.zeros(geom.dims, dtype=np.uint8)
    end = time.perf_counter()
    stats = {
        "lidar_rays": 0 if pc is None else len(pc),
        "camera_rays": sum(len(range(0, w, stride)) * len(range(0, h, stride))
                           for w, h in (cam.image_size for cam in rig)),
        "lidar_s": mid - start,
        "camera_s": end - mid,
    }
    return build_volume(semantics, lidar_labels, cam_labels, geom), stats


def _cmd_label_gen(args) -> int:
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    frames = []
    if args.dataset == "synthetic":
        scene = load_scene(args.sequence)
        geom = scene.geometry
        semantics = scene.gt_volume()
        try:
            pc = scene.lidar_scan() if scene.boxes else None
        except EmptyInput:
            pc = None
        rig = ring_rig(scene)
        volume, stats = _label_one(semantics, pc, rig, geom, args.stride)
        name = os.path.splitext(os.path.basename(args.sequence))[0]
        path = os.path.join(out_dir, f"{name}.occ.u8")
        write_volume(path, volume.occlusion.astype(np.uint8), geom)
        frames.append({"name": name, "volume": path,
                       "histogram": _histogram(volume.occlusion), **stats})
    else:
        root = os.environ.get(DATA_ROOT_ENV, "")
        seq_dir = args.sequence if os.path.isabs(args.sequence) \
            else os.path.join(root, args.sequence)
        voxel_dir = os.path.join(seq_dir, "voxels")
        if not os.path.isdir(voxel_dir):
            raise FileNotFoundError(f"no voxels/ directory under {seq_dir}")
        geom = GridGeometry.preset("semantickitti")
        calib_path = os.path.join(seq_dir, "calib.txt")
        rig = [read_kitti_calib(calib_path)] if os.path.exists(calib_path) else []
        label_files = sorted(f for f in os.listdir(voxel_dir) if f.endswith(".label"))
        if not label_files:
            raise FileNotFoundError(f"no .label files under {voxel_dir}")
        for fname in label_files:
            stem = fname[:-len(".label")]
            semantics = read_kitti_label_volume(os.path.join(voxel_dir, fname),
                                                dims=geom.dims).astype(np.int64)
            invalid_path = os.path.join(voxel_dir, f"{stem}.invalid")
            if os.path.exists(invalid_path):
                semantics[read_kitti_bitmask(invalid_path, dims=geom.dims)] = 0
            bin_path = os.path.join(seq_dir, "velodyne", f"{stem}.bin")
            pc = read_velodyne_bin(bin_path) if os.path.exists(bin_path) else None
            volume, stats = _label_one(semantics, pc, rig, geom, args.stride)
            path = os.path.join(out_dir, f"{stem}.occ.u8")
            write_volume(path, volume.occlusion.astype(np.uint8), geom)
            frames.append({"name": stem, "volume": path,
                           "histogram": _histogram(volume.occlusion), **stats})
    summary = {"dataset": args.dataset, "stride": args.stride, "frames": frames}
    with open(os.path.join(out_dir, "labels_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary))
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.classes is not None and args.classes < 1:
        raise ConfigError(f"--classes must be a positive integer, got {args.classes}")
    pred, _ = read_volume(args.pred)
    gt, _ = read_volume(args.gt)
    if args.classes is not None:
        top = int(max(pred.max(), gt.max()))
        if top >= args.classes:
            raise ConfigError(f"--classes {args.classes} leaves out label {top}, "
                              f"which the volumes hold")
    report = compute_metrics(pred.astype(np.int64), gt.astype(np.int64),
                             num_classes=args.classes)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _resolve_scene(spec: str):
    if spec == "demo":
        path = importlib.resources.files("voxfuse").joinpath("data/demo_scene.json")
        with importlib.resources.as_file(path) as p:
            return load_scene(str(p))
    return load_scene(spec)


def _cmd_forward(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = config.with_overrides(root_seed=args.seed)
    scene = _resolve_scene(args.scene)
    result = forward_scene(scene, config)
    print(result.stage_report())
    out_dir = args.out or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    geom4 = result.refined.geometry
    write_volume(os.path.join(out_dir, "o4_labels.u8"),
                 result.labels_scale4().astype(np.uint8), geom4)
    write_volume(os.path.join(out_dir, "o1_labels.u8"),
                 result.labels_scale1().astype(np.uint8), result.geometry)
    report = {
        "seeds": result.seeds,
        "timings": result.timings,
        "counts": result.counts,
        "o4_shape": list(result.o4.shape),
        "o1_shape": list(result.o1.shape),
        "refined_equals_fused": result.refine_identity,
        "total_seconds": result.total_seconds,
    }
    with open(os.path.join(out_dir, "forward_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _bench_rig(geom: GridGeometry) -> list[CameraModel]:
    span = np.asarray(geom.dims) * geom.voxel_size
    eye = geom.origin_array + span / 2.0
    cams = []
    for k in range(2):
        theta = np.pi * k
        target = eye + np.array([np.cos(theta), np.sin(theta), 0.0])
        cams.append(CameraModel.from_lookat(eye, target, 16.0, 16.0, 15.5, 15.5, (32, 32)))
    return cams


@contextmanager
def _measured(stats: dict, name: str):
    """Record a stage's wall time and its traced allocation peak in KiB."""
    tracemalloc.start()
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats[name] = (wall, peak / 1024.0)


def _bench_case(config: PipelineConfig, n: int, geom1: GridGeometry, rows: list):
    """Run forward's select/gather/refine on ``n`` random coarse voxels."""
    c = config.lidar_channels
    dims1 = geom1.dims
    rng = np.random.default_rng(config.seed_for(f"bench-{n}-{dims1[0]}"))

    def grid_at(scale: int, count: int) -> SparseVoxelGrid:
        g = geom1.with_scale(scale)
        total = int(np.prod(g.dims))
        k = min(count, total)
        if k == 0:
            return SparseVoxelGrid.empty(g, c)
        flat = rng.choice(total, size=k, replace=False)
        coords = np.stack(np.unravel_index(flat, g.dims), axis=1).astype(np.int64)
        return SparseVoxelGrid(g, coords, rng.normal(size=(k, c)))

    fm4 = grid_at(4, n)
    pyramid = {2: grid_at(2, 2 * n), 1: grid_at(1, 4 * n)}
    rig = _bench_rig(geom1)
    maps = FeatureMap2D.seeded(rig, config.image_channels, seed=11)
    seeds = {name: config.seed_for(name) for name in SEED_NAMES}
    stats: dict = {}
    sets, _, _, _ = refine_stages(fm4, pyramid, rig, maps, config, seeds,
                                  partial(_measured, stats))
    n_sets = sets.semi_fine.shape[0] + sets.fine.shape[0]
    stats["hvfr"] = (sum(wall for wall, _ in stats.values()),
                     max(peak for _, peak in stats.values()))
    for stage, (wall, peak) in stats.items():
        rows.append([stage, len(fm4), n_sets, dims1[0], dims1[1], dims1[2],
                     f"{wall:.6f}", f"{peak:.1f}"])


def _cmd_bench(args) -> int:
    config = _load_config(args.config)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if any(n < 0 for n in sizes):
        raise ConfigError(f"--sizes must be non-negative, got {args.sizes!r}")
    rows: list = []
    base = config.geometry()
    doubled = replace(base, dims_scale1=tuple(2 * d for d in base.dims_scale1))
    # untimed warm-up: the first non-empty case would otherwise also pay
    # NumPy's one-time lazy imports
    _bench_case(config, _WARMUP_SIZE, base, [])
    for geom1 in (base, doubled):
        for n in sizes:
            _bench_case(config, n, geom1, rows)
    lines = [",".join(BENCH_HEADER)] + [",".join(str(v) for v in r) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voxfuse",
                     description="Sparse multi-resolution voxel occupancy toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    lg = sub.add_parser("label-gen", help="generate occlusion label volumes")
    lg.add_argument("--dataset", required=True, choices=["semantickitti", "synthetic"])
    lg.add_argument("--sequence", required=True,
                    help="sequence directory (semantickitti) or scene JSON (synthetic)")
    lg.add_argument("--out", required=True, help="output directory")
    lg.add_argument("--stride", type=int, default=4, help="camera pixel stride")
    lg.set_defaults(fn=_cmd_label_gen)

    ev = sub.add_parser("eval", help="score a predicted volume against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--classes", type=int, default=None)
    ev.add_argument("--out", default=None)
    ev.set_defaults(fn=_cmd_eval)

    fw = sub.add_parser("forward", help="run the full pipeline on a scene")
    fw.add_argument("--config", default=None)
    fw.add_argument("--scene", required=True, help="scene JSON path, or 'demo'")
    fw.add_argument("--seed", type=int, default=None, help="override the root seed")
    fw.add_argument("--out", default=None)
    fw.set_defaults(fn=_cmd_forward)

    be = sub.add_parser("bench", help="time refinement stages across sizes")
    be.add_argument("--config", default=None)
    be.add_argument("--sizes", default="0,64,512,4096",
                    help="comma-separated non-empty voxel counts")
    be.add_argument("--out", default=None, help="CSV output path")
    be.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShapeError as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMS
    except VoxfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

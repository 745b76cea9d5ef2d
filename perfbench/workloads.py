"""Benchmark workloads: seeded scene inputs, one frame of work, and its output check.

Every input comes from ``voxfuse.synthetic``, seeded by the benchmark's
``--seed``. Frames call voxfuse through its module attributes (for example
``pipeline.forward``), so the traced run can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from voxfuse import metrics, occlusion, pipeline, synthetic
from voxfuse.camera import FeatureMap2D
from voxfuse.config import PipelineConfig
from voxfuse.errors import EmptyInput
from voxfuse.grid import GridGeometry
from voxfuse.lidar import PointCloud
from voxfuse.occlusion import OCC_CHANNELS, SEM_CHANNELS, OcclusionLabel

CONFIG = PipelineConfig()
LABEL_STRIDE = 4
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# random_scene's default 5% foreground floor is out of reach at 256x256x32:
# it stops after 80 boxes of at most ~2.8 x 2.8 x 1.8 m, and seeds 0-5 and 7
# all raised EmptyInput there. At 2% seeds succeed with ~70 boxes; 6 of
# seeds 0-39 still raise, and build_scene skips those.
KITTI_FOREGROUND = 0.02
# Candidate scene seeds tried per scene before giving up.
MAX_SCENE_ATTEMPTS = 50


@dataclass(frozen=True)
class SceneSpec:
    """How to generate one workload scene and its sensor inputs."""

    geometry: Callable[[], GridGeometry]
    min_foreground: float
    scan: dict
    n_cameras: int
    image_size: tuple
    feature_maps: bool


@dataclass
class SceneInputs:
    scene: synthetic.SyntheticScene
    pc: PointCloud
    rig: list
    maps: FeatureMap2D | None
    gt: np.ndarray
    rejected_seeds: int


def candidate_seeds(seed: int):
    """Deterministic stream of scene seeds for one benchmark seed."""
    return itertools.count(seed * 10_000)


def build_scene(spec: SceneSpec, candidates) -> SceneInputs:
    """Next scene from the candidate stream that reaches the foreground floor."""
    geom = spec.geometry()
    for rejected in range(MAX_SCENE_ATTEMPTS):
        try:
            scene = synthetic.random_scene(next(candidates), geom,
                                           min_foreground=spec.min_foreground)
        except EmptyInput:
            continue
        pc = scene.lidar_scan(**spec.scan)
        rig = synthetic.ring_rig(scene, n_cameras=spec.n_cameras, image_size=spec.image_size)
        maps = scene.feature_maps(rig, CONFIG.image_channels) if spec.feature_maps else None
        return SceneInputs(scene, pc, rig, maps, scene.gt_volume(), rejected)
    raise EmptyInput(f"{MAX_SCENE_ATTEMPTS} scene seeds in a row missed the "
                     f"{spec.min_foreground:.0%} foreground floor")


@dataclass
class ForwardOutput:
    result: pipeline.ForwardResult
    labels: np.ndarray
    report: metrics.MetricsReport


def forward_frame(inp: SceneInputs, workdir: Path) -> ForwardOutput:
    result = pipeline.forward(inp.pc, inp.rig, inp.maps, CONFIG, geometry=inp.scene.geometry)
    labels = result.labels_scale1()
    return ForwardOutput(result, labels, metrics.compute_metrics(labels, inp.gt))


def check_forward(inp: SceneInputs, out: ForwardOutput, workdir: Path) -> tuple[str, list]:
    geom = inp.scene.geometry
    channels = SEM_CHANNELS + OCC_CHANNELS
    problems = []
    if out.result.o1.shape != geom.dims + (channels,):
        problems.append(f"o1 shape {out.result.o1.shape}")
    if out.result.o4.shape != geom.with_scale(4).dims + (channels,):
        problems.append(f"o4 shape {out.result.o4.shape}")
    if out.labels.shape != geom.dims:
        problems.append(f"labels shape {out.labels.shape}")
    elif out.labels.min() < 0 or out.labels.max() >= SEM_CHANNELS:
        problems.append(f"labels outside [0, {SEM_CHANNELS})")
    if not (0.0 <= out.report.iou <= 1.0 and 0.0 <= out.report.miou <= 1.0):
        problems.append(f"iou {out.report.iou} / miou {out.report.miou} outside [0, 1]")
    return digest(out.labels.astype(np.uint8)), problems


def _volume_path(workdir: Path) -> Path:
    return workdir / "frame.occ.u8"


def label_frame(inp: SceneInputs, workdir: Path) -> occlusion.OcclusionVolume:
    """Per-frame work of ``voxfuse label-gen``: both sensors, merge, write."""
    geom = inp.scene.geometry
    lidar = occlusion.label_lidar(inp.pc, inp.gt, geom)
    cam = occlusion.label_camera(inp.rig, inp.gt, geom, pixel_stride=LABEL_STRIDE)
    volume = occlusion.build_volume(inp.gt, lidar, cam, geom)
    occlusion.write_volume(_volume_path(workdir), volume.occlusion.astype(np.uint8), geom)
    return volume


def check_label(inp: SceneInputs, volume: occlusion.OcclusionVolume,
                workdir: Path) -> tuple[str, list]:
    occ = volume.occlusion
    problems = []
    if occ.shape != inp.scene.geometry.dims:
        problems.append(f"occlusion shape {occ.shape}")
        return digest(occ), problems
    if occ.max() > OcclusionLabel.OCCLUDED:
        problems.append("occlusion label above 2")
    if (occ[inp.gt == 0] != OcclusionLabel.EMPTY).any():
        problems.append("unoccupied voxel carries a non-empty label")
    if not (occ == OcclusionLabel.NON_OCCLUDED).any():
        problems.append("no voxel is non-occluded")
    if os.path.getsize(_volume_path(workdir)) != occ.size:
        problems.append("written volume has the wrong size")
    return digest(occ.astype(np.uint8)), problems


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    scene: SceneSpec
    n_scenes: int
    frame: Callable
    check: Callable


def _kitti(feature_maps: bool) -> SceneSpec:
    return SceneSpec(geometry=lambda: GridGeometry.preset("semantickitti"),
                     min_foreground=KITTI_FOREGROUND,
                     scan={"n_azimuth": 1024, "n_elevation": 16},
                     n_cameras=6, image_size=(128, 96), feature_maps=feature_maps)


_DEMO = SceneSpec(geometry=synthetic.default_geometry, min_foreground=0.05, scan={},
                  n_cameras=4, image_size=(64, 64), feature_maps=True)

# A frame's cost follows its scene's LiDAR point count (coefficient of
# variation ~0.2 at kitti scale, ~0.35 at demo scale), so a run cycles over
# several scenes and its median averages their costs. A label-kitti frame
# takes ~1.4 s, leaving no time for repeats within a run, so it runs one
# cycle over 12 scenes (the 8 forward-kitti scenes come first).
WORKLOADS = {w.name: w for w in (
    Workload("forward-kitti", _kitti(feature_maps=True), 8, forward_frame, check_forward),
    Workload("forward-demo", _DEMO, 16, forward_frame, check_forward),
    Workload("label-kitti", _kitti(feature_maps=False), 12, label_frame, check_label),
)}


def golden_digests(workload: str, seed: int) -> list | None:
    """Committed per-scene digests when ``seed`` is the one they were taken at."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    if seed != data["seed"]:
        return None
    return data["workloads"].get(workload)


class FrameChecker:
    """Counts frames and failures; a repeat of a scene must match its digest."""

    def __init__(self, expected: list | None = None):
        self.expected = expected
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, scene: int, frame_digest: str, problems: list) -> bool:
        self.attempted += 1
        want = self.expected[scene] if self.expected else self.seen.get(scene)
        if want is not None and frame_digest != want:
            problems = problems + [f"digest {frame_digest[:12]} != expected {want[:12]}"]
        self.seen.setdefault(scene, frame_digest)
        if problems:
            self.failed += 1
            self.problems.append((scene, problems))
        return not problems

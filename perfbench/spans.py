"""Outside-in tracing: wrap voxfuse's public functions, record spans, derive layer metrics.

A span is (name, start, end, parent, frame). Wrappers are installed only
while a traced frame or a traced scene set-up runs; every voxfuse namespace
that bound the original function gets the wrapper, so calls such as
``lidar.downsample -> sparse_conv`` are seen too. A layer's time is its self
time: its span minus the spans of wrapped functions it called.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import voxfuse.synthetic as synthetic

MIB = float(1 << 20)


def _forward_counts(r, args, kwargs):
    return {"pipeline.decode_children": r.counts["decode"],
            "pipeline.o1_mb": r.o1.nbytes / MIB, "pipeline.o4_mb": r.o4.nbytes / MIB}


def _voxelize_counts(r, args, kwargs):
    return {"lidar.points": r.meta["points_total"],
            "lidar.points_dropped": r.meta["points_dropped"],
            "lidar.voxelized_cells": len(r)}


def _project_counts(r, args, kwargs):
    hit = r[2]
    return {"camera._projected": hit.shape[0], "camera._hits": int(hit.sum())}


def _camera_rays(r, args, kwargs):
    rig = args[0]
    stride = kwargs.get("pixel_stride", args[3] if len(args) > 3 else 4)
    return {"occlusion.camera_rays": sum(len(range(0, cam.image_size[1], stride))
                                         * len(range(0, cam.image_size[0], stride))
                                         for cam in rig)}


def _histogram(r, args, kwargs):
    return {"occlusion.non_occluded": int((r.occlusion == 1).sum()),
            "occlusion.occluded": int((r.occlusion == 2).sum())}


# (defining module, attribute, time metric, counter over (result, args, kwargs))
LAYERS = (
    ("voxfuse.pipeline", "forward", "pipeline.forward_self_s", _forward_counts),
    ("voxfuse.pipeline", "volume_labels", "pipeline.volume_labels_s", None),
    ("voxfuse.occlusion", "assemble_output", "occlusion.assemble_output_s", None),
    ("voxfuse.occlusion", "decoder_input_set", "occlusion.decoder_input_set_s", None),
    ("voxfuse.lidar", "voxelize", "lidar.voxelize_s", _voxelize_counts),
    ("voxfuse.lidar", "multi_scale_stack", "lidar.multi_scale_stack_s", None),
    ("voxfuse.lidar", "sparse_conv", "lidar.sparse_conv_s",
     lambda r, a, k: {"lidar.sparse_conv_calls": 1, "lidar.sparse_conv_rows_out": len(r)}),
    ("voxfuse.densify", "densify", "densify.densify_s",
     lambda r, a, k: {"densify.rows_out": len(r)}),
    ("voxfuse.fusion", "fuse", "fusion.fuse_s",
     lambda r, a, k: {"fusion.queries": len(r), "fusion._misses": r.meta["miss_count"]}),
    ("voxfuse.camera", "project_points", "camera.project_points_s", _project_counts),
    ("voxfuse.camera", "sample_array", "camera.sample_array_s",
     lambda r, a, k: {"camera.sample_array_samples": r.shape[0]}),
    ("voxfuse.refine", "estimate_importance", "refine.estimate_importance_s", None),
    ("voxfuse.refine", "select_sets", "refine.select_sets_s",
     lambda r, a, k: {"refine.semi_fine_parents": r.semi_fine.shape[0],
                      "refine.fine_parents": r.fine.shape[0]}),
    ("voxfuse.refine", "gather_semi_fine", "refine.gather_s",
     lambda r, a, k: {"refine.gather_children": len(r)}),
    ("voxfuse.refine", "gather_fine", "refine.gather_s",
     lambda r, a, k: {"refine.gather_children": len(r)}),
    ("voxfuse.refine", "fuse_refined", "refine.fuse_refined_s",
     lambda r, a, k: {"refine.dropped_refined": r.meta.get("dropped_refined", 0)}),
    ("voxfuse.occlusion", "label_lidar", "occlusion.label_lidar_s",
     lambda r, a, k: {"occlusion.lidar_rays": len(a[0])}),
    ("voxfuse.occlusion", "label_camera", "occlusion.label_camera_s", _camera_rays),
    ("voxfuse.occlusion", "build_volume", "occlusion.build_volume_s", _histogram),
    ("voxfuse.occlusion", "write_volume", "occlusion.write_volume_s", None),
    ("voxfuse.metrics", "compute_metrics", "metrics.compute_metrics_s", None),
    ("voxfuse.synthetic", "random_scene", "synthetic.random_scene_s", None),
)
# Methods are wrapped on the class, which covers every caller.
METHODS = (
    (synthetic.SyntheticScene, "lidar_scan", "synthetic.lidar_scan_s"),
    (synthetic.SyntheticScene, "feature_maps", "synthetic.feature_maps_s"),
    (synthetic.SyntheticScene, "gt_volume", "synthetic.gt_volume_s"),
)
FRAME_SPAN = "bench.traced_frame_s"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    frame: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span store plus the patch table that routes voxfuse calls through it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.frame = 0
        self._patches = []
        for module_name, attr, metric, counter in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(metric, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "voxfuse" or mod_name.startswith("voxfuse.")) \
                        and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original, wrapper))
        for cls, attr, metric in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._wrap(metric, original, None)))

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(out, args, kwargs)
            return out
        return traced

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.frame)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def recording(self, frame: int):
        """Route voxfuse calls through the wrappers, tagging spans with ``frame``."""
        self.frame = frame
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def traced_frame(self, frame: int):
        """One traced frame: wrappers installed under a root span."""
        with self.recording(frame), self.span(FRAME_SPAN):
            yield

    def per_frame(self) -> dict[int, dict]:
        """Self times and counts summed per frame id."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        frames: dict[int, dict] = {}
        for s, children in zip(self.spans, child_time):
            acc = frames.setdefault(s.frame, {})
            total = s.end - s.start
            # the frame span keeps its full duration; layers report self time
            acc[s.name] = acc.get(s.name, 0.0) + (total if s.name == FRAME_SPAN
                                                  else total - children)
            for key, value in s.counts.items():
                acc[key] = acc.get(key, 0) + value
        return frames

    def to_json(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "frame": s.frame, **({"counts": s.counts} if s.counts else {})}
                for s in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _derive(acc: dict) -> dict:
    """Turn one frame's sums into its metrics, ratios included."""
    out = {k: v for k, v in acc.items() if not k.split(".")[1].startswith("_")}
    out["fusion.miss_frac"] = _ratio(acc.get("fusion._misses", 0), acc.get("fusion.queries", 0))
    out["camera.project_hit_frac"] = _ratio(acc.get("camera._hits", 0),
                                            acc.get("camera._projected", 0))
    out["occlusion.lidar_rays_per_s"] = _ratio(acc.get("occlusion.lidar_rays", 0),
                                               acc.get("occlusion.label_lidar_s", 0.0))
    out["occlusion.camera_rays_per_s"] = _ratio(acc.get("occlusion.camera_rays", 0),
                                                acc.get("occlusion.label_camera_s", 0.0))
    return out


def layer_metrics(tracer: Tracer, names: list) -> dict:
    """Median over traced frames (frame >= 0) and over traced scene set-ups
    (frame < 0) of each metric; a layer that never ran reads 0."""
    frames = {f: _derive(acc) for f, acc in tracer.per_frame().items()}
    out = {}
    for name in names:
        values = [m.get(name, 0.0) for f, m in frames.items()
                  if (f < 0) == name.startswith("synthetic.")]
        out[name] = float(statistics.median(values)) if values else 0.0
    return out


def shares(metrics: dict, units: dict) -> list:
    """(layer time metric, share of the traced frame), largest first."""
    frame = metrics.get(FRAME_SPAN) or 1.0
    rows = [(k, v / frame) for k, v in metrics.items()
            if units[k] == "s" and k != FRAME_SPAN and not k.startswith("synthetic.")]
    return sorted(rows, key=lambda kv: -kv[1])


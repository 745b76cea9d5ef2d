"""Closed-loop voxfuse benchmark: one client sends one frame at a time, in process.

    python3 perfbench/run.py --workload forward-kitti --seed 0 --trace 0

Run it from the root of a voxfuse checkout; voxfuse is imported from
``src/`` there. With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
holds the per-layer metrics, taken from spans recorded around voxfuse's
public functions. The lines before it print every metric with its unit.
Per-run records (digests, frame times, spans) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WARMUP_FRAMES = 2
MIB = float(1 << 20)


def _import_voxfuse():
    """Import voxfuse from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "voxfuse" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'voxfuse'} not found; run from the root of a voxfuse checkout")
    # one client: at most one BLAS thread per core this process may use
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.path.insert(0, str(src))
    import voxfuse
    if Path(voxfuse.__file__).resolve().parent != src / "voxfuse":
        sys.exit(f"error: imported voxfuse from {voxfuse.__file__}, not {src}")


def _timed_cycles(seconds: float, cycle) -> float:
    """Run whole cycles over the scenes, stopping at the cycle boundary
    nearest the deadline, so every scene gets the same number of frames."""
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle(cycles)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            return elapsed


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    _import_voxfuse()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None

    candidates = workloads.candidate_seeds(args.seed)
    inputs = []
    for k in range(wl.n_scenes):
        with tracer.recording(frame=-1 - k) if tracer else nullcontext():
            inputs.append(workloads.build_scene(wl.scene, candidates))
    golden = workloads.golden_digests(wl.name, args.seed)
    if golden is not None and len(golden) != wl.n_scenes:
        sys.exit(f"error: digests.json holds {len(golden)} digests for {wl.name}, "
                 f"which has {wl.n_scenes} scenes")
    checker = workloads.FrameChecker(golden)

    def run_frame(k: int, traced_id: int | None = None) -> float:
        scope = nullcontext() if traced_id is None else tracer.traced_frame(traced_id)
        t = time.perf_counter()
        with scope:
            out = wl.frame(inputs[k], workdir)
        elapsed = time.perf_counter() - t
        checker.record(k, *wl.check(inputs[k], out, workdir))
        return elapsed

    for k in range(WARMUP_FRAMES):
        run_frame(k % wl.n_scenes)
    setup_s = time.perf_counter() - START

    frame_s: list = []
    if not args.trace:
        wall = _timed_cycles(args.seconds, lambda c: frame_s.extend(
            run_frame(k) for k in range(wl.n_scenes)))
        # one frame under tracemalloc, after the timings; tracing every small
        # allocation slows the scalar traversal ~20x, so take the scene with
        # the fewest LiDAR points
        k = min(range(wl.n_scenes), key=lambda i: len(inputs[i].pc))
        tracemalloc.start()
        try:
            out = wl.frame(inputs[k], workdir)
            peak_mb = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
        checker.record(k, *wl.check(inputs[k], out, workdir))
        del out
        metrics = {"setup_s": setup_s,
                   "frame_s_p50": statistics.median(frame_s),
                   "frames_per_s": len(frame_s) / wall,
                   "peak_mb": peak_mb}
    else:
        traced_s: list = []

        def paired_cycle(c: int):
            # each scene runs once untraced and once traced; alternate which goes first
            for k in range(wl.n_scenes):
                for traced in ((False, True) if (c + k) % 2 == 0 else (True, False)):
                    if traced:
                        traced_s.append(run_frame(k, traced_id=len(traced_s)))
                    else:
                        frame_s.append(run_frame(k))

        _timed_cycles(args.seconds, paired_cycle)
        untraced = statistics.median(frame_s)
        metrics = spans.layer_metrics(tracer, [n for n in wanted if n != "bench.tracing_overhead_frac"])
        metrics["bench.tracing_overhead_frac"] = (statistics.median(traced_s) - untraced) / untraced

    if sorted(metrics) != sorted(wanted):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "scene_seeds_rejected": sum(i.rejected_seeds for i in inputs),
              "digests": [checker.seen.get(k) for k in range(wl.n_scenes)],
              "problems": checker.problems, "frame_s": frame_s,
              "spans": tracer.to_json() if tracer else []}
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    for scene, problems in checker.problems:
        print(f"scene {scene} failed: {'; '.join(problems)}", file=sys.stderr)

    print(f"workload {wl.name} seed {args.seed}: {wl.n_scenes} scenes, "
          f"{len(frame_s)} untraced frames, {record['scene_seeds_rejected']} scene seeds rejected")
    for name in wanted:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac {checker.failed / checker.attempted:.6g} ratio")
    if tracer:
        print("self-time share of the traced frame:")
        for name, share in spans.shares(metrics, units):
            if share >= 0.005:
                print(f"  {name:34s} {share:6.1%}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

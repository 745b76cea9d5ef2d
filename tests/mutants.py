"""Mutation table: each entry breaks the program in a copy and names the tests that must catch it.

    python tests/mutants.py [--only NAME]

For each entry the script copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` to a temporary directory and replaces the entry's old text
in its file there; the old text must occur exactly once. It then runs the
entry's pytest node ids in the copy, with ``PYTHONPATH`` at the copy's
``src/``, so the static checks of ``tests/test_imports.py`` read the mutated
source too. The mutant is killed when every node id has a failing test; the
script prints killed or survived, with the time taken, per entry. It exits 1
if a mutant survives, an old text is stale or a run errors, and 0 otherwise.
The tree itself is never edited.

A check that claims to catch a fault adds its mutant here.
``tests/test_mutants.py`` keeps every old text matching today's source.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what a run in the copy needs: the program, the tests, the benchmark the
# static checks read as callers, and the pytest settings
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant("walk-tie-rule-upper-axis", "src/voxfuse/occlusion.py",
           "at = (t_max[1] < t_max[0]).astype(np.intp)",
           "at = (t_max[1] <= t_max[0]).astype(np.intp)",
           ("tests/test_occlusion.py::TestTieRule",)),
    Mutant("camera-rows-step-without-offset", "src/voxfuse/occlusion.py",
           "cells[starts[length > k] + k] = step_cells",
           "cells[starts[length > k]] = step_cells",
           ("tests/test_occlusion.py::TestCameraRayTable",)),
    Mutant("slab-face-plane-nan-unconstrained", "src/voxfuse/synthetic.py",
           "        t0 = np.minimum(a, b).max(axis=0)\n"
           "        t1 = np.maximum(a, b).min(axis=0)\n",
           "        t0 = np.where(np.isnan(a) | np.isnan(b), -np.inf, np.minimum(a, b)).max(axis=0)\n"
           "        t1 = np.where(np.isnan(a) | np.isnan(b), np.inf, np.maximum(a, b)).min(axis=0)\n",
           ("tests/test_synthetic.py::TestSlabHits",)),
    Mutant("strided-conv-anchors-unscaled", "src/voxfuse/lidar.py",
           "anchors = out_coords * stride",
           "anchors = out_coords",
           ("tests/test_acceptance.py::test_sparse_conv_matches_dense_oracle",)),
    Mutant("lidar-returns-written-first", "src/voxfuse/occlusion.py",
           "            returns = geom.flat_index(cell_pt[ids[inside[ids]]])\n"
           "        far = cells[t_entry > beyond[ids]]\n"
           "        labels[far[occupied[far]]] = OcclusionLabel.OCCLUDED\n"
           "    labels[returns] = OcclusionLabel.NON_OCCLUDED\n",
           "            returns = geom.flat_index(cell_pt[ids[inside[ids]]])\n"
           "            labels[returns] = OcclusionLabel.NON_OCCLUDED\n"
           "        far = cells[t_entry > beyond[ids]]\n"
           "        labels[far[occupied[far]]] = OcclusionLabel.OCCLUDED\n",
           ("tests/test_occlusion.py::TestLabelsMatchPerRayLoops::test_label_lidar",
            "tests/test_occlusion.py::TestLabelLidar::test_priority_merge_nonoccluded_wins",
            "tests/test_occlusion.py::TestLabelLidar::test_every_point_voxel_nonoccluded")),
    Mutant("camera-first-hits-written-first", "src/voxfuse/occlusion.py",
           "    labels[cells[hit]] = OcclusionLabel.OCCLUDED\n"
           "    labels[cells[hit[first]]] = OcclusionLabel.NON_OCCLUDED\n",
           "    labels[cells[hit[first]]] = OcclusionLabel.NON_OCCLUDED\n"
           "    labels[cells[hit]] = OcclusionLabel.OCCLUDED\n",
           ("tests/test_occlusion.py::TestLabelsMatchPerRayLoops::test_label_camera",
            "tests/test_occlusion.py::TestCameraRayTable",
            "tests/test_occlusion.py::TestLabelCamera")),
    Mutant("refine-draws-unreported-seed", "src/voxfuse/pipeline.py",
           'seed=config.seed_for("refine-b")',
           'seed=config.seed_for("refine-c")',
           ("tests/test_pipeline.py::TestDeterminism::test_every_drawn_seed_is_reported",)),
    Mutant("subdivide-keeps-children-past-one-face", "src/voxfuse/grid.py",
           "keep = (children < np.asarray(dims)).all(axis=1)",
           "keep = (children < np.asarray(dims)).any(axis=1)",
           ("tests/test_grid.py::TestSubdivide::test_matches_brute_force",)),
    Mutant("rows-for-without-in-grid-mask", "src/voxfuse/grid.py",
           "self.rows_for_keys(np.where(g.contains_index(coords), g.flat_index(coords), -1))",
           "self.rows_for_keys(g.flat_index(coords))",
           ("tests/test_grid.py::TestFlatIndex::test_matches_numpy",)),
    Mutant("walk-strides-by-hand", "src/voxfuse/occlusion.py",
           "inc = step * geom.strides[:, None]",
           "inc = step * np.array([dims[1, 0] * dims[2, 0], dims[2, 0], 1])[:, None]",
           ("tests/test_imports.py::test_one_home_for_the_flat_index",)),
    Mutant("centers-on-base-cells", "src/voxfuse/grid.py",
           "return self.origin_array + (c + 0.5) * self.cell_size",
           "return self.origin_array + (c + 0.5) * self.voxel_size",
           ("tests/test_grid.py::TestLatticeFacts::test_centers_span_and_diagonal",
            "tests/test_grid.py::TestVoxelCenter::test_scale2_origin_cell")),
    Mutant("densify-lattice-check-origin-only", "src/voxfuse/densify.py",
           "if g.geometry.with_scale(4) != base.geometry:",
           "if g.geometry.origin != base.geometry.origin:",
           ("tests/test_densify.py::TestTypes::test_voxel_size_mismatch_rejected",)),
    Mutant("sidecar-base-dims-from-scaled-dims", "src/voxfuse/occlusion.py",
           'tuple(int(v) for v in meta["dims_scale1"].split())',
           "tuple(d * scale for d in dims)",
           ("tests/test_occlusion.py::TestVolumeIO::test_sidecar_roundtrips_its_grid",
            "tests/test_cli.py::TestForward::test_volumes_keep_their_grid_off_multiples_of_4")),
    Mutant("scene-span-by-hand", "src/voxfuse/synthetic.py",
           "span = geom.span",
           "span = np.asarray(geom.dims) * geom.voxel_size",
           ("tests/test_imports.py::test_one_home_for_the_world_extent",)),
)


def covers(node: str, failed: str) -> bool:
    """Whether the failing test id ``failed`` is ``node`` or lies under it."""
    return failed == node or failed.startswith((node + "::", node + "["))


def run(mutant: Mutant) -> tuple[str, str]:
    """``(outcome, detail)`` of one mutant: killed, survived or error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / part, copy / part)
        target = copy / mutant.file
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                               *mutant.kills], cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return "error", f"pytest exited {proc.returncode}: " + " | ".join(tail)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    missed = [node for node in mutant.kills if not any(covers(node, f) for f in failed)]
    if missed:
        return "survived", "passed: " + ", ".join(missed)
    return "killed", f"{len(failed)} failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=[m.name for m in MUTANTS], help="run one entry")
    args = parser.parse_args(argv)
    bad = 0
    for mutant in MUTANTS:
        if args.only and mutant.name != args.only:
            continue
        start = time.perf_counter()
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            outcome, detail = "stale", f"old text occurs {count} times in {mutant.file}"
        else:
            outcome, detail = run(mutant)
        bad += outcome != "killed"
        print(f"{outcome:<8} {time.perf_counter() - start:6.1f} s  {mutant.name}  ({detail})",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

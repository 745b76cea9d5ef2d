"""Per-frame output checks of the benchmark: a wrong output counts as a failed frame.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from types import SimpleNamespace

import numpy as np

import workloads
from voxfuse.grid import GridGeometry


def _demo_frame(seed=0):
    wl = workloads.WORKLOADS["forward-demo"]
    inp = workloads.build_scene(wl.scene, workloads.candidate_seeds(seed))
    return wl, inp, wl.frame(inp, None)


def test_corrupted_golden_digest_counts_as_failure():
    wl, inp, out = _demo_frame()
    frame_digest, problems = wl.check(inp, out, None)
    assert problems == []
    corrupted = ("0" if frame_digest[0] != "0" else "1") + frame_digest[1:]
    checker = workloads.FrameChecker(expected=[corrupted])
    assert not checker.record(0, frame_digest, problems)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "digest" in checker.problems[0][1][0]


def test_committed_digest_matches_default_seed_scene():
    wl, inp, out = _demo_frame(seed=0)
    frame_digest, _ = wl.check(inp, out, None)
    checker = workloads.FrameChecker(workloads.golden_digests(wl.name, 0))
    assert checker.expected is not None
    assert checker.record(0, frame_digest, [])


def test_repeat_with_other_digest_counts_as_failure():
    checker = workloads.FrameChecker()
    assert checker.record(3, "a" * 64, [])
    assert checker.record(3, "a" * 64, [])
    assert not checker.record(3, "b" * 64, [])
    assert (checker.attempted, checker.failed) == (3, 1)


def test_label_check_flags_visible_unoccupied_voxel(tmp_path):
    geom = GridGeometry((0.0, 0.0, 0.0), 0.2, (8, 8, 4))
    gt = np.zeros(geom.dims, dtype=np.int64)
    gt[1, 1, 1] = 3
    occ = np.zeros(geom.dims, dtype=np.uint8)
    occ[1, 1, 1] = occ[0, 0, 0] = 1
    (tmp_path / "frame.occ.u8").write_bytes(bytes(occ.size))
    inp = SimpleNamespace(scene=SimpleNamespace(geometry=geom), gt=gt)
    _, problems = workloads.check_label(inp, SimpleNamespace(occlusion=occ), tmp_path)
    assert problems == ["unoccupied voxel carries a non-empty label"]

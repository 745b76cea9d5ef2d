"""Command-line tests: exit codes, file outputs, and format handling."""

import importlib.resources
import json
import os
import shutil

import numpy as np
import pytest

from voxfuse import occlusion
from voxfuse.cli import BENCH_HEADER, main
from voxfuse.config import PipelineConfig
from voxfuse.grid import GridGeometry
from voxfuse.occlusion import OcclusionLabel, read_volume, write_volume
from voxfuse.pipeline import forward_scene
from voxfuse.synthetic import Box, SyntheticScene, random_scene

from oracles import save_scene

KITTI_DIMS = (256, 256, 32)


def small_scene_file(tmp_path, boxes=None, name="scene.json", dims=(32, 32, 8)):
    geom = GridGeometry(origin=(0.0, 0.0, 0.0), voxel_size=0.2, dims_scale1=dims, scale=1)
    if boxes is None:
        boxes = (Box(lo=(3.0, 2.0, 0.2), hi=(3.6, 4.5, 1.4), class_id=1),
                 Box(lo=(4.4, 2.2, 0.2), hi=(5.2, 4.2, 1.4), class_id=2))
    scene = SyntheticScene(geometry=geom, boxes=tuple(boxes),
                           sensor_origin=(1.0, 3.2, 0.8), seed=5)
    path = tmp_path / name
    save_scene(scene, str(path))
    return path, scene


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["train"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["eval", "--pred", "x"]) == 1
        capsys.readouterr()


class TestEval:
    def write_pair(self, tmp_path, pred, gt):
        geom = GridGeometry(origin=(0.0, 0.0, 0.0), voxel_size=1.0,
                            dims_scale1=pred.shape, scale=1)
        ggeom = GridGeometry(origin=(0.0, 0.0, 0.0), voxel_size=1.0,
                             dims_scale1=gt.shape, scale=1)
        ppath, gpath = str(tmp_path / "pred.u8"), str(tmp_path / "gt.u8")
        write_volume(ppath, pred.astype(np.uint8), geom)
        write_volume(gpath, gt.astype(np.uint8), ggeom)
        return ppath, gpath

    def test_identical_volumes_score_one(self, tmp_path, capsys):
        vol = np.zeros((4, 4, 4), dtype=np.uint8)
        vol[1, 1, 1] = 3
        ppath, gpath = self.write_pair(tmp_path, vol, vol)
        out = str(tmp_path / "report.json")
        assert main(["eval", "--pred", ppath, "--gt", gpath, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iou"] == 1.0 and report["miou"] == 1.0
        assert json.load(open(out)) == report

    def test_classes_must_cover_every_label(self, tmp_path, capsys):
        vol = np.zeros((4, 4, 4), dtype=np.uint8)
        vol[1, 1, 1] = 5
        ppath, gpath = self.write_pair(tmp_path, vol, vol)
        assert main(["eval", "--pred", ppath, "--gt", gpath, "--classes", "6"]) == 0
        assert len(json.loads(capsys.readouterr().out)["per_class_iou"]) == 6
        assert main(["eval", "--pred", ppath, "--gt", gpath, "--classes", "5"]) == 1
        assert "label 5" in capsys.readouterr().err

    def test_hand_fixture_iou_third(self, tmp_path, capsys):
        pred = np.zeros((4, 4, 4), dtype=np.uint8)
        gt = np.zeros((4, 4, 4), dtype=np.uint8)
        pred[0, 0, 0] = pred[0, 0, 1] = 1
        gt[0, 0, 1] = gt[0, 0, 2] = 1
        ppath, gpath = self.write_pair(tmp_path, pred, gt)
        assert main(["eval", "--pred", ppath, "--gt", gpath]) == 0
        report = json.loads(capsys.readouterr().out)
        assert np.isclose(report["iou"], 1 / 3)
        assert np.isclose(report["per_class_iou"][1], 1 / 3)

    def test_swapped_inputs_same_iou(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
        b = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
        ppath, gpath = self.write_pair(tmp_path, a, b)
        main(["eval", "--pred", ppath, "--gt", gpath])
        fwd = json.loads(capsys.readouterr().out)
        main(["eval", "--pred", gpath, "--gt", ppath])
        rev = json.loads(capsys.readouterr().out)
        assert fwd["iou"] == rev["iou"]

    def test_dim_mismatch_exits_4(self, tmp_path, capsys):
        ppath, gpath = self.write_pair(tmp_path, np.zeros((4, 4, 4), dtype=np.uint8),
                                       np.zeros((4, 4, 5), dtype=np.uint8))
        assert main(["eval", "--pred", ppath, "--gt", gpath]) == 4
        capsys.readouterr()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        vol = np.zeros((2, 2, 2), dtype=np.uint8)
        ppath, _ = self.write_pair(tmp_path, vol, vol)
        assert main(["eval", "--pred", ppath, "--gt", str(tmp_path / "nope.u8")]) == 2
        capsys.readouterr()

    def test_missing_sidecar_exits_3(self, tmp_path, capsys):
        raw = str(tmp_path / "naked.u8")
        np.zeros(8, dtype=np.uint8).tofile(raw)
        assert main(["eval", "--pred", raw, "--gt", raw]) == 3
        capsys.readouterr()


class TestForward:
    def test_demo_scene_runs_and_writes(self, tmp_path, capsys):
        out = str(tmp_path / "fwd")
        assert main(["forward", "--scene", "demo", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "o4 shape: (16, 16, 4, 21)" in text
        assert "o1 shape: (64, 64, 16, 21)" in text
        o4, geom4 = read_volume(os.path.join(out, "o4_labels.u8"))
        assert o4.shape == (16, 16, 4) and geom4.scale == 4
        report = json.load(open(os.path.join(out, "forward_report.json")))
        assert report["o4_shape"] == [16, 16, 4, 21]
        assert report["counts"]["decode"] % 64 == 0

    def test_volumes_keep_their_grid_off_multiples_of_4(self, tmp_path, capsys):
        """A 30x30x14 scene's scale-4 volume reads back on the 30x30x14 lattice, not 32x32x16."""
        scene_path, scene = small_scene_file(tmp_path, dims=(30, 30, 14))
        out = str(tmp_path / "fwd")
        assert main(["forward", "--scene", str(scene_path), "--out", out]) == 0
        capsys.readouterr()
        result = forward_scene(scene, PipelineConfig())
        assert read_volume(os.path.join(out, "o4_labels.u8"))[1] == result.o4.geometry
        assert read_volume(os.path.join(out, "o1_labels.u8"))[1] == result.o1.geometry

    def test_same_seed_identical_volumes(self, tmp_path, capsys):
        scene_path, _ = small_scene_file(tmp_path)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[seeds]\nroot = 5\n")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["forward", "--scene", str(scene_path), "--config", str(cfg_path),
                         "--out", out]) == 0
        capsys.readouterr()
        a = open(os.path.join(out_a, "o1_labels.u8"), "rb").read()
        b = open(os.path.join(out_b, "o1_labels.u8"), "rb").read()
        assert a == b

    def test_tau_above_one_reports_identity(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[refine]\ntau1 = 1.01\ntau2 = 1.01\n")
        scene_path, _ = small_scene_file(tmp_path)
        out = str(tmp_path / "fwd")
        assert main(["forward", "--config", str(cfg_path), "--scene", str(scene_path),
                     "--out", out]) == 0
        assert "refined equals fused: True" in capsys.readouterr().out
        report = json.load(open(os.path.join(out, "forward_report.json")))
        assert report["refined_equals_fused"] is True

    def test_partial_last_cell_scene_runs(self, tmp_path, capsys):
        # 66 x 66 x 18 leaves a partial last coarse cell on every axis, and
        # this scene refines and decodes parents in them
        geom = GridGeometry((0.0, 0.0, 0.0), 0.2, (66, 66, 18))
        scene_path = tmp_path / "scene.json"
        save_scene(random_scene(3, geom, min_foreground=0.03), str(scene_path))
        out = str(tmp_path / "fwd")
        assert main(["forward", "--scene", str(scene_path), "--out", out]) == 0
        assert "o1 shape: (66, 66, 18, 21)" in capsys.readouterr().out

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[refine]\ntau9 = 1.0\n")
        scene_path, _ = small_scene_file(tmp_path)
        assert main(["forward", "--config", str(cfg_path),
                     "--scene", str(scene_path)]) == 1
        capsys.readouterr()

    def test_missing_scene_exits_2(self, tmp_path, capsys):
        assert main(["forward", "--scene", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_corrupt_scene_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["forward", "--scene", str(bad)]) == 3
        capsys.readouterr()


class TestLabelGen:
    def test_synthetic_scene_histogram(self, tmp_path, capsys):
        scene_path, scene = small_scene_file(tmp_path)
        out = str(tmp_path / "labels")
        assert main(["label-gen", "--dataset", "synthetic", "--sequence",
                     str(scene_path), "--out", out, "--stride", "2"]) == 0
        capsys.readouterr()
        summary = json.load(open(os.path.join(out, "labels_summary.json")))
        frame = summary["frames"][0]
        hist = frame["histogram"]
        # the second box hides behind the first from the sensor's viewpoint
        assert hist["non_occluded"] > 0
        assert hist["occluded"] > 0
        # one ray per return, and per pixel of the 4 default 64x64 cameras at stride 2
        assert frame["lidar_rays"] == len(scene.lidar_scan())
        assert frame["camera_rays"] == 4 * 32 * 32
        assert frame["lidar_s"] > 0.0 and frame["camera_s"] > 0.0
        vol, geom = read_volume(summary["frames"][0]["volume"])
        assert vol.shape == scene.geometry.dims
        assert set(np.unique(vol)) <= {0, 1, 2}

    def test_empty_scene_all_empty(self, tmp_path, capsys):
        scene_path, scene = small_scene_file(tmp_path, boxes=())
        out = str(tmp_path / "labels")
        assert main(["label-gen", "--dataset", "synthetic", "--sequence",
                     str(scene_path), "--out", out]) == 0
        capsys.readouterr()
        summary = json.load(open(os.path.join(out, "labels_summary.json")))
        frame = summary["frames"][0]
        total = int(np.prod(scene.geometry.dims))
        assert frame["histogram"] == {"empty": total, "non_occluded": 0, "occluded": 0}
        # a scene without boxes has no scan, so no LiDAR rays
        assert frame["lidar_rays"] == 0 and frame["camera_rays"] == 4 * 16 * 16

    def test_missing_sequence_exits_2(self, tmp_path, capsys):
        assert main(["label-gen", "--dataset", "synthetic", "--sequence",
                     str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_non_positive_stride_exits_1(self, tmp_path, capsys, stride):
        scene_path, _ = small_scene_file(tmp_path)
        assert main(["label-gen", "--dataset", "synthetic", "--sequence",
                     str(scene_path), "--out", str(tmp_path / "labels"),
                     "--stride", stride]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stride" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case,code", [("stride-zero", 1), ("missing-scene", 2),
                                           ("scene-not-json", 3)])
    def test_rejected_input_leaves_no_out_dir(self, tmp_path, capsys, case, code):
        scene_path, _ = small_scene_file(tmp_path)
        if case == "missing-scene":
            scene_path = tmp_path / "none.json"
        elif case == "scene-not-json":
            scene_path.write_text("{broken")
        out = tmp_path / "labels"
        stride = "0" if case == "stride-zero" else "4"
        assert main(["label-gen", "--dataset", "synthetic", "--sequence", str(scene_path),
                     "--out", str(out), "--stride", stride]) == code
        capsys.readouterr()
        assert not out.exists()


def make_kitti_sequence(root):
    seq = root / "sequences" / "00"
    (seq / "voxels").mkdir(parents=True)
    (seq / "velodyne").mkdir()
    sem = np.zeros(KITTI_DIMS, dtype="<u2")
    sem[50, 128, 10] = 3   # wall cell ahead of the sensor
    sem[60, 128, 10] = 4   # cell straight behind the wall
    sem[50, 120, 31] = 5   # marked invalid below
    sem.tofile(seq / "voxels" / "000000.label")
    invalid = np.zeros(KITTI_DIMS, dtype=bool)
    invalid[50, 120, 31] = True
    np.packbits(invalid.reshape(-1)).tofile(seq / "voxels" / "000000.invalid")
    pts = np.array([[10.1, 0.1, 0.1, 0.5]], dtype="<f4")
    pts.tofile(seq / "velodyne" / "000000.bin")
    calib = [
        "P2: 100.0 0.0 641.0 0.0 0.0 100.0 193.0 0.0 0.0 0.0 1.0 0.0",
        "Tr: 0.0 -1.0 0.0 0.0 0.0 0.0 -1.0 0.0 1.0 0.0 0.0 0.0",
    ]
    (seq / "calib.txt").write_text("\n".join(calib) + "\n")
    return seq


class TestLabelGenKitti:
    def test_frame_produces_256_256_32_volume(self, tmp_path, capsys):
        seq = make_kitti_sequence(tmp_path)
        out = str(tmp_path / "labels")
        assert main(["label-gen", "--dataset", "semantickitti", "--sequence",
                     str(seq), "--out", out, "--stride", "64"]) == 0
        capsys.readouterr()
        summary = json.load(open(os.path.join(out, "labels_summary.json")))
        frame = summary["frames"][0]
        # one return; one calib camera at the default 1226x370 image, stride 64
        assert (frame["lidar_rays"], frame["camera_rays"]) == (1, 20 * 6)
        assert set(frame) == {"name", "volume", "histogram", "lidar_rays", "camera_rays",
                              "lidar_s", "camera_s", "build_s"}
        vol, geom = read_volume(frame["volume"])
        assert vol.shape == KITTI_DIMS
        assert geom.dims == KITTI_DIMS
        # the measured cell is seen, the cell behind it is occluded
        assert vol[50, 128, 10] == OcclusionLabel.NON_OCCLUDED
        assert vol[60, 128, 10] == OcclusionLabel.OCCLUDED
        # invalid-masked voxel never gets a visibility label
        assert vol[50, 120, 31] == OcclusionLabel.EMPTY

    def _label_without(self, tmp_path, capsys, missing):
        seq = make_kitti_sequence(tmp_path)
        if missing == "velodyne":
            shutil.rmtree(seq / missing)
        else:
            (seq / missing).unlink()
        out = str(tmp_path / "labels")
        assert main(["label-gen", "--dataset", "semantickitti", "--sequence",
                     str(seq), "--out", out, "--stride", "64"]) == 0
        capsys.readouterr()
        frame = json.load(open(os.path.join(out, "labels_summary.json")))["frames"][0]
        vol, _ = read_volume(frame["volume"])
        return frame, vol

    def test_frame_without_scan_labels_from_the_camera(self, tmp_path, capsys):
        frame, vol = self._label_without(tmp_path, capsys, "velodyne")
        assert (frame["lidar_rays"], frame["camera_rays"]) == (0, 20 * 6)
        # occluded needs both sensors to agree, so only the camera's direct hit remains
        assert frame["histogram"]["non_occluded"] == 1
        assert frame["histogram"]["occluded"] == 0
        assert vol[50, 128, 10] == OcclusionLabel.NON_OCCLUDED

    def test_frame_without_calibration_labels_from_the_scan(self, tmp_path, capsys):
        frame, vol = self._label_without(tmp_path, capsys, "calib.txt")
        assert (frame["lidar_rays"], frame["camera_rays"]) == (1, 0)
        assert frame["histogram"]["non_occluded"] == 1
        assert frame["histogram"]["occluded"] == 0
        assert vol[50, 128, 10] == OcclusionLabel.NON_OCCLUDED
        assert vol[60, 128, 10] == OcclusionLabel.EMPTY

    def test_sequence_frames_equal_frames_labelled_alone(self, tmp_path, capsys, monkeypatch):
        # three frames share one calib.txt, so the camera rays are walked for the
        # first frame only; every frame must still equal a run on that frame alone
        seq = make_kitti_sequence(tmp_path / "all")
        rng = np.random.default_rng(3)
        for k in range(3):
            sem = (rng.uniform(size=KITTI_DIMS) < 0.01) * rng.integers(1, 20, size=KITTI_DIMS)
            sem.astype("<u2").tofile(seq / "voxels" / f"{k:06d}.label")
            pts = rng.uniform([1.0, -10.0, -1.0, 0.0], [40.0, 10.0, 2.0, 1.0], size=(200, 4))
            pts.astype("<f4").tofile(seq / "velodyne" / f"{k:06d}.bin")
        walks = []
        walk = occlusion._walk

        def counting_walk(*args, **kwargs):
            walks.append(1)
            return walk(*args, **kwargs)
        monkeypatch.setattr(occlusion, "_walk", counting_walk)
        monkeypatch.setattr(occlusion, "_camera_memo", None)
        out = tmp_path / "labels"
        assert main(["label-gen", "--dataset", "semantickitti", "--sequence", str(seq),
                     "--out", str(out), "--stride", "16"]) == 0
        # one LiDAR walk per frame, one camera walk for the sequence
        assert len(walks) == 4
        for k in range(3):
            stem = f"{k:06d}"
            alone = tmp_path / f"alone{k}" / "sequences" / "00"
            (alone / "voxels").mkdir(parents=True)
            (alone / "velodyne").mkdir()
            shutil.copy(seq / "calib.txt", alone / "calib.txt")
            shutil.copy(seq / "velodyne" / f"{stem}.bin", alone / "velodyne")
            for f in (seq / "voxels").glob(f"{stem}.*"):
                shutil.copy(f, alone / "voxels")
            monkeypatch.setattr(occlusion, "_camera_memo", None)
            assert main(["label-gen", "--dataset", "semantickitti", "--sequence", str(alone),
                         "--out", str(tmp_path / f"out{k}"), "--stride", "16"]) == 0
            want = (tmp_path / f"out{k}" / f"{stem}.occ.u8").read_bytes()
            assert (out / f"{stem}.occ.u8").read_bytes() == want
        capsys.readouterr()

    def test_env_var_resolves_relative_sequence(self, tmp_path, capsys, monkeypatch):
        make_kitti_sequence(tmp_path)
        monkeypatch.setenv("VOXFUSE_DATA_ROOT", str(tmp_path))
        out = str(tmp_path / "labels")
        assert main(["label-gen", "--dataset", "semantickitti", "--sequence",
                     os.path.join("sequences", "00"), "--out", out,
                     "--stride", "64"]) == 0
        capsys.readouterr()

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["label-gen", "--dataset", "semantickitti", "--sequence",
                     str(tmp_path / "seq"), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_truncated_label_file_exits_3(self, tmp_path, capsys):
        seq = tmp_path / "sequences" / "00"
        (seq / "voxels").mkdir(parents=True)
        np.zeros(100, dtype="<u2").tofile(seq / "voxels" / "000000.label")
        assert main(["label-gen", "--dataset", "semantickitti", "--sequence",
                     str(seq), "--out", str(tmp_path / "o")]) == 3
        capsys.readouterr()

    def test_non_finite_point_exits_3(self, tmp_path, capsys):
        seq = make_kitti_sequence(tmp_path)
        pts = np.ones((10, 4), dtype="<f4")
        pts[7, 1] = np.nan
        pts.tofile(seq / "velodyne" / "000000.bin")
        assert main(["label-gen", "--dataset", "semantickitti", "--sequence",
                     str(seq), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "row 7" in err


class TestBench:
    def test_csv_header_and_rows(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--sizes", "0,32", "--out", out]) == 0
        capsys.readouterr()
        lines = open(out).read().strip().splitlines()
        assert lines[0] == ",".join(BENCH_HEADER)
        # 4 stage rows per (size, dims) pair; 2 sizes at 2 grid volumes
        assert len(lines) == 1 + 4 * 2 * 2
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[0] in {"select", "gather", "refine", "hvfr"}
            assert float(parts[6]) >= 0.0

    def test_zero_size_near_zero_refine_time(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--sizes", "0", "--out", out]) == 0
        capsys.readouterr()
        for line in open(out).read().strip().splitlines()[1:]:
            parts = line.split(",")
            if parts[0] == "refine":
                assert float(parts[6]) < 0.05

    def test_repeated_size_rows_agree(self, tmp_path, capsys):
        # the untimed warm-up case absorbs one-time costs, such as NumPy's
        # lazy imports, which would otherwise inflate the first timed row
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--sizes", "64,64", "--out", out]) == 0
        capsys.readouterr()
        refine = [float(line.split(",")[7]) for line in open(out).read().splitlines()[1:]
                  if line.startswith("refine,")]
        assert refine[0] < 2 * refine[1]

    @pytest.mark.parametrize("dims", ["64 64 17", "66 66 18", "65 64 16"])
    def test_partial_last_cell_grid_runs(self, tmp_path, capsys, dims):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[geometry]\ndims = {dims}\n")
        assert main(["bench", "--config", str(cfg_path), "--sizes", "0"]) == 0
        capsys.readouterr()

    def test_axis_past_2_21_runs(self, tmp_path, capsys):
        # the voxel count, not a per-axis bit budget, bounds dims
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[geometry]\ndims = 4000000 4 4\n")
        assert main(["bench", "--config", str(cfg_path), "--sizes", "0"]) == 0
        capsys.readouterr()

    def test_bad_sizes_exits_1(self, capsys):
        assert main(["bench", "--sizes", "a,b"]) == 1
        capsys.readouterr()


def _message_lines(err):
    """stderr lines after argparse's usage block, if there is one."""
    lines = err.splitlines()
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    return lines


def _eval_args(tmp_path, classes, label=0):
    path = str(tmp_path / "vol.u8")
    vol = np.zeros((4, 4, 4), dtype=np.uint8)
    vol[1, 1, 1] = label
    write_volume(path, vol, GridGeometry(origin=(0.0, 0.0, 0.0), voxel_size=1.0,
                                         dims_scale1=(4, 4, 4), scale=1))
    return ["eval", "--pred", path, "--gt", path, "--classes", classes]


def _eval_meta_args(key, value):
    """eval on a 4x4x4 volume whose ``.meta`` sidecar holds ``key=value``, or lacks ``key`` for None."""
    def build(tmp_path):
        argv = _eval_args(tmp_path, "2")
        meta = tmp_path / "vol.u8.meta"
        lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
                 for line in meta.read_text().splitlines()
                 if value is not None or not line.startswith(f"{key}=")]
        meta.write_text("\n".join(lines) + "\n")
        return argv
    return build


def _eval_grid_args(origin, voxel_size):
    """eval of a 4x4x4 pred with 0.2 m cells at the origin against its labels on another grid."""
    def build(tmp_path):
        vol = np.zeros((4, 4, 4), dtype=np.uint8)
        vol[1, 1, 1] = 1
        pred, gt = str(tmp_path / "pred.u8"), str(tmp_path / "gt.u8")
        write_volume(pred, vol, GridGeometry((0.0, 0.0, 0.0), 0.2, (4, 4, 4)))
        write_volume(gt, vol, GridGeometry(origin, voxel_size, (4, 4, 4)))
        return ["eval", "--pred", pred, "--gt", gt]
    return build


def _taken_out_args(argv):
    """``argv`` plus ``--out`` naming a file that already exists."""
    def build(tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        return argv(tmp_path) + ["--out", str(taken)]
    return build


def _bench_config_args(key, value):
    """bench on a config file whose ``[geometry]`` section holds ``key = value``."""
    def build(tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(f"[geometry]\n{key} = {value}\n")
        return ["bench", "--config", str(path), "--sizes", "0"]
    return build


def _forward_config_args(section, key, value):
    """forward on the demo scene with a config file whose ``[section]`` holds ``key = value``."""
    def build(tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        return ["forward", "--scene", "demo", "--config", str(path),
                "--out", str(tmp_path / "o")]
    return build


def _synthetic_label_args(tmp_path, stride):
    scene_path, _ = small_scene_file(tmp_path)
    return ["label-gen", "--dataset", "synthetic", "--sequence", str(scene_path),
            "--out", str(tmp_path / "labels"), "--stride", stride]


def _nan_scan_args(tmp_path):
    seq = make_kitti_sequence(tmp_path)
    pts = np.ones((10, 4), dtype="<f4")
    pts[7, 1] = np.nan
    pts.tofile(seq / "velodyne" / "000000.bin")
    return ["label-gen", "--dataset", "semantickitti", "--sequence", str(seq),
            "--out", str(tmp_path / "o")]


def _kitti_label_args(tmp_path):
    """label-gen on the sequence of :func:`make_kitti_sequence`, one camera ray per 64 pixels."""
    seq = make_kitti_sequence(tmp_path)
    return ["label-gen", "--dataset", "semantickitti", "--sequence", str(seq),
            "--out", str(tmp_path / "o"), "--stride", "64"]


def _bad_calib_args(key, row):
    """label-gen on a KITTI sequence whose calib.txt has ``row`` as its ``key`` row."""
    def build(tmp_path):
        argv = _kitti_label_args(tmp_path)
        calib = tmp_path / "sequences" / "00" / "calib.txt"
        lines = [f"{key}: {row}" if line.startswith(f"{key}:") else line
                 for line in calib.read_text().splitlines()]
        calib.write_text("\n".join(lines) + "\n")
        return argv
    return build


def _not_utf8(argv, target):
    """``argv``, with the file that ``target`` names behind a UTF-16 byte-order mark.

    ``b"\\xff\\xfe"`` is not valid UTF-8, so every text reader must refuse it.
    """
    def build(tmp_path):
        args = argv(tmp_path)
        path = target(tmp_path)
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        return args
    return build


def _corrupt_scene_args(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    return ["forward", "--scene", str(bad)]


def _demo_scene_with(section, key, value, command="forward"):
    """``command`` on the bundled demo scene with ``data[section][key] = value``."""
    def build(tmp_path):
        demo = importlib.resources.files("voxfuse").joinpath("data/demo_scene.json")
        data = json.loads(demo.read_text(encoding="utf-8"))
        (data[section] if section else data)[key] = value
        bad = tmp_path / "bad_scene.json"
        bad.write_text(json.dumps(data))
        if command == "forward":
            return ["forward", "--scene", str(bad), "--out", str(tmp_path / "o")]
        return ["label-gen", "--dataset", "synthetic", "--sequence", str(bad),
                "--out", str(tmp_path / "o")]
    return build


# (argv builder, documented exit code, text the message line must hold)
ERROR_CASES = {
    "eval-classes-zero": (lambda p: _eval_args(p, "0"), 1, "--classes"),
    "eval-classes-negative": (lambda p: _eval_args(p, "-1"), 1, "--classes"),
    "eval-label-beyond-classes": (lambda p: _eval_args(p, "2", label=5), 1, "config error"),
    "eval-meta-zero-voxel-size": (_eval_meta_args("voxel_size", "0"), 3, "parse error"),
    "eval-meta-nan-origin": (_eval_meta_args("origin", "nan 0 0"), 3, "parse error"),
    "eval-meta-zero-dim": (_eval_meta_args("dims", "0 4 4"), 3, "parse error"),
    "eval-meta-two-dims": (_eval_meta_args("dims", "4 4"), 3, "parse error"),
    "eval-meta-bad-scale": (_eval_meta_args("scale", "3"), 3, "parse error"),
    "eval-meta-no-dims-scale1": (_eval_meta_args("dims_scale1", None), 3,
                                 "vol.u8.meta is malformed: the required key dims_scale1 is missing"),
    "eval-meta-dims-disagree": (_eval_meta_args("dims", "4 4 2"), 3,
                                "dims (4, 4, 2) are not dims_scale1 (4, 4, 4) at scale 1"),
    "eval-meta-two-origin-values": (_eval_meta_args("origin", "1 2"), 3, "origin needs 3"),
    "eval-meta-four-origin-values": (_eval_meta_args("origin", "1 2 3 4"), 3, "origin needs 3"),
    "eval-meta-nan-voxel-size": (_eval_meta_args("voxel_size", "nan"), 3, "voxel_size"),
    "eval-meta-inf-voxel-size": (_eval_meta_args("voxel_size", "inf"), 3, "voxel_size"),
    "eval-grid-origin-mismatch": (_eval_grid_args((5.0, 5.0, 5.0), 0.2), 4, "origin=(5.0"),
    "eval-grid-voxel-size-mismatch": (_eval_grid_args((0.0, 0.0, 0.0), 0.4), 4,
                                      "voxel_size=0.4"),
    "eval-out-is-directory": (lambda p: _eval_args(p, "2") + ["--out", str(p)], 1,
                              "Is a directory"),
    "label-gen-stride-not-int": (lambda p: _synthetic_label_args(p, "abc"), 1, "--stride"),
    "label-gen-stride-zero": (lambda p: _synthetic_label_args(p, "0"), 1, "stride"),
    "label-gen-nan-scan": (_nan_scan_args, 3, "row 7"),
    "forward-corrupt-scene": (_corrupt_scene_args, 3, "parse error"),
    "forward-nan-sensor-origin": (_demo_scene_with(None, "sensor_origin",
                                                   [float("nan"), 1, 1]), 3, "sensor_origin"),
    **{f"{command}-far-sensor-origin": (_demo_scene_with(None, "sensor_origin", [1e300, 0, 0],
                                                          command=command), 3,
                                        "parse error: bad scene spec: no camera ring fits")
       for command in ("forward", "label-gen")},
    "forward-nan-grid-origin": (_demo_scene_with("geometry", "origin", [float("nan"), 0, 0]), 3,
                                "origin must be finite"),
    "label-gen-nan-grid-origin": (_demo_scene_with("geometry", "origin", [0, float("inf"), 0],
                                                   command="label-gen"), 3,
                                  "origin must be finite"),
    "label-gen-singular-p2": (_bad_calib_args("P2", "0 0 641 0 0 0 193 0 0 0 1 0"), 3,
                              "calib.txt"),
    "label-gen-scaled-tr": (_bad_calib_args("Tr", "2 0 0 0 0 2 0 0 0 0 2 0"), 3, "calib.txt"),
    "label-gen-nan-fx": (_bad_calib_args("P2", "nan 0 641 0 0 100 193 0 0 0 1 0"), 3,
                         "P2 row holds a non-finite value"),
    "label-gen-inf-tr-translation": (_bad_calib_args("Tr", "0 -1 0 0 0 0 -1 inf 1 0 0 0"), 3,
                                     "Tr row holds a non-finite value"),
    "forward-two-value-box-corner": (_demo_scene_with("boxes", 0, {"lo": [1, 1], "hi": [2, 2, 2],
                                                                   "class_id": 1}), 3,
                                     "bad scene spec: box corners must be 3-vectors"),
    "label-gen-two-value-box-corner": (_demo_scene_with("boxes", 0, {"lo": [1, 1, 1], "hi": [2, 2],
                                                                     "class_id": 1},
                                                        command="label-gen"), 3,
                                       "bad scene spec: box corners must be 3-vectors"),
    **{f"{command}-{case}": (_demo_scene_with(section, key, value, command=command), 3,
                             f"parse error: bad scene spec: {needle}")
       for command in ("forward", "label-gen")
       for case, section, key, value, needle in (
           ("fractional-dims", "geometry", "dims", [16.9, 16, 8],
            "dims_scale1 must be an integer, got 16.9"),
           ("fractional-class-id", "boxes", 0,
            {"lo": [9.0, 3.0, 0.3], "hi": [9.8, 9.5, 2.5], "class_id": 3.7},
            "class_id must be an integer, got 3.7"),
           ("boolean-class-id", "boxes", 0,
            {"lo": [9.0, 3.0, 0.3], "hi": [9.8, 9.5, 2.5], "class_id": True},
            "class_id must be an integer, got True"),
           ("fractional-seed", None, "seed", 1.5, "seed must be an integer, got 1.5"),
           ("boolean-voxel-size", "geometry", "voxel_size", True,
            "voxel_size must be a number, got True"),
           ("boolean-grid-origin", "geometry", "origin", [True, 0, 0],
            "origin must be a number, got True"),
           ("boolean-box-corner", "boxes", 0,
            {"lo": [True, 3.0, 0.3], "hi": [9.8, 9.5, 2.5], "class_id": 3},
            "box corners must be a number, got True"),
           ("boolean-sensor-origin", None, "sensor_origin", [True, 1, 1],
            "sensor_origin must be a number, got True"))},
    **{f"{command}-string-{case}": (_demo_scene_with(section, key, value, command=command), 3,
                                    f"parse error: bad scene spec: {needle}")
       for command in ("forward", "label-gen")
       for case, section, key, value, needle in (
           ("dims", "geometry", "dims", ["64", "64", "16"],
            "dims_scale1 must be an integer, got '64'"),
           ("voxel-size", "geometry", "voxel_size", "0.2",
            "voxel_size must be a number, got '0.2'"),
           ("sensor-origin", None, "sensor_origin", ["6.4", "6.4", "1.6"],
            "sensor_origin must be a number, got '6.4'"),
           ("seed", None, "seed", "0", "seed must be an integer, got '0'"),
           ("class-id", "boxes", 0,
            {"lo": [9.0, 3.0, 0.3], "hi": [9.8, 9.5, 2.5], "class_id": "3"},
            "class_id must be an integer, got '3'"),
           ("box-corner", "boxes", 0, {"lo": "123", "hi": [9.8, 9.5, 2.5], "class_id": 3},
            "box corners must be a number, got '1'"))},
    "eval-meta-not-utf8": (_not_utf8(lambda p: _eval_args(p, "2"), lambda p: p / "vol.u8.meta"),
                           3, "vol.u8.meta is not UTF-8 text"),
    "eval-meta-uint16": (_eval_meta_args("dtype", "uint16"), 3, "dtype must be uint8"),
    "label-gen-calib-not-utf8": (_not_utf8(_kitti_label_args,
                                           lambda p: p / "sequences" / "00" / "calib.txt"),
                                 3, "calib.txt is not UTF-8 text"),
    **{f"{command}-scene-not-utf8": (_not_utf8(_demo_scene_with(None, "seed", 0, command=command),
                                               lambda p: p / "bad_scene.json"),
                                     3, "is not valid JSON")
       for command in ("forward", "label-gen")},
    "forward-config-not-utf8": (_not_utf8(_forward_config_args("refine", "tau1", "0.4"),
                                          lambda p: p / "run.ini"), 1, "config error: cannot read"),
    "bench-config-not-utf8": (_not_utf8(_bench_config_args("dims", "64 64 16"),
                                        lambda p: p / "bench.cfg"), 1, "config error: cannot read"),
    "forward-out-is-file": (_taken_out_args(lambda p: ["forward", "--scene", "demo"]), 1,
                            "File exists"),
    "label-gen-out-is-file": (_taken_out_args(
        lambda p: ["label-gen", "--dataset", "synthetic",
                   "--sequence", str(small_scene_file(p)[0])]), 1, "File exists"),
    "forward-seed-flag-removed": (lambda p: ["forward", "--scene", "demo", "--seed", "5",
                                             "--out", str(p / "o")], 1, "--seed"),
    "forward-config-paths-section": (_forward_config_args("paths", "out_dir", "elsewhere"), 1,
                                     "unknown config section"),
    "bench-out-is-directory": (lambda p: ["bench", "--sizes", "0", "--out", str(p)], 1,
                               "Is a directory"),
    "bench-negative-size": (lambda p: ["bench", "--sizes", "-5"], 1, "--sizes"),
    "bench-config-nan-origin": (_bench_config_args("origin", "nan 0 0"), 1,
                                "unknown key 'origin'"),
    "bench-config-inf-dims": (_bench_config_args("dims", "inf 4 4"), 1, "dims must be integers"),
    "bench-config-dims-over-key-budget": (
        _bench_config_args("dims", "2000000000 2000000000 2000000000"), 1,
        "more voxels than int64 keys can index"),
    "bench-config-doubled-dims-over-key-budget": (
        _bench_config_args("dims", "1000000000 1000000000 2"), 1, "twice its dims"),
    "bench-config-unknown-preset": (_bench_config_args("preset", "kitti360"), 1,
                                    "unknown key 'preset'"),
    "forward-config-lidar-channels-below-5": (_forward_config_args("channels", "lidar", "3"), 1,
                                              "lidar_channels must be at least 5"),
    "forward-config-nan-threshold": (_forward_config_args("refine", "tau1", "nan"), 1,
                                     "thresholds must be non-negative"),
}


class TestErrorContract:
    """Bad input ends in the documented exit code and one message line, never a traceback."""

    @pytest.mark.parametrize("case", list(ERROR_CASES))
    def test_one_line_message(self, tmp_path, capsys, case):
        build, code, needle = ERROR_CASES[case]
        argv = build(tmp_path)
        capsys.readouterr()
        assert main(argv) == code
        lines = _message_lines(capsys.readouterr().err)
        assert len(lines) == 1, lines
        assert needle in lines[0]

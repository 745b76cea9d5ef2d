"""Command-line tests: exit codes, file outputs, and format handling."""

import importlib.resources
import json
import os

import numpy as np
import pytest

from voxfuse.cli import BENCH_HEADER, main
from voxfuse.grid import GridGeometry
from voxfuse.occlusion import OcclusionLabel, read_volume, write_volume
from voxfuse.synthetic import Box, SyntheticScene, random_scene, save_scene

KITTI_DIMS = (256, 256, 32)


def small_scene_file(tmp_path, boxes=None, name="scene.json"):
    geom = GridGeometry(origin=(0.0, 0.0, 0.0), voxel_size=0.2,
                        dims_scale1=(32, 32, 8), scale=1)
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

    def test_same_seed_identical_volumes(self, tmp_path, capsys):
        scene_path, _ = small_scene_file(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["forward", "--scene", str(scene_path), "--seed", "5",
                     "--out", out_a]) == 0
        assert main(["forward", "--scene", str(scene_path), "--seed", "5",
                     "--out", out_b]) == 0
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
                              "lidar_s", "camera_s"}
        vol, geom = read_volume(frame["volume"])
        assert vol.shape == KITTI_DIMS
        assert geom.dims == KITTI_DIMS
        # the measured cell is seen, the cell behind it is occluded
        assert vol[50, 128, 10] == OcclusionLabel.NON_OCCLUDED
        assert vol[60, 128, 10] == OcclusionLabel.OCCLUDED
        # invalid-masked voxel never gets a visibility label
        assert vol[50, 120, 31] == OcclusionLabel.EMPTY

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


def _bad_calib_args(key, row):
    """label-gen on a KITTI sequence whose calib.txt has ``row`` as its ``key`` row."""
    def build(tmp_path):
        seq = make_kitti_sequence(tmp_path)
        calib = seq / "calib.txt"
        lines = [f"{key}: {row}" if line.startswith(f"{key}:") else line
                 for line in calib.read_text().splitlines()]
        calib.write_text("\n".join(lines) + "\n")
        return ["label-gen", "--dataset", "semantickitti", "--sequence", str(seq),
                "--out", str(tmp_path / "o"), "--stride", "64"]
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
    "label-gen-stride-not-int": (lambda p: _synthetic_label_args(p, "abc"), 1, "--stride"),
    "label-gen-stride-zero": (lambda p: _synthetic_label_args(p, "0"), 1, "stride"),
    "label-gen-nan-scan": (_nan_scan_args, 3, "row 7"),
    "forward-corrupt-scene": (_corrupt_scene_args, 3, "parse error"),
    "forward-nan-sensor-origin": (_demo_scene_with(None, "sensor_origin", ["nan", 1, 1]), 3,
                                  "sensor_origin"),
    "forward-nan-grid-origin": (_demo_scene_with("geometry", "origin", ["nan", 0, 0]), 3,
                                "origin must be finite"),
    "label-gen-nan-grid-origin": (_demo_scene_with("geometry", "origin", [0, "inf", 0],
                                                   command="label-gen"), 3,
                                  "origin must be finite"),
    "label-gen-singular-p2": (_bad_calib_args("P2", "0 0 641 0 0 0 193 0 0 0 1 0"), 3,
                              "calib.txt"),
    "label-gen-scaled-tr": (_bad_calib_args("Tr", "2 0 0 0 0 2 0 0 0 0 2 0"), 3, "calib.txt"),
    "bench-negative-size": (lambda p: ["bench", "--sizes", "-5"], 1, "--sizes"),
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

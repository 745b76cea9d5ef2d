"""Configuration loading, validation, and seed-splitting tests."""

import csv
import importlib.resources
import io
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

from voxfuse.cli import main
from voxfuse.config import _SCHEMA, PipelineConfig, split_seed
from voxfuse.errors import ConfigError
from voxfuse.grid import GridGeometry
from voxfuse.lidar import BASE_FEATURES
from voxfuse.pipeline import forward_scene
from voxfuse.synthetic import default_geometry, load_scene

from oracles import config_text


class TestDefaults:
    def test_threshold_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tau1 == 0.4
        assert cfg.tau2 == 0.7

    def test_geometry_presets(self):
        # the [geometry] blocks the README gives for the dataset grids' extents
        blocks = {"semantickitti": "dims = 256 256 32", "nuscenes-occ": "dims = 512 512 40"}
        for name, block in blocks.items():
            cfg = PipelineConfig.loads(f"[geometry]\n{block}\n")
            assert cfg.geometry().dims == GridGeometry.preset(name).dims

    def test_custom_geometry(self):
        # bench's grid is the demo grid with the config's dims
        geom = PipelineConfig(dims=(10, 20, 30)).geometry()
        assert geom == replace(default_geometry(), dims_scale1=(10, 20, 30))
        assert geom.dims == (10, 20, 30)

    def test_with_overrides(self):
        cfg = replace(PipelineConfig(), tau1=0.5)
        assert cfg.tau1 == 0.5
        assert cfg.tau2 == 0.7
        # a replaced field is validated like a constructed one
        with pytest.raises(ConfigError, match="non-negative"):
            replace(cfg, tau2=-0.1)


class TestValidation:
    def test_bad_preset_rejected(self):
        # [geometry] has no preset key: dims always applies
        for name in ("kitti360", "semantickitti"):
            with pytest.raises(ConfigError, match="unknown key 'preset'"):
                PipelineConfig.loads(f"[geometry]\npreset = {name}\ndims = 8 8 8\n")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(tau1=-0.1)

    def test_above_one_threshold_allowed(self):
        assert PipelineConfig(tau1=1.01, tau2=1.01).tau1 == 1.01
        assert PipelineConfig.loads("[refine]\ntau1 = inf\ntau2 = inf\n").tau2 == float("inf")

    @pytest.mark.parametrize("key", ["tau1", "tau2"])
    def test_nan_threshold_rejected(self, key):
        # NaN compares false with everything, so only a `>= 0` test rejects it
        with pytest.raises(ConfigError, match="non-negative"):
            PipelineConfig.loads(f"[refine]\n{key} = nan\n")

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(dims=(0, 4, 4))

    def test_bad_channels_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(lidar_channels=0)

    def test_lidar_channels_below_base_features_rejected(self):
        assert PipelineConfig(lidar_channels=BASE_FEATURES).lidar_channels == BASE_FEATURES
        with pytest.raises(ConfigError, match=f"at least {BASE_FEATURES}"):
            PipelineConfig(lidar_channels=BASE_FEATURES - 1)


class TestSerialization:
    def test_round_trip_defaults(self):
        cfg = PipelineConfig()
        assert PipelineConfig.loads(config_text(cfg)) == cfg

    def test_round_trip_nondefault(self):
        cfg = PipelineConfig(dims=(48, 48, 12), tau1=0.35, tau2=0.95, n_ref=6,
                             root_seed=99, lidar_channels=12, image_channels=6)
        assert PipelineConfig.loads(config_text(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(tau1=0.45)
        path = tmp_path / "run.ini"
        path.write_text(config_text(cfg))
        assert PipelineConfig.load(str(path)) == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            PipelineConfig.loads("[training]\nlr = 0.1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            PipelineConfig.loads("[refine]\ntau3 = 0.9\n")

    @pytest.mark.parametrize("text", ["[camera]\nray_stride = 2\n",
                                      "[losses]\nw_ce = 0.5\n",
                                      "[paths]\ndataset_root = /data\n",
                                      "[geometry]\norigin = 0 0 0\n",
                                      "[geometry]\nvoxel_size = 0.2\n"],
                             ids=["camera-ray_stride", "losses-w_ce", "paths-dataset_root",
                                  "geometry-origin", "geometry-voxel_size"])
    def test_removed_keys_rejected(self, text):
        with pytest.raises(ConfigError, match="unknown"):
            PipelineConfig.loads(text)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.loads("[refine]\ntau1 = high\n")

    def test_bad_dims_text_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.loads("[geometry]\ndims = 4 4\n")

    def test_malformed_file_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.loads("tau1 = 0.4 with no section\n")

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig.load(str(tmp_path / "absent.ini"))

    def test_partial_file_keeps_defaults(self):
        cfg = PipelineConfig.loads("[refine]\ntau1 = 0.5\n")
        assert cfg.tau1 == 0.5
        assert cfg.tau2 == 0.7
        assert cfg.dims == PipelineConfig().dims


class TestSeeds:
    def test_split_is_deterministic(self):
        assert split_seed(7, "fusion") == split_seed(7, "fusion")

    def test_split_differs_by_name_and_root(self):
        assert split_seed(7, "fusion") != split_seed(7, "rie")
        assert split_seed(7, "fusion") != split_seed(8, "fusion")

    def test_seed_for_uses_root(self):
        a = PipelineConfig(root_seed=1).seed_for("head")
        b = PipelineConfig(root_seed=2).seed_for("head")
        assert a != b


# (section, key) of config._SCHEMA -> (non-default value, what it must change):
# "bench" is a non-timing column of `voxfuse bench --sizes 64`'s CSV,
# "forward" forward_scene's outputs on the demo scene
LIVE_KEYS = {
    ("geometry", "dims"): ("32 32 8", "bench"),
    ("channels", "lidar"): ("6", "forward"),
    ("channels", "image"): ("4", "forward"),
    ("refine", "tau1"): ("0.3", "forward"),
    ("refine", "tau2"): ("0.6", "forward"),
    ("fusion", "n_ref"): ("2", "forward"),
    ("seeds", "root"): ("99", "forward"),
}


def _demo_outputs(config):
    path = importlib.resources.files("voxfuse").joinpath("data/demo_scene.json")
    with importlib.resources.as_file(path) as p:
        result = forward_scene(load_scene(str(p)), config)
    return [a for grid in (result.o4, result.o1) for a in (grid.coords, grid.features)]


def _bench_columns(tmp_path, text):
    """`voxfuse bench --sizes 64` on a config of ``text``, without its timing columns."""
    path = tmp_path / "bench.ini"
    path.write_text(text)
    with redirect_stdout(io.StringIO()) as out:
        assert main(["bench", "--config", str(path), "--sizes", "64"]) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    return [{k: v for k, v in row.items() if k not in ("wall_s", "peak_kb")} for row in rows]


class TestLiveKeys:
    """Every config key changes behaviour; a key that changes nothing is removed."""

    def test_table_covers_every_key(self):
        assert set(LIVE_KEYS) == {(s, k) for s, keys in _SCHEMA.items() for k in keys}

    @pytest.mark.parametrize("section,key", list(LIVE_KEYS),
                             ids=[f"{s}-{k}" for s, k in LIVE_KEYS])
    def test_key_changes_behaviour(self, section, key, tmp_path):
        value, effect = LIVE_KEYS[section, key]
        text = f"[{section}]\n{key} = {value}\n"
        if effect == "bench":
            assert _bench_columns(tmp_path, text) != _bench_columns(tmp_path, "")
        else:
            got, base = _demo_outputs(PipelineConfig.loads(text)), _demo_outputs(PipelineConfig())
            assert not all(np.array_equal(a, b) for a, b in zip(got, base))

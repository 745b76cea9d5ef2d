"""Configuration loading, validation, and seed-splitting tests."""

import pytest

from voxfuse.config import PipelineConfig, split_seed
from voxfuse.errors import ConfigError


class TestDefaults:
    def test_threshold_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tau1 == 0.4
        assert cfg.tau2 == 0.7

    def test_geometry_presets(self):
        cfg = PipelineConfig(preset="nuscenes-occ")
        geom = cfg.geometry()
        assert geom.dims == (512, 512, 40)
        assert geom.voxel_size == 0.2
        cfg2 = PipelineConfig(preset="semantickitti")
        assert cfg2.geometry().dims == (256, 256, 32)

    def test_custom_geometry(self):
        cfg = PipelineConfig(preset="custom", origin=(1.0, 2.0, 3.0),
                             voxel_size=0.5, dims=(10, 20, 30))
        geom = cfg.geometry()
        assert geom.origin == (1.0, 2.0, 3.0)
        assert geom.dims == (10, 20, 30)

    def test_with_overrides(self):
        cfg = PipelineConfig().with_overrides(tau1=0.5)
        assert cfg.tau1 == 0.5
        assert cfg.tau2 == 0.7


class TestValidation:
    def test_bad_preset_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(preset="kitti360")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(tau1=-0.1)

    def test_above_one_threshold_allowed(self):
        assert PipelineConfig(tau1=1.01, tau2=1.01).tau1 == 1.01

    def test_zero_voxel_size_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(voxel_size=0.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(dims=(0, 4, 4))

    def test_bad_channels_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(lidar_channels=0)


class TestSerialization:
    def test_round_trip_defaults(self):
        cfg = PipelineConfig()
        assert PipelineConfig.loads(cfg.dumps()) == cfg

    def test_round_trip_nondefault(self):
        cfg = PipelineConfig(preset="custom", origin=(-51.2, -51.2, -5.0),
                             voxel_size=0.25, dims=(48, 48, 12), tau1=0.35,
                             tau2=0.95, n_ref=6, root_seed=99,
                             lidar_channels=12, image_channels=6, out_dir="/tmp/out")
        assert PipelineConfig.loads(cfg.dumps()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(tau1=0.45)
        path = tmp_path / "run.ini"
        cfg.save(str(path))
        assert PipelineConfig.load(str(path)) == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            PipelineConfig.loads("[training]\nlr = 0.1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            PipelineConfig.loads("[refine]\ntau3 = 0.9\n")

    @pytest.mark.parametrize("text", ["[camera]\nray_stride = 2\n",
                                      "[losses]\nw_ce = 0.5\n",
                                      "[paths]\ndataset_root = /data\n"],
                             ids=["camera-ray_stride", "losses-w_ce", "paths-dataset_root"])
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
        assert cfg.preset == "custom"


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

"""Pipeline configuration: a sectioned key-value file with strict validation.

Every tunable lives here; unknown sections or keys are rejected so config
files cannot drift silently. All randomness derives from one root seed,
split per consumer by name.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, replace

from .errors import ConfigError
from .grid import GridGeometry

DATA_ROOT_ENV = "VOXFUSE_DATA_ROOT"

_PRESETS = ("nuscenes-occ", "semantickitti", "custom")


def split_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from the root seed and a consumer name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _parse_floats(text: str, n: int, key: str) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ConfigError(f"{key} needs {n} values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_ints(text: str, n: int, key: str) -> tuple:
    vals = _parse_floats(text, n, key)
    if any(v != int(v) for v in vals):
        raise ConfigError(f"{key} must be integers, got {text!r}")
    return tuple(int(v) for v in vals)


@dataclass(frozen=True)
class PipelineConfig:
    """Validated settings for the full forward pipeline."""

    preset: str = "custom"
    origin: tuple = (0.0, 0.0, 0.0)
    voxel_size: float = 0.2
    dims: tuple = (64, 64, 16)
    lidar_channels: int = 8
    image_channels: int = 8
    tau1: float = 0.4
    tau2: float = 0.7
    n_ref: int = 4
    ray_stride: int = 4
    root_seed: int = 1234
    w_ce: float = 1.0
    w_lovasz: float = 1.0
    w_geo: float = 1.0
    w_sem: float = 1.0
    w_rie: float = 1.0
    w_occ: float = 1.0
    dataset_root: str = ""
    out_dir: str = "."

    def __post_init__(self):
        if self.preset not in _PRESETS:
            raise ConfigError(f"preset must be one of {_PRESETS}, got {self.preset!r}")
        if self.voxel_size <= 0:
            raise ConfigError("voxel_size must be positive")
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ConfigError(f"dims must be three positive integers, got {self.dims}")
        if self.tau1 < 0 or self.tau2 < 0:
            raise ConfigError("thresholds must be non-negative")
        for name in ("lidar_channels", "image_channels", "n_ref", "ray_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.root_seed < 0:
            raise ConfigError("root_seed must be non-negative")
        for name in ("w_ce", "w_lovasz", "w_geo", "w_sem", "w_rie", "w_occ"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    def geometry(self) -> GridGeometry:
        if self.preset == "custom":
            return GridGeometry(origin=self.origin, voxel_size=self.voxel_size,
                                dims_scale1=self.dims, scale=1)
        return GridGeometry.preset(self.preset)

    def seed_for(self, name: str) -> int:
        return split_seed(self.root_seed, name)

    def resolved_dataset_root(self) -> str:
        return os.environ.get(DATA_ROOT_ENV, "") or self.dataset_root

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)

    def dumps(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp["geometry"] = {
            "preset": self.preset,
            "origin": " ".join(repr(v) for v in self.origin),
            "voxel_size": repr(self.voxel_size),
            "dims": " ".join(str(v) for v in self.dims),
        }
        cp["channels"] = {
            "lidar": str(self.lidar_channels),
            "image": str(self.image_channels),
        }
        cp["refine"] = {"tau1": repr(self.tau1), "tau2": repr(self.tau2)}
        cp["fusion"] = {"n_ref": str(self.n_ref)}
        cp["camera"] = {"ray_stride": str(self.ray_stride)}
        cp["seeds"] = {"root": str(self.root_seed)}
        cp["losses"] = {
            "w_ce": repr(self.w_ce), "w_lovasz": repr(self.w_lovasz),
            "w_geo": repr(self.w_geo), "w_sem": repr(self.w_sem),
            "w_rie": repr(self.w_rie), "w_occ": repr(self.w_occ),
        }
        cp["paths"] = {"dataset_root": self.dataset_root, "out_dir": self.out_dir}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "PipelineConfig":
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from None

        schema = {
            "geometry": {
                "preset": ("preset", str),
                "origin": ("origin", lambda t: _parse_floats(t, 3, "origin")),
                "voxel_size": ("voxel_size", float),
                "dims": ("dims", lambda t: _parse_ints(t, 3, "dims")),
            },
            "channels": {
                "lidar": ("lidar_channels", int),
                "image": ("image_channels", int),
            },
            "refine": {"tau1": ("tau1", float), "tau2": ("tau2", float)},
            "fusion": {"n_ref": ("n_ref", int)},
            "camera": {"ray_stride": ("ray_stride", int)},
            "seeds": {"root": ("root_seed", int)},
            "losses": {
                "w_ce": ("w_ce", float), "w_lovasz": ("w_lovasz", float),
                "w_geo": ("w_geo", float), "w_sem": ("w_sem", float),
                "w_rie": ("w_rie", float), "w_occ": ("w_occ", float),
            },
            "paths": {"dataset_root": ("dataset_root", str), "out_dir": ("out_dir", str)},
        }
        kwargs = {}
        for section in cp.sections():
            if section not in schema:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in cp[section].items():
                if key not in schema[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                field_name, parse = schema[section][key]
                try:
                    kwargs[field_name] = parse(raw)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.loads(text)

"""Pipeline configuration: a sectioned key-value file with strict validation.

Every tunable of ``forward`` and ``bench`` lives here; unknown sections or
keys are rejected so config files cannot drift silently. ``[geometry]`` holds
only ``dims``, read by ``bench`` only: it sizes the demo grid that ``bench``
runs on, while ``forward`` runs on the scene's own grid. All randomness
derives from one root seed, split per consumer by name.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace

from .errors import ConfigError
from .grid import GridGeometry
from .lidar import BASE_FEATURES
from .synthetic import default_geometry

DATA_ROOT_ENV = "VOXFUSE_DATA_ROOT"


def split_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from the root seed and a consumer name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _parse_dims(text: str) -> tuple:
    vals = [float(p) for p in text.replace(",", " ").split()]
    if len(vals) != 3:
        raise ConfigError(f"dims needs 3 values, got {text!r}")
    # is_integer() is False for inf and NaN, which int() would not take
    if not all(v.is_integer() for v in vals):
        raise ConfigError(f"dims must be integers, got {text!r}")
    return tuple(int(v) for v in vals)


# section -> key -> (PipelineConfig field, parse from text)
_SCHEMA = {
    "geometry": {"dims": ("dims", _parse_dims)},
    "channels": {
        "lidar": ("lidar_channels", int),
        "image": ("image_channels", int),
    },
    "refine": {"tau1": ("tau1", float), "tau2": ("tau2", float)},
    "fusion": {"n_ref": ("n_ref", int)},
    "seeds": {"root": ("root_seed", int)},
}


@dataclass(frozen=True)
class PipelineConfig:
    """Validated settings for the full forward pipeline."""

    dims: tuple = (64, 64, 16)
    lidar_channels: int = 8
    image_channels: int = 8
    tau1: float = 0.4
    tau2: float = 0.7
    n_ref: int = 4
    root_seed: int = 1234

    def __post_init__(self):
        try:
            self.geometry()
        except ValueError as exc:
            raise ConfigError(f"[geometry] {exc}") from None
        # written so that NaN fails too; inf, like any value above 1, selects nothing
        if not (self.tau1 >= 0 and self.tau2 >= 0):
            raise ConfigError(f"thresholds must be non-negative, got {self.tau1}, {self.tau2}")
        # voxelize writes BASE_FEATURES fixed channels into every LiDAR row
        for name, least in (("lidar_channels", BASE_FEATURES), ("image_channels", 1),
                            ("n_ref", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.root_seed < 0:
            raise ConfigError("root_seed must be non-negative")

    def geometry(self) -> GridGeometry:
        """The demo grid at this config's ``dims``: the grid ``bench`` runs on."""
        return replace(default_geometry(), dims_scale1=self.dims)

    def seed_for(self, name: str) -> int:
        return split_seed(self.root_seed, name)

    @classmethod
    def loads(cls, text: str) -> "PipelineConfig":
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from None

        kwargs = {}
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in cp[section].items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                field_name, parse = _SCHEMA[section][key]
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.loads(text)

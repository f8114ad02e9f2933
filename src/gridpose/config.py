"""Run and scene configuration: dataclasses, JSON round-trip, validation.

Config files are plain JSON, one key per dataclass field. Loading is
strict: unknown keys and mistyped values (`tensorio.check_json_object`, as
in every data file), values that are not finite or break the bounds,
choices or item counts of the schemas in gridpose/schemas/
(`tensorio.check_config_values`, run on construction, so configs built in
Python obey it too) and inconsistent combinations (for example a voxel
grid whose flattened length is not divisible by the attention bin size)
raise ConfigError, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from .attention import AttentionConfig
from .errors import ConfigError
from .geometry import CameraCalib
from .grid import GridSpec
from .tensorio import check_config_values, check_json_object, config_schema

DTYPES = {"f64": np.float64, "f32": np.float32}


@dataclass
class SceneConfig:
    """Synthetic scene parameters; defaults give a 2-person 4-camera scene."""

    seed: int = 0
    n_people: int = 2
    space_extent: tuple[float, ...] = (4000.0, 4000.0, 2400.0)
    space_center: tuple[float, ...] = (0.0, 0.0, 0.0)
    person_extent: float = 2000.0
    person_resolution: int = 32
    n_cameras: int = 4
    camera_radius: float = 5000.0
    camera_height: float = 1200.0
    image_size: tuple[int, ...] = (256, 256)
    focal_px: float = 140.0
    heatmap_sigma: float = 2.0
    noise_std: float = 0.0
    dropout_prob: float = 0.0
    cameras: list | None = None

    def __post_init__(self):
        self.space_extent = tuple(float(v) for v in self.space_extent)
        self.space_center = tuple(float(v) for v in self.space_center)
        self.image_size = tuple(int(v) for v in self.image_size)
        check_config_values(self, config_schema("scene_config"))
        if any(self.person_extent > v for v in self.space_extent):
            raise ConfigError("person grid does not fit inside the scene space")


@dataclass
class RunConfig:
    """Model + training knobs: every ablation axis is an explicit field."""

    attention: AttentionConfig = field(default_factory=AttentionConfig)
    n_joints: int = 15
    grid_extent: float = 2000.0
    grid_resolution: int = 32
    residual_channels: tuple[int, ...] = (32,)
    center_source: str = "ground_truth"
    reorder_mode: str = "soft"
    train_steps: int = 300
    lr: float = 1e-3
    optimizer: str = "adam"
    dtype: str = "f64"
    seed: int = 0
    coarse_voxel_mm: float = 80.0
    proposal_threshold: float = 0.3

    def __post_init__(self):
        self.residual_channels = tuple(int(c) for c in np.atleast_1d(self.residual_channels))
        check_config_values(self, config_schema("run_config"))
        length = self.grid_resolution ** 3
        if length % self.attention.bin_size != 0:
            raise ConfigError(
                f"grid {self.grid_resolution}^3 flattens to L={length}, "
                f"not divisible by bin_size {self.attention.bin_size}"
            )

    def grid(self, center=(0.0, 0.0, 0.0)):
        return GridSpec(center=center, extent=self.grid_extent, resolution=self.grid_resolution)

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]


# -- JSON round-trip -----------------------------------------------------------

def _to_json(cfg):
    """One key per dataclass field: tuples become lists, nested configs objects."""
    doc = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = _to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def _from_json(cls, doc, what, **parse):
    """Build dataclass `cls` from a JSON object. Each key must name a field
    and hold that field's JSON type; `parse[name]` converts a non-null value.
    Every failure, the dataclass's own checks included, is a ConfigError."""
    check_json_object(what, doc, get_type_hints(cls))
    try:
        return cls(**{k: parse[k](v) if k in parse and v is not None else v for k, v in doc.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def scene_config_to_json(cfg: SceneConfig):
    doc = _to_json(cfg)
    cameras = doc.pop("cameras")
    if cameras is not None:
        doc["cameras"] = [cam.to_json() for cam in cameras]
    return doc


def scene_config_from_json(doc):
    return _from_json(SceneConfig, doc, "scene config",
                      cameras=lambda cams: [CameraCalib.from_json(c) for c in cams])


def run_config_to_json(cfg: RunConfig):
    return _to_json(cfg)


def run_config_from_json(doc):
    return _from_json(RunConfig, doc, "run config",
                      attention=lambda attn: _from_json(AttentionConfig, attn, "attention config"))


def load_json_config(path, parser):
    """Read a JSON file and run it through `parser`, mapping parse failures
    to ConfigError (exit code 2 territory, not I/O)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parser(doc)

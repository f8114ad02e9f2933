"""Run and scene configuration: dataclasses, JSON round-trip, validation.

Config files are plain JSON, one key per dataclass field. Loading is
strict: unknown keys and values whose JSON type differs from the field's
declared type (both checked by `tensorio.check_json_object`, as in every
data file), non-finite numbers, and inconsistent combinations (for
example a voxel grid whose flattened length is not divisible by the
attention bin size) raise ConfigError, which the CLI maps to exit code 2.
JSON schema documents for both file kinds ship in gridpose/schemas/.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from .attention import AttentionConfig
from .errors import ConfigError
from .geometry import CameraCalib
from .grid import GridSpec
from .tensorio import check_json_object

CENTER_SOURCES = ("ground_truth", "coarse_proposal")
REORDER_MODES = ("soft", "hard")
OPTIMIZERS = ("adam", "sgd")
DTYPES = {"f64": np.float64, "f32": np.float32}


def _require_finite(cfg):
    """Reject a NaN or infinite float field, or tuple element, of `cfg`."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if any(isinstance(v, (float, np.floating)) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{f.name} must be finite, got {value}")


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
        _require_finite(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_people < 1:
            raise ConfigError(f"n_people must be >= 1, got {self.n_people}")
        if len(self.space_extent) != 3 or any(v <= 0 for v in self.space_extent):
            raise ConfigError(f"space_extent must be 3 positive lengths, got {self.space_extent}")
        if len(self.space_center) != 3:
            raise ConfigError(f"space_center must be a 3-vector, got {self.space_center}")
        if self.person_extent <= 0:
            raise ConfigError(f"person_extent must be positive, got {self.person_extent}")
        if self.person_resolution < 2:
            raise ConfigError(f"person_resolution must be >= 2, got {self.person_resolution}")
        if self.cameras is None and self.n_cameras < 1:
            raise ConfigError("need n_cameras >= 1 or an explicit camera list")
        if self.cameras is not None and len(self.cameras) == 0:
            raise ConfigError("explicit camera list must not be empty")
        if len(self.image_size) != 2 or any(v < 8 for v in self.image_size):
            raise ConfigError(f"image_size must be (width, height) >= 8, got {self.image_size}")
        if self.focal_px <= 0 or self.heatmap_sigma <= 0:
            raise ConfigError("focal_px and heatmap_sigma must be positive")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
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
        if self.n_joints < 1:
            raise ConfigError(f"n_joints must be >= 1, got {self.n_joints}")
        if self.grid_extent <= 0 or self.grid_resolution < 2:
            raise ConfigError("grid_extent must be positive and grid_resolution >= 2")
        if not self.residual_channels or any(c < 1 for c in self.residual_channels):
            raise ConfigError(f"residual_channels must be positive, got {self.residual_channels}")
        if self.center_source not in CENTER_SOURCES:
            raise ConfigError(f"center_source must be one of {CENTER_SOURCES}, got {self.center_source!r}")
        if self.reorder_mode not in REORDER_MODES:
            raise ConfigError(f"reorder_mode must be one of {REORDER_MODES}, got {self.reorder_mode!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {tuple(DTYPES)}, got {self.dtype!r}")
        _require_finite(self)
        if self.train_steps < 0 or self.lr < 0 or self.seed < 0:
            raise ConfigError("train_steps, lr and seed must be non-negative")
        if self.coarse_voxel_mm <= 0:
            raise ConfigError(f"coarse_voxel_mm must be positive, got {self.coarse_voxel_mm}")
        if self.proposal_threshold < 0:
            raise ConfigError(f"proposal_threshold must be >= 0, got {self.proposal_threshold}")
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

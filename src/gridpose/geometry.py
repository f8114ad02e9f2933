"""Pinhole cameras, 2D heatmaps, and heatmap-to-voxel aggregation.

Coordinate conventions:

* World frame: right-handed, millimeters.
* Camera frame: standard computer vision (x right, y down, z forward
  along the optical axis). A world point p maps to the camera frame as
  ``p_cam = R @ p + t``; it is visible only when ``p_cam[2] > 0``.
* Image frame: pixels, origin at the top-left; ``u`` grows to the right
  and ``v`` downwards. Projection is ``u = fx * x/z + cx``,
  ``v = fy * y/z + cy``. No lens distortion model.

Heatmap sampling is bilinear with zero outside ``[0, W-1] x [0, H-1]``.
A camera "observes" a voxel when the voxel center is in front of the
camera and its projection point lies inside that rectangle; the per-voxel
feature is the mean heatmap score over observing cameras (zero when no
camera observes the voxel). Center proposal scores voxels by the minimum
over all cameras instead, zero unless every camera observes the voxel,
summed over joints (`min_score`). Sampling each camera's joint-summed
heatmap, one channel instead of J, gives an upper bound on that score;
`min_score_bound` returns the mask of points where the bound may pass a
threshold, sieving the points camera by camera, so the proposal runs the
J-channel minimum only there; `min_feature_volume`, the dense minimum
over a whole grid, is its reference. Sampling is float64, and a finished
volume is rounded once to the dtype asked for, with the entries that
round to subnormal numbers set to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import GridSpec, unflatten_volume
from .tensorio import has_json_type


@dataclass(frozen=True)
class CameraCalib:
    """Calibrated pinhole camera: intrinsics in pixels, extrinsics world->camera."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    image_width: int
    image_height: int

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))
        params = np.concatenate(([self.fx, self.fy, self.cx, self.cy], self.rotation.ravel(), self.translation))
        if not np.all(np.isfinite(params)):
            raise ConfigError("camera intrinsics and extrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ConfigError("image dimensions must be positive")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > 1e-9:
            raise ConfigError(f"rotation is not orthonormal (max |R^T R - I| = {err:.3e})")

    def to_json(self):
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "R": [float(v) for v in self.rotation.reshape(-1)],
            "t": [float(v) for v in self.translation],
            "width": self.image_width,
            "height": self.image_height,
        }

    @staticmethod
    def from_json(obj):
        """Camera from a JSON object with exactly the keys `to_json` writes.
        Each value must have its key's JSON type, by the rules of config
        files: a number, a list of numbers or an integer, never a bool."""
        if not isinstance(obj, dict):
            raise ConfigError(f"camera entry must be a JSON object, got {type(obj).__name__}")
        missing = sorted(_CAMERA_JSON_TYPES.keys() - obj.keys())
        if missing:
            raise ConfigError(f"camera entry missing fields {missing}")
        unknown = sorted(obj.keys() - _CAMERA_JSON_TYPES.keys())
        if unknown:
            raise ConfigError(f"unknown camera entry keys: {unknown}")
        for key, hint in _CAMERA_JSON_TYPES.items():
            if not has_json_type(hint, obj[key]):
                name = hint.__name__ if isinstance(hint, type) else hint
                raise ConfigError(f"camera entry key {key!r} takes {name}, got {obj[key]!r}")
        return CameraCalib(
            fx=float(obj["fx"]),
            fy=float(obj["fy"]),
            cx=float(obj["cx"]),
            cy=float(obj["cy"]),
            rotation=np.asarray(obj["R"], dtype=np.float64).reshape(3, 3),
            translation=obj["t"],
            image_width=obj["width"],
            image_height=obj["height"],
        )


# The JSON type of each key of a camera entry (see `has_json_type`).
_CAMERA_JSON_TYPES = {
    "fx": float, "fy": float, "cx": float, "cy": float,
    "R": tuple[float, ...], "t": tuple[float, ...], "width": int, "height": int,
}


@dataclass(frozen=True)
class Heatmap:
    """Per-joint 2D confidence maps, shape (J, H, W), values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.values.ndim != 3 or min(self.values.shape) < 1:
            raise ValueError(f"heatmap values must be (J, H, W), got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("heatmap contains non-finite values")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValueError("heatmap values must lie in [0, 1]")

    @property
    def n_joints(self):
        return self.values.shape[0]

    @property
    def height(self):
        return self.values.shape[1]

    @property
    def width(self):
        return self.values.shape[2]


def project_point(cam: CameraCalib, world_point):
    """Project a world point (mm) to pixel (u, v); None when at or behind the camera.

    The projection is returned even when it falls outside the image
    rectangle; bounds are the sampler's concern.
    """
    p = np.asarray(world_point, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"world point must be finite, got {world_point}")
    p_cam = cam.rotation @ p + cam.translation
    z = p_cam[2]
    if z <= 0:
        return None
    u = cam.fx * p_cam[0] / z + cam.cx
    v = cam.fy * p_cam[1] / z + cam.cy
    return (float(u), float(v))


def sample_heatmap(hm: Heatmap, joint: int, pixel):
    """Bilinear heatmap score at a (u, v) pixel; 0.0 outside [0, W-1] x [0, H-1]."""
    if joint < 0 or joint >= hm.n_joints:
        raise IndexError(f"joint {joint} out of range for {hm.n_joints} joints")
    u, v = float(pixel[0]), float(pixel[1])
    w, h = hm.width, hm.height
    if not (0.0 <= u <= w - 1 and 0.0 <= v <= h - 1):
        return 0.0
    x0 = int(np.floor(u))
    y0 = int(np.floor(v))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    wx = u - x0
    wy = v - y0
    plane = hm.values[joint]
    top = (1 - wx) * plane[y0, x0] + wx * plane[y0, x1]
    bottom = (1 - wx) * plane[y1, x0] + wx * plane[y1, x1]
    return float((1 - wy) * top + wy * bottom)


# Voxels per block of the camera loop. A block's (J, VOXEL_BLOCK) samples and
# sums stay in cache while every camera is reduced into them, instead of
# streaming (J, L) temporaries through memory once per camera.
VOXEL_BLOCK = 8192


def _camera_samples(cam, plane, height, width, centers):
    """Bilinear samples of one camera's (J, H*W) heatmap at (n, 3) voxel centers.

    Returns (samples (J, n), observed (n,)) in float64; samples are 0 where
    the camera does not observe the voxel.
    """
    p_cam = centers @ cam.rotation.T + cam.translation
    depth = p_cam[:, 2]
    front = depth > 0
    depth = np.where(front, depth, 1.0)
    u = cam.fx * p_cam[:, 0] / depth + cam.cx
    v = cam.fy * p_cam[:, 1] / depth + cam.cy
    observed = front & (u >= 0.0) & (u <= width - 1) & (v >= 0.0) & (v <= height - 1)
    u = np.where(observed, u, 0.0)
    v = np.where(observed, v, 0.0)

    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    row0 = y0 * width
    row1 = np.minimum(y0 + 1, height - 1) * width
    wx = u - x0
    wy = v - y0
    # sample_heatmap's operations in its order: regrouping the weights
    # would move results in the last bit
    top = (1 - wx) * plane.take(row0 + x0, axis=1)
    top += wx * plane.take(row0 + x1, axis=1)
    bottom = (1 - wx) * plane.take(row1 + x0, axis=1)
    bottom += wx * plane.take(row1 + x1, axis=1)
    top *= 1 - wy
    bottom *= wy
    top += bottom
    top *= observed
    return top, observed


def _camera_views(cams, maps):
    """Check that `cams` and their (J, H, W) `maps` pair up; returns one
    (camera, (J, H*W) plane, H, W) view per camera."""
    if len(cams) == 0:
        raise ValueError("empty camera list")
    if len(cams) != len(maps):
        raise ValueError(f"{len(cams)} cameras but {len(maps)} heatmaps")
    n_joints = maps[0].shape[0]
    if any(m.shape[0] != n_joints for m in maps):
        raise ValueError("heatmaps disagree on joint count")
    return [(cam, m.reshape(n_joints, -1), m.shape[1], m.shape[2]) for cam, m in zip(cams, maps)]


def _reduce_views(views, centers, reduce_block):
    """Sample every camera view at (n, 3) world points and reduce over the
    views, VOXEL_BLOCK points at a time.

    `reduce_block(samples, shape)` gets an iterator over the views'
    `_camera_samples` results for one block and returns their reduction of
    `shape` (J, block). Returns (J, n) in float64. A point's result does
    not depend on which other points share its call.
    """
    n_joints = views[0][1].shape[0]
    out = np.empty((n_joints, centers.shape[0]))
    for start in range(0, centers.shape[0], VOXEL_BLOCK):
        block = centers[start:start + VOXEL_BLOCK]
        samples = (_camera_samples(cam, plane, h, w, block) for cam, plane, h, w in views)
        out[:, start:start + block.shape[0]] = reduce_block(samples, (n_joints, block.shape[0]))
    return out


def _grid_volume(cams, heatmaps, grid: GridSpec, reduce_block, dtype):
    """`_reduce_views` over every voxel center of `grid`: (J, X, Y, Z),
    rounded once to `dtype`. Entries that the rounding leaves below
    `dtype`'s smallest normal number are set to 0: arithmetic on subnormal
    operands is many times slower on x86, and Gaussian heatmap tails put
    thousands of them in a float32 person grid."""
    views = _camera_views(cams, [hm.values for hm in heatmaps])
    seq = _reduce_views(views, grid.voxel_centers(), reduce_block)
    # The joint axis stays outermost in memory, as summing over it
    # (`volume.sum(axis=0)`) adds joints in order only for this layout.
    volume = unflatten_volume(seq.T, grid.resolution)
    narrow = volume.astype(dtype, copy=False)
    if narrow is not volume:
        narrow[np.abs(narrow) < np.finfo(dtype).tiny] = 0.0
    return narrow


def _mean(samples, shape):
    accum = np.zeros(shape)
    count = np.zeros(shape[1])
    for values, observed in samples:
        accum += values
        count += observed
    return np.where(count > 0, accum / np.maximum(count, 1.0), 0.0)


def _minimum(samples, shape):
    low = None
    for values, _ in samples:
        low = values if low is None else np.minimum(low, values, out=low)
    return low


def aggregate_feature_volume(cams, heatmaps, grid: GridSpec, dtype=np.float64):
    """Average projected heatmap scores per voxel over the cameras observing it.

    Returns a (J, X, Y, Z) volume. Voxels observed by no camera get 0;
    the divisor is the per-voxel count of observing cameras.
    """
    return _grid_volume(cams, heatmaps, grid, _mean, dtype)


def min_feature_volume(cams, heatmaps, grid: GridSpec, dtype=np.float64):
    """Per-voxel minimum of the projected heatmap scores over all cameras.

    Returns a (J, X, Y, Z) volume that is 0 wherever any camera does not
    observe the voxel: the minimum over single-camera
    `aggregate_feature_volume` volumes, without building them. Its joint
    sum is the dense reference of the center-proposal score `min_score`.
    """
    return _grid_volume(cams, heatmaps, grid, _minimum, dtype)


def min_score(cams, heatmaps, centers):
    """Center-proposal score at (n, 3) world points, in float64: the sum over
    joints of the minimum over cameras of the projected heatmap score.

    Equals `min_feature_volume(...).sum(axis=0)` at the same voxel centers
    bit for bit: the same samples, minima and joint order.
    """
    return _reduce_views(_camera_views(cams, [hm.values for hm in heatmaps]), centers, _minimum).sum(axis=0)


# Relative slack of the bound behind `min_score_bound` over `min_score` as
# computed. Both computed sides are sums and products of nonnegative
# float64 numbers with the same bilinear weights, so each rounding moves a
# value by at most 2**-53 of itself: with J joints the computed score
# exceeds the computed bound by at most ~(2J + 10) * 2**-53 of it, under
# 1e-14 for 15 joints, and 1e-9 leaves five orders of magnitude. A computed
# bound of 0 gives a computed score of exactly 0: rounding is monotone, and
# each joint map is at most the joint sum pixel by pixel. (Products that
# underflow below 1e-307 lose relative accuracy; proposal thresholds are
# far above.)
SCORE_BOUND_RTOL = 1e-9


def min_score_bound(cams, heatmaps, centers, threshold):
    """Mask of the (n, 3) world points where an upper bound on `min_score`,
    the minimum over cameras of the projected joint-summed heatmap,
    exceeds the floor `threshold * (1 - SCORE_BOUND_RTOL)`; every point
    outside the mask scores at most `threshold`.

    Bilinear sampling is linear, so a camera's sample of its joint-summed
    heatmap is the sum of its per-joint samples, and a minimum of sums is
    at least the sum of minima: in exact arithmetic `min_score <= bound`,
    and as computed `min_score <= bound * (1 + SCORE_BOUND_RTOL)`.

    The cameras sieve the points one after another: the first samples
    every point, each later one only the points that all earlier ones
    put above the floor, since a minimum exceeds the floor only if every
    sample does. A point's sample does not depend on the points sharing
    its call, so the mask equals the dense minimum over all cameras
    compared with the floor.
    """
    floor = threshold * (1.0 - SCORE_BOUND_RTOL)
    sums = [hm.values.sum(axis=0, keepdims=True, dtype=np.float64) for hm in heatmaps]
    alive = np.arange(centers.shape[0])
    for view in _camera_views(cams, sums):
        alive = alive[_reduce_views([view], centers[alive], _minimum)[0] > floor]
    mask = np.zeros(centers.shape[0], dtype=bool)
    mask[alive] = True
    return mask


def load_cameras_json(doc):
    """Cameras from a parsed calibration JSON document."""
    if "cameras" not in doc:
        raise ConfigError("calibration document has no 'cameras' list")
    return [CameraCalib.from_json(entry) for entry in doc["cameras"]]


def cameras_to_json(cams):
    return {"cameras": [cam.to_json() for cam in cams]}

"""Raw tensor dump format: .bin payload + .json sidecar + manifest.

Payloads are little-endian 32- or 64-bit floats in row-major order. Each
tensor <name>.bin pairs with <name>.json holding
{"name": ..., "dtype": "f32"|"f64", "shape": [...]}; a weight set adds a
manifest.json listing every tensor name. Names are plain file stems.
Format problems (truncated payloads, unknown dtype tags, a shape that is
not a list of non-negative integers, sidecar/payload disagreement, a name
that is not a plain stem, a sidecar naming another tensor, a manifest
naming a tensor twice) raise OSError for the CLI's I/O exit code, as
`load_json_file` does for every JSON data file. `check_json_object`, with
`has_json_type`, is the one check of a JSON object's keys and value types,
for config and data files alike; each file kind gives it a {key: type} table.
`check_config_values` is the one check of a config's values: all finite,
and within the bounds, choices and item counts of its shipped schema.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import types
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin

import numpy as np

from .errors import ConfigError

DTYPE_TO_TAG = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
TAG_TO_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}

MANIFEST_NAME = "manifest.json"
_SIDECAR_TYPES = {"name": str, "dtype": str, "shape": list}
_MANIFEST_TYPES = {"tensors": list[str]}


def load_json_file(path, parse):
    """`parse` the JSON document at `path`. Content that does not parse (bad
    JSON, missing keys, wrong types or shapes) raises OSError naming the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (ValueError, TypeError, KeyError) as exc:
        raise OSError(f"malformed data file {path}: {type(exc).__name__}: {exc}") from exc


# The JSON types a field of each declared type accepts; bool is never a number.
_JSON_TYPES = {int: int, float: (int, float), str: str, tuple: list, list: list}


def has_json_type(hint, value):
    """Whether a value read from JSON fits a field annotated `hint`; a
    `tuple[int, ...]` field also checks each element."""
    if isinstance(hint, types.UnionType):  # `float | None`
        return any(has_json_type(h, value) for h in get_args(hint))
    if hint is type(None):
        return value is None
    if is_dataclass(hint):
        return isinstance(value, dict)
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[get_origin(hint) or hint]):
        return False
    item = get_args(hint)[:1]  # `tuple[float, ...]` -> (float,)
    return not item or all(has_json_type(item[0], v) for v in value)


def check_json_object(what, doc, types, required=()):
    """Return `doc` if it is a JSON object holding every key of `required`,
    no key outside `types`, and each value of its key's type in `types`;
    otherwise raise ConfigError (a ValueError) naming `what`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    missing = sorted(set(required) - doc.keys())
    if missing:
        raise ConfigError(f"{what} lacks keys {missing}")
    unknown = sorted(doc.keys() - types.keys())
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    for key, hint in types.items():
        if key in doc and not has_json_type(hint, doc[key]):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{what} key {key!r} takes {name}, got {doc[key]!r}")
    return doc


@functools.cache
def config_schema(kind):
    """The JSON schema shipped for config kind "run_config" or "scene_config", read once."""
    with open(os.path.join(os.path.dirname(__file__), "schemas", f"{kind}.schema.json")) as fh:
        return json.load(fh)


# Schema bound keyword -> (the test a number must pass, its sign in messages).
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "exclusiveMaximum": (operator.lt, "<")}


def _check_schema_value(name, value, prop):
    """Raise ConfigError unless `value` meets schema property `prop`'s `enum`,
    its item counts and `items` (an array) or its bounds (a number). As in
    JSON schema, a keyword passes a value it does not apply to (a null, an
    object such as a camera entry)."""
    if "enum" in prop and value not in prop["enum"]:
        raise ConfigError(f"{name} must be one of {prop['enum']}, got {value!r}")
    if isinstance(value, (tuple, list)):
        least, most = prop.get("minItems", 0), prop.get("maxItems", math.inf)
        if not least <= len(value) <= most:
            raise ConfigError(f"{name} must hold {least} to {most} items, got {len(value)}")
        for item in value:
            _check_schema_value(f"{name} item", item, prop.get("items", {}))
    elif value is not None:
        for key, (holds, sign) in _BOUNDS.items():
            if key in prop and not holds(value, prop[key]):
                raise ConfigError(f"{name} must be {sign} {prop[key]}, got {value}")


def check_config_values(cfg, schema):
    """Raise ConfigError unless every float of dataclass `cfg`, in a field or
    a tuple field, is finite, and then each field meets its property in
    `schema`. A nested dataclass is left to check itself."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for name, value in values.items():
        if any(isinstance(v, (float, np.floating)) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be finite, got {value}")
    for name, value in values.items():
        _check_schema_value(name, value, schema["properties"][name])


def write_json_file(path, doc):
    """Write `doc` as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_plain_stem(name):
    """Whether a tensor name stays inside its directory as <name>.bin/.json."""
    return isinstance(name, str) and not ("/" in name or "\\" in name or name in ("", ".", ".."))


def save_tensor(directory, name, array):
    """Write one tensor as <name>.bin plus <name>.json under directory."""
    if not _is_plain_stem(name):
        raise ValueError(f"tensor name {name!r} is not a plain file stem")
    arr = np.asarray(array)
    if arr.dtype not in DTYPE_TO_TAG:
        raise ValueError(f"only float32/float64 tensors are dumpable, got {arr.dtype}")
    tag = DTYPE_TO_TAG[arr.dtype]
    payload = np.ascontiguousarray(arr).astype(TAG_TO_DTYPE[tag], copy=False)
    with open(os.path.join(directory, f"{name}.bin"), "wb") as fh:
        fh.write(payload.tobytes(order="C"))
    sidecar = {"name": name, "dtype": tag, "shape": [int(s) for s in arr.shape]}
    with open(os.path.join(directory, f"{name}.json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def load_tensor(directory, name):
    """Read one tensor back; returns a native-order ndarray. The name must
    be a plain file stem, and the sidecar must carry it."""
    if not _is_plain_stem(name):
        raise OSError(f"tensor name {name!r} in {directory} is not a plain file stem")
    dtype, shape = load_json_file(os.path.join(directory, f"{name}.json"),
                                  lambda doc: _parse_sidecar(doc, name))
    with open(os.path.join(directory, f"{name}.bin"), "rb") as fh:
        raw = fh.read()
    expected = int(np.prod(shape)) * dtype.itemsize
    if len(raw) != expected:
        raise OSError(
            f"tensor {name}: payload is {len(raw)} bytes, sidecar shape {shape} needs {expected}"
        )
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return arr.astype(dtype.newbyteorder("="), copy=True)


def _parse_sidecar(doc, name):
    """(dtype, shape) of a sidecar document, which must also name its tensor."""
    check_json_object("sidecar", doc, _SIDECAR_TYPES, required=_SIDECAR_TYPES)
    if doc["name"] != name:
        raise ValueError(f"sidecar names tensor {doc['name']!r}, its file is {name!r}")
    if doc["dtype"] not in TAG_TO_DTYPE:
        raise ValueError(f"unknown dtype tag {doc['dtype']!r}")
    shape = doc["shape"]
    if not has_json_type(tuple[int, ...], shape) or any(s < 0 for s in shape):
        raise ValueError(f"sidecar shape {shape!r} is not a list of non-negative integers")
    return TAG_TO_DTYPE[doc["dtype"]], tuple(shape)


def save_tensor_set(directory, tensors):
    """Dump a {name: array-or-Tensor} mapping plus a manifest listing it."""
    os.makedirs(directory, exist_ok=True)
    names = sorted(tensors)
    for name in names:
        value = tensors[name]
        save_tensor(directory, name, getattr(value, "data", value))
    write_json_file(os.path.join(directory, MANIFEST_NAME), {"tensors": names})


def load_tensor_set(directory):
    """Inverse of `save_tensor_set`: manifest-driven {name: ndarray}."""
    names = load_json_file(os.path.join(directory, MANIFEST_NAME), _parse_manifest)
    return {name: load_tensor(directory, name) for name in names}


def _parse_manifest(doc):
    """The tensor names a manifest lists, each once."""
    names = check_json_object("manifest", doc, _MANIFEST_TYPES, required=_MANIFEST_TYPES)["tensors"]
    if len(set(names)) < len(names):
        raise ValueError(f"manifest lists {sorted({n for n in names if names.count(n) > 1})} more than once")
    return names

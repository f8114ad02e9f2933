"""Config dataclasses: validation gates, JSON round trips, schema documents."""

import copy
import dataclasses
import json
import types
import typing
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import gridpose
from gridpose import (
    AttentionConfig,
    ConfigError,
    RunConfig,
    SceneConfig,
    camera_ring,
    load_json_config,
    run_config_from_json,
    run_config_to_json,
    scene_config_from_json,
    scene_config_to_json,
)

SCHEMA_DIR = Path(gridpose.__file__).parent / "schemas"
SCHEMA_TYPE_NAMES = {int: "integer", float: "number", str: "string", tuple: "array", list: "array",
                     type(None): "null"}


# Keywords of a field property that `tensorio.check_config_values` enforces,
# and those other code handles: `type` is `check_json_object`'s, and an
# object's keys are checked by the parser of that object (a nested config,
# a camera entry).
BOUND_KEYWORDS = {"minimum", "exclusiveMinimum", "exclusiveMaximum"}
RULE_KEYWORDS = BOUND_KEYWORDS | {"enum", "minItems", "maxItems", "items"}
OTHER_KEYWORDS = {"type", "properties", "required", "additionalProperties"}

# Documents that keep the cross-field rules out of a single field's way:
# a person grid no larger than the smallest positive space extent, and one
# head and one-voxel bins, which divide any embed_dim and any grid.
ORACLE_BASES = {
    "scene_config": ({"person_extent": 5e-324}, scene_config_from_json),
    "run_config": ({"attention": {"n_heads": 1, "bin_size": 1}}, run_config_from_json),
}


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def field_properties(schema, path=()):
    """(path, property) of every config field in `schema`, nested configs'
    fields included; a camera entry's keys are not config fields."""
    for name, prop in schema["properties"].items():
        yield path + (name,), prop
        if prop.get("type") == "object":
            yield from field_properties(prop, path + (name,))


def around(prop, bound):
    """One step below, at and one step above `bound` of schema property
    `prop`: +-1 for an integer, the next float either way for a number."""
    kinds = prop.get("type", [])
    if "integer" in ([kinds] if isinstance(kinds, str) else kinds):
        return [bound - 1, bound, bound + 1]
    return [float(np.nextafter(bound, -np.inf)), bound, float(np.nextafter(bound, np.inf))]


def edge_values(prop, fill):
    """Values around each bound of schema property `prop`, each of its
    choices and an unlisted one, arrays one item short of, at and past each
    item count, and arrays whose first item is an edge value of `items`.
    `fill` is a valid item of an array property."""
    values = [v for key in sorted(BOUND_KEYWORDS & prop.keys()) for v in around(prop, prop[key])]
    values += prop.get("enum", []) + (["unlisted"] if "enum" in prop else [])
    for key in sorted({"minItems", "maxItems"} & prop.keys()):
        values += [[fill] * n for n in (prop[key] - 1, prop[key], prop[key] + 1) if n >= 0]
    if "items" in prop:
        rest = [fill] * (prop.get("minItems", 1) - 1)
        values += [[item] + rest for item in edge_values(prop["items"], None)]
    return values


def oracle_cases():
    """(kind, field path, value) at every edge of both schemas' fields."""
    camera = camera_ring(1, 3000.0, 500.0, (0.0, 0.0, 0.0), (64, 64), 100.0)[0].to_json()
    defaults = {"scene_config": scene_config_to_json(SceneConfig()),
                "run_config": run_config_to_json(RunConfig())}
    for kind, default in defaults.items():
        for path, prop in field_properties(load_schema(f"{kind}.schema.json")):
            value = default
            for step in path:
                value = value.get(step)  # an explicit camera list is absent by default
            fill = camera if path == ("cameras",) else (value[0] if isinstance(value, list) else None)
            for i, edge in enumerate(edge_values(prop, fill)):
                yield pytest.param(kind, path, edge, id=f"{kind}:{'.'.join(path)}-{i}")


def json_types(hint):
    """Schema type names of the JSON values a field annotated `hint` holds."""
    if isinstance(hint, types.UnionType):
        return set().union(*(json_types(h) for h in typing.get_args(hint)))
    if dataclasses.is_dataclass(hint):
        return {"object"}
    return {SCHEMA_TYPE_NAMES[typing.get_origin(hint) or hint]}


def schema_types(prop):
    """Type names a schema property allows; an enum lists strings."""
    if "enum" in prop:
        assert all(isinstance(v, str) for v in prop["enum"])
        return {"string"}
    kind = prop["type"]
    return set(kind) if isinstance(kind, list) else {kind}


class TestSceneConfig:
    def test_defaults_valid(self):
        cfg = SceneConfig()
        assert cfg.n_people == 2
        assert cfg.space_extent == (4000.0, 4000.0, 2400.0)
        assert cfg.image_size == (256, 256)

    def test_tuple_coercion(self):
        cfg = SceneConfig(space_extent=[1000, 1000, 800], image_size=[64.0, 48.0],
                          person_extent=800.0)
        assert cfg.space_extent == (1000.0, 1000.0, 800.0)
        assert cfg.image_size == (64, 48)

    @pytest.mark.parametrize("bad", [
        dict(seed=-1),
        dict(n_people=0),
        dict(space_extent=(1000.0, 1000.0)),
        dict(space_extent=(1000.0, -1.0, 800.0)),
        dict(person_extent=0.0),
        dict(person_resolution=1),
        dict(n_cameras=0),
        dict(image_size=(4, 64)),
        dict(focal_px=0.0),
        dict(heatmap_sigma=-1.0),
        dict(noise_std=-0.1),
        dict(dropout_prob=1.0),
        dict(person_extent=5000.0),  # person grid larger than the space
        dict(camera_radius=0.0),
        dict(camera_radius=-1.0),
        dict(n_cameras=0, cameras=camera_ring(2, 3000.0, 500.0, (0.0, 0.0, 0.0), (64, 64), 100.0)),
    ])
    def test_invalid_rejected(self, bad):
        kwargs = dict(space_extent=(4000.0, 4000.0, 2400.0))
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            SceneConfig(**kwargs)

    def test_json_roundtrip(self):
        cfg = SceneConfig(seed=7, n_people=3, space_extent=(6000.0, 6000.0, 2400.0),
                          noise_std=0.05, dropout_prob=0.1)
        doc = scene_config_to_json(cfg)
        assert scene_config_from_json(json.loads(json.dumps(doc))) == cfg

    def test_json_roundtrip_with_explicit_cameras(self):
        cams = camera_ring(2, 3000.0, 500.0, (0.0, 0.0, 0.0), (64, 64), 100.0)
        cfg = SceneConfig(cameras=cams)
        back = scene_config_from_json(scene_config_to_json(cfg))
        assert len(back.cameras) == 2
        np.testing.assert_array_equal(back.cameras[0].rotation, cams[0].rotation)

    def test_unknown_key_rejected(self):
        doc = scene_config_to_json(SceneConfig())
        doc["n_persons"] = 2
        with pytest.raises(ConfigError):
            scene_config_from_json(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            scene_config_from_json([1, 2, 3])

    def test_bad_camera_entry_rejected(self):
        doc = scene_config_to_json(SceneConfig())
        doc["cameras"] = [{"fx": 100.0}]
        with pytest.raises(ConfigError):
            scene_config_from_json(doc)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.optimizer == "adam"
        assert cfg.reorder_mode == "soft"
        assert cfg.np_dtype == np.float64
        assert cfg.attention.bin_size == 128

    def test_grid_length_must_divide_by_bin_size(self):
        # 16^3 = 4096 splits into bins of 64 but not 48
        RunConfig(grid_resolution=16, attention=AttentionConfig(bin_size=64))
        with pytest.raises(ConfigError):
            RunConfig(grid_resolution=16, attention=AttentionConfig(bin_size=48))

    @pytest.mark.parametrize("bad", [
        dict(n_joints=0),
        dict(grid_extent=-1.0),
        dict(grid_resolution=1),
        dict(residual_channels=()),
        dict(residual_channels=(0,)),
        dict(center_source="oracle"),
        dict(reorder_mode="fuzzy"),
        dict(optimizer="rmsprop"),
        dict(grid_extent=float("nan")),
        dict(dtype="f16"),
        dict(train_steps=-1),
        dict(lr=-1e-3),
        dict(coarse_voxel_mm=0.0),
        dict(coarse_voxel_mm=float("nan")),
        dict(coarse_voxel_mm=float("inf")),
        dict(proposal_threshold=-0.1),
        dict(proposal_threshold=float("nan")),
        dict(proposal_threshold=float("inf")),
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(seed=-3),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**bad)

    def test_scalar_residual_channels_promoted(self):
        assert RunConfig(residual_channels=24).residual_channels == (24,)

    def test_grid_factory(self):
        cfg = RunConfig(grid_extent=1600.0, grid_resolution=16)
        grid = cfg.grid(center=(1.0, 2.0, 3.0))
        assert grid.resolution == (16, 16, 16)
        np.testing.assert_array_equal(grid.center, (1.0, 2.0, 3.0))

    def test_json_roundtrip(self):
        cfg = RunConfig(
            attention=AttentionConfig(embed_dim=48, n_heads=4, bin_size=32,
                                      sinkhorn_iters=6, n_layers=2),
            grid_resolution=16, residual_channels=(16, 24), reorder_mode="hard",
            optimizer="sgd", dtype="f32", lr=5e-4, seed=11,
        )
        doc = run_config_to_json(cfg)
        back = run_config_from_json(json.loads(json.dumps(doc)))
        assert back == cfg
        assert back.attention.temperature == cfg.attention.temperature

    def test_unknown_key_rejected(self):
        doc = run_config_to_json(RunConfig())
        doc["learning_rate"] = 0.1
        with pytest.raises(ConfigError):
            run_config_from_json(doc)

    def test_old_loss_key_rejected(self):
        doc = run_config_to_json(RunConfig())
        doc["loss"] = "l1"  # the field is gone; an old run_config.json must drop it
        with pytest.raises(ConfigError, match="unknown run config keys"):
            run_config_from_json(doc)

    def test_unknown_attention_key_rejected(self):
        doc = run_config_to_json(RunConfig())
        doc["attention"]["heads"] = 2
        with pytest.raises(ConfigError):
            run_config_from_json(doc)

    def test_attention_must_be_object(self):
        doc = run_config_to_json(RunConfig())
        doc["attention"] = [1, 2]
        with pytest.raises(ConfigError):
            run_config_from_json(doc)


class TestJsonTypes:
    """Each value must have the JSON type of its field's declaration."""

    @pytest.mark.parametrize("parse, doc", [
        (run_config_from_json, {"seed": True}),  # bool is never a number
        (run_config_from_json, {"lr": False}),
        (run_config_from_json, {"n_joints": 15.0}),
        (run_config_from_json, {"grid_extent": "2000"}),
        (run_config_from_json, {"optimizer": 1}),
        (run_config_from_json, {"residual_channels": 32}),
        (run_config_from_json, {"residual_channels": [32.0]}),
        (run_config_from_json, {"attention": None}),
        (run_config_from_json, {"attention": {"temperature": "hot"}}),
        (run_config_from_json, {"attention": {"bin_size": [64]}}),
        (scene_config_from_json, {"space_extent": "4000"}),
        (scene_config_from_json, {"space_extent": [4000, 4000, None]}),
        (scene_config_from_json, {"image_size": [64.5, 64]}),
        (scene_config_from_json, {"cameras": {}}),
        (scene_config_from_json, {"dropout_prob": None}),
    ])
    def test_mistyped_value_rejected(self, parse, doc):
        with pytest.raises(ConfigError, match="takes"):
            parse(doc)

    @pytest.mark.parametrize("change", [
        {"fx": "100"}, {"cy": None}, {"fy": True}, {"width": 64.7}, {"height": 64.0},
        {"width": False}, {"R": [1, 0, 0, 0, 1, 0, 0, 0, "1"]}, {"t": [0, 0, True]}, {"t": 0},
    ])
    def test_mistyped_camera_value_rejected(self, change):
        entry = dict(camera_ring(1, 3000.0, 500.0, (0.0, 0.0, 0.0), (64, 64), 100.0)[0].to_json(), **change)
        with pytest.raises(ConfigError, match="takes"):
            scene_config_from_json({"cameras": [entry]})

    @pytest.mark.parametrize("change, match", [
        ({"skew": 0.0}, "unknown"), ({"fx": float("nan")}, "finite"), ({"t": [0, 0, float("inf")]}, "finite"),
    ])
    def test_unknown_or_non_finite_camera_value_rejected(self, change, match):
        entry = dict(camera_ring(1, 3000.0, 500.0, (0.0, 0.0, 0.0), (64, 64), 100.0)[0].to_json(), **change)
        with pytest.raises(ConfigError, match=match):
            scene_config_from_json({"cameras": [entry]})

    def test_integer_camera_numbers_load_as_floats(self):
        entry = dict(camera_ring(1, 3000.0, 500.0, (0.0, 0.0, 0.0), (64, 64), 100.0)[0].to_json(), fx=100, cx=32)
        cam = scene_config_from_json({"cameras": [entry]}).cameras[0]
        assert cam.to_json() == dict(entry, fx=100.0, cx=32.0)
        assert type(cam.fx) is float and type(cam.image_width) is int

    def test_integers_fill_float_fields_and_null_fills_optional_ones(self):
        cfg = run_config_from_json({"lr": 0, "attention": {"temperature": None, "embed_dim": 16}})
        assert cfg.lr == 0 and cfg.attention.temperature == 4.0
        assert scene_config_from_json({"space_center": [1, 2, 3], "cameras": None}).cameras is None

    @pytest.mark.parametrize("key", ["camera_radius", "camera_height", "focal_px", "heatmap_sigma",
                                     "noise_std", "person_extent"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scene_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match="finite"):
            SceneConfig(**{key: value})

    @pytest.mark.parametrize("text", ['{"attention": {"temperature": NaN}}',
                                      '{"attention": {"temperature": Infinity}}',
                                      '{"attention": {"temperature": -Infinity}}'])
    def test_non_finite_attention_value_rejected(self, text):
        with pytest.raises(ConfigError, match="temperature must be finite"):
            run_config_from_json(json.loads(text))


class TestLoadJsonConfig:
    def test_loads_and_parses(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_config_to_json(SceneConfig(seed=3))))
        cfg = load_json_config(path, scene_config_from_json)
        assert cfg.seed == 3

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"seed\": }")
        with pytest.raises(ConfigError):
            load_json_config(path, scene_config_from_json)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_json_config(tmp_path / "absent.json", scene_config_from_json)


class TestSchemas:
    def test_schemas_are_valid_documents(self):
        for name in ("run_config.schema.json", "scene_config.schema.json"):
            jsonschema.Draft202012Validator.check_schema(load_schema(name))

    def test_default_configs_validate(self):
        jsonschema.validate(run_config_to_json(RunConfig()),
                            load_schema("run_config.schema.json"))
        jsonschema.validate(scene_config_to_json(SceneConfig()),
                            load_schema("scene_config.schema.json"))

    def test_schema_rejects_unknown_key(self):
        doc = run_config_to_json(RunConfig())
        doc["warmup"] = 10
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, load_schema("run_config.schema.json"))

    def test_schema_rejects_bad_enum(self):
        doc = run_config_to_json(RunConfig())
        doc["optimizer"] = "lbfgs"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, load_schema("run_config.schema.json"))

    @pytest.mark.parametrize("name, doc", [
        ("run_config.schema.json", run_config_to_json(RunConfig())),
        ("scene_config.schema.json", scene_config_to_json(SceneConfig())),
    ])
    def test_schema_rejects_negative_seed(self, name, doc):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(dict(doc, seed=-1), load_schema(name))

    def assert_schema_matches(self, cls, schema):
        """Same keys as `cls`'s fields, and each key's schema type matches
        the field's declared type (element types of tuples, nested objects)."""
        hints = typing.get_type_hints(cls)
        assert set(schema["properties"]) == {f.name for f in dataclasses.fields(cls)}
        for name, prop in schema["properties"].items():
            hint = hints[name]
            assert schema_types(prop) == json_types(hint), name
            if typing.get_origin(hint) is tuple:
                assert schema_types(prop["items"]) == json_types(typing.get_args(hint)[0]), name
            if dataclasses.is_dataclass(hint):
                self.assert_schema_matches(hint, prop)

    def test_schema_and_parser_agree_on_scene_fields(self):
        self.assert_schema_matches(SceneConfig, load_schema("scene_config.schema.json"))

    def test_schema_and_parser_agree_on_run_and_attention_fields(self):
        self.assert_schema_matches(RunConfig, load_schema("run_config.schema.json"))

    @pytest.mark.parametrize("kind", ["scene_config", "run_config"])
    def test_every_field_keyword_is_enforced(self, kind):
        """A keyword added to a schema later must be taught to the rule."""
        for path, prop in field_properties(load_schema(f"{kind}.schema.json")):
            for keywords in (prop.keys(), prop.get("items", {}).keys()):
                assert keywords <= RULE_KEYWORDS | OTHER_KEYWORDS, (path, keywords - RULE_KEYWORDS)

    @pytest.mark.parametrize("kind, path, value", oracle_cases())
    def test_parser_rejects_exactly_what_the_schema_rejects(self, kind, path, value):
        base, parse = ORACLE_BASES[kind]
        doc = copy.deepcopy(base)
        obj = doc
        for step in path[:-1]:
            obj = obj.setdefault(step, {})
        obj[path[-1]] = value
        schema_rejects = not jsonschema.Draft202012Validator(load_schema(f"{kind}.schema.json")).is_valid(doc)
        try:
            parse(doc)
        except ConfigError:
            assert schema_rejects, doc
        else:
            assert not schema_rejects, doc

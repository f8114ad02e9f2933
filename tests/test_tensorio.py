"""Raw tensor dump format: byte layout, sidecars, and failure modes."""

import json
import struct

import numpy as np
import pytest

from gridpose import Tensor, load_tensor, load_tensor_set, save_tensor, save_tensor_set


class TestSingleTensor:
    def test_f64_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4, 5))
        save_tensor(tmp_path, "weights", arr)
        back = load_tensor(tmp_path, "weights")
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)

    def test_f32_roundtrip_exact(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(7,)).astype(np.float32)
        save_tensor(tmp_path, "w", arr)
        back = load_tensor(tmp_path, "w")
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_payload_is_little_endian_row_major(self, tmp_path):
        arr = np.array([[1.5, -2.25], [3.125, 4.0]])
        save_tensor(tmp_path, "t", arr)
        raw = (tmp_path / "t.bin").read_bytes()
        assert raw == struct.pack("<4d", 1.5, -2.25, 3.125, 4.0)

    def test_sidecar_fields(self, tmp_path):
        save_tensor(tmp_path, "t", np.zeros((2, 3), dtype=np.float32))
        sidecar = json.loads((tmp_path / "t.json").read_text())
        assert sidecar == {"name": "t", "dtype": "f32", "shape": [2, 3]}

    def test_scalar_and_empty_shapes(self, tmp_path):
        save_tensor(tmp_path, "s", np.float64(2.5))
        assert load_tensor(tmp_path, "s").shape == ()
        save_tensor(tmp_path, "e", np.zeros((0, 3)))
        assert load_tensor(tmp_path, "e").shape == (0, 3)

    def test_non_contiguous_input(self, tmp_path):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        save_tensor(tmp_path, "v", arr)
        np.testing.assert_array_equal(load_tensor(tmp_path, "v"), arr)

    def test_name_with_separator_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensor(tmp_path, "a/b", np.zeros(3))
        with pytest.raises(ValueError):
            save_tensor(tmp_path, "..", np.zeros(3))

    def test_integer_array_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensor(tmp_path, "i", np.arange(4))

    def test_truncated_payload_raises_oserror(self, tmp_path):
        save_tensor(tmp_path, "t", np.zeros((4, 4)))
        payload = (tmp_path / "t.bin").read_bytes()
        (tmp_path / "t.bin").write_bytes(payload[:-8])
        with pytest.raises(OSError):
            load_tensor(tmp_path, "t")

    def test_unknown_dtype_tag_raises_oserror(self, tmp_path):
        save_tensor(tmp_path, "t", np.zeros(2))
        sidecar = json.loads((tmp_path / "t.json").read_text())
        sidecar["dtype"] = "f16"
        (tmp_path / "t.json").write_text(json.dumps(sidecar))
        with pytest.raises(OSError):
            load_tensor(tmp_path, "t")

    def test_corrupt_sidecar_raises_oserror(self, tmp_path):
        save_tensor(tmp_path, "t", np.zeros(2))
        (tmp_path / "t.json").write_text("{not json")
        with pytest.raises(OSError):
            load_tensor(tmp_path, "t")

    def test_sidecar_naming_another_tensor_raises_oserror(self, tmp_path):
        save_tensor(tmp_path, "a", np.zeros(2))
        (tmp_path / "a.json").write_text(json.dumps({"name": "zzz", "dtype": "f64", "shape": [2]}))
        with pytest.raises(OSError, match="'zzz'"):
            load_tensor(tmp_path, "a")

    # each shape's element count matches its payload: -3 x -5 fits 15
    # entries, and 2.7 or true once read as 2 or 1 fit 8
    @pytest.mark.parametrize("shape,size", [([-3, -5], 15), ([2.7, 4], 8), ([True, 8], 8)],
                             ids=["negative", "float", "bool"])
    def test_malformed_sidecar_shape_raises_oserror(self, tmp_path, shape, size):
        save_tensor(tmp_path, "t", np.zeros(size))
        (tmp_path / "t.json").write_text(json.dumps({"name": "t", "dtype": "f64", "shape": shape}))
        with pytest.raises(OSError, match="non-negative integers"):
            load_tensor(tmp_path, "t")

    def test_missing_sidecar_field_raises_oserror(self, tmp_path):
        save_tensor(tmp_path, "t", np.zeros(2))
        (tmp_path / "t.json").write_text(json.dumps({"name": "t", "dtype": "f64"}))
        with pytest.raises(OSError):
            load_tensor(tmp_path, "t")


class TestTensorSet:
    def test_roundtrip_with_manifest(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {
            "conv_w": rng.normal(size=(2, 1, 3, 3, 3)),
            "conv_b": rng.normal(size=(2,)),
            "embed": rng.normal(size=(5, 4)).astype(np.float32),
        }
        save_tensor_set(tmp_path / "set", tensors)
        manifest = json.loads((tmp_path / "set" / "manifest.json").read_text())
        assert manifest == {"tensors": ["conv_b", "conv_w", "embed"]}
        back = load_tensor_set(tmp_path / "set")
        assert set(back) == set(tensors)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(back[name], arr)
            assert back[name].dtype == arr.dtype

    def test_accepts_autodiff_tensors(self, tmp_path):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        save_tensor_set(tmp_path / "set", {"param": t})
        np.testing.assert_array_equal(load_tensor_set(tmp_path / "set")["param"], t.data)

    def test_missing_listed_tensor_raises_oserror(self, tmp_path):
        save_tensor_set(tmp_path / "set", {"a": np.zeros(2)})
        (tmp_path / "set" / "manifest.json").write_text(json.dumps({"tensors": ["a", "b"]}))
        with pytest.raises(OSError):
            load_tensor_set(tmp_path / "set")

    @pytest.mark.parametrize("tensors, match", [
        ("ab", "manifest key 'tensors' takes"),  # a string is not a list of names
        (["a", "a"], r"manifest lists \['a'\] more than once"),
        (["a", 1], "manifest key 'tensors' takes"),
    ], ids=["string", "repeated", "non-string"])
    def test_manifest_lists_distinct_names(self, tmp_path, tensors, match):
        save_tensor_set(tmp_path / "set", {"a": np.zeros(2), "b": np.ones(2)})
        (tmp_path / "set" / "manifest.json").write_text(json.dumps({"tensors": tensors}))
        with pytest.raises(OSError, match=match):
            load_tensor_set(tmp_path / "set")

    def test_manifest_name_outside_directory_raises_oserror(self, tmp_path):
        # a well-formed tensor one level up must not be reachable through the manifest
        save_tensor(tmp_path, "run", np.zeros(2))
        save_tensor_set(tmp_path / "set", {"a": np.zeros(2)})
        (tmp_path / "set" / "manifest.json").write_text(json.dumps({"tensors": ["a", "../run"]}))
        with pytest.raises(OSError, match="not a plain file stem"):
            load_tensor_set(tmp_path / "set")

    def test_missing_manifest_raises_oserror(self, tmp_path):
        (tmp_path / "set").mkdir()
        with pytest.raises(OSError):
            load_tensor_set(tmp_path / "set")

    def test_corrupt_manifest_raises_oserror(self, tmp_path):
        (tmp_path / "set").mkdir()
        (tmp_path / "set" / "manifest.json").write_text("[broken")
        with pytest.raises(OSError):
            load_tensor_set(tmp_path / "set")

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waterfallpose import dataio as D
from waterfallpose.config import parse_config
from waterfallpose.decode import PoseInstance
from waterfallpose.model import init_model_weights, weight_shapes

K17 = ["kp%d" % i for i in range(17)]


def minimal_doc(k_names=None, keypoints=None):
    k_names = k_names or K17
    keypoints = keypoints if keypoints is not None else \
        [v for i in range(len(k_names)) for v in (float(i), float(i + 1), 2)]
    return {
        "source": "coco",
        "images": [{"id": 1, "file_name": "a.ppm", "height": 64, "width": 64}],
        "annotations": [{"id": 10, "image_id": 1, "area": 120.0,
                         "bbox": [1, 2, 30, 40], "keypoints": keypoints}],
        "categories": [{"id": 1, "name": "person", "keypoints": k_names}],
    }


class TestAnnotations:
    def test_minimal_parse(self):
        ds = D.parse_annotations(json.dumps(minimal_doc()))
        assert ds.num_keypoints == 17
        assert len(ds.annotations[1]) == 1
        ann = ds.annotations[1][0]
        assert all(kp[2] == 2 for kp in ann.keypoints)
        assert ann.area == 120.0

    def test_wrong_arity_names_annotation(self):
        doc = minimal_doc(keypoints=[0.0] * 50)
        with pytest.raises(D.FormatError, match=r"annotations\[id=10\].*50.*51"):
            D.parse_annotations(json.dumps(doc))

    def test_unknown_image_rejected(self):
        doc = minimal_doc()
        doc["annotations"][0]["image_id"] = 99
        with pytest.raises(D.FormatError, match="unknown image"):
            D.parse_annotations(json.dumps(doc))

    def test_crowd_index_propagates(self):
        doc = minimal_doc()
        doc["images"][0]["crowd_index"] = 0.4
        ds = D.parse_annotations(json.dumps(doc))
        assert ds.annotations[1][0].crowd_index == 0.4

    def test_round_trip_identity(self):
        doc = minimal_doc()
        doc["images"][0]["crowd_index"] = 0.25
        text = json.dumps(doc)
        once = D.serialize_annotations(D.parse_annotations(text))
        twice = D.serialize_annotations(D.parse_annotations(once))
        assert once == twice

    def test_fuzzed_garbage_gives_format_errors(self, rng):
        samples = [b"", b"{", b"[]", b'{"images": 3}', b"\x00\xff\x10",
                   json.dumps({"images": [], "annotations": [],
                               "categories": []}).encode()]
        for raw in samples:
            with pytest.raises(D.FormatError):
                D.parse_annotations(raw.decode("utf-8", errors="replace"))

    def test_null_keypoint_value_rejected(self):
        kps = [None, 0.0, 2] + [0.0, 0.0, 2] * 16
        with pytest.raises(D.FormatError, match=r"annotations\[id=10\].*number"):
            D.parse_annotations(json.dumps(minimal_doc(keypoints=kps)))

    def test_integer_beyond_float_range_rejected(self):
        doc = minimal_doc()
        doc["annotations"][0]["area"] = 10 ** 400
        with pytest.raises(D.FormatError, match=r"annotations\[id=10\].*out of range"):
            D.parse_annotations(json.dumps(doc))

    def test_non_object_image_rejected(self):
        doc = minimal_doc()
        doc["images"] = [5]
        with pytest.raises(D.FormatError, match=r"images\[0\].*object"):
            D.parse_annotations(json.dumps(doc))

    def test_non_object_annotation_rejected(self):
        doc = minimal_doc()
        doc["annotations"] = [7]
        with pytest.raises(D.FormatError, match=r"annotations\[0\].*object"):
            D.parse_annotations(json.dumps(doc))

    def test_categories_as_object_rejected(self):
        doc = minimal_doc()
        doc["categories"] = doc["categories"][0]
        with pytest.raises(D.FormatError, match="categories"):
            D.parse_annotations(json.dumps(doc))

    def test_bad_visibility_flag(self):
        kps = [0.0, 0.0, 7] * 17
        with pytest.raises(D.FormatError, match="visibility"):
            D.parse_annotations(json.dumps(minimal_doc(keypoints=kps)))

    def test_over_long_integer_rejected(self):
        text = json.dumps(minimal_doc()).replace('"area": 120.0', '"area": ' + "1" * 5001)
        with pytest.raises(D.FormatError, match="not valid JSON"):
            D.parse_annotations(text)

    def test_nesting_too_deep_to_decode_rejected(self):
        with pytest.raises(D.FormatError, match="not valid JSON.*recursion"):
            D.parse_annotations("[" * 200_000)

    def test_huge_value_is_echoed_cut_short(self):
        doc = minimal_doc()
        doc["annotations"][0]["area"] = "0" * 1_000_000
        with pytest.raises(D.FormatError, match=r"expected a number, got '000") as err:
            D.parse_annotations(json.dumps(doc))
        assert len(str(err.value)) <= 300
        assert "(1000002 characters)" in str(err.value)

    def test_deeply_nested_id_is_named_cut_short(self):
        nested = "[" * 950 + "]" * 950
        text = json.dumps(minimal_doc()).replace('"id": 1,', f'"id": {nested},', 1)
        with pytest.raises(D.FormatError, match=r"images\[id=\[\[\[") as err:
            D.parse_annotations(text)
        assert len(str(err.value)) <= 300
        assert str(err.value).count("[") <= 200

    @pytest.mark.parametrize("field,value", [("id", 0.5), ("height", 4.9)])
    def test_non_integral_image_field_rejected(self, field, value):
        doc = minimal_doc()
        doc["images"][0][field] = value
        with pytest.raises(D.FormatError, match=r"images\[.*expected an integer"):
            D.parse_annotations(json.dumps(doc))

    def test_integral_float_is_an_integer(self):
        doc = minimal_doc()
        doc["images"][0]["id"] = 1.0
        doc["annotations"][0]["image_id"] = 1.0
        ds = D.parse_annotations(json.dumps(doc))
        assert ds.images[0].id == 1 and type(ds.images[0].id) is int
        assert len(ds.annotations[1]) == 1

    def test_ids_above_float_precision_stay_distinct(self):
        doc = minimal_doc()
        first = doc["images"][0]
        doc["images"] = [dict(first, id=2 ** 53), dict(first, id=2 ** 53 + 1)]
        doc["annotations"][0]["image_id"] = 2 ** 53 + 1
        ds = D.parse_annotations(json.dumps(doc))
        assert [img.id for img in ds.images] == [2 ** 53, 2 ** 53 + 1]
        assert len(ds.annotations[2 ** 53 + 1]) == 1 and not ds.annotations[2 ** 53]

    @pytest.mark.parametrize("value", [None, ["x"], 3])
    def test_non_string_file_name_rejected(self, value):
        doc = minimal_doc()
        doc["images"][0]["file_name"] = value
        with pytest.raises(D.FormatError, match=r"images\[id=1\].*string"):
            D.parse_annotations(json.dumps(doc))

    @pytest.mark.parametrize("value", [None, 3, ["x"]])
    def test_non_string_keypoint_name_rejected(self, value):
        names = K17[:1] + [value] + K17[2:]
        with pytest.raises(D.FormatError, match=r"categories\[0\] keypoints\[1\].*string"):
            D.parse_annotations(json.dumps(minimal_doc(k_names=names)))

    def test_serialize_needs_one_id_per_annotation(self):
        ds = D.parse_annotations(json.dumps(minimal_doc()))
        without_ids = D.Dataset(ds.images, ds.annotations, ds.keypoint_names)
        with pytest.raises(ValueError, match="image 1: 1 annotations, 0 ids"):
            D.serialize_annotations(without_ids)


class TestTensorDump:
    def test_round_trip(self, rng):
        t = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        data = D.write_tensor(t)
        back, used = D.read_tensor(data)
        assert used == len(data)
        np.testing.assert_array_equal(back, t)
        assert D.write_tensor(back) == data

    def test_smallest_dump_layout(self):
        data = D.write_tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        assert len(data) == 4 + 16 + 4
        assert data[:4] == b"BAT1"
        assert np.frombuffer(data[4:20], dtype="<u4").tolist() == [1, 1, 1, 1]

    def test_bad_magic_rejected(self):
        with pytest.raises(D.FormatError, match="magic"):
            D.read_tensor(b"NOPE" + b"\x00" * 30)

    def test_truncated_rejected(self, rng):
        data = D.write_tensor(rng.standard_normal((1, 2, 2, 2)).astype(np.float32))
        with pytest.raises(D.FormatError, match="truncated"):
            D.read_tensor(data[:-3])

    def test_overflowing_extents_rejected(self):
        data = b"BAT1" + np.array([65536] * 4, dtype="<u4").tobytes() + b"\x00" * 8
        with pytest.raises(D.FormatError, match="truncated"):
            D.read_tensor(data)

    @pytest.mark.parametrize("shape", [(2 ** 24 + 1, 2 ** 24, 2 ** 24, 0),
                                       (2 ** 31, 2 ** 30, 1, 0),
                                       (2 ** 32 - 1, 2 ** 32 - 1, 0, 2 ** 32 - 1)])
    def test_empty_tensor_with_huge_extents_rejected(self, shape):
        data = b"BAT1" + np.array(shape, dtype="<u4").tobytes()
        with pytest.raises(D.FormatError, match="too large"):
            D.read_tensor(data)

    def test_largest_empty_tensor_reads(self):
        # 4 bytes per value times the extents, zeros counted as one, is the
        # largest size an array index can reach
        shape = (2 ** 31, 2 ** 30 - 1, 1, 0)
        back, used = D.read_tensor(b"BAT1" + np.array(shape, dtype="<u4").tobytes())
        assert back.shape == shape and used == 20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, value):
        t = np.zeros((1, 1, 2, 2), dtype=np.float32)
        t[0, 0, 1, 0] = value
        with pytest.raises(D.FormatError, match="non-finite"):
            D.read_tensor(D.write_tensor(t))


class TestPpm:
    def test_white_pixel(self):
        img = D.read_image_ppm(b"P6\n1 1\n255\n\xff\xff\xff")
        np.testing.assert_array_equal(img, np.ones((1, 3, 1, 1), dtype=np.float32))

    def test_two_pixel_layout(self):
        img = D.read_image_ppm(b"P6\n2 1\n255\n\xff\x00\x00\x00\x00\xff")
        np.testing.assert_array_equal(img[0, 0, 0], [1.0, 0.0])  # red plane
        np.testing.assert_array_equal(img[0, 2, 0], [0.0, 1.0])  # blue plane

    def test_ascii_p3_rejected(self):
        with pytest.raises(D.FormatError, match="P6"):
            D.read_image_ppm(b"P3\n1 1\n255\n255 255 255\n")

    def test_wrong_maxval_rejected(self):
        with pytest.raises(D.FormatError, match="maxval"):
            D.read_image_ppm(b"P6\n1 1\n65535\n\xff\xff\xff\xff\xff\xff")

    def test_empty_image_rejected(self):
        with pytest.raises(D.FormatError, match="0x0"):
            D.read_image_ppm(b"P6\n0 0\n255\n")

    def test_non_numeric_header_rejected(self):
        with pytest.raises(D.FormatError, match="decimal"):
            D.read_image_ppm(b"P6\n1 x\n255\n\xff\xff\xff")

    def test_write_read_round_trip(self, rng):
        img = (rng.integers(0, 256, size=(1, 3, 5, 7)) / 255.0).astype(np.float32)
        data = D.write_image_ppm(img)
        back = D.read_image_ppm(data)
        np.testing.assert_allclose(back, img, atol=1e-7)
        assert D.write_image_ppm(back) == data

    def test_comment_in_header(self):
        img = D.read_image_ppm(b"P6\n# a comment\n1 1\n255\n\x00\x80\xff")
        assert img.shape == (1, 3, 1, 1)


class TestCheckpoint:
    def _weights(self, rng):
        return {"a.w": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
                "a.b": rng.standard_normal(2).astype(np.float32)}

    def test_round_trip_bitwise(self, rng):
        w = self._weights(rng)
        optim = {"step": 7,
                 "m": {k: (0.1 * v).astype(np.float32) for k, v in w.items()},
                 "v": {k: (v * v).astype(np.float32) for k, v in w.items()}}
        blob = D.save_checkpoint(w, optim, epoch=12, fingerprint="f" * 16)
        w2, optim2, epoch, fp = D.load_checkpoint(blob)
        assert epoch == 12 and fp == "f" * 16
        assert optim2["step"] == 7
        for k in w:
            np.testing.assert_array_equal(w2[k], w[k])
            assert w2[k].shape == w[k].shape
            np.testing.assert_array_equal(optim2["m"][k], optim["m"][k])
        assert D.save_checkpoint(w2, optim2, epoch=12, fingerprint="f" * 16) == blob

    def test_fingerprint_mismatch_rejected(self, rng):
        blob = D.save_checkpoint(self._weights(rng), None, 0, fingerprint="aaa")
        with pytest.raises(D.FormatError, match="different configuration"):
            D.load_checkpoint(blob, expected_fingerprint="bbb")

    def test_bad_magic(self):
        with pytest.raises(D.FormatError, match="magic"):
            D.load_checkpoint(b"XXXX" + b"\x00" * 40)

    def test_version_mismatch(self, rng):
        blob = bytearray(D.save_checkpoint(self._weights(rng), None, 0, "fp"))
        blob[4] = 99
        with pytest.raises(D.FormatError, match="version"):
            D.load_checkpoint(bytes(blob))

    def test_every_prefix_is_format_error(self, rng):
        w = self._weights(rng)
        optim = {"step": 1, "m": w, "v": w}
        blob = D.save_checkpoint(w, optim, 2, "fp")
        for end in range(len(blob)):
            with pytest.raises(D.FormatError):
                D.load_checkpoint(blob[:end])

    def test_every_byte_mutation_loads_or_is_format_error(self, rng):
        w = self._weights(rng)
        blob = D.save_checkpoint(w, {"step": 7, "m": w, "v": w}, 2, "fp")
        for pos in range(len(blob)):
            for value in (0x00, 0x7F, 0xFF, ord('"')):
                mutated = bytearray(blob)
                mutated[pos] = value
                try:
                    D.load_checkpoint(bytes(mutated))
                except D.FormatError:
                    pass

    @pytest.mark.parametrize("entry", ["weights/a.b", "optim/m/a.w", "optim/v/a.b"])
    def test_non_finite_entry_rejected(self, rng, entry):
        w = self._weights(rng)
        optim = {"step": 3, "m": {k: v.copy() for k, v in w.items()},
                 "v": {k: v * v for k, v in w.items()}}
        group, name = entry.rsplit("/", 1)
        {"weights": w, "optim/m": optim["m"], "optim/v": optim["v"]}[group][name].flat[1] \
            = np.inf
        blob = D.save_checkpoint(w, optim, 2, "fp")
        with pytest.raises(D.FormatError, match=f"entry '{entry}'.*non-finite"):
            D.load_checkpoint(blob)

    def test_over_long_integer_in_shape_table_rejected(self):
        meta = '{"weights/a.b": [' + "1" * 5001 + ']}'
        blob = (D.CHECKPOINT_MAGIC + struct.pack("<II", D.CHECKPOINT_VERSION, 0)
                + D._pack_str("fp") + D._pack_str(meta) + struct.pack("<I", 0))
        with pytest.raises(D.FormatError, match="shape table"):
            D.load_checkpoint(blob)

    def test_nesting_too_deep_in_shape_table_rejected(self):
        blob = (D.CHECKPOINT_MAGIC + struct.pack("<II", D.CHECKPOINT_VERSION, 0)
                + D._pack_str("fp") + D._pack_str("[" * 200_000) + struct.pack("<I", 0))
        with pytest.raises(D.FormatError, match="shape table is not valid JSON.*recursion"):
            D.load_checkpoint(blob)

    def test_no_optimizer_state(self, rng):
        blob = D.save_checkpoint(self._weights(rng), None, 3, "fp")
        _, optim, epoch, _ = D.load_checkpoint(blob)
        assert optim is None and epoch == 3

    @staticmethod
    def _blob(names):
        # a checkpoint whose entries are written in the given order
        t = D.write_tensor(np.ones((1, 1, 1, 2), dtype=np.float32))
        return b"".join([D.CHECKPOINT_MAGIC, struct.pack("<II", D.CHECKPOINT_VERSION, 0),
                         D._pack_str("fp"), D._pack_str("{}"),
                         struct.pack("<I", len(names))]
                        + [D._pack_str(name) + t for name in names])

    def test_repeated_entry_rejected(self):
        name = "weights/backbone.level0.0.b"
        assert D.load_checkpoint(self._blob([name, name + "x"]))[0]
        second = len(self._blob([name]))     # where the second entry starts
        with pytest.raises(D.FormatError, match=f"entry '{name}' at byte {second} is repeated"):
            D.load_checkpoint(self._blob([name, name]))

    def test_unsorted_entries_rejected(self):
        with pytest.raises(D.FormatError, match="entry 'weights/a.b' at byte .* out of order"):
            D.load_checkpoint(self._blob(["weights/a.w", "weights/a.b"]))

    def test_trailing_bytes_rejected(self, rng):
        blob = D.save_checkpoint(self._weights(rng), None, 3, "fp")
        with pytest.raises(D.FormatError, match=f"trailing bytes from byte {len(blob)} on"):
            D.load_checkpoint(blob + b"garbage")


def _outcome(load):
    """What a load gives: every entry's shape, dtype and bytes, or the
    FormatError's message."""
    try:
        weights, optim, epoch, fingerprint = load()
    except D.FormatError as e:
        return str(e)
    tensors = dict(weights)
    if optim is not None:
        tensors.update({f"{g}/{k}": v for g in ("m", "v") for k, v in optim[g].items()})
        tensors["step"] = optim["step"]
    return epoch, fingerprint, {k: (v.shape, v.dtype.str, v.tobytes()) if
                                isinstance(v, np.ndarray) else v for k, v in tensors.items()}


class TestCheckpointStream:
    """A checkpoint file on disk loads as its bytes do, tensor by tensor."""

    @pytest.fixture
    def disk(self, tmp_path):
        """load(data): load_checkpoint of data written to an open file on disk."""
        with open(tmp_path / "ckpt.bin", "w+b") as f:
            def load(data):
                f.seek(0)
                f.truncate()
                f.write(data)
                f.flush()
                f.seek(0)
                return D.load_checkpoint(f)
            yield load

    @staticmethod
    def _blob(rng):
        w = {"a.w": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
             "a.b": rng.standard_normal(2).astype(np.float32)}
        return D.save_checkpoint(w, {"step": 7, "m": w, "v": w}, 2, "fp")

    def test_file_and_bytes_load_bitwise_equal(self, disk):
        got = _outcome(lambda: disk(_CHECKPOINT))
        assert not isinstance(got, str) and got == _outcome(lambda: D.load_checkpoint(_CHECKPOINT))
        assert len(got[2]) == 2 * 3 + 1

    def test_every_prefix_is_the_same_format_error(self, disk, rng):
        blob = self._blob(rng)
        for end in range(len(blob)):
            got = _outcome(lambda: disk(blob[:end]))
            assert isinstance(got, str) and got == _outcome(lambda: D.load_checkpoint(blob[:end]))

    def test_every_byte_mutation_has_the_same_outcome(self, disk, rng):
        blob = self._blob(rng)
        for pos in range(len(blob)):
            for value in (0x00, 0x7F, 0xFF, ord('"')):
                mutated = bytearray(blob)
                mutated[pos] = value
                assert _outcome(lambda: disk(bytes(mutated))) == \
                    _outcome(lambda: D.load_checkpoint(bytes(mutated)))

    def test_forged_extent_is_refused_before_allocating(self, tmp_path):
        # a 1 MB file whose first entry claims a 1 GiB payload
        blob = D.save_checkpoint({"a": np.ones(2, dtype=np.float32),
                                  "b": np.zeros(2 ** 18, dtype=np.float32)}, None, 0, "fp")
        at = blob.index(D.TENSOR_MAGIC) + 4
        forged = blob[:at] + struct.pack("<4I", 1, 1, 1, 2 ** 28) + blob[at + 16:]
        (tmp_path / "forged.bin").write_bytes(forged)
        tracemalloc.start()
        try:
            with open(tmp_path / "forged.bin", "rb") as f, pytest.raises(
                    D.FormatError, match="entry 'weights/a': tensor dump truncated"):
                D.load_checkpoint(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(forged) / 4

    def test_read_from_where_the_stream_stands(self, tmp_path):
        (tmp_path / "ckpt.bin").write_bytes(b"junk" + _CHECKPOINT)
        with open(tmp_path / "ckpt.bin", "rb") as f:
            f.seek(4)
            got = _outcome(lambda: D.load_checkpoint(f))
        assert got == _outcome(lambda: D.load_checkpoint(_CHECKPOINT))


class TestResults:
    def test_round_trip(self):
        insts = {1: [PoseInstance([(1.0, 2.0, 0.9), (3.0, 4.0, 0.8)], 0.85)],
                 2: []}
        text = D.write_results(insts)
        back = D.parse_results(text, 2)
        assert back[1][0].score == 0.85
        assert back[1][0].keypoints.tolist() == [[1.0, 2.0, 0.9], [3.0, 4.0, 0.8]]
        assert D.write_results(back) == text

    def test_empty_results_valid(self):
        assert D.parse_results(D.write_results({}), 5) == {}

    def test_malformed_score_rejected(self):
        text = json.dumps([{"image_id": 1, "keypoints": [0, 0, 0], "score": "high"}])
        with pytest.raises(D.FormatError, match="score"):
            D.parse_results(text, 1)

    def test_non_object_record_rejected(self):
        with pytest.raises(D.FormatError, match=r"results\[0\].*object"):
            D.parse_results("[5]", 1)

    def test_null_keypoints_rejected(self):
        text = json.dumps([{"image_id": 1, "keypoints": None, "score": 0.5}])
        with pytest.raises(D.FormatError, match="keypoints"):
            D.parse_results(text, 1)

    def test_boolean_score_rejected(self):
        text = json.dumps([{"image_id": 1, "keypoints": [0, 0, 0], "score": True}])
        with pytest.raises(D.FormatError, match="score"):
            D.parse_results(text, 1)

    @pytest.mark.parametrize("field", ["image_id", "keypoints", "score"])
    def test_integer_beyond_float_range_rejected(self, field):
        rec = {"image_id": 1, "keypoints": [0, 0, 0], "score": 0.5}
        huge = 10 ** 400
        rec[field] = [0, huge, 0] if field == "keypoints" else huge
        with pytest.raises(D.FormatError, match="out of range"):
            D.parse_results(json.dumps([rec]), 1)

    def test_wrong_arity_rejected(self):
        text = json.dumps([{"image_id": 1, "keypoints": [0, 0, 0], "score": 0.5}])
        with pytest.raises(D.FormatError, match="expected 6"):
            D.parse_results(text, 2)

    def test_over_long_integer_rejected(self):
        text = json.dumps([{"image_id": 1, "keypoints": [0, 0, 0], "score": 0.5}])
        with pytest.raises(D.FormatError, match="not valid JSON"):
            D.parse_results(text.replace("0.5", "1" * 5001), 1)

    def test_nesting_too_deep_to_decode_rejected(self):
        with pytest.raises(D.FormatError, match="not valid JSON.*recursion"):
            D.parse_results("[" * 200_000, 1)

    def test_non_integral_image_id_rejected(self):
        text = json.dumps([{"image_id": 2.9, "keypoints": [0, 0, 0], "score": 0.5}])
        with pytest.raises(D.FormatError, match=r"results\[0\].*expected an integer"):
            D.parse_results(text, 1)

    def test_integral_float_image_id_is_an_integer(self):
        text = json.dumps([{"image_id": 1.0, "keypoints": [0, 0, 0], "score": 0.5}])
        (image_id,) = D.parse_results(text, 1)
        assert image_id == 1 and type(image_id) is int

    def test_image_ids_above_float_precision_stay_distinct(self):
        text = json.dumps([{"image_id": i, "keypoints": [0, 0, 0], "score": 0.5}
                           for i in (2 ** 53, 2 ** 53 + 1, 2 ** 53 + 1)])
        preds = D.parse_results(text, 1)
        assert {i: len(v) for i, v in preds.items()} == {2 ** 53: 1, 2 ** 53 + 1: 2}

    def test_instances_own_their_keypoints(self):
        text = json.dumps([{"image_id": 1, "keypoints": [0, 1, 0.5] * 2, "score": 0.5}] * 3)
        insts = D.parse_results(text, 2)[1]
        insts.append(PoseInstance(insts[0].keypoints, 0.1))
        for i, a in enumerate(insts):
            assert a.keypoints.shape == (2, 3) and a.keypoints.dtype == np.float64
            for b in insts[i + 1:]:
                assert not np.shares_memory(a.keypoints, b.keypoints)


# ---------------------------------------------------------------------------
# keypoint lists drawn from arbitrary JSON values

numbers = st.one_of(st.sampled_from([0, 1, 2]), st.floats(),    # NaN and infinities too
                    st.integers(-2 ** 80, 2 ** 80))
# one kind is drawn first so each is tried about as often as the others
other_kinds = st.sampled_from([
    st.integers(2 ** 1024, 2 ** 1100), st.integers(-2 ** 1100, -2 ** 1024),
    st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.text(max_size=1), st.none())])


@st.composite
def keypoint_files(draw):
    """K, then up to three keypoint lists: mostly numbers of the right length,
    some with an entry of another JSON type or with the wrong length."""
    k = draw(st.integers(1, 3))
    lists = []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.sampled_from([3 * k] * 4 + [3 * k - 1, 3 * k + 1]))
        values = draw(st.lists(numbers, min_size=size, max_size=size))
        if values and draw(st.booleans()):
            values[draw(st.integers(0, size - 1))] = draw(draw(other_kinds))
        lists.append(values)
    return k, lists


def _assert_read_as_floats(got, decoded, k):
    """Every accepted entry is a JSON number and reads as float(v), bitwise."""
    assert all(type(v) in (int, float) for values in decoded for v in values)
    want = np.array([[float(v) for v in values] for values in decoded],
                    dtype=np.float64).reshape(len(decoded), k, 3)
    assert got.tobytes() == want.tobytes()


class TestKeypointListProperty:
    @settings(max_examples=300)
    @given(keypoint_files())
    def test_annotations_parse_exactly_or_raise_format_error(self, drawn):
        k, lists = drawn
        doc = minimal_doc(k_names=["kp%d" % j for j in range(k)], keypoints=[])
        doc["annotations"] = [{"id": i, "image_id": 1, "area": 100.0, "keypoints": v}
                              for i, v in enumerate(lists)]
        text = json.dumps(doc)
        try:
            ds = D.parse_annotations(text)
        except D.FormatError:
            return
        got = np.array([a.keypoints for a in ds.annotations[1]]).reshape(-1, k, 3)
        _assert_read_as_floats(
            got, [rec["keypoints"] for rec in json.loads(text)["annotations"]], k)

    @settings(max_examples=300)
    @given(keypoint_files())
    def test_results_parse_exactly_or_raise_format_error(self, drawn):
        k, lists = drawn
        text = json.dumps([{"image_id": 1, "keypoints": v, "score": 0.5} for v in lists])
        try:
            back = D.parse_results(text, k)
        except D.FormatError:
            return
        got = np.array([p.keypoints for p in back.get(1, [])]).reshape(-1, k, 3)
        _assert_read_as_floats(got, [rec["keypoints"] for rec in json.loads(text)], k)


# ---------------------------------------------------------------------------
# the weight-shape table: what init draws and what a checkpoint holds

@st.composite
def small_config_texts(draw):
    """Config text at small widths: zero-width levels, base stride 1, one to
    three blocks per level, and head widths given or left to be derived (0)."""
    widths = draw(st.tuples(*[st.integers(0, 4)] * 4).filter(any))
    k = draw(st.integers(1, 3))
    finals = [0, k, k + 2] if sum(widths) // 4 >= k else [k, k + 2]
    values = {
        "pyramid.widths": ",".join(map(str, widths)),
        "pyramid.stem_width": draw(st.integers(1, 4)),
        "pyramid.base_stride": draw(st.sampled_from([1, 2, 4, 8])),
        "pyramid.num_blocks": draw(st.integers(1, 3)),
        "waterfall.branch_width": draw(st.integers(1, 4)),
        "waterfall.out_width": draw(st.integers(0, 5)),
        "waterfall.final_width": draw(st.sampled_from(finals)),
        "waterfall.keypoints": k,
        "waterfall.group_width": draw(st.integers(1, 3)),
    }
    return "".join(f"{key} = {value}\n" for key, value in values.items())


class TestWeightShapeProperty:
    @settings(max_examples=80)
    @given(small_config_texts(), st.sampled_from(["canonical", "random"]))
    def test_table_is_what_init_draws_and_a_checkpoint_keeps(self, text, offset_init):
        cfg = parse_config(text)
        shapes = weight_shapes(cfg.pyramid, cfg.waterfall)
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0,
                                     offset_init=offset_init)
        assert list(shapes.items()) == [(name, w.shape) for name, w in weights.items()]
        blob = D.save_checkpoint(weights, None, 0, cfg.fingerprint())
        loaded, _, _, _ = D.load_checkpoint(blob, expected_fingerprint=cfg.fingerprint())
        assert {name: w.shape for name, w in loaded.items()} == shapes


# ---------------------------------------------------------------------------
# byte mutations of tensor dumps and checkpoints

@st.composite
def mutated(draw, blob):
    """blob after one to three byte edits: flip a byte to another value (the
    all-ones exponent bytes 0x7F and 0xFF are drawn often, so payload values
    turn into NaN and infinities), insert a few bytes, or delete a short span.
    Positions count from either end, as small ones are drawn most often."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            pos = len(data) - pos
        kind = draw(st.sampled_from(["flip", "insert", "delete"]))
        if kind == "flip" and pos < len(data):
            data[pos] = draw(st.one_of(st.sampled_from([0x00, 0x7F, 0x80, 0xFF]),
                                       st.integers(0, 255)))
        elif kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=4))
        else:
            del data[pos: pos + draw(st.integers(1, 4))]
    return bytes(data)


def _values(shape):
    """Values of magnitude in [1, 2): the exponent's low bit is set, so a
    high byte flipped to 0x7F or 0xFF makes the value NaN or infinite."""
    return (_RNG.uniform(1, 2, shape) * _RNG.choice([-1, 1], shape)).astype(np.float32)


_RNG = np.random.default_rng(2024)
_TENSOR = _values((1, 2, 2, 3))
_WEIGHTS = {"a.w": _values((4, 2, 3, 3)), "a.b": _values(4)}
_CHECKPOINT = D.save_checkpoint(
    _WEIGHTS, {"step": 4, "m": {k: 0.1 * v for k, v in _WEIGHTS.items()},
               "v": {k: v * v for k, v in _WEIGHTS.items()}}, 3, "fp")


class TestByteMutationProperty:
    @settings(max_examples=300)
    @given(mutated(D.write_tensor(_TENSOR)))
    def test_tensor_dump_parses_finite_or_raises_format_error(self, data):
        try:
            t, used = D.read_tensor(data)
        except D.FormatError:
            return
        assert np.isfinite(t).all() and used == 20 + 4 * t.size <= len(data)

    @settings(max_examples=300)
    @given(mutated(_CHECKPOINT))
    def test_checkpoint_loads_finite_or_raises_format_error(self, data):
        try:
            weights, optim, _, _ = D.load_checkpoint(data)
        except D.FormatError:
            return
        tensors = list(weights.values())
        if optim is not None:
            tensors += list(optim["m"].values()) + list(optim["v"].values())
        assert all(np.isfinite(t).all() for t in tensors)


# ---------------------------------------------------------------------------
# byte mutations of PPM images and structural edits of JSON documents

_PPM = D.write_image_ppm((_RNG.integers(0, 256, size=(1, 3, 3, 4)) / 255.0).astype(np.float32))


class TestPpmMutationProperty:
    @settings(max_examples=300)
    @given(mutated(_PPM))
    def test_ppm_parses_to_unit_floats_or_raises_format_error(self, data):
        try:
            img = D.read_image_ppm(data)
        except D.FormatError:
            return
        assert img.ndim == 4 and img.shape[:2] == (1, 3) and img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0


def _paths(node, path=()):
    """The path (keys and indices from the root) of every node of a JSON
    document, the root's included."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


_DELETE = object()
_REPLACEMENTS = [None, True, False, "x", [], {}, 2 ** 70, 10 ** 400, 1.5, float("nan"),
                 _DELETE]


@st.composite
def edited(draw, doc):
    """The JSON text of doc with one node replaced by another JSON value or
    deleted (the root can only be replaced)."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    new = draw(st.sampled_from(_REPLACEMENTS))
    if not path:
        return json.dumps(None if new is _DELETE else new)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return json.dumps(doc)


def _annotation_doc():
    doc = minimal_doc(k_names=["nose", "eye"], keypoints=[1.0, 2.0, 2, 3, 4.5, 1])
    doc["images"].append({"id": 2, "file_name": "b.ppm", "height": 32, "width": 48,
                          "crowd_index": 0.5})
    doc["annotations"].append({"id": 11, "image_id": 2, "area": 60,
                               "keypoints": [0, 0, 0, 5.0, 6.0, 2]})
    return doc


_RESULTS_DOC = [{"image_id": 1, "keypoints": [1.0, 2.0, 0.5, 3, 4, 0.25], "score": 0.5},
                {"image_id": 2, "keypoints": [0, 0, 0, 5.5, 6.5, 1], "score": 1}]


class TestJsonStructureProperty:
    @settings(max_examples=300)
    @given(edited(_annotation_doc()))
    def test_annotations_parse_or_raise_format_error(self, text):
        try:
            ds = D.parse_annotations(text)
        except D.FormatError:
            return
        assert all(type(img.file_name) is str for img in ds.images)
        assert all(type(name) is str for name in ds.keypoint_names)

    @settings(max_examples=300)
    @given(edited(_RESULTS_DOC))
    def test_results_parse_or_raise_format_error(self, text):
        try:
            D.parse_results(text, 2)
        except D.FormatError:
            return

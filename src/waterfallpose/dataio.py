"""Serialization: annotation files, tensor dumps, PPM images, checkpoints,
and result files.

Wire formats:
  tensor dump   magic "BAT1", four little-endian uint32 extents (N, C, H, W),
                then N*C*H*W finite little-endian float32, row-major, width
                fastest.
  checkpoint    magic "BAC1", uint32 format version, uint32 epoch, a
                length-prefixed config fingerprint string, a length-prefixed
                JSON table of each entry's in-memory shape, then a uint32
                entry count followed by (length-prefixed name, tensor dump)
                pairs, sorted by name with no name repeated, and nothing
                after the last pair.
  annotations   JSON object with "images" (id, file_name, height, width,
                optional crowd_index), "annotations" (id, image_id, area,
                bbox, keypoints triplets), and "categories" (keypoint names).
  results       JSON list of {image_id, keypoints [x, y, score] * K, score}.
  images        binary PPM (P6), 8-bit, maxval 255.

In memory a person's keypoints are one (K, 3) float64 array of the triplets;
a reader converts all of a file's keypoint lists in one pass.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .targets import PersonAnnotation
from .decode import PoseInstance

TENSOR_MAGIC = b"BAT1"
CHECKPOINT_MAGIC = b"BAC1"
CHECKPOINT_VERSION = 1


class FormatError(ValueError):
    """Malformed or mismatched serialized data."""


# ---------------------------------------------------------------------------
# annotations

@dataclass
class ImageRecord:
    id: int
    file_name: str
    height: int
    width: int
    crowd_index: float | None = None


@dataclass
class Dataset:
    images: list
    annotations: dict            # image id -> [PersonAnnotation]
    keypoint_names: list
    source: str = "coco"
    ann_ids: dict = field(default_factory=dict)   # image id -> [annotation id]

    @property
    def num_keypoints(self) -> int:
        return len(self.keypoint_names)


# the most characters of an input value that an error message echoes
ECHO_CHARS = 80


def _shown(value) -> str:
    """repr(value) for an error message, cut to ECHO_CHARS characters and
    marked with its full length when longer, so that the line stays short
    whatever the input holds."""
    text = repr(value)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _require(obj, key, where):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise FormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def _require_list(obj, key, where):
    value = _require(obj, key, where)
    if not isinstance(value, list):
        raise FormatError(f"{where}: {key!r} must be a JSON list")
    return value


def _number(value, where) -> float:
    """A JSON number as a float; null, booleans, strings and containers are
    a FormatError."""
    if type(value) not in (int, float):   # excludes bool, an int subclass
        raise FormatError(f"{where}: expected a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:                 # an integer beyond the float range
        raise FormatError(f"{where}: number out of range") from None


def _numbers(values, where) -> list:
    """_number over a list, with one call for the whole list."""
    for v in values:
        if type(v) not in (int, float):
            raise FormatError(f"{where}: expected a number, got {_shown(v)}")
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise FormatError(f"{where}: number out of range") from None


def _string(value, where) -> str:
    if type(value) is not str:
        raise FormatError(f"{where}: expected a JSON string, got {_shown(value)}")
    return value


def _integer(value, where) -> int:
    x = _number(value, where)             # an int past the float range is an error too
    if type(value) is int:                # exact: no float round trip above 2**53
        return value
    if not x.is_integer():                # also false for inf and nan
        raise FormatError(f"{where}: expected an integer, got {_shown(value)}")
    return int(x)


def _keypoint_rows(records, k) -> np.ndarray:
    """The 3*k-long keypoint lists of (where, list, ...) records as one
    (N, K, 3) float64 array: one type check over the flat list, one conversion."""
    flat = list(chain.from_iterable(r[1] for r in records))
    try:
        if set(map(type, flat)) <= {int, float}:   # excludes bool, an int subclass
            return np.array(flat, dtype=np.float64).reshape(len(records), k, 3)
    except OverflowError:                 # an integer beyond the float range
        pass
    # record by record, which names the first bad one
    return np.array([_numbers(r[1], r[0]) for r in records]).reshape(len(records), k, 3)


def _where(kind, i, rec):
    """How messages name record i of a list: by its id when it is an object."""
    return f"{kind}[id={_shown(rec.get('id'))}]" if isinstance(rec, dict) else f"{kind}[{i}]"


def parse_annotations(text: str) -> Dataset:
    """Parse the JSON annotation schema into a Dataset."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:   # bad JSON, over-long integer, deep nesting
        raise FormatError(f"annotation file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError("annotation file must be a JSON object")

    cats = _require_list(doc, "categories", "annotation file")
    if not cats or not isinstance(cats[0], dict) \
            or not isinstance(cats[0].get("keypoints"), list):
        raise FormatError("categories[0] must list the keypoint names")
    names = [_string(v, f"categories[0] keypoints[{j}]")
             for j, v in enumerate(cats[0]["keypoints"])]
    k = len(names)
    source = doc.get("source", "coco")
    if source not in ("coco", "crowdpose"):
        raise FormatError(f"unknown source tag {_shown(source)}")

    images = []
    crowd = {}
    for i, rec in enumerate(_require_list(doc, "images", "annotation file")):
        where = _where("images", i, rec)
        img = ImageRecord(
            id=_integer(_require(rec, "id", where), where),
            file_name=_string(_require(rec, "file_name", where), where),
            height=_integer(_require(rec, "height", where), where),
            width=_integer(_require(rec, "width", where), where),
            crowd_index=(_number(rec["crowd_index"], where) if "crowd_index" in rec
                         else None),
        )
        if img.crowd_index is not None and not 0.0 <= img.crowd_index <= 1.0:
            raise FormatError(f"{where}: crowd_index must lie in [0, 1]")
        images.append(img)
        crowd[img.id] = img.crowd_index
    ids = {img.id for img in images}
    if len(ids) != len(images):
        raise FormatError("duplicate image ids")

    records = []
    for i, rec in enumerate(_require_list(doc, "annotations", "annotation file")):
        where = _where("annotations", i, rec)
        image_id = _integer(_require(rec, "image_id", where), where)
        if image_id not in ids:
            raise FormatError(f"{where}: references unknown image id {image_id}")
        kps = _require_list(rec, "keypoints", where)
        if len(kps) != 3 * k:
            raise FormatError(
                f"{where}: keypoints array has {len(kps)} numbers, expected {3 * k}")
        bbox = rec.get("bbox", [0.0, 0.0, 0.0, 0.0])
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise FormatError(f"{where}: bbox must have 4 numbers")
        area = _number(_require(rec, "area", where), where)
        records.append((where, kps, image_id, rec.get("id"), area,
                        tuple(_numbers(bbox, where))))

    annotations = {img.id: [] for img in images}
    ann_ids = {img.id: [] for img in images}
    rows = _keypoint_rows(records, k)
    for (where, _, image_id, aid, area, bbox), kps in zip(records, rows):
        try:
            ann = PersonAnnotation(kps, area, bbox, crowd_index=crowd[image_id])
        except ValueError as e:
            raise FormatError(f"{where}: {e}") from e
        annotations[image_id].append(ann)
        ann_ids[image_id].append(_integer(aid, where) if aid is not None
                                 else len(ann_ids[image_id]))
    return Dataset(images, annotations, names, source, ann_ids)


def serialize_annotations(ds: Dataset) -> str:
    doc = {
        "source": ds.source,
        "images": [],
        "annotations": [],
        "categories": [{"id": 1, "name": "person", "keypoints": list(ds.keypoint_names)}],
    }
    for img in ds.images:
        rec = {"id": int(img.id), "file_name": img.file_name,
               "height": int(img.height), "width": int(img.width)}
        if img.crowd_index is not None:
            rec["crowd_index"] = float(img.crowd_index)
        doc["images"].append(rec)
    for img in ds.images:
        anns, aids = ds.annotations[img.id], ds.ann_ids.get(img.id, [])
        if len(aids) != len(anns):
            raise ValueError(f"image {img.id}: {len(anns)} annotations, {len(aids)} ids")
        for ann, aid in zip(anns, aids):
            flat = [c for x, y, v in ann.keypoints.tolist() for c in (x, y, int(v))]
            doc["annotations"].append({
                "id": int(aid), "image_id": img.id, "area": float(ann.area),
                "bbox": [float(v) for v in ann.bbox], "keypoints": flat,
            })
    return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# tensor dumps

def write_tensor(t: np.ndarray) -> bytes:
    if t.ndim != 4:
        raise FormatError(f"tensor dumps hold rank-4 tensors, got shape {t.shape}")
    header = TENSOR_MAGIC + struct.pack("<4I", *t.shape)
    payload = np.ascontiguousarray(t, dtype="<f4").tobytes()
    return header + payload


class _Stream:
    """Forward reads of a seekable binary stream whose size is taken once, so
    a length is held to the bytes left before anything is read or allocated.
    Positions count from where the stream stood."""

    def __init__(self, f):
        self._f = f
        self.pos = 0
        start = f.tell()
        self.size = f.seek(0, io.SEEK_END) - start
        f.seek(start)

    def left(self) -> int:
        return self.size - self.pos

    def read(self, n: int) -> bytes:
        """The next n bytes, or all that are left when fewer are."""
        raw = self._f.read(min(n, self.left()))
        self.pos += len(raw)
        return raw

    def readinto(self, arr: np.ndarray) -> int:
        """Fills the contiguous array from the stream; returns the bytes read."""
        got = self._f.readinto(arr)
        self.pos += got
        return got


def _read_tensor(s: _Stream) -> np.ndarray:
    """One tensor dump from the stream, its payload read into its own array."""
    if s.read(4) != TENSOR_MAGIC:
        raise FormatError("bad tensor magic; not a tensor dump")
    header = s.read(16)
    if len(header) < 16:
        raise FormatError("tensor dump truncated in header")
    shape = struct.unpack("<4I", header)
    count = math.prod(shape)   # exact: a forged header must not wrap to a small count
    truncated = FormatError(f"tensor dump truncated: expected {4 * count} payload bytes")
    if s.left() < 4 * count:
        raise truncated
    # an empty tensor's other extents must still describe an array numpy can index
    if 4 * math.prod(e or 1 for e in shape) > np.iinfo(np.intp).max:
        raise FormatError(f"tensor dump extents {list(shape)} are too large")
    arr = np.empty(shape, dtype="<f4")
    if s.readinto(arr) < 4 * count:     # the stream ended early
        raise truncated
    # min and max carry any NaN or infinity without a tensor-sized temporary;
    # freeing one raises glibc's mmap threshold and slowed the next forward
    # pass by about 10 %
    if count and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise FormatError("tensor dump holds a non-finite value")
    return arr


def read_tensor(data: bytes):
    """Returns (tensor, bytes consumed)."""
    s = _Stream(io.BytesIO(data))
    return _read_tensor(s), s.pos


# ---------------------------------------------------------------------------
# images

def read_image_ppm(data: bytes) -> np.ndarray:
    """Binary P6 to a (1, 3, H, W) float tensor scaled to [0, 1]."""
    if not data.startswith(b"P6"):
        raise FormatError("only binary PPM (P6) images are supported")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos: pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos: pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos: pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("PPM header ended unexpectedly")
        fields.append(data[start:pos])
    if not all(f.isdigit() for f in fields):
        raise FormatError(f"PPM header fields must be decimal numbers, got {fields}")
    width, height, maxval = (int(f) for f in fields)
    if width < 1 or height < 1:
        raise FormatError(f"PPM image is {width}x{height}; need at least 1x1")
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    need = width * height * 3
    raw = data[pos: pos + need]
    if len(raw) != need:
        raise FormatError(f"PPM payload has {len(raw)} bytes, expected {need}")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    planar = pixels.transpose(2, 0, 1)[None].astype(np.float32) / 255.0
    return planar


def write_image_ppm(t: np.ndarray) -> bytes:
    """(1, 3, H, W) values in [0, 1] to binary P6."""
    if t.ndim != 4 or t.shape[0] != 1 or t.shape[1] != 3:
        raise FormatError(f"expected a (1, 3, H, W) image tensor, got {t.shape}")
    h, w = t.shape[2], t.shape[3]
    bytes_img = np.clip(np.rint(t[0] * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode()
    return header + bytes_img.transpose(1, 2, 0).tobytes()


# ---------------------------------------------------------------------------
# checkpoints

def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


def _take(s: _Stream, n: int) -> bytes:
    """The next n bytes of a checkpoint; a short stream is a FormatError."""
    if s.left() < n:
        raise FormatError(f"checkpoint truncated at byte {s.size}")
    return s.read(n)


def _unpack(fmt: str, s: _Stream):
    return struct.unpack(fmt, _take(s, struct.calcsize(fmt)))


def _unpack_str(s: _Stream) -> str:
    (n,) = _unpack("<I", s)
    start = s.pos
    try:
        return _take(s, n).decode()
    except UnicodeDecodeError as e:
        raise FormatError(f"checkpoint string at byte {start} is not UTF-8") from e


def save_checkpoint(weights: dict, optim_state, epoch: int, fingerprint: str) -> bytes:
    """Weights (and optionally optimizer state) as one self-describing blob.

    optim_state is None or a dict with "step" (int) plus "m"/"v" moment dicts
    mirroring the weight names.
    """
    entries = {f"weights/{k}": np.asarray(v, dtype=np.float32).reshape(
        v.shape if v.ndim == 4 else (1, 1, 1, -1)) for k, v in weights.items()}
    shapes = {f"weights/{k}": list(v.shape) for k, v in weights.items()}
    if optim_state is not None:
        entries["optim/step"] = np.array(
            [[[[float(optim_state["step"])]]]], dtype=np.float32)
        for group in ("m", "v"):
            for k, val in optim_state[group].items():
                key = f"optim/{group}/{k}"
                entries[key] = np.asarray(val, dtype=np.float32).reshape(
                    val.shape if val.ndim == 4 else (1, 1, 1, -1))
                shapes[key] = list(val.shape)
    meta = json.dumps(shapes, sort_keys=True)
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, epoch),
           _pack_str(fingerprint), _pack_str(meta),
           struct.pack("<I", len(entries))]
    for name in sorted(entries):
        out.append(_pack_str(name))
        out.append(write_tensor(entries[name]))
    return b"".join(out)


def load_checkpoint(source, expected_fingerprint: str | None = None):
    """Returns (weights, optim_state or None, epoch, fingerprint).

    source is the checkpoint's bytes or a binary file, read from where it
    stands to its end. Bytes are read through io.BytesIO, and so is a file
    that cannot seek (a pipe), read whole first; so every source takes one
    parse path, which checks each tensor's extents against the bytes left
    before it allocates, then reads the payload straight into the tensor's
    own array.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(source)
    elif not source.seekable():
        source = io.BytesIO(source.read())
    s = _Stream(source)
    if s.read(4) != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    version, epoch = _unpack("<II", s)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    fingerprint = _unpack_str(s)
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise FormatError(
            "checkpoint was written under a different configuration "
            f"(fingerprint {fingerprint[:12]}... != {expected_fingerprint[:12]}...)")
    meta = _unpack_str(s)
    try:
        shapes = json.loads(meta)
    except (ValueError, RecursionError) as e:   # bad JSON, over-long integer, deep nesting
        raise FormatError(f"checkpoint shape table is not valid JSON: {e}") from e
    if not isinstance(shapes, dict):
        raise FormatError("checkpoint shape table must be a JSON object")
    (count,) = _unpack("<I", s)
    entries = {}
    last = None
    for _ in range(count):
        start = s.pos
        name = _unpack_str(s)
        if last is not None and name <= last:
            raise FormatError(f"checkpoint entry {name!r} at byte {start} is repeated "
                              "or out of order; entries are sorted by name")
        last = name
        try:
            t = _read_tensor(s)
        except FormatError as e:
            raise FormatError(f"checkpoint entry {name!r}: {e}") from None
        if name in shapes:
            try:
                t = t.reshape(shapes[name])
            except (TypeError, ValueError) as e:
                raise FormatError(f"checkpoint entry {name!r} does not fit its "
                                  f"shape {_shown(shapes[name])}") from e
        entries[name] = t
    if s.left():
        raise FormatError(f"checkpoint has trailing bytes from byte {s.pos} on")
    weights = {k[len("weights/"):]: v for k, v in entries.items()
               if k.startswith("weights/")}
    optim = None
    if "optim/step" in entries:
        step = entries["optim/step"].reshape(-1)
        if step.size != 1:
            raise FormatError("checkpoint optimizer step is not one number")
        optim = {"step": int(step[0]), "m": {}, "v": {}}
        for k, v in entries.items():
            if k.startswith("optim/m/"):
                optim["m"][k[len("optim/m/"):]] = v
            elif k.startswith("optim/v/"):
                optim["v"][k[len("optim/v/"):]] = v
    return weights, optim, epoch, fingerprint


# ---------------------------------------------------------------------------
# results

def write_results(instances_by_image: dict) -> str:
    """Decoded poses as JSON, mirroring the annotation keypoint layout with a
    score in place of the visibility flag."""
    out = []
    for image_id in sorted(instances_by_image):
        for inst in instances_by_image[image_id]:
            out.append({"image_id": image_id, "keypoints": inst.keypoints.ravel().tolist(),
                        "score": float(inst.score)})
    return json.dumps(out, indent=1)


def parse_results(text: str, k: int) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:   # bad JSON, over-long integer, deep nesting
        raise FormatError(f"results file is not valid JSON: {e}") from e
    if not isinstance(doc, list):
        raise FormatError("results file must be a JSON list")
    records = []
    for i, rec in enumerate(doc):
        where = f"results[{i}]"
        image_id = _integer(_require(rec, "image_id", where), where)
        kps = _require_list(rec, "keypoints", where)
        if len(kps) != 3 * k:
            raise FormatError(
                f"{where}: keypoints array has {len(kps)} numbers, expected {3 * k}")
        score = _require(rec, "score", where)
        if type(score) not in (int, float) \
                or not math.isfinite(_number(score, f"{where} score")):
            raise FormatError(f"{where}: malformed score {_shown(score)}")
        records.append((where, kps, image_id, float(score)))

    rows = _keypoint_rows(records, k)
    finite = np.isfinite(rows).all(axis=(1, 2))
    if not finite.all():
        raise FormatError(f"{records[np.argmin(finite)][0]}: non-finite keypoint entry")
    out = {}
    for (_, _, image_id, score), kps in zip(records, rows):
        out.setdefault(image_id, []).append(PoseInstance(kps, score))
    return out

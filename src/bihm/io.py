"""File formats: datasets, checkpoints, PGM images, metrics CSV.

Every binary format is little-endian and round-trips bit-exactly.  Loaders
validate magic, version and size consistency against the actual byte count
before allocating or parsing any payload, and they either return a complete
object or raise; no partial loads.

Dataset container format (``.bbm``):
    bytes 0-7   ASCII ``BIHMDATA``
    u32 LE      version (= 1)
    u32 LE      rows
    u32 LE      cols
    payload     rows * ceil(cols / 8) bytes, row-major, bits packed
                LSB-first within each byte

Checkpoint format (``.bihm``):
    bytes 0-7   ASCII ``BIHMMODL``
    u32 LE      version (= 1)
    u32 LE      L (number of latent layers)
    u32 LE x (L+1)  layer sizes, visible first
    u32 LE      metadata byte length, then that many bytes of UTF-8 JSON
    float64 LE  the model's flat parameter vector (``BihmModel.params``):
                prior biases; for l = L..1 the p-layer weights (row-major
                out x in) then biases; for l = 1..L the q-layer weights then
                biases

Text datasets: ``amat-text`` is whitespace-separated 0/1 values, one row per
line; ``csv`` is the same with commas.  Anything that is not exactly a 0 or 1
after trimming is a format error naming the offending line.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from bihm.model import BihmModel, _check_binary, param_count

__all__ = [
    "FormatError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "SizeMismatchError",
    "BinaryDataset",
    "Checkpoint",
    "load_dataset",
    "save_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "write_pgm",
    "read_pgm",
    "append_metrics",
    "METRICS_HEADER",
]

_DATA_MAGIC = b"BIHMDATA"
_MODEL_MAGIC = b"BIHMMODL"
_VERSION = 1

METRICS_HEADER = "epoch,updates,train_logptilde,valid_logptilde,two_log_z,ess_pct,seconds"


class FormatError(ValueError):
    """A file does not follow its declared format."""


class BadMagicError(FormatError):
    """The file's magic bytes identify it as something else."""


class UnsupportedVersionError(FormatError):
    """The file's format version is newer than this reader."""


class TruncatedFileError(FormatError):
    """The file ends before its declared content does."""


class SizeMismatchError(FormatError):
    """The file's size disagrees with its own header."""


@dataclass(frozen=True)
class BinaryDataset:
    """A binary data matrix plus the name it was loaded under."""

    data: np.ndarray
    name: str = ""

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"dataset must be 2-D, got shape {a.shape}")
        _check_binary("dataset", a)
        object.__setattr__(self, "data", a)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Checkpoint:
    """A model plus a small key/value metadata map (config echo, metrics)."""

    model: BihmModel
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def _parse_text_rows(path: str, sep: Optional[str]) -> np.ndarray:
    rows = []
    width = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise FormatError(f"{path}: not UTF-8 text (byte {byte:#04x}: {exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split(sep)
        values = []
        for tok in tokens:
            t = tok.strip()
            if t == "0" or t == "1":
                values.append(float(t))
                continue
            try:
                v = float(t)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: value {t!r} is not 0 or 1") from None
            if v not in (0.0, 1.0):
                raise FormatError(f"{path}:{lineno}: value {t!r} is not 0 or 1")
            values.append(v)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(f"{path}:{lineno}: row has {len(values)} values, expected {width}")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _read_binary(path: str, magic: bytes, fields: int):
    """The bytes of ``path`` and the ``fields`` u32 values after its magic and version.

    Raises :class:`TruncatedFileError` if the file is shorter than that
    header, :class:`BadMagicError` for other magic bytes and
    :class:`UnsupportedVersionError` for another version.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header = 12 + 4 * fields
    if len(blob) < header:
        raise TruncatedFileError(
            f"{path}: expected at least {header} header bytes, got {len(blob)}"
        )
    if blob[:8] != magic:
        raise BadMagicError(f"{path}: magic {blob[:8]!r} is not {magic!r}")
    version, *values = struct.unpack_from(f"<{fields + 1}I", blob, 8)
    if version != _VERSION:
        raise UnsupportedVersionError(f"{path}: version {version}, reader supports {_VERSION}")
    return blob, values


def _check_size(path: str, blob: bytes, expected: int) -> None:
    """Raise unless ``blob`` is exactly the ``expected`` bytes its header implies."""
    if len(blob) < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, got {len(blob)}")
    if len(blob) > expected:
        raise SizeMismatchError(f"{path}: {len(blob)} bytes on disk, header implies {expected}")


def _load_bbm(path: str) -> np.ndarray:
    blob, (rows, cols) = _read_binary(path, _DATA_MAGIC, 2)
    if cols < 1:
        raise FormatError(f"{path}: column count must be positive, got {cols}")
    header = 8 + 4 + 4 + 4
    row_bytes = (cols + 7) // 8
    _check_size(path, blob, header + rows * row_bytes)
    packed = np.frombuffer(blob, dtype=np.uint8, offset=header).reshape(rows, row_bytes)
    bits = np.unpackbits(packed, axis=1, count=cols, bitorder="little")
    return bits.astype(np.float64)


def load_dataset(path: str, format: Optional[str] = None) -> BinaryDataset:
    """Read a binary dataset; format from the extension unless given.

    ``format`` is one of ``amat-text``, ``csv``, ``bbm``.
    """
    if format is None:
        ext = os.path.splitext(path)[1].lower()
        format = {".amat": "amat-text", ".txt": "amat-text", ".csv": "csv", ".bbm": "bbm"}.get(ext)
        if format is None:
            raise FormatError(f"{path}: cannot infer format from extension {ext!r}")
    name = os.path.splitext(os.path.basename(path))[0]
    if format == "amat-text":
        return BinaryDataset(_parse_text_rows(path, sep=None), name=name)
    if format == "csv":
        return BinaryDataset(_parse_text_rows(path, sep=","), name=name)
    if format == "bbm":
        return BinaryDataset(_load_bbm(path), name=name)
    raise ValueError(f"unknown dataset format {format!r}")


def save_dataset(dataset, path: str) -> None:
    """Write a dataset (or plain 0/1 matrix) in the packed container format."""
    if not isinstance(dataset, BinaryDataset):
        dataset = BinaryDataset(np.asarray(dataset))
    rows, cols = dataset.rows, dataset.cols
    if cols < 1:
        raise ValueError(f"dataset must have at least one column, got shape {dataset.data.shape}")
    packed = np.packbits(dataset.data.astype(np.uint8), axis=1, bitorder="little")
    with open(path, "wb") as fh:
        fh.write(_DATA_MAGIC)
        fh.write(struct.pack("<III", _VERSION, rows, cols))
        fh.write(packed.tobytes())


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: BihmModel, metadata: dict, path: str) -> None:
    """Serialize a model with its metadata map; bit-exact on reload."""
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    sizes = model.layer_sizes
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<II", _VERSION, model.num_latent_layers))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(model.params.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint, validating header and size before parsing arrays."""
    blob, (num_latent,) = _read_binary(path, _MODEL_MAGIC, 1)
    if num_latent < 1:
        raise FormatError(f"{path}: layer count must be at least 1, got {num_latent}")
    sizes_end = 16 + 4 * (num_latent + 1)
    if len(blob) < sizes_end + 4:
        raise TruncatedFileError(
            f"{path}: expected at least {sizes_end + 4} bytes of header, got {len(blob)}"
        )
    sizes = struct.unpack_from(f"<{num_latent + 1}I", blob, 16)
    if any(s < 1 for s in sizes):
        raise FormatError(f"{path}: layer sizes must be positive, got {sizes}")
    (meta_len,) = struct.unpack_from("<I", blob, sizes_end)
    arrays_at = sizes_end + 4 + meta_len
    _check_size(path, blob, arrays_at + 8 * param_count(sizes))

    # ValueError covers bad UTF-8, bad JSON and over-long integers;
    # RecursionError, nesting too deep to parse.
    try:
        metadata = json.loads(blob[sizes_end + 4 : arrays_at].decode("utf-8")) if meta_len else {}
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: metadata is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(metadata, dict):
        raise FormatError(f"{path}: metadata must be a JSON object")

    params = np.frombuffer(blob, dtype="<f8", offset=arrays_at).astype(np.float64)
    try:
        model = BihmModel.from_params(sizes, params)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid model parameters: {exc}") from None
    return Checkpoint(model=model, metadata=metadata)


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def write_pgm(image, width: int, height: int, path: str) -> None:
    """Write a grayscale image; pixel byte = floor(255 * value + 0.5).

    ``image`` is a flat vector of values in [0, 1], row-major, of length
    ``width * height``; both dimensions must be at least 1.
    """
    if width < 1 or height < 1:
        raise ValueError(f"image dimensions must be positive, got {width}x{height}")
    v = np.asarray(image, dtype=np.float64).ravel()
    if v.shape[0] != width * height:
        raise ValueError(f"image has {v.shape[0]} pixels, expected {width}x{height}")
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise ValueError("pixel values must lie in [0, 1]")
    data = np.floor(255.0 * v + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(data.tobytes())


def read_pgm(path: str):
    """Read a binary PGM with maxval 255; returns (values in [0,1], width, height)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise BadMagicError(f"{path}: not a binary PGM (magic {blob[:2]!r})")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TruncatedFileError(f"{path}: header ends before 3 numeric fields")
        try:
            fields.append(int(blob[start:pos]))
        except ValueError:
            raise FormatError(f"{path}: non-numeric header field {blob[start:pos]!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}, expected 255")
    pos += 1  # single whitespace byte after maxval
    _check_size(path, blob, pos + width * height)
    data = np.frombuffer(blob, dtype=np.uint8, offset=pos).astype(np.float64) / 255.0
    return data, width, height


# ---------------------------------------------------------------------------
# Metrics CSV
# ---------------------------------------------------------------------------


def _format_metric(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def append_metrics(path: str, row: dict) -> None:
    """Append one metrics row, writing the fixed header into empty files.

    Numbers use 9 significant digits with a '.' decimal separator regardless
    of locale.
    """
    fields = METRICS_HEADER.split(",")
    missing = [f for f in fields if f not in row]
    if missing:
        raise ValueError(f"metrics row is missing fields {missing}")
    line = ",".join(_format_metric(row[f]) for f in fields)
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        if fresh:
            fh.write(METRICS_HEADER + "\n")
        fh.write(line + "\n")

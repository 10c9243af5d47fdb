"""File formats: packed datasets, checkpoints, PGM images, metrics CSV."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from bihm.io import (
    BadMagicError,
    BinaryDataset,
    Checkpoint,
    FormatError,
    METRICS_HEADER,
    SizeMismatchError,
    TruncatedFileError,
    UnsupportedVersionError,
    append_metrics,
    load_checkpoint,
    load_dataset,
    read_pgm,
    save_checkpoint,
    save_dataset,
    write_pgm,
)
from bihm.model import param_count, random_model, zero_model
from bihm.training import init_model


class TestBinaryDataset:
    def test_validation(self):
        ds = BinaryDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), name="toy")
        assert (ds.rows, ds.cols) == (2, 2)
        assert ds.name == "toy"
        with pytest.raises(ValueError):
            BinaryDataset(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            BinaryDataset(np.array([[0.5]]))


class TestPackedDataset:
    def test_round_trips(self, tmp_path):
        rng = np.random.default_rng(150)
        for i in range(100):
            rows = int(rng.integers(0, 20))
            cols = int(rng.integers(1, 40))
            data = (rng.random((rows, cols)) < rng.uniform(0.1, 0.9)).astype(np.float64)
            path = str(tmp_path / f"ds_{i}.bbm")
            save_dataset(data, path)
            back = load_dataset(path)
            assert back.data.shape == (rows, cols)
            assert_array_equal(back.data, data)

    def test_frozen_bytes(self, tmp_path):
        # Bits pack least-significant-first within each row byte.
        path = str(tmp_path / "tiny.bbm")
        save_dataset(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), path)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob == b"BIHMDATA" + struct.pack("<III", 1, 2, 3) + bytes([0b101, 0b110])

    def test_zero_row_dataset(self, tmp_path):
        path = str(tmp_path / "empty.bbm")
        save_dataset(np.zeros((0, 5)), path)
        back = load_dataset(path)
        assert back.data.shape == (0, 5)

    def test_zero_column_dataset_is_not_written(self, tmp_path):
        # load_dataset rejects a zero column count, so save_dataset must not
        # write one.
        path = tmp_path / "no_columns.bbm"
        with pytest.raises(ValueError, match="at least one column"):
            save_dataset(np.zeros((3, 0)), str(path))
        assert not path.exists()

    def test_dataset_name_from_path(self, tmp_path):
        path = str(tmp_path / "mnist_like.bbm")
        save_dataset(np.ones((1, 3)), path)
        assert load_dataset(path).name == "mnist_like"

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.bbm")
        with open(path, "wb") as fh:
            fh.write(b"NOTMAGIC" + struct.pack("<III", 1, 1, 1) + bytes([1]))
        with pytest.raises(BadMagicError):
            load_dataset(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "v2.bbm")
        with open(path, "wb") as fh:
            fh.write(b"BIHMDATA" + struct.pack("<III", 2, 1, 1) + bytes([1]))
        with pytest.raises(UnsupportedVersionError):
            load_dataset(path)

    def test_truncation_reports_sizes(self, tmp_path):
        path = str(tmp_path / "short.bbm")
        save_dataset(np.ones((4, 9)), path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])
        with pytest.raises(TruncatedFileError, match=r"expected 28 bytes, got 25"):
            load_dataset(path)

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "long.bbm")
        save_dataset(np.ones((2, 3)), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(SizeMismatchError):
            load_dataset(path)

    def test_header_too_short(self, tmp_path):
        path = str(tmp_path / "stub.bbm")
        with open(path, "wb") as fh:
            fh.write(b"BIHMDA")
        with pytest.raises(TruncatedFileError):
            load_dataset(path)

    def test_zero_columns_rejected(self, tmp_path):
        path = str(tmp_path / "nocols.bbm")
        with open(path, "wb") as fh:
            fh.write(b"BIHMDATA" + struct.pack("<III", 1, 0, 0))
        with pytest.raises(FormatError):
            load_dataset(path)


class TestTextDatasets:
    def test_amat_whitespace(self, tmp_path):
        path = tmp_path / "toy.amat"
        path.write_text("1 0 1\n0 1 1\n\n1 1 1\n")
        ds = load_dataset(str(path))
        assert_array_equal(ds.data, [[1, 0, 1], [0, 1, 1], [1, 1, 1]])

    def test_txt_extension_uses_amat_parser(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("0 1\n1 0\n")
        assert_array_equal(load_dataset(str(path)).data, [[0, 1], [1, 0]])

    def test_csv_commas(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1,0,1\n0,1,0\n")
        assert_array_equal(load_dataset(str(path)).data, [[1, 0, 1], [0, 1, 0]])

    def test_non_binary_value_with_line_number(self, tmp_path):
        path = tmp_path / "bad.amat"
        path.write_text("1 0\n1 2\n")
        with pytest.raises(FormatError, match=r"bad\.amat:2"):
            load_dataset(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(FormatError, match=r"'x'"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "name, content", [("bad.amat", b"0 1\n\xff 1\n"), ("bad.csv", b"0,1\n\xff,1\n")]
    )
    def test_non_utf8_bytes(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(FormatError, match=re.escape(f"{name}: not UTF-8 text (byte 0xff")):
            load_dataset(str(path))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.amat"
        path.write_text("1 0 1\n1 0\n")
        with pytest.raises(FormatError, match=r"ragged\.amat:2"):
            load_dataset(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.amat"
        path.write_text("")
        with pytest.raises(FormatError, match="no data rows"):
            load_dataset(str(path))

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "mystery.dat"
        path.write_text("1 0\n")
        with pytest.raises(FormatError):
            load_dataset(str(path))

    def test_explicit_format_overrides_extension(self, tmp_path):
        path = tmp_path / "mystery.dat"
        path.write_text("1 0\n")
        assert_array_equal(load_dataset(str(path), format="amat-text").data, [[1, 0]])
        with pytest.raises(ValueError):
            load_dataset(str(path), format="xml")


class TestCheckpoints:
    def test_round_trips_bit_exact(self, tmp_path):
        models = [
            zero_model([2, 1]),
            random_model([4, 3, 2], np.random.default_rng(151)),
            random_model([5, 2], np.random.default_rng(152)),
            init_model((6, 4, 3), seed=153),
        ]
        for i, model in enumerate(models):
            path = str(tmp_path / f"model_{i}.ckpt")
            meta = {"seed": i, "note": "round trip"}
            save_checkpoint(model, meta, path)
            back = load_checkpoint(path)
            assert back.metadata == meta
            assert back.model.layer_sizes == model.layer_sizes
            for (n1, a1), (n2, a2) in zip(model.param_items(), back.model.param_items()):
                assert n1 == n2
                assert_array_equal(a1, a2)

    def test_frozen_layout(self, tmp_path):
        path = str(tmp_path / "zero.ckpt")
        save_checkpoint(zero_model([2, 1]), {}, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        expected = (
            b"BIHMMODL"
            + struct.pack("<II", 1, 1)
            + struct.pack("<II", 2, 1)
            + struct.pack("<I", 2)
            + b"{}"
            + b"\x00" * (8 * 8)
        )
        assert blob == expected

    def test_metadata_sorted_and_unicode(self, tmp_path):
        # header for a [2, 1] model: 8 magic + 8 version/count + 8 sizes,
        # then the 4-byte metadata length at offset 24
        path = str(tmp_path / "meta.ckpt")
        save_checkpoint(zero_model([2, 1]), {"b": 2, "a": "café"}, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        meta_len = struct.unpack_from("<I", blob, 24)[0]
        raw = blob[28 : 28 + meta_len]
        assert raw == json.dumps({"a": "café", "b": 2}, sort_keys=True).encode("utf-8")
        assert load_checkpoint(path).metadata == {"a": "café", "b": 2}

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"WRONGMAG" + b"\x00" * 50)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "v9.ckpt")
        save_checkpoint(zero_model([2, 1]), {}, path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        struct.pack_into("<I", blob, 8, 9)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(path)

    def test_header_truncations(self, tmp_path):
        path = str(tmp_path / "cut.ckpt")
        save_checkpoint(zero_model([2, 1]), {}, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        for cut in (10, 18, 40):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(TruncatedFileError):
                load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "long.ckpt")
        save_checkpoint(zero_model([2, 1]), {}, path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(SizeMismatchError):
            load_checkpoint(path)

    def test_zero_layer_count_and_size(self, tmp_path):
        path = str(tmp_path / "zl.ckpt")
        save_checkpoint(zero_model([2, 1]), {}, path)
        with open(path, "rb") as fh:
            original = fh.read()

        blob = bytearray(original)
        struct.pack_into("<I", blob, 12, 0)  # latent layer count
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(FormatError):
            load_checkpoint(path)

        blob = bytearray(original)
        struct.pack_into("<I", blob, 16, 0)  # visible size
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_corrupt_metadata_bytes(self, tmp_path):
        path = str(tmp_path / "meta_bad.ckpt")
        save_checkpoint(zero_model([2, 1]), {"k": 1}, path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        meta_len = struct.unpack_from("<I", blob, 24)[0]
        blob[28 : 28 + meta_len] = b"\xff" * meta_len
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(FormatError, match="metadata"):
            load_checkpoint(path)

    def test_metadata_must_be_object(self, tmp_path):
        path = str(tmp_path / "meta_arr.ckpt")
        meta = b"[1]"
        with open(path, "wb") as fh:
            fh.write(b"BIHMMODL")
            fh.write(struct.pack("<II", 1, 1))
            fh.write(struct.pack("<II", 2, 1))
            fh.write(struct.pack("<I", len(meta)))
            fh.write(meta)
            fh.write(b"\x00" * 64)
        with pytest.raises(FormatError, match="JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "meta", [b"[" * 100_000 + b"]" * 100_000, b'{"a": ' + b"9" * 5000 + b"}"]
    )
    def test_pathological_metadata(self, tmp_path, meta):
        # Too deep for the JSON parser's recursion, or an integer over
        # Python's digit limit: both must surface as format errors.
        path = str(tmp_path / "meta_deep.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"BIHMMODL")
            fh.write(struct.pack("<II", 1, 1))
            fh.write(struct.pack("<II", 2, 1))
            fh.write(struct.pack("<I", len(meta)))
            fh.write(meta)
            fh.write(b"\x00" * 64)
        with pytest.raises(FormatError, match="metadata"):
            load_checkpoint(path)

    def test_non_finite_parameters_rejected(self, tmp_path):
        path = str(tmp_path / "inf.ckpt")
        save_checkpoint(zero_model([2, 1]), {}, path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        struct.pack_into("<d", blob, len(blob) - 8, math.inf)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(FormatError, match="invalid model parameters"):
            load_checkpoint(path)

    def test_checkpoint_default_metadata(self):
        ck = Checkpoint(model=zero_model([2, 1]))
        assert ck.metadata == {}


class TestPgm:
    def test_byte_mapping(self, tmp_path):
        path = str(tmp_path / "gray.pgm")
        write_pgm([0.0, 0.5, 1.0, 0.25], 2, 2, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])

    def test_round_trip_on_byte_values(self, tmp_path):
        rng = np.random.default_rng(154)
        values = rng.integers(0, 256, size=12).astype(np.float64) / 255.0
        path = str(tmp_path / "rt.pgm")
        write_pgm(values, 4, 3, path)
        back, width, height = read_pgm(path)
        assert (width, height) == (4, 3)
        assert_array_equal(back, values)

    def test_single_white_pixel(self, tmp_path):
        path = str(tmp_path / "one.pgm")
        write_pgm([1.0], 1, 1, path)
        back, width, height = read_pgm(path)
        assert (width, height) == (1, 1)
        assert back[0] == 1.0

    def test_write_validation(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with pytest.raises(ValueError):
            write_pgm([0.0, 0.5], 3, 1, path)
        with pytest.raises(ValueError):
            write_pgm([0.0, 1.5], 2, 1, path)
        with pytest.raises(ValueError):
            write_pgm([-0.1, 0.5], 2, 1, path)
        with pytest.raises(ValueError, match="must lie in"):
            write_pgm([0.0, np.nan], 2, 1, path)
        # Dimensions below 1 would write a header that read_pgm rejects.
        for image, width, height in ((np.zeros(0), 0, 5), (np.zeros(4), -2, -2)):
            with pytest.raises(ValueError, match="must be positive"):
                write_pgm(image, width, height, path)
        assert not (tmp_path / "bad.pgm").exists()

    def test_comments_in_header(self, tmp_path):
        path = str(tmp_path / "comment.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# a comment line\n2 1\n# another\n255\n" + bytes([10, 20]))
        back, width, height = read_pgm(path)
        assert (width, height) == (2, 1)
        assert_array_equal(back, np.array([10, 20]) / 255.0)

    def test_p6_rejected(self, tmp_path):
        path = str(tmp_path / "color.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(BadMagicError):
            read_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = str(tmp_path / "deep.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n1 1\n65535\n" + bytes([1, 1]))
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)

    def test_truncated_and_oversized_pixels(self, tmp_path):
        path = str(tmp_path / "cut.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(TruncatedFileError):
            read_pgm(path)
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4, 5]))
        with pytest.raises(SizeMismatchError):
            read_pgm(path)

    def test_nonpositive_dimensions(self, tmp_path):
        path = str(tmp_path / "negative.pgm")
        for header, pixels in ((b"P5\n-4 -4\n255\n", 16), (b"P5\n0 3\n255\n", 0)):
            with open(path, "wb") as fh:
                fh.write(header + bytes(pixels))
            with pytest.raises(FormatError, match="dimensions"):
                read_pgm(path)

    def test_pil_reads_our_output(self, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        path = str(tmp_path / "pil.pgm")
        write_pgm([0.0, 0.25, 0.5, 1.0, 0.75, 0.1], 3, 2, path)
        with Image.open(path) as img:
            assert img.size == (3, 2)
            pixels = np.asarray(img)
        assert_array_equal(pixels, [[0, 64, 128], [255, 191, 26]])


class TestMetricsCsv:
    ROW = {
        "epoch": 1,
        "updates": 45,
        "train_logptilde": -12.25,
        "valid_logptilde": -12.5,
        "two_log_z": -0.123456789123,
        "ess_pct": 87.5,
        "seconds": 3.25,
    }

    def test_header_written_once(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        append_metrics(path, self.ROW)
        append_metrics(path, dict(self.ROW, epoch=2))
        lines = open(path).read().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("1,45,")
        assert lines[2].startswith("2,45,")

    def test_number_formats(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        append_metrics(path, self.ROW)
        line = open(path).read().splitlines()[1]
        assert line == "1,45,-12.25,-12.5,-0.123456789,87.5,3.25"

    def test_nine_significant_digits(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        append_metrics(path, dict(self.ROW, train_logptilde=0.123456789123))
        line = open(path).read().splitlines()[1]
        assert line.split(",")[2] == "0.123456789"

    def test_numpy_scalars_accepted(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        row = dict(self.ROW, epoch=np.int64(7), ess_pct=np.float64(12.0))
        append_metrics(path, row)
        line = open(path).read().splitlines()[1]
        assert line.split(",")[0] == "7"
        assert line.split(",")[5] == "12"

    def test_missing_field_rejected(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        row = dict(self.ROW)
        del row["ess_pct"]
        with pytest.raises(ValueError, match="ess_pct"):
            append_metrics(path, row)

    def test_appends_to_existing_content(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(METRICS_HEADER + "\n0,0,0,0,0,100,0\n")
        append_metrics(str(path), self.ROW)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == METRICS_HEADER


class TestLoadersAreTotal:
    """Byte flips and truncations of valid files: a complete object or a FormatError."""

    @staticmethod
    def valid_files():
        model = init_model((6, 4, 3), seed=160)
        data = (np.random.default_rng(161).random((7, 11)) < 0.5).astype(np.float64)
        return {
            ".bihm": (lambda path: save_checkpoint(model, {"seed": 160, "note": "fuzz"}, path)),
            ".bbm": (lambda path: save_dataset(data, path)),
            ".pgm": (lambda path: write_pgm(np.linspace(0.0, 1.0, 12), 4, 3, path)),
        }

    @staticmethod
    def check_complete(ext, path):
        if ext == ".bihm":
            model = load_checkpoint(path).model
            assert model.params.shape == (param_count(model.layer_sizes),)
            assert np.all(np.isfinite(model.params))
        elif ext == ".bbm":
            data = load_dataset(path).data
            assert data.ndim == 2 and np.all((data == 0.0) | (data == 1.0))
        else:
            values, width, height = read_pgm(path)
            assert width >= 1 and height >= 1 and values.shape == (width * height,)
            assert np.all((values >= 0.0) & (values <= 1.0))

    @settings(max_examples=60, deadline=None)
    @given(
        ext=st.sampled_from([".bihm", ".bbm", ".pgm"]),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_mutated_files(self, tmp_path_factory, ext, flips, cut):
        path = str(tmp_path_factory.mktemp("fuzz") / ("file" + ext))
        self.valid_files()[ext](path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % (len(blob) + 1)]
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            self.check_complete(ext, path)
        except FormatError:
            pass

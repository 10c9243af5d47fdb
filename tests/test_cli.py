"""End-to-end command-line coverage driven through main(argv)."""

import math
import os
import re
import struct

import numpy as np
import pytest

import bihm.cli
from bihm.cli import main
from bihm.estimators import ZEstimateConfig, est_log_ptilde_rows, est_log_z2
from bihm.io import load_checkpoint, load_dataset, read_pgm, save_checkpoint, save_dataset, write_pgm
from bihm.model import zero_model
from conftest import bars_rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a small dataset and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = bars_rows(60, np.random.default_rng(160))
    save_dataset(data, str(root / "bars.bbm"))
    save_dataset(data[:20], str(root / "bars_valid.bbm"))
    rc = main(
        [
            "train",
            "--data", str(root / "bars.bbm"),
            "--valid", str(root / "bars_valid.bbm"),
            "--layers", "6,3",
            "--k", "3",
            "--epochs", "2",
            "--batch", "20",
            "--lr", "0.005",
            "--seed", "7",
            "--out", str(root / "model.bihm"),
            "--metrics", str(root / "metrics.csv"),
        ]
    )
    assert rc == 0
    return root


def read_metrics(path):
    lines = open(path).read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestTrainCommand:
    def test_checkpoint_and_metadata(self, workdir):
        ck = load_checkpoint(str(workdir / "model.bihm"))
        assert ck.model.layer_sizes == (16, 6, 3)
        assert ck.metadata["layers"] == [16, 6, 3]
        assert ck.metadata["k"] == 3
        assert ck.metadata["epochs"] == 2
        assert ck.metadata["data"] == "bars"
        assert np.isfinite(ck.metadata["final_train_logptilde"])
        assert np.isfinite(ck.metadata["final_two_log_z"])

    def test_metrics_file(self, workdir):
        header, rows = read_metrics(str(workdir / "metrics.csv"))
        assert header == "epoch,updates,train_logptilde,valid_logptilde,two_log_z,ess_pct,seconds"
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["1", "2"]
        assert [r[1] for r in rows] == ["3", "6"]

    def test_progress_lines(self, workdir, capsys, tmp_path):
        rc = main(
            [
                "train",
                "--data", str(workdir / "bars.bbm"),
                "--layers", "4",
                "--k", "2",
                "--epochs", "1",
                "--batch", "30",
                "--seed", "3",
                "--out", str(tmp_path / "m.bihm"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"epoch 1 updates 2 train -\d+\.\d{4} valid nan", out)
        assert re.search(r"train wrote .*m\.bihm after 2 updates", out)

    def test_reproducible_across_runs(self, workdir, tmp_path):
        args = [
            "train",
            "--data", str(workdir / "bars.bbm"),
            "--layers", "5",
            "--k", "3",
            "--epochs", "2",
            "--batch", "20",
            "--seed", "9",
        ]
        for name in ("a", "b"):
            rc = main(args + ["--out", str(tmp_path / f"{name}.bihm"),
                              "--metrics", str(tmp_path / f"{name}.csv")])
            assert rc == 0
        bytes_a = open(tmp_path / "a.bihm", "rb").read()
        bytes_b = open(tmp_path / "b.bihm", "rb").read()
        assert bytes_a == bytes_b
        header_a, rows_a = read_metrics(str(tmp_path / "a.csv"))
        header_b, rows_b = read_metrics(str(tmp_path / "b.csv"))
        assert header_a == header_b
        for ra, rb in zip(rows_a, rows_b):
            # every column except wall-clock seconds is deterministic
            assert ra[:-1] == rb[:-1]

    def test_finetune_phase_continues_counters(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--data", str(workdir / "bars.bbm"),
                "--layers", "4",
                "--k", "2",
                "--epochs", "1",
                "--batch", "30",
                "--seed", "5",
                "--finetune-epochs", "2",
                "--finetune-k", "4",
                "--out", str(tmp_path / "ft.bihm"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch 3 updates 6" in out
        meta = load_checkpoint(str(tmp_path / "ft.bihm")).metadata
        assert meta["finetune_epochs"] == 2
        assert meta["finetune_k"] == 4

    @pytest.mark.parametrize(
        "options",
        [
            ["--finetune-epochs", "1", "--finetune-k", "-3"],
            ["--finetune-epochs", "1", "--finetune-lr", "-1"],
            ["--finetune-epochs", "-2"],
            ["--finetune-k", "-3", "--finetune-lr", "-1"],
        ],
        ids=["negative_k", "negative_lr", "negative_epochs", "phase_off"],
    )
    def test_bad_finetune_options_rejected_before_training(self, workdir, tmp_path, capsys, options):
        rc = main(
            [
                "train",
                "--data", str(workdir / "bars.bbm"),
                "--layers", "4",
                "--k", "2",
                "--epochs", "2",
                "--batch", "30",
                *options,
                "--out", str(tmp_path / "no.bihm"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ValueError:")
        assert captured.out == ""
        assert not (tmp_path / "no.bihm").exists()

    def test_bad_layer_spec(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--data", str(workdir / "bars.bbm"),
                "--layers", "6,x",
                "--out", str(tmp_path / "no.bihm"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ValueError:")


class TestEvalCommand:
    def test_pstar_line(self, workdir, capsys):
        rc = main(
            [
                "eval",
                "--model", str(workdir / "model.bihm"),
                "--data", str(workdir / "bars_valid.bbm"),
                "--k", "200",
                "--z-outer", "2000",
                "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert re.fullmatch(
            r"eval estimator=pstar mean=-\d+\.\d{6} se=\d+\.\d{6} "
            r"rows=20 k=200 log_z2=-?\d+\.\d{6}\n",
            out,
        )

    def test_pstar_se_counts_the_shared_z_error_once(self, workdir, capsys):
        # Every row subtracts the same log Z^2 estimate, so its standard
        # error enters the mean once instead of averaging down over rows.
        rc = main(
            [
                "eval",
                "--model", str(workdir / "model.bihm"),
                "--data", str(workdir / "bars_valid.bbm"),
                "--k", "50",
                "--z-outer", "500",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        model = load_checkpoint(str(workdir / "model.bihm")).model
        data = load_dataset(str(workdir / "bars_valid.bbm")).data
        rng = np.random.default_rng(3)
        values, ses = est_log_ptilde_rows(model, data, 50, rng)
        z = est_log_z2(model, ZEstimateConfig(500, 1), rng)
        se = math.sqrt(np.sum(ses**2) / len(ses) ** 2 + z.std_error**2)
        assert f" mean={float((values - z.value).mean()):.6f} se={se:.6f} " in out

    @pytest.mark.parametrize("estimator", ["ptilde", "p"])
    def test_direct_estimators(self, workdir, capsys, estimator):
        rc = main(
            [
                "eval",
                "--model", str(workdir / "model.bihm"),
                "--data", str(workdir / "bars_valid.bbm"),
                "--k", "100",
                "--estimator", estimator,
                "--seed", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"estimator={estimator} " in out
        assert "log_z2" not in out

    def test_column_mismatch(self, workdir, tmp_path, capsys):
        save_dataset(np.ones((3, 5)), str(tmp_path / "narrow.bbm"))
        rc = main(
            [
                "eval",
                "--model", str(workdir / "model.bihm"),
                "--data", str(tmp_path / "narrow.bbm"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ShapeError:")

    def test_empty_dataset(self, workdir, tmp_path, capsys):
        save_dataset(np.zeros((0, 16)), str(tmp_path / "empty.bbm"))
        rc = main(
            [
                "eval",
                "--model", str(workdir / "model.bihm"),
                "--data", str(tmp_path / "empty.bbm"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ShapeError:")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_must_be_positive(self, workdir, capsys, k):
        rc = main(
            [
                "eval",
                "--model", str(workdir / "model.bihm"),
                "--data", str(workdir / "bars_valid.bbm"),
                "--estimator", "p",
                "--k", k,
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: ValueError: k must be positive\n"

    @pytest.mark.parametrize("estimator", ["ptilde", "p", "pstar"])
    def test_z_options_checked_for_every_estimator(self, workdir, capsys, estimator):
        rc = main(
            [
                "eval",
                "--model", str(workdir / "model.bihm"),
                "--data", str(workdir / "bars_valid.bbm"),
                "--estimator", estimator,
                "--z-outer", "-5",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: ValueError: k_outer and k_inner must be positive\n"

    def test_missing_model_file(self, workdir, capsys):
        rc = main(
            [
                "eval",
                "--model", str(workdir / "never_written.bihm"),
                "--data", str(workdir / "bars.bbm"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: FileNotFoundError:")


class TestZestCommand:
    def test_output_line(self, workdir, capsys):
        rc = main(
            [
                "zest",
                "--model", str(workdir / "model.bihm"),
                "--k-outer", "3000",
                "--seed", "4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        match = re.fullmatch(
            r"zest log_z2=(-?\d+\.\d{6}) se=\d+\.\d{6} "
            r"bhattacharyya=(-?\d+\.\d{6}) k_outer=3000 k_inner=1\n",
            out,
        )
        assert match
        assert float(match.group(1)) <= 0.0
        assert float(match.group(2)) >= 0.0


class TestSampleCommand:
    def test_ancestral_expected_images(self, workdir, tmp_path, capsys):
        out_dir = str(tmp_path / "samples")
        rc = main(
            [
                "sample",
                "--model", str(workdir / "model.bihm"),
                "--count", "4",
                "--seed", "6",
                "--out", out_dir,
            ]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "sample wrote 4 images" in stdout
        files = sorted(os.listdir(out_dir))
        assert files == [f"sample_{i:03d}.pgm" for i in range(4)]
        values, width, height = read_pgm(os.path.join(out_dir, files[0]))
        assert (width, height) == (4, 4)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_binary_images_are_two_level(self, workdir, tmp_path):
        out_dir = str(tmp_path / "binary")
        rc = main(
            [
                "sample",
                "--model", str(workdir / "model.bihm"),
                "--count", "3",
                "--binary",
                "--seed", "6",
                "--out", out_dir,
            ]
        )
        assert rc == 0
        for name in os.listdir(out_dir):
            values, _, _ = read_pgm(os.path.join(out_dir, name))
            assert set(np.unique(values)) <= {0.0, 1.0}

    def test_gibbs_changes_the_output(self, workdir, tmp_path):
        base = [
            "sample",
            "--model", str(workdir / "model.bihm"),
            "--count", "4",
            "--binary",
            "--seed", "6",
        ]
        assert main(base + ["--gibbs", "0", "--out", str(tmp_path / "raw")]) == 0
        assert main(base + ["--gibbs", "2", "--prop-k", "5", "--out", str(tmp_path / "mixed")]) == 0
        raw = b"".join(
            open(os.path.join(tmp_path, "raw", n), "rb").read()
            for n in sorted(os.listdir(tmp_path / "raw"))
        )
        mixed = b"".join(
            open(os.path.join(tmp_path, "mixed", n), "rb").read()
            for n in sorted(os.listdir(tmp_path / "mixed"))
        )
        assert raw != mixed

    def test_explicit_geometry(self, workdir, tmp_path):
        out_dir = str(tmp_path / "wide")
        rc = main(
            [
                "sample",
                "--model", str(workdir / "model.bihm"),
                "--count", "1",
                "--width", "8",
                "--height", "2",
                "--out", out_dir,
            ]
        )
        assert rc == 0
        _, width, height = read_pgm(os.path.join(out_dir, "sample_000.pgm"))
        assert (width, height) == (8, 2)

    def test_geometry_mismatch(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "sample",
                "--model", str(workdir / "model.bihm"),
                "--count", "1",
                "--width", "3",
                "--height", "3",
                "--out", str(tmp_path / "no"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ValueError:")

    @pytest.mark.parametrize("gibbs", ["0", "2"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_must_be_positive(self, workdir, tmp_path, capsys, count, gibbs):
        out_dir = tmp_path / "none"
        rc = main(
            [
                "sample",
                "--model", str(workdir / "model.bihm"),
                "--count", count,
                "--gibbs", gibbs,
                "--out", str(out_dir),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: ValueError: count must be positive\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--width", "8"], "pass both --width and --height"),
            (["--height", "2"], "pass both --width and --height"),
            (["--width", "-4", "--height", "-4"], "image dimensions must be positive"),
            (["--width", "0", "--height", "16"], "image dimensions must be positive"),
            (["--gibbs", "-1"], "gibbs sweeps must be non-negative"),
            (["--prop-k", "0"], "--prop-k must be positive"),
        ],
        ids=["width_only", "height_only", "negative", "zero_width", "negative_gibbs", "zero_prop_k"],
    )
    def test_bad_options_rejected(self, workdir, tmp_path, capsys, options, message):
        out_dir = tmp_path / "none"
        rc = main(
            [
                "sample",
                "--model", str(workdir / "model.bihm"),
                "--count", "2",
                *options,
                "--out", str(out_dir),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {message}")
        assert not out_dir.exists()

    def test_non_square_needs_geometry(self, tmp_path, capsys):
        save_checkpoint(zero_model([6, 2]), {}, str(tmp_path / "six.bihm"))
        rc = main(
            [
                "sample",
                "--model", str(tmp_path / "six.bihm"),
                "--count", "1",
                "--out", str(tmp_path / "no"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: ValueError:" in err
        assert "--width" in err


class TestInpaintCommand:
    def test_completion_preserves_observed(self, workdir, tmp_path, capsys):
        image = np.zeros(16)
        image[:4] = 1.0
        mask = np.zeros(16)
        mask[:4] = 1.0
        write_pgm(image, 4, 4, str(tmp_path / "corrupt.pgm"))
        write_pgm(mask, 4, 4, str(tmp_path / "mask.pgm"))
        rc = main(
            [
                "inpaint",
                "--model", str(workdir / "model.bihm"),
                "--image", str(tmp_path / "corrupt.pgm"),
                "--mask", str(tmp_path / "mask.pgm"),
                "--gibbs", "3",
                "--seed", "8",
                "--out", str(tmp_path / "fixed"),
            ]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "inpaint wrote" in stdout
        values, width, height = read_pgm(str(tmp_path / "fixed" / "inpainted.pgm"))
        assert (width, height) == (4, 4)
        assert np.all(values[:4] == 1.0)
        assert set(np.unique(values)) <= {0.0, 1.0}

    def test_mask_size_mismatch(self, workdir, tmp_path, capsys):
        write_pgm(np.zeros(16), 4, 4, str(tmp_path / "img.pgm"))
        write_pgm(np.zeros(4), 2, 2, str(tmp_path / "m.pgm"))
        rc = main(
            [
                "inpaint",
                "--model", str(workdir / "model.bihm"),
                "--image", str(tmp_path / "img.pgm"),
                "--mask", str(tmp_path / "m.pgm"),
                "--out", str(tmp_path / "no"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ValueError:")

    def test_pixel_count_mismatch(self, workdir, tmp_path, capsys):
        write_pgm(np.zeros(4), 2, 2, str(tmp_path / "small.pgm"))
        rc = main(
            [
                "inpaint",
                "--model", str(workdir / "model.bihm"),
                "--image", str(tmp_path / "small.pgm"),
                "--mask", str(tmp_path / "small.pgm"),
                "--out", str(tmp_path / "no"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ShapeError:")


class TestOracleCommand:
    def test_bound_checks_pass(self, capsys):
        rc = main(["oracle", "--dims", "3,2", "--checks", "bound", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS ") for line in lines)
        assert any("z2_nonpositive" in line for line in lines)
        assert any("identity" in line for line in lines)

    def test_z_check_passes(self, capsys):
        rc = main(["oracle", "--dims", "3,2", "--checks", "z", "--k", "5000", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"PASS z_estimate: exact=-?\d+\.\d{5} est=-?\d+\.\d{5}", out)

    def test_grad_check_passes(self, capsys):
        rc = main(["oracle", "--dims", "3,2", "--checks", "grad", "--k", "5000", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS grad_fd" in out
        assert "PASS grad_minibatch" in out

    def test_all_checks_enumerate_the_table_once(self, capsys, monkeypatch):
        calls = []
        original = bihm.cli.exact_log_ptilde_by_x

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bihm.cli, "exact_log_ptilde_by_x", counting)
        rc = main(["oracle", "--dims", "3,2", "--checks", "all", "--k", "2000", "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.splitlines()) == 8
        assert len(calls) == 1

    @pytest.mark.parametrize("checks", ["bound", "gibbs"])
    def test_k_checked_when_no_check_uses_it(self, capsys, checks):
        rc = main(["oracle", "--dims", "3,2", "--checks", checks, "--k", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: ValueError: --k must be positive\n"

    def test_bad_dims(self, capsys):
        rc = main(["oracle", "--dims", "3,zebra"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ValueError:")

    def test_enumeration_cap(self, capsys):
        rc = main(["oracle", "--dims", "30,20", "--checks", "bound"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: EnumerationLimitError:")


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

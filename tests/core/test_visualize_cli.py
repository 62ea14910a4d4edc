"""Tests for the visualization helpers and the CLI."""

import numpy as np
import pytest

from repro.analysis.visualize import (
    ascii_image,
    dataset_contact_sheet,
    potential_trace,
    receptive_field_sheet,
    spike_raster,
    write_pgm,
)
from repro.core.errors import ReproError
from repro.snn.coding import SpikeTrain


class TestAsciiImage:
    def test_square_vector_reshaped(self):
        text = ascii_image(np.arange(16, dtype=float))
        assert len(text.splitlines()) == 4

    def test_dark_to_bright_ramp(self):
        text = ascii_image(np.array([[0.0, 1.0]]))
        assert text[0] == " " and text[-1] == "@"

    def test_constant_image_ok(self):
        text = ascii_image(np.full((2, 2), 5.0))
        assert len(text.splitlines()) == 2

    def test_non_square_vector_rejected(self):
        with pytest.raises(ReproError):
            ascii_image(np.arange(15, dtype=float))

    def test_3d_rejected(self):
        with pytest.raises(ReproError):
            ascii_image(np.zeros((2, 2, 2)))


class TestSpikeRaster:
    def test_raster_rows_and_marks(self):
        train = SpikeTrain(
            times=np.array([10.0, 250.0, 499.0]),
            inputs=np.array([0, 1, 2]),
            n_inputs=3,
            duration=500.0,
        )
        text = spike_raster(train, n_rows=3, n_bins=50)
        assert text.count("|") == 3
        assert "500 ms" in text

    def test_invalid_geometry_rejected(self):
        train = SpikeTrain(np.array([1.0]), np.array([0]), 1, 10.0)
        with pytest.raises(ReproError):
            spike_raster(train, n_rows=0)


class TestPotentialTrace:
    def test_marks_threshold_crossing(self):
        potentials = np.linspace(0, 10, 20).reshape(20, 1)
        text = potential_trace(potentials, thresholds=np.array([5.0]))
        assert "x" in text

    def test_one_line_per_neuron(self):
        potentials = np.random.default_rng(0).random((30, 4))
        assert len(potential_trace(potentials).splitlines()) == 4

    def test_bad_shape_rejected(self):
        with pytest.raises(ReproError):
            potential_trace(np.zeros(10))


class TestPGM:
    def test_writes_valid_p2(self, tmp_path):
        path = write_pgm(tmp_path / "x.pgm", np.array([[0.0, 1.0], [0.5, 0.25]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        values = [int(v) for row in lines[3:] for v in row.split()]
        assert max(values) == 255 and min(values) == 0

    def test_sheet_geometry(self):
        weights = np.random.default_rng(0).random((7, 16))
        sheet = receptive_field_sheet(weights, side=4, columns=3, pad=1)
        # 3 rows x 3 columns of 4-pixel tiles with 1-pixel padding.
        assert sheet.shape == (3 * 5 - 1, 3 * 5 - 1)

    def test_sheet_rejects_bad_width(self):
        with pytest.raises(ReproError):
            receptive_field_sheet(np.zeros((2, 10)), side=4)

    def test_contact_sheet_matches_fields(self):
        images = np.random.default_rng(1).random((4, 16))
        assert dataset_contact_sheet(images, side=4, columns=2).shape == (9, 9)


class TestCLI:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig14" in out

    def test_report_single_experiment(self, capsys):
        from repro.cli import main

        assert main(["report", "table6"]) == 0
        out = capsys.readouterr().out
        assert "measured:" in out and "paper:" in out

    def test_recommend_embedded(self, capsys):
        from repro.cli import main

        assert main(["recommend", "--max-area", "8"]) == 0
        out = capsys.readouterr().out
        assert "recommended: MLP" in out

    def test_recommend_infeasible_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["recommend", "--max-area", "0.001"]) == 1

    def test_sample_unknown_dataset(self, capsys):
        from repro.cli import main

        assert main(["sample", "nonsense"]) == 1

    def test_sample_digits(self, capsys):
        from repro.cli import main

        assert main(["sample", "digits", "--count", "2", "--columns", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 20


class TestCLIUnknownIds:
    def test_unknown_id_exits_2_with_known_ids(self, capsys):
        from repro.cli import EXIT_USAGE, main

        assert main(["report", "nosuch"]) == EXIT_USAGE == 2
        captured = capsys.readouterr()
        assert "unknown experiment id 'nosuch'" in captured.err
        assert "table1" in captured.err  # the known-ids list
        assert "Traceback" not in captured.err

    def test_unknown_id_fails_before_running_anything(self, capsys):
        from repro.cli import main

        # A valid id listed before the bad one must not run: validation
        # is up-front, so nothing prints to stdout.
        assert main(["report", "table6", "nosuch"]) == 2
        assert "measured:" not in capsys.readouterr().out


class TestCLIResilienceFlags:
    def test_report_with_retries_and_timeout(self, capsys):
        from repro.cli import main

        code = main(
            ["report", "table6", "--retries", "1", "--timeout", "120"]
        )
        assert code == 0
        assert "measured:" in capsys.readouterr().out

    def test_invalid_degrade_scale_exits_2(self, capsys):
        from repro.cli import main

        assert main(["report", "table6", "--degrade-scales", "1.5"]) == 2
        assert "degrade" in capsys.readouterr().err

    def test_default_flags_mean_no_policy(self):
        import argparse

        from repro.cli import _policy_from_args

        args = argparse.Namespace(
            retries=0,
            timeout=None,
            backoff=0.0,
            degrade_scales="",
        )
        assert _policy_from_args(args) is None

    def test_flags_build_validated_policy(self):
        import argparse

        from repro.cli import _policy_from_args

        args = argparse.Namespace(
            retries=2,
            timeout=30.0,
            backoff=0.5,
            degrade_scales="0.5, 0.25",
        )
        policy = _policy_from_args(args)
        assert policy.retries == 2
        assert policy.timeout_seconds == 30.0
        assert policy.degrade_scales == (0.5, 0.25)

    def test_checkpoint_dir_flag_is_gone(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["report", "table6", "--checkpoint-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

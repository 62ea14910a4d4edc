"""``repro ir-dump``: listings, stable JSON, and usage errors."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_USAGE, main
from repro.ir import PLAN_KINDS


class TestIrDump:
    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_listing_for_every_kind(self, kind, capsys):
        assert main(["ir-dump", kind]) == 0
        out = capsys.readouterr().out
        assert kind in out
        assert "STORE" in out

    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_json_has_stable_keys(self, kind, capsys):
        assert main(["ir-dump", kind, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "kind", "instructions", "buffers", "outputs", "signature",
        }
        assert doc["kind"] == kind
        assert doc["outputs"] == ["labels"]

    def test_unknown_kind_exits_usage(self, capsys):
        assert main(["ir-dump", "transformer"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown" in err
        for kind in PLAN_KINDS:
            assert kind in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ir-dump", "mlp-q", "--backend", "x"],
            ["loadtest", "--backend", "x"],
            ["backends"],
            ["loadtest", "--engine", "legacy"],
            ["loadtest", "--engine", "plan"],
        ],
    )
    def test_no_engine_selection_surface(self, argv, capsys):
        # One executor: argparse itself rejects every selection knob.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE

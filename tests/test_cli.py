"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_defaults(self):
        args = build_parser().parse_args(["flow"])
        assert args.design == "c17"
        assert args.opc == "rule"
        assert args.jobs == 1
        assert args.trace is None
        assert args.period is None  # auto-derived from the drawn STA

    def test_flow_jobs_and_trace(self):
        args = build_parser().parse_args(
            ["flow", "--jobs", "4", "--trace", "t.json"])
        assert args.jobs == 4
        assert args.trace == "t.json"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.design == "c17"
        assert args.jobs == 1

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "--design", "pentium4"])

    def test_flow_durability_defaults(self):
        args = build_parser().parse_args(["flow"])
        assert args.run_dir is None
        assert args.resume is False
        assert args.max_quarantine_fraction == 0.5

    def test_sweep_durability_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--run-dir", "rd", "--resume",
             "--max-quarantine-fraction", "0.25"])
        assert args.run_dir == "rd"
        assert args.resume is True
        assert args.max_quarantine_fraction == 0.25


class TestCommands:
    def test_flow_command_with_trace(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.json"
        assert main(["flow", "--design", "c17", "--opc", "none",
                     "--period", "500", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "WNS drawn" in out
        payload = json.loads(trace_file.read_text())
        names = [s["name"] for s in payload["stages"]]
        assert names[0] == "place" and "metrology" in names

    def test_too_small_design_size_is_a_validation_error(self, capsys):
        assert main(["flow", "--design-size", "40", "--opc", "none"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: design_size:")
        assert "no combinational budget" in err

    def test_sta_command(self, capsys):
        assert main(["sta", "--design", "rca4", "--period", "800", "--paths", "2"]) == 0
        out = capsys.readouterr().out
        assert "WNS" in out
        assert "Path to" in out

    def test_liberty_command_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "repro.lib"
        assert main(["liberty", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.startswith("library (")
        assert "cell (INV_X1)" in text

    def test_gds_command(self, tmp_path, capsys):
        out_file = tmp_path / "chip.gds"
        assert main(["gds", "--design", "c17", "--out", str(out_file)]) == 0
        from repro.gds import read_gds

        layout = read_gds(str(out_file))
        assert "CHIP" in layout
        assert "gates" in capsys.readouterr().out

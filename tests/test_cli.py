"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--policy", "warp-speed"])

    def test_rejects_unknown_regulator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mep", "--regulator", "boost"])

    @pytest.mark.parametrize(
        "argv", [["bench"], ["bench", "--fleet", "--planner"]]
    )
    def test_bench_requires_exactly_one_mode(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cell MPP" in out
        assert "converters" in out

    def test_info_at_custom_irradiance(self, capsys):
        assert main(["info", "--irradiance", "0.25"]) == 0
        assert "0.250" in capsys.readouterr().out

    def test_plan_all_policies(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "holistic-performance" in out
        assert "raw-solar" in out
        assert "sprint" in out

    def test_plan_single_policy(self, capsys):
        assert main(["plan", "--policy", "holistic-mep"]) == 0
        out = capsys.readouterr().out
        assert "holistic-mep" in out
        assert "raw-solar" not in out

    def test_mep(self, capsys):
        assert main(["mep", "--regulator", "buck"]) == 0
        out = capsys.readouterr().out
        assert "voltage shift" in out
        assert "energy saving" in out

    def test_throughput(self, capsys):
        assert main(["throughput", "--irradiances", "1.0", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "frames/s" in out
        assert out.count("\n") >= 4

    def test_throughput_reports_infeasible_darkness(self, capsys):
        assert main(["throughput", "--irradiances", "0.0"]) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        # A physically impossible sprint deadline surfaces as exit 1
        # with the error on stderr, not a traceback.
        code = main(["sprint", "--deadline-ms", "0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestAdmitAndFigures:
    def test_admit_reports_verdict(self, capsys):
        assert main(["admit", "--frame-rate", "25", "--irradiance", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "admitted" in out
        assert "minimum irradiance" in out

    def test_admit_rejects_oversubscription(self, capsys):
        assert main(
            ["admit", "--frame-rate", "200", "--irradiance", "0.1",
             "--latency-ms", "10"]
        ) == 0
        assert "False" in capsys.readouterr().out

    def test_figures_export(self, tmp_path, capsys):
        out_dir = str(tmp_path / "fig")
        assert main(["figures", "--out", out_dir, "--figures", "fig3"]) == 0
        printed = capsys.readouterr().out
        assert "fig3.json" in printed

    def test_figures_unknown_id(self, capsys):
        assert main(["figures", "--figures", "fig42"]) == 1
        assert "unknown" in capsys.readouterr().err


class TestFaults:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--scheme", "lucky"])

    def test_small_campaign_prints_summary(self, capsys):
        assert main(
            ["faults", "--runs", "2", "--duration-ms", "40",
             "--scheme", "holistic"]
        ) == 0
        out = capsys.readouterr().out
        assert "survival_rate" in out
        assert "mean_throughput_ratio" in out
        assert "holistic" in out

    def test_quiet_suppresses_progress(self, capsys):
        assert main(
            ["faults", "--runs", "2", "--duration-ms", "40",
             "--scheme", "holistic", "--progress", "--quiet"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "survival_rate" in captured.out

    def test_telemetry_out_writes_scheme_metrics(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "telemetry"
        assert main(
            ["faults", "--runs", "2", "--duration-ms", "40",
             "--scheme", "holistic", "--quiet",
             "--telemetry-out", str(out_dir)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads((out_dir / "holistic_metrics.json").read_text())
        assert payload["scheme"] == "holistic"
        assert payload["runs"] == 2
        assert "engine.steps.sum" in payload["aggregate"]
        assert len(payload["per_run"]) == 2
        for per_run in payload["per_run"].values():
            assert "engine.steps" in per_run


class TestTrace:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "warp"])

    def test_fig8_writes_chrome_trace_and_jsonl(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "fig8", "--out", str(trace_path),
             "--jsonl", str(jsonl_path)]
        ) == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out
        assert "spans" in out

        payload = json.loads(trace_path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "M" in phases  # named thread rows
        assert "X" in phases  # at least the engine.run span
        assert "metrics" in payload["otherData"]

        records = [
            json.loads(line)
            for line in jsonl_path.read_text().splitlines()
        ]
        assert any(r["kind"] == "span" for r in records)
        assert any(r["kind"] == "metric" for r in records)

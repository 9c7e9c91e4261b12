"""Tests for the ``repro gateway`` CLI command."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.gateway import ShardedGateway
from tests.gateway.conftest import PARAMS


FAST = [
    "gateway",
    "--duration", "0.6",
    "--nodes", "1",
    "--period", "0.25",
    "--payload-len", "4",
    "--seed", "0",
]


@pytest.fixture
def run_reports(monkeypatch):
    """Every report a :meth:`ShardedGateway.run` returns during the test."""
    reports = []
    original = ShardedGateway.run

    def recording_run(self, source):
        report = original(self, source)
        reports.append(report)
        return report

    monkeypatch.setattr(ShardedGateway, "run", recording_run)
    return reports


class TestGatewayCommand:
    def test_default_run_is_one_shard(self, run_reports, capsys):
        assert main(FAST) == 0
        assert "across 1 channel(s)" in capsys.readouterr().out
        (report,) = run_reports
        assert list(report.shards) == ["ch0.sf7"]

    def test_replay_is_one_shard(self, run_reports, tmp_path, capsys):
        path = tmp_path / "capture.npy"
        np.save(path, np.zeros(40 * PARAMS.samples_per_symbol, dtype=complex))
        assert main(["gateway", "--input", str(path), "--sf", "8"]) == 0
        assert "replaying" in capsys.readouterr().out
        (report,) = run_reports
        assert list(report.shards) == ["ch0.sf8"]

    def test_synthetic_run_prints_summary(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        assert "synthesizing" in out
        assert "gateway run summary" in out
        assert "ground truth" in out
        assert "decoded" in out and "p95=" in out

    def test_telemetry_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        assert main(FAST + ["--telemetry-out", str(path)]) == 0
        assert "telemetry written" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert any(r["metric"] == "decode.decode_s" for r in records)

    def test_replay_from_file(self, tmp_path, capsys):
        # A short noise-only capture: the replay path must run cleanly
        # and report zero detections.
        rng = np.random.default_rng(0)
        n = 40 * PARAMS.samples_per_symbol
        capture = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        path = tmp_path / "capture.npy"
        np.save(path, capture.astype(complex))
        assert main(["gateway", "--input", str(path), "--payload-len", "4"]) == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "gateway run summary" in out

    def test_workers_and_executor_flags(self, capsys):
        assert main(FAST + ["--workers", "2", "--executor", "thread"]) == 0
        assert "gateway run summary" in capsys.readouterr().out

    def test_metrics_out_writes_prometheus(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(FAST + ["--metrics-out", str(path)]) == 0
        assert "metrics written" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE repro_decode_crc_ok_total counter" in text

    def test_trace_out_then_forensics(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(FAST + ["--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        assert "repro forensics" in out  # the follow-up hint
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["kind"] == "header"
        assert any(row["kind"] == "outcome" for row in rows)

        assert main(["forensics", str(path)]) == 0
        report = capsys.readouterr().out
        assert "packet forensics:" in report
        assert "RECOVERED" in report

    def test_forensics_json_flag(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(FAST + ["--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["forensics", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["packets"]

    def test_trace_sample_rate_zero_on_clean_run(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            FAST + ["--trace-out", str(path), "--trace-sample-rate", "0.0"]
        ) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        # Clean traffic at rate 0: outcome rows, but no retained span trees.
        assert any(row["kind"] == "outcome" for row in rows)
        assert not any(row["kind"] == "packet" for row in rows)


class TestMultiChannelCommand:
    MULTI = [
        "gateway",
        "--channels", "2",
        "--sf-set", "7,8",
        "--nodes", "2",
        "--duration", "0.5",
        "--period", "0.25",
        "--payload-len", "4",
        "--seed", "0",
    ]

    def test_sharded_run_prints_per_shard_table(self, capsys):
        assert main(self.MULTI) == 0
        out = capsys.readouterr().out
        assert "wideband traffic" in out
        assert "2 channel(s)" in out and "SF set 7,8" in out
        assert "per-shard recovery" in out
        assert "ch0.sf7" in out and "ch1.sf8" in out
        assert "all-shards" in out

    def test_sf_set_alone_triggers_sharded_mode(self, capsys):
        args = self.MULTI[:1] + self.MULTI[3:]  # drop "--channels 2"
        assert main(args) == 0
        assert "1 channel(s)" in capsys.readouterr().out

    def test_replay_input_is_single_channel_only(self, tmp_path, capsys):
        path = tmp_path / "capture.npy"
        np.save(path, np.zeros(16, dtype=complex))
        assert main(self.MULTI + ["--input", str(path)]) == 2
        assert "single-channel only" in capsys.readouterr().err

    def test_sf_set_validation(self):
        import pytest

        with pytest.raises(SystemExit):
            main(FAST + ["--sf-set", "7,x"])

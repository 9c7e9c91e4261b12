"""``tools/bench_report.py``: the one-gateway benchmark and its rerun path."""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_report", REPO_ROOT / "tools" / "bench_report.py"
)
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)

#: Committed reports that ``--compare`` re-runs (manifests go through
#: ``repro diff`` instead and carry no ``benchmark`` key).
RERUNNABLE = sorted(
    path.name
    for path in REPO_ROOT.glob("BENCH_*.json")
    if "benchmark" in json.loads(path.read_text())
)


def test_single_channel_run_reports_one_shard():
    result = bench_report.run_benchmark(
        duration_s=0.6,
        n_nodes=1,
        period_s=0.25,
        n_workers=1,
        executor="serial",
        n_channels=1,
    )
    assert list(result["shards"]) == ["ch0.sf7"]
    assert result["shards"]["ch0.sf7"]["detected"] == result["counts"]["detected"]


def test_committed_reports_are_rerunnable():
    assert {"BENCH_decode.json", "BENCH_gateway.json"} <= set(RERUNNABLE)


@pytest.mark.parametrize("name", RERUNNABLE)
def test_committed_config_binds_to_its_runner(name):
    # --compare re-runs run_benchmark(**config): a config key the tool no
    # longer accepts would fail there with a TypeError, after the fact.
    baseline = json.loads((REPO_ROOT / name).read_text())
    runner = bench_report.runner_for(baseline)
    inspect.signature(runner).bind(**baseline["config"])

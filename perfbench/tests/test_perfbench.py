"""The benchmark's own tests (not part of the repository's tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

The smoke tests replay tiny versions of both workloads through the real
driver (fresh receiver processes included), so they take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench.driver import check_digests, run_benchmark
from perfbench.receiver import gate
from perfbench.tracing import HookError, classify_detections, resolve_hooks
from perfbench.workloads import CAPTURE_FILE, TRUTH_FILE, WORKLOADS, build_sources, render

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Both workloads shrunk to a fraction of a second of air.
TINY = {
    "urban-8ch": dataclasses.replace(WORKLOADS["urban-8ch"], n_frames=8),
    "collision-1ch": dataclasses.replace(WORKLOADS["collision-1ch"], n_frames=6),
}


def metric_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_prints_every_metric_with_its_unit(name, tmp_path):
    workload = TINY[name]
    untraced = run_benchmark(workload, seed=3, seconds=0, trace=False, cache=tmp_path)
    result = untraced["result"]
    assert result["correct"], untraced["report"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metric_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = run_benchmark(workload, seed=3, seconds=0, trace=True, cache=tmp_path)
    result = traced["result"]
    assert result["correct"], traced["report"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metric_units("per_layer")
    assert result["metrics"]["ingest.attributed_share"]["value"] >= 0.9
    assert result["metrics"]["decode.attributed_share"]["value"] >= 0.9
    text = "\n".join(traced["report"])
    assert "ingest.unattributed_s" in text and "trace.overhead" in text


def test_gate_fires_on_an_injected_wrong_payload(tmp_path):
    workload = TINY["collision-1ch"]
    clean = run_benchmark(workload, seed=3, seconds=0, trace=False, cache=tmp_path)
    assert clean["result"]["correct"]
    # Corrupt the ground truth of every frame, so whatever the receiver
    # delivers no longer matches what was "transmitted".
    directory = next(p for p in tmp_path.iterdir() if p.name.startswith(workload.name))
    truth_path = directory / TRUTH_FILE
    truth = json.loads(truth_path.read_text())
    for row in truth:
        payload = bytearray.fromhex(row["payload"])
        payload[-1] ^= 0xFF
        row["payload"] = payload.hex()
    truth_path.write_text(json.dumps(truth))
    tampered = run_benchmark(workload, seed=3, seconds=0, trace=False, cache=tmp_path)
    result = tampered["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("wrong payload" in line for line in tampered["report"])


def test_gate_flags_wrong_payloads_and_duplicate_deliveries():
    truth = [{"device_addr": 1, "fcnt": 0, "payload": "01000000aabbccdd"}]
    assert gate([(1, 0, "01000000aabbccdd")], truth) == []
    wrong = gate([(1, 0, "01000000aabbccde")], truth)
    assert len(wrong) == 1 and "wrong payload" in wrong[0]
    twice = gate([(1, 0, "01000000aabbccdd")] * 2, truth)
    assert len(twice) == 1 and "duplicate delivery" in twice[0]
    unknown = gate([(2, 0, "02000000aabbccdd")], truth)
    assert len(unknown) == 1 and "wrong payload" in unknown[0]


def test_digest_mismatch_fails_across_passes_and_runs(tmp_path):
    workload = TINY["collision-1ch"]
    same = [{"digest": "a" * 64, "executor": "thread"}] * 2
    assert check_digests(same, workload, 1, tmp_path) == []
    assert check_digests(same, workload, 1, tmp_path) == []
    other = [{"digest": "b" * 64, "executor": "thread"}]
    assert check_digests(other, workload, 1, tmp_path)
    mixed = [{"digest": "a" * 64, "executor": "thread"}, {"digest": "b" * 64, "executor": "serial"}]
    assert check_digests(mixed, workload, 2, tmp_path)


def frame(channel, sf, start, frame_samples=3584):
    return {
        "channel": channel,
        "spreading_factor": sf,
        "start_sample": start,
        "frame_samples": frame_samples,
    }


def test_classifier_labels_a_sibling_sf_detection():
    sps = {7: 128, 8: 256}
    truth = [frame(0, 7, 10_000), frame(2, 8, 50_000, frame_samples=7168)]
    detections = [
        (0, 8, 10_000),  # the SF8 scanner firing on channel 0's SF7 frame
        (0, 7, 10_000),  # the SF7 scanner on the same frame: true
        (0, 7, 10_512),  # fires again inside the claimed frame: duplicate
        (1, 7, 30_000),  # nothing on channel 1: noise
    ]
    counts = classify_detections(detections, truth, sps)
    assert counts["sibling_sf"] == 1
    assert counts["true"] == 1
    assert counts["duplicate"] == 1
    assert counts["noise"] == 1
    assert counts["missed"] == 1  # channel 2's SF8 frame was never detected
    assert counts["precision"] == pytest.approx(0.25)


def test_hook_check_names_a_missing_target():
    assert len(resolve_hooks()) >= 10
    with pytest.raises(HookError, match="repro.gateway.runtime.StreamScanner.scan_all"):
        resolve_hooks([("repro.gateway.runtime", "StreamScanner.scan_all", "runtime")])
    with pytest.raises(HookError, match="repro.gateway.nowhere"):
        resolve_hooks([("repro.gateway.nowhere", "Thing.run", "runtime")])


@pytest.mark.parametrize("name", sorted(TINY))
def test_rendered_capture_is_bit_exact_with_the_live_source(name, tmp_path):
    workload = TINY[name]
    render(workload, 5, tmp_path)
    captured = np.fromfile(tmp_path / CAPTURE_FILE, dtype=np.complex128)
    sources, _plan = build_sources(workload, 5)
    expected = np.concatenate([chunk for source in sources for chunk in source.chunks()])
    assert captured.dtype == expected.dtype
    assert np.array_equal(captured, expected)
    truth = json.loads((tmp_path / TRUTH_FILE).read_text())
    assert len(truth) == workload.n_frames  # every node reports exactly once
    sent = [p.payload.hex() for source in sources for p in source.transmitted]
    assert [row["payload"] for row in truth] == sent
    assert len({(row["device_addr"], row["fcnt"]) for row in truth}) == len(truth)


@pytest.mark.parametrize(
    "name, n_frames, collided",
    [
        ("urban-8ch", 24, 0),  # one frame per channel per segment
        ("collision-1ch", 30, 20),  # (1, 2, 0, 0): both frames of each pair
    ],
)
def test_segments_fix_which_frames_collide(name, n_frames, collided, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], n_frames=n_frames)
    render(workload, 7, tmp_path)
    truth = json.loads((tmp_path / TRUTH_FILE).read_text())

    def overlap(a, b):
        return (
            a["channel"] == b["channel"]
            and a["start_sample"] < b["start_sample"] + b["frame_samples"]
            and b["start_sample"] < a["start_sample"] + a["frame_samples"]
        )

    hit = [any(overlap(row, other) for other in truth if other is not row) for row in truth]
    assert sum(hit) == collided


def test_traced_capture_keeps_whole_rounds():
    urban = WORKLOADS["urban-8ch"].traced()
    collision = WORKLOADS["collision-1ch"].traced()
    assert urban.n_frames == WORKLOADS["urban-8ch"].n_frames // 2
    assert urban.n_frames % 8 == 0
    assert collision.n_frames % 3 == 0
    assert 0 < collision.n_frames <= WORKLOADS["collision-1ch"].n_frames // 2
    assert TINY["urban-8ch"].traced().n_frames == 8  # never below one round

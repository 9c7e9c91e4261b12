"""One receiver process: render a capture, probe set-up, or replay a pass.

Run by the driver as ``python -m perfbench.receiver <mode> --dir <capture dir>``
in a fresh interpreter per invocation, one at a time:

* ``render`` -- render the workload described by the directory's
  ``workload.json`` under ``--seed`` (see :func:`perfbench.workloads.render`);
* ``probe`` -- build the receiver exactly as a pass does, stop at the
  first chunk pull and report the set-up time;
* ``pass`` -- replay the capture chunk by chunk through
  ``ShardedGateway.run`` -> ``on_outcome`` -> ``uplink_from_outcome`` ->
  ``NetworkServer.handle_uplink`` and report timings, the correctness
  gate's findings and the delivered-set digest (``--trace`` adds the
  per-layer numbers, ``--executor serial`` gives the single-threaded
  baseline).

The result is printed as the last stdout line, one JSON object.
``--spawned-at`` is the driver's ``time.monotonic()`` just before the
spawn (a system-wide clock on Linux), so set-up time covers interpreter
start, imports, and building the gateway and server.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.tracing import (
    Tracer,
    classify_detections,
    covered,
    layer_totals,
    percentile,
    resolve_hooks,
)
from perfbench.workloads import (
    CAPTURE_FILE,
    CHUNK_SAMPLES,
    RECEIVER,
    SPEC_FILE,
    TRUTH_FILE,
    WORKLOAD_FILE,
    render,
    workload_from_spec,
)


def gate(
    delivered: Sequence[Tuple[int, int, str]],
    truth: Sequence[Dict[str, Any]],
) -> List[str]:
    """Correctness findings for one pass's delivered ``(devaddr, fcnt, payload hex)``.

    A delivered payload must be the payload transmitted under its
    ``(devaddr, fcnt)`` key, and no key may be delivered twice.
    """
    expected = {(row["device_addr"], row["fcnt"]): row["payload"] for row in truth}
    findings = []
    seen = set()
    for device_addr, fcnt, payload in delivered:
        key = (device_addr, fcnt)
        if key in seen:
            findings.append(f"duplicate delivery of devaddr={device_addr} fcnt={fcnt}")
        seen.add(key)
        if expected.get(key) != payload:
            findings.append(
                f"wrong payload delivered for devaddr={device_addr} fcnt={fcnt}: {payload}"
            )
    return findings


def digest(delivered: Sequence[Tuple[int, int, str]]) -> str:
    """Order-independent hash of the delivered set."""
    lines = sorted(f"{a}:{f}:{p}" for a, f, p in delivered)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class ReplaySource:
    """Closed-loop replay: reads the next chunk from disk when ``run()`` pulls it.

    Holds one chunk at a time.  ``handoff[k]`` is the ``perf_counter``
    time chunk ``k`` was handed to the gateway, and ``cpu0`` the process
    CPU time at the first hand-off; ``setup_s`` is stamped at the first
    pull.  With ``probe=True`` the stream is empty, so the
    gateway builds everything and returns at once.
    """

    def __init__(
        self,
        params: Any,
        path: Path,
        chunk_samples: int,
        n_chunks: int,
        spawned_at: float,
        probe: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.params = params
        self.path = path
        self.chunk_samples = chunk_samples
        self.n_chunks = n_chunks
        self.spawned_at = spawned_at
        self.probe = probe
        self.tracer = tracer
        self.handoff: List[float] = []
        self.setup_s = float("nan")
        self.cpu0 = float("nan")

    def chunks(self) -> Iterator[Any]:
        import numpy as np

        self.setup_s = time.monotonic() - self.spawned_at
        if self.probe:
            return
        ident = threading.get_ident()
        with open(self.path, "rb") as fh:
            for _ in range(self.n_chunks):
                t0 = time.perf_counter()
                c0 = time.thread_time()
                chunk = np.fromfile(fh, dtype=np.complex128, count=self.chunk_samples)
                now = time.perf_counter()
                if self.tracer is not None:
                    cpu = time.thread_time() - c0
                    self.tracer.spans.append(
                        ("replay", t0, now, cpu, now - t0, cpu, ident, None)
                    )
                if not self.handoff:
                    self.cpu0 = time.process_time()
                self.handoff.append(now)
                yield chunk


def build_receiver(spec: Dict[str, Any], executor: str) -> Tuple[Any, Any, Any]:
    """The gateway config, server and channel plan a workload's pass runs."""
    from repro.gateway.sharded import ShardedGatewayConfig
    from repro.phy.params import ChannelPlan
    from repro.server import NetworkServer, ServerConfig

    wl = workload_from_spec(spec)
    plan = ChannelPlan.eu868_style(wl.n_channels)
    config = ShardedGatewayConfig(
        plan=plan, sf_set=wl.spreading_factors, executor=executor, **RECEIVER
    )
    server = NetworkServer(ServerConfig(decode_tier=RECEIVER["decode_tier"]))
    return config, server, plan


def run_pass(
    directory: Path,
    spawned_at: float,
    executor: str = "thread",
    trace: bool = False,
    probe: bool = False,
) -> Dict[str, Any]:
    """Replay the capture in ``directory`` once and measure it."""
    spec = json.loads((directory / SPEC_FILE).read_text())
    truth = json.loads((directory / TRUTH_FILE).read_text())
    tracer: Optional[Tracer] = None
    detections: List[Tuple[int, int, int]] = []
    outcomes: List[Any] = []
    evicted = [0]
    if trace:
        hooks = resolve_hooks()
        lead = {int(sf): 2 * n for sf, n in spec["samples_per_symbol"].items()}

        def on_submit(args: Tuple[Any, ...], result: Any) -> None:
            job = args[1]
            sf = job.params.spreading_factor
            detections.append((job.channel, sf, job.start_sample + lead[sf]))

        def on_decode(args: Tuple[Any, ...], result: Any) -> None:
            outcomes.append(result)

        def on_append(args: Tuple[Any, ...], result: Any) -> None:
            evicted[0] += int(result)

        tracer = Tracer()
        tracer.install(
            hooks,
            {
                "DecodeWorkerPool.submit": on_submit,
                "decode_packet_window": on_decode,
                "SampleRing.append": on_append,
            },
        )

    from repro.gateway.sharded import ShardedGateway
    from repro.server.frames import uplink_from_outcome

    config, server, plan = build_receiver(spec, executor)
    first_ok: Dict[Tuple[int, int], float] = {}
    outcome_done: Dict[Tuple[int, ...], float] = {}

    # Called from the one decode worker thread (or inline by the serial
    # executor), never from two threads at once.
    def on_outcome(outcome: Any) -> None:
        frame = uplink_from_outcome(outcome, 0, plan.bandwidth)
        if frame is not None:
            first_ok.setdefault(frame.key, time.perf_counter())
            server.handle_uplink(frame)
        if tracer is not None:
            outcome_done[outcome.key] = time.perf_counter()

    gateway = ShardedGateway(config, on_outcome=on_outcome)
    source = ReplaySource(
        config.shard_params(config.sf_set[0]),
        directory / CAPTURE_FILE,
        CHUNK_SAMPLES,
        0 if probe else spec["n_chunks"],
        spawned_at,
        probe=probe,
        tracer=tracer,
    )
    report = gateway.run(source)
    end = time.perf_counter()
    cpu = time.process_time() - source.cpu0
    if tracer is not None:
        tracer.uninstall()
    if probe:
        return {"setup_s": source.setup_s}
    server_report = server.finish()
    start = source.handoff[0]
    wall = end - start
    air_s = spec["air_s"]
    delivered = [
        (u.frame.device_addr, u.frame.fcnt, u.frame.payload.hex())
        for u in server_report.delivered
    ]
    findings = gate(delivered, truth)
    if report.decode_errors:
        findings.append(f"{report.decode_errors} decode errors")
    if report.samples_evicted:
        findings.append(f"{report.samples_evicted} samples evicted from the rings")
    delivered_keys = {(a, f) for a, f, _ in delivered}
    latencies = [
        first_ok[key] - source.handoff[row["end_chunk"]]
        for row in truth
        for key in [(row["device_addr"], row["fcnt"])]
        if key in delivered_keys and key in first_ok
    ]
    import numpy

    result: Dict[str, Any] = {
        "numpy": numpy.__version__,
        "executor": executor,
        "setup_s": source.setup_s,
        "wall_s": wall,
        "realtime_factor": air_s / wall,
        "cpu_s_per_air_s": cpu / air_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "transmitted": len(truth),
        "delivered": len(delivered_keys & {(r["device_addr"], r["fcnt"]) for r in truth}),
        "latency_samples": len(latencies),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "findings": findings,
        "digest": digest(delivered),
    }
    if tracer is not None:
        tracer.write(directory / "spans.jsonl")
        result["layers"] = layer_metrics(
            tracer,
            spec,
            truth,
            detections,
            outcomes,
            outcome_done,
            evicted[0],
            report,
            server_report,
            start,
            end,
        )
    return result


def layer_metrics(
    tracer: Tracer,
    spec: Dict[str, Any],
    truth: Sequence[Dict[str, Any]],
    detections: Sequence[Tuple[int, int, int]],
    outcomes: Sequence[Any],
    outcome_done: Dict[Tuple[int, ...], float],
    evicted: int,
    report: Any,
    server_report: Any,
    start: float,
    end: float,
) -> Dict[str, float]:
    """The per-layer numbers of one traced pass."""
    totals = layer_totals(tracer.spans)

    def total(layer: str, field: str) -> float:
        return float(totals.get(layer, {}).get(field, 0.0))

    ingest = threading.main_thread().ident
    top_level = [
        (t0, t1)
        for layer, t0, t1, _c, _sw, _sc, thread, _k in tracer.spans
        if thread == ingest
    ]
    ingest_wall = end - start
    attributed = covered(top_level, start, end)
    # Decode worker: a job is busy from decode entry until the outcome
    # hook returns; named layers inside it are cascade and server.
    decode_start = {
        key: t0
        for layer, t0, _t1, _c, _sw, _sc, thread, key in tracer.spans
        if layer == "cascade" and thread != ingest and key is not None
    }
    busy = sum(outcome_done[k] - t0 for k, t0 in decode_start.items() if k in outcome_done)
    worker_named = sum(
        t1 - t0
        for layer, t0, t1, _c, _sw, _sc, thread, _k in tracer.spans
        if layer in ("cascade", "server") and thread != ingest
    )
    decode_walls = [
        t1 - t0 for layer, t0, t1, *_rest in tracer.spans if layer == "cascade"
    ]
    n_calls = len(outcomes)
    waits = [o.queue_wait_s for o in outcomes]
    sps = {int(sf): n for sf, n in spec["samples_per_symbol"].items()}
    classes = classify_detections(detections, truth, sps)
    return {
        "runtime.cpu_s": total("runtime", "self_cpu_s"),
        "runtime.wall_s": total("runtime", "self_wall_s"),
        "runtime.calls": total("runtime", "calls"),
        "runtime.detections": float(len(detections)),
        "runtime.true": float(classes["true"]),
        "runtime.sibling_sf": float(classes["sibling_sf"]),
        "runtime.duplicate": float(classes["duplicate"]),
        "runtime.noise": float(classes["noise"]),
        "runtime.missed": float(classes["missed"]),
        "runtime.precision": float(classes["precision"]),
        "cascade.calls": float(n_calls),
        "cascade.cpu_s": total("cascade", "self_cpu_s"),
        "cascade.wall_p50_s": percentile(decode_walls, 50),
        "cascade.wall_p90_s": percentile(decode_walls, 90),
        "cascade.tier0_share": (
            sum(1 for o in outcomes if o.tier == "tier0") / n_calls if n_calls else 0.0
        ),
        "cascade.escalated": float(
            sum(1 for o in outcomes if o.escalation_reason is not None)
        ),
        "cascade.crc_ok_ratio": (
            sum(1 for o in outcomes if o.crc_ok) / n_calls if n_calls else 0.0
        ),
        "cascade.sync_retries": float(sum(o.sync_retries for o in outcomes)),
        "cascade.errors": float(
            sum(1 for o in outcomes if o.error is not None)
            + tracer.errors.get("cascade", 0)
        ),
        "workers.submit_wall_s": total("workers.submit", "self_wall_s"),
        "workers.close_wall_s": total("workers.close", "self_wall_s"),
        "workers.queue_wait_p50_s": percentile(waits, 50),
        "workers.queue_wait_p90_s": percentile(waits, 90),
        "workers.dropped": float(report.packets_dropped),
        "channelizer.cpu_s": total("channelizer", "self_cpu_s"),
        "channelizer.calls": total("channelizer", "calls"),
        "ring.cpu_s": total("ring", "self_cpu_s"),
        "ring.evicted_samples": float(evicted),
        "server.cpu_s": total("server", "self_cpu_s"),
        "server.calls": total("server", "calls"),
        "server.duplicates": float(server_report.n_duplicates),
        "replay.wall_s": total("replay", "self_wall_s"),
        "ingest.wall_s": ingest_wall,
        "ingest.unattributed_s": ingest_wall - attributed,
        "ingest.attributed_share": attributed / ingest_wall,
        "decode.busy_s": busy,
        "decode.attributed_share": worker_named / busy if busy > 0 else 0.0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.receiver")
    parser.add_argument("mode", choices=("render", "probe", "pass"))
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--executor", choices=("thread", "serial"), default="thread")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    if args.mode == "render":
        wl = workload_from_spec({"workload": json.loads((args.dir / WORKLOAD_FILE).read_text())})
        result: Dict[str, Any] = render(wl, args.seed, args.dir)
    else:
        result = run_pass(
            args.dir,
            spawned_at,
            executor=args.executor,
            trace=args.trace,
            probe=args.mode == "probe",
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

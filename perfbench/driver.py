"""The benchmark command: render, probe, replay, check, report.

One run of ``perfbench/run.py --workload W --seed S --seconds T --trace X``:

1. renders (W, S) into the cache unless an identical render is there;
2. ``--trace 0``: replays the capture in a fresh receiver process per pass,
   starting another pass only while it is expected to end within ``T``
   seconds (at least one pass), with three set-up probes before the
   passes and three after, and reports the end-to-end metrics as medians
   over passes (``setup_s`` as the fastest of probes and passes);
3. ``--trace 1``: renders the workload's traced capture, half its frames,
   and replays it in one untraced pass, one traced pass and one pass with
   the serial executor, reporting the per-layer metrics;
4. fails the correctness gate if any pass delivered a wrong payload or
   a key twice, hit a decode error or a ring eviction, or if the
   delivered-set digests of the passes, or of earlier runs of the same
   (W, S) recorded in the cache, differ.

Every child runs one at a time with single-threaded BLAS.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench.workloads import SPEC_FILE, WORKLOAD_FILE, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path(__file__).resolve().parent / ".cache"

#: Hard ceiling on one run's wall time, below the 180 s the contract allows.
RUN_BUDGET_S = 175.0

#: Set-up probes per ``--trace 0`` run (each pass process adds one sample).
SETUP_PROBES = 6

#: Metric names and units, from ``BENCHMARK.json``.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Pass-result fields too seed-sensitive to bound (see NOTES.md): printed by
#: every run, and reported as per-layer metrics from the untraced pass of
#: a ``--trace 1`` run.
UNBOUNDED = ("latency_p50_s", "latency_p90_s", "peak_rss_mb")


class ChildError(RuntimeError):
    """A receiver process failed or overran the run budget."""


def child_env() -> Dict[str, str]:
    """Environment of every receiver process: one BLAS thread, repo on the path."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    return env


class Runner:
    """Spawns receiver processes strictly one at a time within a deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    def child(self, mode: str, directory: Path, *extra: str) -> Dict[str, Any]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError(f"run budget of {RUN_BUDGET_S:.0f} s exhausted before {mode}")
        spawned_at = time.monotonic()
        cmd = [
            sys.executable,
            "-m",
            "perfbench.receiver",
            mode,
            "--dir",
            str(directory),
            "--spawned-at",
            repr(spawned_at),
            *extra,
        ]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                text=True,
                timeout=remaining,
                check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildError(f"{mode} exceeded the run budget of {RUN_BUDGET_S:.0f} s") from exc
        if proc.returncode != 0:
            raise ChildError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def capture_dir(workload: Workload, seed: int, cache: Path) -> Path:
    return cache / f"{workload.name}-{workload.fingerprint()}-s{seed}"


def ensure_rendered(runner: Runner, workload: Workload, seed: int, cache: Path) -> Path:
    """The capture directory of (workload, seed), rendering it if absent.

    Other captures of the same workload are deleted first, so the cache
    holds one capture per workload however many seeds are run.
    """
    directory = capture_dir(workload, seed, cache)
    if (directory / SPEC_FILE).is_file():
        return directory
    if cache.is_dir():
        for stale in cache.glob(f"{workload.name}-*"):
            if stale.is_dir() and stale != directory:
                shutil.rmtree(stale)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / WORKLOAD_FILE).write_text(json.dumps(asdict(workload)))
    runner.child("render", directory, "--seed", str(seed))
    return directory


def check_digests(
    passes: Sequence[Dict[str, Any]], workload: Workload, seed: int, cache: Path
) -> List[str]:
    """Findings if the passes' delivered sets differ from each other or history."""
    record = cache / "digests" / f"{workload.name}-{workload.fingerprint()}-s{seed}.txt"
    digests = {p["digest"] for p in passes}
    findings = []
    if len(digests) > 1:
        labels = ", ".join(f"{p['executor']}:{p['digest'][:12]}" for p in passes)
        findings.append(f"delivered-set digests differ across passes ({labels})")
    if record.is_file():
        known = record.read_text().strip()
        if known not in digests or len(digests) > 1:
            findings.append(f"delivered-set digest differs from an earlier run ({known[:12]})")
    elif len(digests) == 1:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digests.pop() + "\n")
    return findings


def end_to_end(passes: Sequence[Dict[str, Any]], setups: Sequence[float]) -> Dict[str, float]:
    """Medians over passes of the end-to-end metrics; set-up is the fastest sample.

    Set-up time is interpreter start, imports and construction, the same
    work in every process, so the minimum over samples is its least noisy
    estimate: a slower sample only measures what else the machine was doing.
    """
    values: Dict[str, float] = {}
    for name in END_TO_END_UNITS:
        if name == "setup_s":
            values[name] = min(setups)
        elif name == "delivery_ratio":
            values[name] = statistics.median(p["delivered"] / p["transmitted"] for p in passes)
        else:
            values[name] = statistics.median(p[name] for p in passes)
    return values


def run_benchmark(
    workload: Workload, seed: int, seconds: float, trace: bool, cache: Path = CACHE
) -> Dict[str, Any]:
    """One benchmark run; returns the result object plus a ``report`` of text lines."""
    started = time.monotonic()
    runner = Runner(started + RUN_BUDGET_S)
    if trace:
        workload = workload.traced()
    directory = ensure_rendered(runner, workload, seed, cache)
    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    metrics: Dict[str, float] = {}
    if trace:
        untraced = runner.child("pass", directory)
        traced = runner.child("pass", directory, "--trace")
        serial = runner.child("pass", directory, "--executor", "serial")
        passes = [untraced, traced, serial]
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
        metrics["serial.realtime_factor"] = serial["realtime_factor"]
        metrics.update((name, untraced[name]) for name in UNBOUNDED)
        units = PER_LAYER_UNITS
    else:
        # The machine's speed drifts over tens of seconds, so the probes
        # sit on both sides of the passes rather than in one burst.
        for _ in range(SETUP_PROBES // 2):
            setups.append(runner.child("probe", directory)["setup_s"])
        measuring = time.monotonic()
        # Another pass starts only if the longest so far would still end
        # within ``seconds``; one pass too many would double the run.
        longest = 0.0
        while not passes or time.monotonic() - measuring + longest < seconds:
            begun = time.monotonic()
            passes.append(runner.child("pass", directory))
            longest = max(longest, time.monotonic() - begun)
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            setups.append(runner.child("probe", directory)["setup_s"])
        setups.extend(p["setup_s"] for p in passes)
        metrics = end_to_end(passes, setups)
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise ValueError(
            f"metrics computed ({sorted(metrics)}) differ from BENCHMARK.json ({sorted(units)})"
        )
    findings = [f for p in passes for f in p["findings"]]
    findings += check_digests(passes, workload, seed, cache)
    attempted = sum(p["transmitted"] for p in passes)
    failed = min(len(findings), attempted)
    if any(v != v for v in metrics.values()):  # NaN: a metric had no samples
        findings.append("a metric had no samples")
        failed = max(failed, 1)
    report = [
        f"# workload={workload.name} seed={seed} trace={int(trace)} passes={len(passes)} "
        f"transmitted={passes[0]['transmitted']} delivered={passes[0]['delivered']} "
        f"latency_samples={passes[0]['latency_samples']}",
    ]
    report.append("# pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    samples = f"(n={passes[0]['latency_samples']})"
    for name, value in metrics.items():
        suffix = samples if name.startswith("latency_") else ""
        report.append(f"{name:28s} {value:14.6g} {units[name]}  {suffix}".rstrip())
    if not trace:
        for name in UNBOUNDED:
            unit = PER_LAYER_UNITS[name]
            suffix = samples if name.startswith("latency_") else ""
            value = statistics.median(p[name] for p in passes)
            report.append(f"{name:28s} {value:14.6g} {unit}  (unbounded) {suffix}".rstrip())
    report += [f"! {finding}" for finding in findings]
    report.append(
        "# env "
        + json.dumps(
            {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": passes[0].get("numpy"),
                "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
                "digest": passes[0]["digest"][:16],
            }
        )
    )
    return {
        "report": report,
        "result": {
            "correct": not findings,
            "attempted": attempted,
            "failed": failed if findings else 0,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no receiver source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        out = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (ChildError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0

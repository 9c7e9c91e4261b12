"""Per-shard streaming pieces of the gateway: the scanner and the report.

The gateway (:class:`repro.gateway.sharded.ShardedGateway`) consumes a
continuous IQ stream in chunks, finds packets on the fly, and keeps
decoding while the stream keeps arriving.  This module holds the two
pieces it is built from:

* :class:`StreamScanner` -- the **detect** and **dispatch** stages of one
  (channel, SF) shard: slide
  :func:`repro.core.detection.sliding_packet_search` (``earliest=True``)
  over the unscanned span of the channel's
  :class:`repro.gateway.ring.SampleRing`, cut each detected packet window
  (with lead for :func:`repro.core.detection.align_to_window_grid` to
  find the exact boundary) and submit it to the
  :class:`repro.gateway.workers.DecodeWorkerPool`.  A detection whose
  frame tail has not arrived yet stays pending until the next chunk,
  which is how packets straddling chunk boundaries survive.
* :class:`GatewayReport` -- what a run returns: counts, throughput,
  per-stage latency percentiles, the per-shard table and every decode
  outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.detection import sliding_packet_search
from repro.gateway.ring import SampleRing
from repro.gateway.telemetry import Telemetry, clock, shard_label
from repro.gateway.workers import DecodeJob, DecodeOutcome, DecodeWorkerPool
from repro.phy.packet import LoRaFramer
from repro.phy.params import LoRaParams
from repro.profile.profiler import KernelProfiler
from repro.profile.resources import ResourceSummary
from repro.trace.recorder import TraceRecorder


@dataclass
class GatewayReport:
    """Outcome of one gateway run: counts, rates, latencies, payloads.

    ``shards`` holds one row of counters per ``ch{c}.sf{s}`` shard label;
    the top-level counts are the cross-shard aggregate.
    """

    samples_in: int
    chunks_in: int
    samples_evicted: int
    packets_detected: int
    packets_dropped: int
    packets_decoded: int
    crc_failures: int
    decode_errors: int
    wall_s: float
    stream_s: float
    outcomes: List[DecodeOutcome]
    telemetry: Dict[str, Dict[str, Any]]
    shards: Dict[str, Dict[str, int]]
    trace: Optional[TraceRecorder] = None
    profile: Optional[KernelProfiler] = None
    resources: Optional[ResourceSummary] = None

    # ------------------------------------------------------------------
    @property
    def decoded_payloads(self) -> List[bytes]:
        """CRC-verified payloads in stream order."""
        return [o.payload for o in self.outcomes if o.crc_ok and o.payload is not None]

    @property
    def packets_per_s(self) -> float:
        """CRC-verified packets per wall-clock second."""
        return self.packets_decoded / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def samples_per_s(self) -> float:
        """Ingested samples processed per wall-clock second."""
        return self.samples_in / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def realtime_factor(self) -> float:
        """Stream seconds processed per wall second (>1 keeps up live)."""
        return self.stream_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def decode_success_rate(self) -> float:
        """CRC-verified fraction of detected-and-decoded windows."""
        attempted = self.packets_detected - self.packets_dropped
        return self.packets_decoded / attempted if attempted > 0 else 0.0

    @property
    def drop_rate(self) -> float:
        """Fraction of detected packets lost to backpressure."""
        return (
            self.packets_dropped / self.packets_detected
            if self.packets_detected > 0
            else 0.0
        )

    # ------------------------------------------------------------------
    def _stage_line(self, label: str, metric: str) -> str:
        state = self.telemetry.get(metric)
        if state is None or state.get("count", 0) == 0:
            return f"  {label:<12} (no events)"
        return (
            f"  {label:<12} n={state['count']:<5d}"
            f" p50={1e3 * state['p50_s']:7.2f}ms"
            f" p95={1e3 * state['p95_s']:7.2f}ms"
            f" max={1e3 * state['max_s']:7.2f}ms"
        )

    def _counter(self, name: str) -> int:
        state = self.telemetry.get(name)
        return int(state.get("value", 0)) if state is not None else 0

    def _tier_lines(self) -> List[str]:
        """The tiered-decode section: tier split plus escalation reasons.

        Empty (section omitted) on ``decode_tier="full"`` runs, which
        never touch the ``decode.tier0.*`` instruments.
        """
        attempts = self._counter("decode.tier0.attempts")
        if attempts == 0:
            return []
        escalated = self._counter("decode.escalated")
        lines = [
            "tiered decode",
            f"  tier0        {self._counter('decode.tier0.ok')} ok of"
            f" {attempts} windows"
            f" ({escalated} escalated,"
            f" {100.0 * escalated / attempts:.0f}% escalation rate)",
        ]
        prefix = "decode.escalated."
        reasons = {
            name[len(prefix):]: int(state.get("value", 0))
            for name, state in self.telemetry.items()
            if name.startswith(prefix)
        }
        if reasons:
            lines.append("  escalation reasons")
            width = max(len(reason) for reason in reasons)
            for reason in sorted(reasons):
                lines.append(f"    {reason.ljust(width)}  {reasons[reason]}")
        return lines

    def _profile_lines(self) -> List[str]:
        """The kernel-profile section; empty when the run did not profile."""
        if self.profile is None or not len(self.profile):
            return []
        stats = self.profile.stats()
        total = sum(stat["wall_s"] for stat in stats.values()) or 1.0
        rows = sorted(
            stats.items(), key=lambda kv: kv[1]["wall_s"], reverse=True
        )
        lines = [f"kernel profile ({1e3 * total:.1f}ms self time)"]
        for (name, shape), stat in rows[:8]:
            label = f"{name} {shape}".strip()
            lines.append(
                f"  {label:<28} {1e3 * stat['wall_s']:8.2f}ms"
                f" ({100.0 * stat['wall_s'] / total:4.1f}%)"
                f" x{stat['calls']}"
            )
        if len(rows) > 8:
            rest = sum(stat["wall_s"] for _, stat in rows[8:])
            lines.append(
                f"  {'(other kernels)':<28} {1e3 * rest:8.2f}ms"
                f" ({100.0 * rest / total:4.1f}%)"
            )
        return lines

    def summary(self) -> str:
        """Human-readable run summary (what ``repro gateway`` prints)."""
        lines = [
            "gateway run summary",
            f"  stream       {self.stream_s:.2f}s ({self.samples_in} samples,"
            f" {self.chunks_in} chunks)",
            f"  wall         {self.wall_s:.2f}s"
            f" ({self.realtime_factor:.2f}x realtime,"
            f" {self.samples_per_s / 1e6:.2f} Msamples/s)",
            f"  detected     {self.packets_detected} packets",
            f"  decoded      {self.packets_decoded} crc-ok"
            f" ({100.0 * self.decode_success_rate:.0f}% of attempted,"
            f" {self.packets_per_s:.2f} packets/s)",
            f"  crc-failed   {self.crc_failures}",
            f"  dropped      {self.packets_dropped}"
            f" ({100.0 * self.drop_rate:.0f}% of detected)"
            + (f", {self.samples_evicted} samples evicted" if self.samples_evicted else ""),
        ]
        if self.decode_errors:
            lines.append(f"  errors       {self.decode_errors}")
        lines.extend(self._tier_lines())
        lines.append("per-shard recovery")
        for label in sorted(self.shards):
            row = self.shards[label]
            lines.append(
                f"  {label:<12} detected={row.get('detected', 0)}"
                f" decoded={row.get('decoded', 0)}"
                f" crc-failed={row.get('crc_failed', 0)}"
                f" dropped={row.get('dropped', 0)}"
            )
        lines.append(
            f"  {'all-shards':<12} detected={self.packets_detected}"
            f" decoded={self.packets_decoded}"
            f" crc-failed={self.crc_failures}"
            f" dropped={self.packets_dropped}"
        )
        lines.append("per-stage latency")
        lines.append(self._stage_line("ingest", "ingest.chunk_s"))
        lines.append(self._stage_line("channelize", "channelize.push_s"))
        lines.append(self._stage_line("detect", "detect.scan_s"))
        lines.append(self._stage_line("queue-wait", "decode.queue_wait_s"))
        lines.append(self._stage_line("decode", "decode.decode_s"))
        if "decode.tier0.decode_s" in self.telemetry:
            lines.append(self._stage_line("  tier0", "decode.tier0.decode_s"))
        if "decode.full.decode_s" in self.telemetry and self._counter(
            "decode.tier0.attempts"
        ):
            lines.append(self._stage_line("  full", "decode.full.decode_s"))
        lines.extend(self._profile_lines())
        if self.resources is not None:
            res = self.resources
            lines.append(
                f"resources     cpu={res.cpu_s:.2f}s"
                f" ({100.0 * res.utilization:.0f}% of wall)"
                f" peak-rss={res.peak_rss_kb / 1024.0:.0f}MB"
                + (
                    f" alloc-peak={res.alloc_peak_kb / 1024.0:.1f}MB"
                    if res.alloc_peak_kb
                    else ""
                )
            )
        return "\n".join(lines)


class StreamScanner:
    """Detection-and-dispatch state machine for one shard of a sample ring.

    Owns the scan loop the gateway runs after every ingest: find the
    earliest packet in the unscanned span, cut its window (with lead/tail
    slack) and submit it to the decode pool, then skip past the frame.
    The scanner never consumes the ring itself; it advances
    ``release_pos`` -- the earliest absolute sample it may still need --
    and the ring's owner consumes up to the *minimum* release position of
    every scanner sharing the ring.  That indirection is what lets the
    gateway multiplex several SF scanners over one channel's stream.

    Parameters
    ----------
    params:
        PHY configuration of this shard (sets the frame geometry the
        detector paces by, and the params every submitted job decodes
        with).
    channel:
        The shard's channel.  Jobs carry it, their RNG key is
        ``(channel, sf, shard_seq)`` (keeping decode RNG independent of
        cross-shard interleaving), and per-shard telemetry is prefixed
        with ``label`` = ``ch{channel}.sf{sf}``.
    payload_len, coding_rate:
        Frame geometry of the expected traffic.
    telemetry:
        Shared registry; scan instruments use the common ``detect.*``
        names plus ``{label}.detect.packets``.
    detection_pfa:
        Search-level false-alarm probability per scan.
    trace_recorder:
        Optional :class:`repro.trace.TraceRecorder` receiving one
        detection record per dispatched job.
    """

    def __init__(
        self,
        params: LoRaParams,
        channel: int,
        payload_len: int,
        telemetry: Telemetry,
        detection_pfa: float = 1e-3,
        coding_rate: int = 4,
        trace_recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.params = params
        self.channel = channel
        self.label = shard_label(channel, params.spreading_factor)
        self.payload_len = payload_len
        self.telemetry = telemetry
        self.detection_pfa = detection_pfa
        self.trace_recorder = trace_recorder
        framer = LoRaFramer(params, coding_rate=coding_rate)
        self.n_data_symbols = framer.n_symbols_for_payload(payload_len)
        n = params.samples_per_symbol
        self.frame_samples = (params.preamble_len + self.n_data_symbols) * n
        # Lead/tail slack around the detected window-granular start: two
        # symbols of lead so align_to_window_grid can find the true
        # boundary even when a back-to-back predecessor's frame skip ate
        # into this packet's preamble, two symbols of tail for
        # timing-offset spill.
        self.lead = 2 * n
        self.tail = 2 * n
        self.min_span = (params.preamble_len + 1) * n
        self.scan_pos = 0  # absolute index of the next unscanned sample
        self.release_pos = 0  # earliest sample this scanner may still need
        self.detected = 0
        self.shard_seq = 0  # per-shard job sequence number (RNG key)

    def _release(self, pos: int) -> None:
        if pos > self.release_pos:
            self.release_pos = pos

    def _make_job(self, ring: SampleRing, start: int, window_end: int,
                  job_id: int, score: float) -> DecodeJob:
        window_start = max(start - self.lead, ring.start)
        window_end = min(window_end, ring.end)
        return DecodeJob(
            job_id=job_id,
            samples=ring.view(window_start, window_end - window_start),
            n_data_symbols=self.n_data_symbols,
            payload_len=self.payload_len,
            start_sample=window_start,
            detection_score=score,
            created_at=clock(),
            params=self.params,
            channel=self.channel,
            rng_key=(self.channel, self.params.spreading_factor, self.shard_seq),
        )

    def scan(
        self,
        ring: SampleRing,
        pool: DecodeWorkerPool,
        next_job_id: int,
        final: bool = False,
    ) -> int:
        """Detect and dispatch every complete packet in the unscanned span.

        Returns the next free job id.  A detection whose frame has not
        fully arrived is left unconsumed (``scan_pos`` stays put) so the
        next chunk completes it -- unless ``final``, in which case the
        truncated window is dispatched anyway (the decoder may still
        salvage it if only slack is missing).
        """
        params = self.params
        n = params.samples_per_symbol
        telemetry = self.telemetry
        frame = self.frame_samples
        while True:
            self.scan_pos = max(self.scan_pos, ring.start)
            available = ring.end - self.scan_pos
            if available < self.min_span:
                break
            segment = ring.view(self.scan_pos, available)
            with telemetry.timer("detect.scan_s"):
                result = sliding_packet_search(
                    params,
                    segment,
                    pfa=self.detection_pfa,
                    earliest=True,
                )
            telemetry.counter("detect.scans").inc()
            if not result.detected:
                # Keep a preamble's worth of overlap so a packet whose
                # head just arrived is still detectable next scan.
                self.scan_pos = max(self.scan_pos, ring.end - self.min_span)
                self._release(self.scan_pos - self.lead)
                break
            start = self.scan_pos + result.start_window * n
            window_end = start + frame + self.tail
            if window_end > ring.end and not final:
                # Straddles the chunk boundary: wait for the tail.
                self._release(max(start - self.lead, ring.start))
                break
            job = self._make_job(ring, start, window_end, next_job_id, result.score)
            self.detected += 1
            next_job_id += 1
            self.shard_seq += 1
            telemetry.counter("detect.packets").inc()
            telemetry.counter(f"{self.label}.detect.packets").inc()
            if self.trace_recorder is not None:
                self.trace_recorder.record_detection(
                    job_id=job.job_id,
                    key=job.key,
                    channel=self.channel,
                    spreading_factor=params.spreading_factor,
                    start_sample=start,
                    score=float(result.score),
                    label=self.label,
                )
            pool.submit(job)
            # The detected start is window-granular and may sit up to one
            # window before the true (mid-window) packet start; skip one
            # extra symbol past the nominal frame end so the leftover
            # partial chirp cannot re-trigger detection.  A back-to-back
            # successor only loses a fraction of its first preamble
            # window, which the accumulation detector absorbs.
            self.scan_pos = start + frame + n
            self._release(self.scan_pos - self.lead)
            if min(window_end, ring.end) >= ring.end and final:
                break
        return next_job_id


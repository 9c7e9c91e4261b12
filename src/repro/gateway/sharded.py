"""The streaming gateway: one wideband stream, one shard per (channel, SF).

Real LoRaWAN base stations do not listen to a single 125 kHz channel: the
regional plans (EU868, US915) define eight-channel uplink grids, and every
channel can carry several spreading factors at once.  The gateway takes
that shape; a single channel is its ``n_channels=1`` case, where the
channelizer passes the stream straight through.  Stages, each instrumented
through :mod:`repro.gateway.telemetry`:

1. **channelize** -- a :class:`repro.gateway.channelizer.PolyphaseChannelizer`
   splits each wideband chunk into the per-channel basebands of a
   :class:`repro.phy.params.ChannelPlan`.
2. **per-channel rings** -- every channel buffers its stream in its own
   bounded :class:`repro.gateway.ring.SampleRing` (overflow evicts the
   oldest samples, counted as loss).
3. **per-(channel, SF) scanners** -- each channel is scanned once per
   spreading factor in the configured ``sf_set`` by a
   :class:`repro.gateway.runtime.StreamScanner`; scanners sharing a ring
   publish release positions and the ring consumes their minimum, so an
   SF7 and an SF8 scanner can multiplex one channel without stealing each
   other's samples.
4. **one shared pool** -- every shard submits to a single
   :class:`repro.gateway.workers.DecodeWorkerPool`.  Jobs are tagged with
   their shard's params/channel and carry a per-shard RNG key
   ``(channel, sf, shard_seq)``, so decode results are deterministic no
   matter how shards interleave or which executor runs the pool.  The
   bounded queue's drop policy is the backpressure valve; workers run
   the decode tier's pipeline plus the LoRa FEC/CRC chain.

Telemetry uses the shared dotted names plus per-shard
``ch{c}.sf{s}.{metric}`` labels (:func:`repro.gateway.telemetry.shard_label`);
the returned :class:`repro.gateway.runtime.GatewayReport` carries a
``shards`` table and prints it in :meth:`GatewayReport.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cascade import DECODE_TIERS
from repro.gateway.channelizer import DEFAULT_TAPS_PER_BRANCH, PolyphaseChannelizer
from repro.gateway.ring import SampleRing
from repro.gateway.runtime import GatewayReport, StreamScanner
from repro.gateway.sources import SampleSource
from repro.gateway.telemetry import Telemetry, clock, shard_label
from repro.gateway.workers import DecodeOutcome, DecodeWorkerPool
from repro.phy.params import ChannelPlan, LoRaParams
from repro.profile import context as profile_context
from repro.profile.profiler import KernelProfiler
from repro.profile.resources import ResourceAccountant, ResourceSummary
from repro.trace.recorder import TraceConfig, TraceRecorder


@dataclass(frozen=True)
class ShardedGatewayConfig:
    """Everything configurable about one gateway run.

    Parameters
    ----------
    plan:
        The channel grid to demultiplex; must be critically stacked (the
        channelizer's requirement).  ``ChannelPlan(n_channels=1,
        bandwidth=...)`` is the single-channel gateway.
    sf_set:
        Spreading factors scanned on *every* channel; duplicates are
        dropped and the set is kept sorted.
    payload_len, preamble_len, coding_rate:
        Frame geometry shared by all shards.
    n_workers, executor, queue_capacity, drop_policy:
        Shape of the single decode pool all shards share; see
        :class:`repro.gateway.workers.DecodeWorkerPool`.
    ring_symbols:
        Per-channel ring capacity in symbols of the *largest* configured
        SF (0 sizes automatically to four of its frames).
    detection_pfa:
        Search-level false-alarm probability per detection scan.
    synchronize:
        Snap each window to the preamble grid before decoding.
    max_users:
        Cap on SIC user estimates per decoded window; bounds the
        worst-case decode time on windows full of interference
        (None = uncapped).
    decode_tier:
        Which pipeline decodes each window: ``"full"`` (default),
        ``"cascade"`` (Tier-0 fast path with escalation to the full
        Choir pipeline) or ``"fast"`` (Tier 0 only); see
        :mod:`repro.core.cascade`.
    seed:
        Master seed all per-shard decode RNG keys derive from.
    taps_per_branch:
        Prototype filter length per channelizer branch.
    trace:
        Attach a :class:`repro.trace.TraceRecorder` to the run: record
        every detection and decode outcome, and build provenance span
        trees per the sampling policy below.
    trace_sample_rate:
        Fraction of jobs whose span tree is retained unconditionally
        (deterministic per shard, since directives key on
        ``(channel, sf, shard_seq)``; 1.0 = every job).
    trace_always_sample_failures:
        Retain the span tree of every job that fails CRC, whatever the
        sample rate.
    profile:
        Attach a :class:`repro.profile.KernelProfiler` to the run:
        per-kernel wall/FFT/bytes accounting, folded into telemetry
        (``profile.kernel.*``) and reported on the
        :class:`repro.gateway.runtime.GatewayReport` alongside a
        resource summary.  The channelizer's pushes and detection scans
        are accounted under the run-level ambient profiler, the per-job
        decode kernels under job-local profilers merged by the pool.
    profile_alloc:
        With ``profile``, additionally track allocations via
        ``tracemalloc`` and keep the top so-many sites (0 = off; this
        is the expensive knob, ~2-4x slowdown).
    """

    plan: ChannelPlan = field(default_factory=ChannelPlan)
    sf_set: Tuple[int, ...] = (7, 8)
    payload_len: int = 8
    preamble_len: int = 8
    n_workers: int = 1
    executor: str = "thread"
    queue_capacity: int = 8
    drop_policy: str = "newest"
    ring_symbols: int = 0
    detection_pfa: float = 1e-3
    coding_rate: int = 4
    synchronize: bool = True
    max_users: Optional[int] = 4
    decode_tier: str = "full"
    seed: Optional[int] = None
    taps_per_branch: int = DEFAULT_TAPS_PER_BRANCH
    trace: bool = False
    trace_sample_rate: float = 1.0
    trace_always_sample_failures: bool = True
    profile: bool = False
    profile_alloc: int = 0

    def trace_config(self) -> TraceConfig:
        """The sampling policy implied by the trace fields."""
        return TraceConfig(
            sample_rate=self.trace_sample_rate,
            always_sample_failures=self.trace_always_sample_failures,
        )

    def __post_init__(self) -> None:
        if not self.sf_set:
            raise ValueError("sf_set must name at least one spreading factor")
        if self.decode_tier not in DECODE_TIERS:
            raise ValueError(
                f"decode_tier must be one of {DECODE_TIERS}, got {self.decode_tier!r}"
            )
        object.__setattr__(self, "sf_set", tuple(sorted(set(self.sf_set))))

    def shard_params(self, spreading_factor: int) -> LoRaParams:
        """Narrowband PHY params of every (channel, ``spreading_factor``) shard."""
        return self.plan.channel_params(
            spreading_factor, preamble_len=self.preamble_len
        )


class ShardedGateway:
    """Streaming base-station runtime: channelizer fan-out, shared decode pool.

    Construct with a :class:`ShardedGatewayConfig`, then :meth:`run` it
    over a wideband :class:`repro.gateway.sources.SampleSource` (for
    synthetic traffic, a :class:`repro.gateway.sources.SyntheticTrafficSource`
    built with the same ``plan``).  A fresh :class:`Telemetry` registry
    is created per gateway unless one is injected.  ``on_outcome``
    streams every decode outcome to the caller live (the network-server
    uplink tap); see :class:`repro.gateway.workers.DecodeWorkerPool` for
    its threading contract.
    """

    def __init__(
        self,
        config: ShardedGatewayConfig,
        telemetry: Optional[Telemetry] = None,
        trace_recorder: Optional[TraceRecorder] = None,
        profiler: Optional[KernelProfiler] = None,
        on_outcome: Optional[Callable[[DecodeOutcome], None]] = None,
    ) -> None:
        self.config = config
        self.on_outcome = on_outcome
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if trace_recorder is None and config.trace:
            trace_recorder = TraceRecorder(config.trace_config())
        self.trace_recorder = trace_recorder
        if profiler is None and config.profile:
            profiler = KernelProfiler()
        self.profiler = profiler
        # Probe scanners once for frame geometry so the ring capacity can
        # be validated up front (run() builds its own fresh scanners).
        probe = [
            StreamScanner(
                config.shard_params(sf),
                0,
                config.payload_len,
                Telemetry(),
                coding_rate=config.coding_rate,
            )
            for sf in config.sf_set
        ]
        max_frame = max(scanner.frame_samples for scanner in probe)
        if config.ring_symbols:
            n = max(
                config.shard_params(sf).samples_per_symbol for sf in config.sf_set
            )
            capacity = config.ring_symbols * n
            if capacity < 2 * max_frame:
                raise ValueError(
                    f"ring_symbols={config.ring_symbols} holds less than two "
                    f"frames of the largest SF ({2 * max_frame // n} symbols needed)"
                )
        else:
            # Four frames: room for one packet mid-decode-cut, one
            # arriving, and scan overlap, without unbounded growth.
            capacity = 4 * max_frame
        self._ring_capacity = capacity

    # ------------------------------------------------------------------
    def _build_scanners(self) -> Dict[int, List[StreamScanner]]:
        config = self.config
        scanners: Dict[int, List[StreamScanner]] = {}
        for channel in range(config.plan.n_channels):
            scanners[channel] = [
                StreamScanner(
                    config.shard_params(sf),
                    channel,
                    config.payload_len,
                    self.telemetry,
                    detection_pfa=config.detection_pfa,
                    coding_rate=config.coding_rate,
                    trace_recorder=self.trace_recorder,
                )
                for sf in config.sf_set
            ]
        return scanners

    def run(self, source: SampleSource) -> GatewayReport:
        """Consume the wideband ``source`` to exhaustion and report."""
        config = self.config
        telemetry = self.telemetry
        recorder = self.trace_recorder
        if recorder is not None:
            recorder.set_header(
                run_kind="sharded-gateway",
                executor=config.executor,
                n_workers=config.n_workers,
                seed=config.seed,
                n_channels=config.plan.n_channels,
                sf_set=list(config.sf_set),
                payload_len=config.payload_len,
                decode_tier=config.decode_tier,
                sample_rate=recorder.config.sample_rate,
                always_sample_failures=recorder.config.always_sample_failures,
            )
            ground_truth = getattr(source, "ground_truth", None)
            if callable(ground_truth):
                recorder.set_ground_truth(ground_truth())
        channelizer = PolyphaseChannelizer(
            config.plan, taps_per_branch=config.taps_per_branch
        )
        pool = DecodeWorkerPool(
            config.shard_params(config.sf_set[0]),
            n_workers=config.n_workers,
            executor=config.executor,
            queue_capacity=config.queue_capacity,
            drop_policy=config.drop_policy,
            synchronize=config.synchronize,
            coding_rate=config.coding_rate,
            # The scanners cut windows with two symbols of lead before the
            # (window-granular) detected start, so the true boundary is
            # inside the first three.
            sync_search_symbols=3,
            max_users=config.max_users,
            decode_tier=config.decode_tier,
            rng=config.seed,
            telemetry=telemetry,
            trace_recorder=recorder,
            profiler=self.profiler,
            on_outcome=self.on_outcome,
        )
        rings = [
            SampleRing(self._ring_capacity) for _ in range(config.plan.n_channels)
        ]
        scanners = self._build_scanners()
        samples_in = 0
        chunks_in = 0
        evicted = 0
        next_job_id = 0
        accountant: Optional[ResourceAccountant] = None
        if self.profiler is not None:
            accountant = ResourceAccountant(
                alloc_top_n=config.profile_alloc
            )
            accountant.start()
        started = clock()

        def fan_out(bands) -> None:
            nonlocal evicted, next_job_id
            for channel, ring in enumerate(rings):
                narrow = bands[channel]
                if narrow.size:
                    evicted += ring.append(narrow)
                    telemetry.counter(f"ch{channel}.ingest.samples").inc(narrow.size)
                if self.profiler is not None:
                    telemetry.gauge("ring.occupancy").set(
                        len(ring) / self._ring_capacity
                    )
                for scanner in scanners[channel]:
                    next_job_id = scanner.scan(ring, pool, next_job_id)
                ring.consume(
                    min(scanner.release_pos for scanner in scanners[channel])
                )

        # Run-level ambient profiler: covers channelizer pushes and
        # detection scans done in this (ingest) thread; decode kernels
        # ride job-local profilers the pool merges.
        with profile_context.use_profiler(self.profiler):
            for chunk in source.chunks():
                with telemetry.timer("ingest.chunk_s"):
                    samples_in += len(chunk)
                    chunks_in += 1
                    telemetry.counter("ingest.samples").inc(len(chunk))
                with telemetry.timer("channelize.push_s"):
                    bands = channelizer.push(chunk)
                fan_out(bands)
            # End of stream: drain the filter tail, then final-scan each shard
            # so truncated trailing windows still get a decode attempt.
            with telemetry.timer("channelize.push_s"):
                tail = channelizer.flush()
            fan_out(tail)
            for channel, ring in enumerate(rings):
                for scanner in scanners[channel]:
                    next_job_id = scanner.scan(ring, pool, next_job_id, final=True)
            outcomes = pool.close()
        wall = clock() - started
        resources: Optional[ResourceSummary] = None
        if accountant is not None:
            resources = accountant.stop()
        if self.profiler is not None:
            self.profiler.fold_into(telemetry)
        crc_ok = sum(1 for o in outcomes if o.crc_ok)
        errors = sum(1 for o in outcomes if o.error is not None)
        shards: Dict[str, Dict[str, int]] = {}
        for channel in range(config.plan.n_channels):
            for scanner in scanners[channel]:
                label = scanner.label
                shards[label] = {
                    "detected": scanner.detected,
                    "decoded": 0,
                    "crc_failed": 0,
                    "dropped": telemetry.counter(f"{label}.dispatch.dropped").value,
                }
        for outcome in outcomes:
            if outcome.spreading_factor is None:
                continue
            row = shards.get(shard_label(outcome.channel, outcome.spreading_factor))
            if row is None:
                continue
            if outcome.crc_ok:
                row["decoded"] += 1
            elif outcome.error is None:
                row["crc_failed"] += 1
        detected = sum(
            scanner.detected
            for channel_scanners in scanners.values()
            for scanner in channel_scanners
        )
        return GatewayReport(
            samples_in=samples_in,
            chunks_in=chunks_in,
            samples_evicted=evicted,
            packets_detected=detected,
            packets_dropped=pool.dropped,
            packets_decoded=crc_ok,
            crc_failures=sum(1 for o in outcomes if not o.crc_ok and o.error is None),
            decode_errors=errors,
            wall_s=wall,
            stream_s=samples_in / config.plan.wideband_rate,
            outcomes=outcomes,
            telemetry=telemetry.snapshot(),
            shards=shards,
            trace=recorder,
            profile=self.profiler,
            resources=resources,
        )

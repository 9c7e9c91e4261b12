"""Workload definitions and the renderer that turns one into a capture.

A workload is a traffic mix plus the receiver configuration that decodes
it.  Rendering happens once per (workload, seed), outside any timing: the
public :class:`repro.gateway.SyntheticTrafficSource` synthesizes the
wideband stream chunk by chunk and the chunks are written verbatim
(complex128, so the capture is bit-exact with the live source) next to
the ground-truth rows.  The receiver process later streams that file and
never sees the generator.

Offered load is held at a fixed rate by giving every node exactly one
report in its source's span: its period is the span less its own frame
(plus the scheduler's guard symbol), so its random phase always leaves
room for one frame and never for a second.  Each run transmits exactly
``n_frames`` frames.  A long reporting period over a short span would
offer the same rate with a Binomial frame count, whose noise would land
in every metric.  Segments go further and fix which frames can collide
(see :class:`Workload`).

Only the standard library is imported at module level; the renderer
imports numpy and ``repro`` when it runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: The scenario whose disc geometry (uniform-disc 130 m cell, no
#: shadowing) places every workload's nodes.  Its text is part of each
#: workload's fingerprint, so an edit to it re-renders the captures and
#: starts a fresh digest history.
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "eu868_urban.yaml"

#: Sub-stream keys under the workload seed: the SNR shuffle, and the
#: seed sequence of each rendered source (keyed by its index).
STRATA_KEY = 300
SOURCE_KEY = 301

WORKLOAD_FILE = "workload.json"
CAPTURE_FILE = "capture.c128"
TRUTH_FILE = "truth.json"
SPEC_FILE = "spec.json"


#: Application payload bytes per frame (the devaddr/fcnt header plus filler).
PAYLOAD_LEN = 8

#: Wideband samples per chunk handed to the gateway (the source's default).
CHUNK_SAMPLES = 4096

#: :class:`repro.gateway.ShardedGatewayConfig` fields shared by both
#: workloads.  The one-deep queue with the ``block`` policy hands the one
#: decode worker a window at a time: with a deeper queue the closed loop
#: lets a decode backlog build whenever escalations cluster, and realtime
#: factor and latency swing from seed to seed (depth 8 spread 0.26 on
#: collision-1ch; depth 64 with uniform start times spread 0.33 on
#: urban-8ch).  The cost is that ingest runs at most one window ahead of
#: decode, so the benchmark cannot show a gain from more overlap.
RECEIVER: Dict[str, Any] = {
    "payload_len": PAYLOAD_LEN,
    "decode_tier": "cascade",
    "n_workers": 1,
    "queue_capacity": 1,
    "drop_policy": "block",
    "detection_pfa": 1e-3,
    "max_users": 4,
    "seed": 0,
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix of ``n_frames`` frames, rendered as a run of segments.

    Each segment is ``span_s`` seconds of air rendered by its own source.
    Segment ``j`` holds ``frames_per_segment[j % len(frames_per_segment)]``
    frames, one per node, each at a uniformly random time that keeps the
    whole frame inside the segment, so frames of different segments never
    overlap.  Segments are dealt until ``n_frames`` frames are placed; the
    seconds of air follow from their count.
    """

    name: str
    why: str
    n_channels: int
    spreading_factors: Tuple[int, ...]
    n_frames: int
    span_s: float
    frames_per_segment: Tuple[int, ...]

    def fingerprint(self) -> str:
        """Short hash of the workload and receiver: names its cache entries."""
        text = json.dumps(
            [asdict(self), RECEIVER, CHUNK_SAMPLES, SCENARIO.read_text()], sort_keys=True
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def traced(self) -> "Workload":
        """The same mix with half the frames, in whole rounds of segments.

        A traced run replays its capture three times (untraced, traced,
        serial), so it replays a capture half as long as a timed run's.
        """
        per_round = sum(self.frames_per_segment)
        rounds = max(1, self.n_frames // per_round // 2)
        return dataclasses.replace(self, n_frames=rounds * per_round)


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        # One frame per channel in each 160 ms segment: 50 frames/s, as
        # 1000 nodes at a 20 s period offer, without the Poisson count of
        # in-channel collisions that set most of the seed-to-seed spread.
        # Collisions are collision-1ch's job.
        Workload(
            name="urban-8ch",
            why=(
                "the paper's urban cell: 8-channel EU868, SF7/SF8 round-robin at 50 "
                "frames/s; 16 scanners and the channelizer, so detection and "
                "sibling-SF decode waste dominate"
            ),
            n_channels=8,
            spreading_factors=(7, 8),
            n_frames=64,
            span_s=0.16,
            frames_per_segment=(8,),
        ),
        # Rounds of a lone frame, a pair and two noise segments.  A segment
        # is one 32.8 ms SF7 frame, its 1 ms guard symbol and a 16.4 ms
        # start window, so the two frames of a pair always collide.
        Workload(
            name="collision-1ch",
            why=(
                "one SF7 channel at 15 frames/s, two in three frames in pairwise "
                "collisions that escalate to full Choir SIC, so the decoder "
                "dominates; one scanner, channelizer bypassed at M=1"
            ),
            n_channels=1,
            spreading_factors=(7,),
            n_frames=270,
            span_s=0.050176,
            frames_per_segment=(1, 2, 0, 0),
        ),
    )
}


def filler(seed: int, node_id: int, seq: int, length: int) -> bytes:
    """Deterministic payload bytes after the devaddr/fcnt header."""
    digest = hashlib.blake2b(f"{seed}:{node_id}:{seq}".encode(), digest_size=32)
    return digest.digest()[:length]


def stratified_snrs(geo: Any, n_nodes: int, n_channels: int, seed: int) -> Any:
    """Per-node SNRs of the disc geometry, stratified and shuffled by ``seed``.

    Distances sit at the ``(i + 0.5) / n`` quantiles of the area-uniform
    annulus instead of at random draws, so every seed offers the same SNR
    histogram.  Node ``i`` is on channel ``i % n_channels``; each run of
    ``n_channels`` consecutive quantiles is dealt one to a channel, so
    every channel also gets the same SNR mix.  The seed decides which
    node gets which quantile within those constraints.  Otherwise the
    handful of near nodes, whose leakage, sibling-SF detections and
    captures drive much of the decode work, would move from seed to seed.
    """
    import numpy as np

    from repro.channel.link import LinkBudget
    from repro.channel.pathloss import UrbanPathLoss
    from repro.utils import derive_rng

    if n_nodes % n_channels:
        raise ValueError(f"{n_nodes} nodes do not split evenly over {n_channels} channels")
    r0sq = geo.min_distance_m**2
    rsq = geo.cell_radius_m**2
    quantiles = (np.arange(n_nodes) + 0.5) / n_nodes
    distances = np.sqrt(quantiles * (rsq - r0sq) + r0sq)
    losses = np.asarray(UrbanPathLoss(exponent=geo.path_exponent).loss_db(distances))
    budget = LinkBudget(tx_power_dbm=geo.tx_power_dbm, penetration_loss_db=geo.penetration_loss_db)
    snrs = np.array([budget.snr_db(loss) for loss in losses])
    rng = derive_rng(seed, STRATA_KEY)
    n_ranks = n_nodes // n_channels
    # Quantile ``b * n_channels + j`` goes to channel ``dealt[b, j]``; each
    # channel's quantiles are then shuffled over its nodes.
    dealt = np.array([rng.permutation(n_channels) for _ in range(n_ranks)])
    order = np.empty(n_nodes, dtype=int)
    for channel in range(n_channels):
        blocks, within = np.nonzero(dealt == channel)
        quantile = blocks * n_channels + within
        order[np.arange(n_ranks) * n_channels + channel] = quantile[rng.permutation(n_ranks)]
    return snrs[order]


def build_sources(workload: Workload, seed: int) -> Tuple[List[Any], Any]:
    """The live traffic sources of (``workload``, ``seed``), in air order, and the plan.

    The capture is the concatenation of the sources' streams.  Node ids
    run on across sources, so each frame's devaddr is its index in the
    run and its fcnt is 0.
    """
    import numpy as np

    from repro.gateway.sources import SyntheticTrafficSource
    from repro.phy.packet import LoRaFramer
    from repro.scenario.build import build_nodes, build_plan
    from repro.scenario.loader import load_scenario
    from repro.scenario.spec import ScenarioSpec
    from repro.server.frames import UPLINK_HEADER_LEN, encode_uplink_payload

    if not any(workload.frames_per_segment):
        raise ValueError(f"{workload.name}: every segment is empty")
    spec = ScenarioSpec.from_dict(
        {
            "name": workload.name,
            "geometry": load_scenario(SCENARIO).geometry.to_dict(),
            "traffic": {
                "period_s": workload.span_s,
                "payload_len": PAYLOAD_LEN,
                "spreading_factors": list(workload.spreading_factors),
                "channel_policy": "round-robin",
            },
            "plan": {"region": "eu868", "n_channels": workload.n_channels},
        }
    )
    plan = build_plan(spec)
    extra = PAYLOAD_LEN - UPLINK_HEADER_LEN

    def stamp(first: int) -> Any:
        def payload(node_id: int, seq: int) -> bytes:
            devaddr = first + node_id
            return encode_uplink_payload(devaddr, seq, UPLINK_HEADER_LEN) + filler(
                seed, devaddr, seq, extra
            )

        return payload

    def period_s(sf: int) -> float:
        """The segment less the frame and the scheduler's guard symbol.

        The node's random phase then always leaves room for its frame in
        the segment, and never for a second one.
        """
        params = plan.channel_params(sf)
        n_symbols = LoRaFramer(params).n_symbols_for_payload(PAYLOAD_LEN)
        tail = (params.preamble_len + n_symbols + 1) * params.samples_per_symbol
        return workload.span_s - tail / plan.bandwidth

    snrs = stratified_snrs(spec.geometry, workload.n_frames, workload.n_channels, seed)
    sources = []
    placed = 0
    while placed < workload.n_frames:
        k = workload.frames_per_segment[len(sources) % len(workload.frames_per_segment)]
        k = min(k, workload.n_frames - placed)
        nodes = [
            dataclasses.replace(
                node, snr_db=float(snrs[placed + i]), period_s=period_s(node.spreading_factor)
            )
            for i, node in enumerate(build_nodes(spec, k, seed) if k else [])
        ]
        sources.append(
            SyntheticTrafficSource(
                params=plan.channel_params(min(workload.spreading_factors)),
                nodes=nodes,
                duration_s=workload.span_s,
                payload_len=PAYLOAD_LEN,
                chunk_samples=CHUNK_SAMPLES,
                plan=plan,
                rng=np.random.SeedSequence(seed, spawn_key=(SOURCE_KEY, len(sources))),
                payload_fn=stamp(placed),
                materialize=False,
            )
        )
        placed += k
    return sources, plan


def render(workload: Workload, seed: int, directory: Path) -> Dict[str, Any]:
    """Render ``workload`` under ``seed`` into ``directory``; return its spec.

    Writes the raw complex128 capture, the ground-truth rows (one per
    transmitted frame, with its devaddr/fcnt key and the index of the
    chunk holding its last sample) and the spec the receiver reads.
    """
    import numpy as np

    from repro.server.frames import decode_uplink_payload

    sources, plan = build_sources(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    m = plan.oversample_factor
    n_samples = 0
    truth: List[Dict[str, Any]] = []
    with open(directory / CAPTURE_FILE, "wb") as fh:
        for source in sources:
            offset = n_samples
            for chunk in source.chunks():
                np.ascontiguousarray(chunk, dtype=np.complex128).tofile(fh)
                n_samples += chunk.size
            for row in source.ground_truth():
                payload = bytes.fromhex(str(row["payload"]))
                device_addr, fcnt = decode_uplink_payload(payload)
                start = int(row["start_sample"]) + offset // m
                frame = int(row["frame_samples"])
                truth.append(
                    {
                        "device_addr": device_addr,
                        "fcnt": fcnt,
                        "payload": row["payload"],
                        "channel": int(row["channel"]),
                        "spreading_factor": int(row["spreading_factor"]),
                        "start_sample": start,
                        "frame_samples": frame,
                        "end_chunk": ((start + frame) * m - 1) // CHUNK_SAMPLES,
                    }
                )
    n_chunks = -(-n_samples // CHUNK_SAMPLES)
    (directory / TRUTH_FILE).write_text(json.dumps(truth))
    out = {
        "workload": asdict(workload),
        "seed": seed,
        "fingerprint": workload.fingerprint(),
        "n_samples": n_samples,
        "n_chunks": n_chunks,
        "wideband_rate": plan.wideband_rate,
        "air_s": n_samples / plan.wideband_rate,
        "n_transmitted": len(truth),
        "samples_per_symbol": {
            str(sf): plan.channel_params(sf).samples_per_symbol
            for sf in workload.spreading_factors
        },
    }
    # Written last: its presence marks a complete render.
    (directory / SPEC_FILE).write_text(json.dumps(out))
    return out


def workload_from_spec(spec: Dict[str, Any]) -> Workload:
    """Rebuild the :class:`Workload` a rendered spec was made from."""
    fields = dict(spec["workload"])
    fields["spreading_factors"] = tuple(fields["spreading_factors"])
    fields["frames_per_segment"] = tuple(fields["frames_per_segment"])
    return Workload(**fields)

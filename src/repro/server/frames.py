"""Uplink/downlink frame records exchanged between gateways and the server.

The network server never sees IQ samples: gateways decode frames and
forward per-packet records upstream.  :class:`UplinkFrame` is that
record -- one gateway's reception of one device uplink, identified by
``(device_addr, fcnt)`` exactly as LoRaWAN network servers deduplicate.
:class:`DownlinkCommand` travels the other way: the ADR loop's
LinkADRReq-style data-rate/power assignment for one device.

The repo's waveform pipeline carries opaque payload bytes, so the bridge
between the two worlds is a tiny header convention:
:func:`encode_uplink_payload` packs ``device_addr`` and ``fcnt`` into the
first four payload bytes (little-endian u16 each) and
:func:`decode_uplink_payload` recovers them -- which is how a real
:class:`repro.gateway.ShardedGateway` run feeds the server
(:func:`uplinks_from_report` / :func:`uplink_from_outcome`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.gateway.runtime import GatewayReport
from repro.gateway.workers import DecodeOutcome

#: The uplink frame counter is transmitted truncated to 16 bits
#: (LoRaWAN 1.0.x FCntUp); the session layer re-extends it to 32 bits.
FCNT_PERIOD = 1 << 16

#: Bytes of payload the ``(device_addr, fcnt)`` header occupies.
UPLINK_HEADER_LEN = 4


@dataclass(frozen=True)
class UplinkFrame:
    """One gateway's reception of one device uplink.

    Parameters
    ----------
    gateway_id:
        Which gateway heard the frame.
    device_addr:
        The transmitting device (the MAC simulator's ``node_id``).
    fcnt:
        Uplink frame counter as transmitted -- truncated modulo
        :data:`FCNT_PERIOD`; sessions re-extend it.
    snr_db:
        Link quality of *this* reception (differs per gateway; the
        deduplicator keeps the best copy and the ADR loop smooths it).
    received_s:
        Reception timestamp in stream/simulation time (seconds); drives
        the dedup window's watermark, so it must be monotone per gateway.
    payload:
        Application payload bytes (may embed the header; see
        :func:`encode_uplink_payload`).
    channel, spreading_factor:
        The shard that decoded the frame, when known.
    seq:
        Per-gateway monotone arrival sequence number -- the final
        deterministic tie-break for merging and best-copy selection.
    """

    gateway_id: int
    device_addr: int
    fcnt: int
    snr_db: float
    received_s: float
    payload: bytes = b""
    channel: int = 0
    spreading_factor: Optional[int] = None
    seq: int = 0

    def __post_init__(self) -> None:
        if self.gateway_id < 0:
            raise ValueError(f"gateway_id must be >= 0, got {self.gateway_id}")
        if not 0 <= self.device_addr < FCNT_PERIOD:
            raise ValueError(
                f"device_addr must be 0..{FCNT_PERIOD - 1}, got {self.device_addr}"
            )
        if not 0 <= self.fcnt < FCNT_PERIOD:
            raise ValueError(
                f"fcnt must be 0..{FCNT_PERIOD - 1} (as transmitted), "
                f"got {self.fcnt}"
            )

    @property
    def key(self) -> Tuple[int, int]:
        """The LoRaWAN dedup identity: ``(device_addr, fcnt)``."""
        return (self.device_addr, self.fcnt)


@dataclass(frozen=True)
class DownlinkCommand:
    """One ADR assignment for one device (LinkADRReq emulation)."""

    device_addr: int
    spreading_factor: int
    tx_power_dbm: float = 14.0
    issued_s: float = 0.0
    reason: str = "adr"

    def __post_init__(self) -> None:
        if not 7 <= self.spreading_factor <= 12:
            raise ValueError(
                f"spreading_factor must be 7..12, got {self.spreading_factor}"
            )


def encode_uplink_payload(
    device_addr: int, fcnt: int, payload_len: int = UPLINK_HEADER_LEN
) -> bytes:
    """Pack ``(device_addr, fcnt)`` into the first four payload bytes.

    ``fcnt`` is truncated modulo :data:`FCNT_PERIOD` exactly as the air
    interface truncates it; remaining bytes (past the header) are zero
    filler so any gateway ``payload_len`` >= 4 works.
    """
    if payload_len < UPLINK_HEADER_LEN:
        raise ValueError(
            f"payload_len must be >= {UPLINK_HEADER_LEN}, got {payload_len}"
        )
    if not 0 <= device_addr < FCNT_PERIOD:
        raise ValueError(
            f"device_addr must be 0..{FCNT_PERIOD - 1}, got {device_addr}"
        )
    fcnt16 = fcnt % FCNT_PERIOD
    header = bytes(
        (
            device_addr & 0xFF,
            (device_addr >> 8) & 0xFF,
            fcnt16 & 0xFF,
            (fcnt16 >> 8) & 0xFF,
        )
    )
    return header + bytes(payload_len - UPLINK_HEADER_LEN)


def decode_uplink_payload(payload: bytes) -> Tuple[int, int]:
    """Recover ``(device_addr, fcnt)`` from an encoded payload."""
    if len(payload) < UPLINK_HEADER_LEN:
        raise ValueError(
            f"payload too short for uplink header: {len(payload)} bytes"
        )
    device_addr = payload[0] | (payload[1] << 8)
    fcnt = payload[2] | (payload[3] << 8)
    return device_addr, fcnt


def uplink_from_outcome(
    outcome: DecodeOutcome,
    gateway_id: int,
    sample_rate: float,
    snr_db: Optional[float] = None,
    seq: int = 0,
) -> Optional[UplinkFrame]:
    """Convert one CRC-verified decode outcome into an uplink record.

    Returns ``None`` for failed/undecodable outcomes.  ``sample_rate``
    is the *narrowband* rate the outcome's ``start_sample`` counts in
    (``params.sample_rate`` of the decoding shard).  When the gateway
    has no calibrated SNR estimator, ``snr_db=None`` falls back to the
    detection score -- a monotone link-quality proxy that preserves
    best-gateway ordering even though its unit is not dB.
    """
    if not outcome.crc_ok or outcome.payload is None:
        return None
    if len(outcome.payload) < UPLINK_HEADER_LEN:
        return None
    device_addr, fcnt = decode_uplink_payload(outcome.payload)
    return UplinkFrame(
        gateway_id=gateway_id,
        device_addr=device_addr,
        fcnt=fcnt,
        snr_db=float(snr_db if snr_db is not None else outcome.detection_score),
        received_s=outcome.start_sample / sample_rate,
        payload=outcome.payload,
        channel=outcome.channel,
        spreading_factor=outcome.spreading_factor,
        seq=seq,
    )


def uplinks_from_report(
    report: GatewayReport,
    gateway_id: int,
    sample_rate: float,
    snr_db: Optional[Callable[[DecodeOutcome], float]] = None,
) -> List[UplinkFrame]:
    """Every uplink record one gateway's run produced, in stream order.

    The post-hoc counterpart of the live ``on_outcome`` hook: replays a
    finished :class:`repro.gateway.GatewayReport` into the records a
    server ingests.  ``snr_db`` optionally maps each outcome to a
    calibrated SNR estimate.
    """
    frames: List[UplinkFrame] = []
    for outcome in sorted(report.outcomes, key=lambda o: (o.start_sample, o.job_id)):
        frame = uplink_from_outcome(
            outcome,
            gateway_id,
            sample_rate,
            snr_db=None if snr_db is None else snr_db(outcome),
            seq=len(frames),
        )
        if frame is not None:
            frames.append(frame)
    return frames

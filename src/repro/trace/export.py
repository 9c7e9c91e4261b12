"""Trace serialization: JSONL and Chrome/Perfetto trace-event JSON.

Two machine formats, one source of truth:

* **JSONL** (``*.jsonl``) -- one self-describing record per line
  (``kind``: header / truth / detection / outcome / packet), greppable
  and streamable; the canonical forensics input.
* **Chrome trace-event JSON** (``*.json``) -- loadable in
  ``chrome://tracing`` / Perfetto: every traced job's span tree becomes
  complete (``"ph": "X"``) events on a per-shard track, with pipeline
  events as instants.  The full JSONL-equivalent payload rides along
  under the ``reproTrace`` key, so ``repro forensics`` ingests either
  format.

:func:`write_trace` picks the format from the file extension;
:func:`load_trace` auto-detects on read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.trace.model import PacketTrace, Span
from repro.trace.recorder import TraceRecorder

#: Format tag stamped into every export.
TRACE_FORMAT = "repro-trace/v1"


def trace_data(recorder: TraceRecorder) -> Dict[str, Any]:
    """The JSON-ready dict equivalent of a recorder's full state."""
    return {
        "format": TRACE_FORMAT,
        "base_ts": recorder.base_ts,
        "header": dict(recorder.header),
        "truth": recorder.truth,
        "detections": recorder.detections,
        "outcomes": recorder.outcomes,
        "packets": [packet.to_dict() for packet in recorder.packets],
    }


def to_jsonl(recorder: TraceRecorder) -> str:
    """Render the recorder as one self-describing JSON record per line."""
    data = trace_data(recorder)
    # Header fields are spread first so the reserved row keys (kind,
    # format, base_ts) always win over run-level metadata of that name.
    rows: List[Dict[str, Any]] = [
        {
            **data["header"],
            "kind": "header",
            "format": data["format"],
            "base_ts": data["base_ts"],
        }
    ]
    rows.extend({"kind": "truth", **row} for row in data["truth"])
    rows.extend({"kind": "detection", **row} for row in data["detections"])
    rows.extend({"kind": "outcome", **row} for row in data["outcomes"])
    rows.extend({"kind": "packet", **row} for row in data["packets"])
    return "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"


def _span_events(
    span: Span,
    base_ts: float,
    pid: int,
    tid: int,
    events: List[Dict[str, Any]],
) -> None:
    """Flatten one span subtree into Chrome trace events (ts/dur in us)."""
    ts_us = max(span.start_ts - base_ts, 0.0) * 1e6
    events.append(
        {
            "name": span.name,
            "ph": "X",
            "ts": ts_us,
            "dur": max(span.duration_s, 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": span.attrs,
        }
    )
    for event in span.events:
        events.append(
            {
                "name": event.name,
                "ph": "i",
                "s": "t",
                "ts": max(event.ts - base_ts, 0.0) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": event.attrs,
            }
        )
    for child in span.children:
        _span_events(child, base_ts, pid, tid, events)


def chrome_trace(
    recorder: TraceRecorder, kernel_profile: Any = None
) -> Dict[str, Any]:
    """Chrome trace-event JSON with per-shard tracks + embedded raw data.

    ``kernel_profile`` (an optional
    :class:`repro.profile.KernelProfiler`) adds the run's aggregate
    kernel flame strip as its own track and embeds the raw profile
    state under the ``reproKernelProfile`` key, so one Perfetto load
    shows per-packet spans and the where-did-the-time-go summary side
    by side.
    """
    data = trace_data(recorder)
    packets = recorder.packets
    # One track (tid) per shard label; unlabeled jobs (a decode pool
    # driven without a gateway) share track 0.  Labels sort deterministically, so track numbering
    # is stable across runs.
    labels = sorted({packet.label for packet in packets})
    tids = {label: index for index, label in enumerate(labels)}
    pid = 1
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro-gateway"},
        }
    ]
    for label in labels:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tids[label],
                "args": {"name": label if label else "ch0"},
            }
        )
    for packet in packets:
        _span_events(
            packet.root, recorder.base_ts, pid, tids[packet.label], events
        )
    out: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "reproTrace": data,
    }
    if kernel_profile is not None and len(kernel_profile):
        events.extend(kernel_profile.chrome_events(pid=pid))
        out["reproKernelProfile"] = kernel_profile.state()
    return out


def write_trace(
    recorder: TraceRecorder,
    path: Union[str, Path],
    kernel_profile: Any = None,
) -> None:
    """Write the trace to ``path``; ``.jsonl`` selects JSONL, else Chrome.

    ``kernel_profile`` is merged into the Chrome export (see
    :func:`chrome_trace`); the JSONL format ignores it.
    """
    target = Path(path)
    if target.suffix == ".jsonl":
        target.write_text(to_jsonl(recorder))
    else:
        target.write_text(
            json.dumps(
                chrome_trace(recorder, kernel_profile=kernel_profile),
                sort_keys=True,
            )
        )


def _assemble_jsonl(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reassemble the ``trace_data`` dict from parsed JSONL rows."""
    data: Dict[str, Any] = {
        "format": TRACE_FORMAT,
        "base_ts": 0.0,
        "header": {},
        "truth": [],
        "detections": [],
        "outcomes": [],
        "packets": [],
    }
    for row in rows:
        kind = row.pop("kind", None)
        if kind == "header":
            data["format"] = row.pop("format", TRACE_FORMAT)
            data["base_ts"] = row.pop("base_ts", 0.0)
            data["header"] = row
        elif kind == "truth":
            data["truth"].append(row)
        elif kind == "detection":
            data["detections"].append(row)
        elif kind == "outcome":
            data["outcomes"].append(row)
        elif kind == "packet":
            data["packets"].append(row)
    return data


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Load either export format back into the ``trace_data`` dict."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"empty trace file: {path}")
    if stripped.startswith("{") and "\n" not in stripped.strip():
        obj = json.loads(stripped)
    else:
        try:
            rows = [
                json.loads(line) for line in text.splitlines() if line.strip()
            ]
        except json.JSONDecodeError:
            rows = []
        if rows and all(isinstance(row, dict) for row in rows) and "kind" in rows[0]:
            return _assemble_jsonl(rows)
        obj = json.loads(text)
    if "reproTrace" in obj:
        return dict(obj["reproTrace"])
    if obj.get("format") == TRACE_FORMAT:
        return obj
    raise ValueError(f"not a repro trace file: {path}")


def load_packets(data: Dict[str, Any]) -> List[PacketTrace]:
    """Rehydrate the retained span trees from loaded trace data."""
    return [PacketTrace.from_dict(row) for row in data.get("packets", [])]

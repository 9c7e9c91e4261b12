"""Span tracing around the receiver's public layer entry points.

The traced pass swaps each hook target below for a wrapper that records
one span per call -- layer name, wall start/end, ``time.thread_time()``
spent, self wall/CPU (time not covered by nested traced calls on the same
thread), thread id and the decode job key as the parent link -- into an
in-memory list written out when the pass ends.  Wall alone would
mislead: the ingest and decode threads share the interpreter lock, so a
span's wall includes time spent waiting for it.

Every target is resolved before anything is patched; a missing or
renamed one raises :class:`HookError` naming it, so a refactor of the
receiver fails the traced pass loudly instead of reporting zeros.

Only the standard library is imported here; the targets are imported by
:func:`resolve_hooks`.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, attribute path, layer) of every wrapped entry point.
HOOK_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.gateway.runtime", "StreamScanner.scan", "runtime"),
    ("repro.gateway.workers", "DecodeWorkerPool.submit", "workers.submit"),
    ("repro.gateway.workers", "DecodeWorkerPool.close", "workers.close"),
    ("repro.gateway.workers", "decode_packet_window", "cascade"),
    ("repro.gateway.channelizer", "PolyphaseChannelizer.push", "channelizer"),
    ("repro.gateway.channelizer", "PolyphaseChannelizer.flush", "channelizer"),
    ("repro.gateway.ring", "SampleRing.append", "ring"),
    ("repro.gateway.ring", "SampleRing.consume", "ring"),
    ("repro.gateway.ring", "SampleRing.view", "ring"),
    ("repro.server.server", "NetworkServer.handle_uplink", "server"),
)


class HookError(RuntimeError):
    """A traced entry point no longer exists under its expected name."""


@dataclass
class Hook:
    """One resolved target: the object owning the attribute, and its value."""

    module: str
    path: str
    layer: str
    owner: Any
    name: str
    original: Callable[..., Any]


def resolve_hooks(targets: Sequence[Tuple[str, str, str]] = HOOK_TARGETS) -> List[Hook]:
    """Import and look up every target; raise :class:`HookError` on the first miss."""
    hooks = []
    for module_name, path, layer in targets:
        qualname = f"{module_name}.{path}"
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError as exc:
            raise HookError(f"trace hook target {qualname}: module missing ({exc})") from exc
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                raise HookError(f"trace hook target {qualname}: {part} is missing")
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(
            owner, name, None
        )
        if not callable(original):
            raise HookError(f"trace hook target {qualname} is missing or not callable")
        hooks.append(Hook(module_name, path, layer, owner, name, original))
    return hooks


#: A recorded span: (layer, start, end, cpu, self_wall, self_cpu, thread, key).
Span = Tuple[str, float, float, float, float, float, int, Optional[Tuple[int, ...]]]


class Tracer:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.errors: Dict[str, int] = {}
        self._local = threading.local()
        self._installed: List[Hook] = []

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span per call; ``observe(args, result)`` runs after success."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            children = [0.0, 0.0]
            stack.append(children)
            t0 = time.perf_counter()
            c0 = time.thread_time()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                wall = t1 - t0
                cpu = c1 - c0
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                if not ok:
                    tracer.errors[layer] = tracer.errors.get(layer, 0) + 1
                tracer.spans.append(
                    (
                        layer,
                        t0,
                        t1,
                        cpu,
                        wall - children[0],
                        cpu - children[1],
                        threading.get_ident(),
                        _job_key(args),
                    )
                )
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(
        self,
        hooks: Iterable[Hook],
        observers: Optional[Dict[str, Callable[[Tuple[Any, ...], Any], None]]] = None,
    ) -> None:
        """Patch every hook; ``observers`` maps a hook's ``path`` to its observer.

        Observers are how the traced pass captures detections (submitted
        jobs), decode outcomes and ring evictions where the work happens.
        """
        observers = observers or {}
        for hook in hooks:
            wrapped = self.wrap(hook.layer, hook.original, observers.get(hook.path))
            setattr(hook.owner, hook.name, wrapped)
            self._installed.append(hook)

    def uninstall(self) -> None:
        while self._installed:
            hook = self._installed.pop()
            setattr(hook.owner, hook.name, hook.original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for layer, t0, t1, cpu, self_wall, self_cpu, thread, key in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": layer,
                            "start": t0,
                            "end": t1,
                            "cpu": cpu,
                            "self_wall": self_wall,
                            "self_cpu": self_cpu,
                            "thread": thread,
                            "key": list(key) if key is not None else None,
                        }
                    )
                    + "\n"
                )


def _job_key(args: Tuple[Any, ...]) -> Optional[Tuple[int, ...]]:
    """The decode job key of a call whose arguments carry a job."""
    for arg in args[:2]:
        key = getattr(arg, "key", None)
        if isinstance(key, tuple) and hasattr(arg, "n_data_symbols"):
            return key
    return None


# ----------------------------------------------------------------------
# Detection classification against ground truth
# ----------------------------------------------------------------------
DETECTION_CLASSES = ("true", "sibling_sf", "duplicate", "noise")


def classify_detections(
    detections: Sequence[Tuple[int, int, int]],
    truth: Sequence[Dict[str, Any]],
    samples_per_symbol: Dict[int, int],
    preamble_len: int = 8,
) -> Dict[str, Any]:
    """Label each ``(channel, sf, start)`` detection against the truth rows.

    ``start`` is the detected frame start in narrowband samples, as are
    the rows' ``start_sample``/``frame_samples``.  A detection covers one
    preamble from its start; a frame on its channel *matches* it when the
    frame overlaps that span.  The detection is ``true`` when a matching
    frame of its own SF is still unclaimed (the one starting nearest is
    claimed), ``duplicate`` when all such frames are claimed already,
    ``sibling_sf`` when only frames of another SF match, and ``noise``
    when nothing does.  Frames no detection claimed are ``missed``.
    """
    counts = {name: 0 for name in DETECTION_CLASSES}
    claimed = set()
    for channel, sf, start in sorted(detections, key=lambda d: (d[2], d[0], d[1])):
        end = start + preamble_len * samples_per_symbol[sf]
        matches = [
            (index, row)
            for index, row in enumerate(truth)
            if row["channel"] == channel
            and int(row["start_sample"]) < end
            and int(row["start_sample"]) + int(row["frame_samples"]) > start
        ]
        own = sorted(
            (abs(int(row["start_sample"]) - start), index)
            for index, row in matches
            if row["spreading_factor"] == sf
        )
        free = [index for _, index in own if index not in claimed]
        if free:
            claimed.add(free[0])
            counts["true"] += 1
        elif own:
            counts["duplicate"] += 1
        elif matches:
            counts["sibling_sf"] += 1
        else:
            counts["noise"] += 1
    n_detections = len(detections)
    counts["missed"] = len(truth) - len(claimed)
    counts["precision"] = counts["true"] / n_detections if n_detections else 0.0
    return counts


# ----------------------------------------------------------------------
# Per-layer aggregation
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, total wall, self wall and self CPU."""
    totals: Dict[str, Dict[str, float]] = {}
    for layer, t0, t1, _cpu, self_wall, self_cpu, _thread, _key in spans:
        row = totals.setdefault(
            layer, {"calls": 0, "wall_s": 0.0, "self_wall_s": 0.0, "self_cpu_s": 0.0}
        )
        row["calls"] += 1
        row["wall_s"] += t1 - t0
        row["self_wall_s"] += self_wall
        row["self_cpu_s"] += self_cpu
    return totals

"""Deterministic discrete-event kernel: clock, event queue, seeded RNG streams, metrics."""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np


class SimError(Exception):
    """Base class for simulator errors."""


class PastEvent(SimError):
    """Raised when an event is scheduled before the current clock."""


class NoDisaster(SimError):
    """Raised when a recovery-time query is made on a log without a strike."""


class EventKind(str, Enum):
    DISASTER_STRIKE = "DisasterStrike"
    BATTERY_EXPIRY = "BatteryExpiry"
    HEARTBEAT_DUE = "HeartbeatDue"
    NON_RT_TICK = "NonRtTick"
    NEAR_RT_TICK = "NearRtTick"
    UE_MOVE = "UeMove"
    MEASUREMENT_DONE = "MeasurementDone"


_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class Event(NamedTuple):
    """One scheduled occurrence. Equal fire times break ties by sequence_id.
    A tuple, so it is immutable and cheap to make; events without a payload
    share one read-only empty mapping."""

    fire_time: int
    kind: EventKind
    payload: Mapping[str, Any] = _NO_PAYLOAD
    sequence_id: int = 0


@dataclass
class Sample:
    time_ms: int
    coverage_ratio: float
    throughput_mbps: dict[str, float]
    active_nodes: int


@dataclass
class MetricsLog:
    """Time series of coverage and throughput plus the controller action log."""

    samples: list[Sample] = field(default_factory=list)
    actions: list[tuple[int, str]] = field(default_factory=list)

    def add_sample(self, sample: Sample) -> None:
        if self.samples and sample.time_ms <= self.samples[-1].time_ms:
            raise ValueError("sample times must be strictly increasing")
        if not 0.0 <= sample.coverage_ratio <= 1.0:
            raise ValueError("coverage_ratio out of [0, 1]")
        self.samples.append(sample)

    def log_action(self, time_ms: int, description: str) -> None:
        self.actions.append((time_ms, description))

    def strike_time(self) -> int | None:
        for t, desc in self.actions:
            if desc.startswith(EventKind.DISASTER_STRIKE.value):
                return t
        return None

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            write_metrics_csv(fh, self.samples)

    def summary(self) -> dict[str, Any]:
        return {
            "n_samples": len(self.samples),
            "n_actions": len(self.actions),
            "final_coverage": self.samples[-1].coverage_ratio if self.samples else None,
        }


def _csv_field(text: str) -> str:
    """One field as csv.writer's default dialect writes it (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class _FixedPoint(dict):
    """Memo of f"{x:.6f}" by value. Zeros must not go through it: 0.0 and
    -0.0 are equal keys but print differently."""

    def __missing__(self, value: float) -> str:
        text = self[value] = f"{value:.6f}"
        return text


def write_metrics_csv(fh, samples: list[Sample]) -> None:
    """metrics.csv: one row per sample and UE, sorted by UE id, byte for byte
    what csv.writer writes (CRLF line ends, minimal quoting). Each sample's
    rows go out as one string; the sorted UE fields and the fixed-point text
    of each distinct rate are computed once."""
    fh.write("time_ms,coverage_ratio,ue_id,throughput_mbps\r\n")
    known: set[str] = set()
    ue_ids: list[str] = []
    leads: list[str] = []  # each UE's CSV field and a comma
    fixed = _FixedPoint()
    for s in samples:
        rates = s.throughput_mbps
        if rates.keys() != known:
            ue_ids = sorted(rates)
            known = set(ue_ids)
            leads = [_csv_field(ue) + "," for ue in ue_ids]
        if not ue_ids:
            continue
        cells = [
            lead + (fixed[rate] if rate else f"{rate:.6f}")
            for lead, rate in zip(leads, map(rates.__getitem__, ue_ids))
        ]
        prefix = f"{s.time_ms},{s.coverage_ratio:.6f},"
        fh.write(prefix + ("\r\n" + prefix).join(cells) + "\r\n")


class NotRecovered:
    """Sentinel result: coverage never sustainably re-attained the target."""

    _instance: "NotRecovered | None" = None

    def __new__(cls) -> "NotRecovered":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotRecovered"


NOT_RECOVERED = NotRecovered()

DEFAULT_HOLD_MS = 10_000


def recovery_time(
    log: MetricsLog,
    baseline: float,
    target_fraction: float,
    hold_ms: int = DEFAULT_HOLD_MS,
) -> int | NotRecovered:
    """Elapsed ms from the disaster strike until coverage stays at or above
    target_fraction * baseline for a full hold window."""
    if not 0.0 < baseline <= 1.0:
        raise ValueError("baseline must be in (0, 1]")
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    strike = log.strike_time()
    if strike is None:
        raise NoDisaster("log contains no DisasterStrike action")
    target = target_fraction * baseline
    post = [s for s in log.samples if s.time_ms >= strike]
    if not post:
        return NOT_RECOVERED
    last_time = post[-1].time_ms
    run_start: int | None = None
    for s in post:
        if s.coverage_ratio >= target:
            if run_start is None:
                run_start = s.time_ms
            if s.time_ms - run_start >= hold_ms:
                return run_start - strike
        else:
            run_start = None
    # A run reaching the end of the log counts only if the hold window fits.
    if run_start is not None and last_time - run_start >= hold_ms:
        return run_start - strike
    return NOT_RECOVERED


def rng_stream(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator derived from the master seed by a stable label.

    Adding a new label never perturbs draws of existing labels.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    label_key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed, label_key]))


Handler = Callable[["Kernel", Event], None]


class Kernel:
    """Single-threaded event loop with an integer millisecond clock."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self.clock: int = 0
        self.log = MetricsLog()
        self._queue: list[tuple[int, int, Event]] = []
        self._next_seq = 0
        self._handlers: dict[EventKind, list[Handler]] = {}
        self._rngs: dict[str, np.random.Generator] = {}

    def rng(self, label: str) -> np.random.Generator:
        if label not in self._rngs:
            self._rngs[label] = rng_stream(self.master_seed, label)
        return self._rngs[label]

    def on(self, kind: EventKind, handler: Handler) -> None:
        self._handlers.setdefault(kind, []).append(handler)

    def schedule(self, fire_time: int, kind: EventKind, payload: Mapping[str, Any] | None = None) -> Event:
        if fire_time < self.clock:
            raise PastEvent(f"cannot schedule {kind.value} at t={fire_time} (clock={self.clock})")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(fire_time, kind, payload or _NO_PAYLOAD, seq)
        heapq.heappush(self._queue, (fire_time, seq, event))
        return event

    def run_until(self, t_end: int) -> MetricsLog:
        if t_end < self.clock:
            raise PastEvent(f"t_end={t_end} is before the clock ({self.clock})")
        queue, handlers, pop = self._queue, self._handlers, heapq.heappop
        while queue and queue[0][0] <= t_end:
            self.clock, _, event = pop(queue)
            for handler in handlers.get(event.kind, ()):
                try:
                    handler(self, event)
                except SimError:
                    raise
                except Exception as exc:
                    raise SimError(
                        f"handler for {event.kind.value} at t={event.fire_time} failed: {exc}"
                    ) from exc
        self.clock = t_end
        return self.log


def write_summary_json(path: str, summary: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Deterministic discrete-event kernel: clock, event queue, seeded RNG streams, metrics."""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter
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


class RateTable(dict):
    """Throughput per UE id (Mbps) of a measurement. Read-only, because
    consecutive samples with the same rates share one table. A dict rather
    than a `MappingProxyType`, so that samples still pickle, deep-copy and go
    through `dataclasses.asdict`."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a rate table is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return RateTable, (dict(self),)


@dataclass
class Sample:
    time_ms: int
    coverage_ratio: float
    throughput_mbps: Mapping[str, float]


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
    of each distinct rate are computed once, and a sample whose table is the
    previous sample's table object reuses that sample's cells."""
    fh.write("time_ms,coverage_ratio,ue_id,throughput_mbps\r\n")
    known: set[str] = set()
    ue_ids: list[str] = []
    leads: list[str] = []  # each UE's CSV field and a comma
    fixed = _FixedPoint()
    rates: Mapping[str, float] | None = None
    cells: list[str] = []
    for s in samples:
        if s.throughput_mbps is not rates:
            rates = s.throughput_mbps
            if rates.keys() != known:
                ue_ids = sorted(rates)
                known = set(ue_ids)
                leads = [_csv_field(ue) + "," for ue in ue_ids]
            cells = [
                lead + (fixed[rate] if rate else f"{rate:.6f}")
                for lead, rate in zip(leads, map(rates.__getitem__, ue_ids))
            ]
        if not cells:
            continue
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


class _Handlers(list):
    """The handlers of one event kind, how many events of the kind ran and
    how many sleeping firings of it were skipped. The counts live on the list
    the dispatch loop looks up anyway, so counting costs no second lookup."""

    dispatched = skipped = 0


class _Sleeper(NamedTuple):
    """A periodic event the kernel may skip: the handlers of its kind, the
    period, the wake key read when it slept and how to read it again, and the
    first fire time at which it must run whatever the key."""

    handlers: _Handlers
    kind: EventKind
    payload: Mapping[str, Any]
    period: int
    key: Any
    read_key: Callable[[], Any]
    wake_time: float


class Kernel:
    """Single-threaded event loop with an integer millisecond clock.

    A periodic event may `sleep` instead of being scheduled while its handler
    would do nothing. Its firings wait in the one queue and each draws a
    sequence id as if it ran, so no other event's id or order moves. A firing
    that comes due after its wake key moved, at or past its wake time, or when
    its kind has more than one handler runs; any other is skipped.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self.clock: int = 0
        self.log = MetricsLog()
        self._queue: list[tuple[int, int, Event | _Sleeper]] = []  # a heap
        self._next_seq = 0
        self._handlers: dict[EventKind, _Handlers] = {}
        self._rngs: dict[str, np.random.Generator] = {}

    def rng(self, label: str) -> np.random.Generator:
        if label not in self._rngs:
            self._rngs[label] = rng_stream(self.master_seed, label)
        return self._rngs[label]

    @property
    def scheduled(self) -> int:
        """How many events have been scheduled so far, sleeping firings
        included: the sequence id the next one gets."""
        return self._next_seq

    @property
    def dispatched(self) -> Counter[EventKind]:
        """How many events of each kind have run."""
        return Counter({kind: h.dispatched for kind, h in self._handlers.items() if h.dispatched})

    @property
    def skipped(self) -> Counter[EventKind]:
        """How many sleeping firings of each kind were skipped."""
        return Counter({kind: h.skipped for kind, h in self._handlers.items() if h.skipped})

    def on(self, kind: EventKind, handler: Handler) -> None:
        self._handlers.setdefault(kind, _Handlers()).append(handler)

    def schedule(self, fire_time: int, kind: EventKind, payload: Mapping[str, Any] | None = None) -> Event:
        if fire_time < self.clock:
            raise PastEvent(f"cannot schedule {kind.value} at t={fire_time} (clock={self.clock})")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(fire_time, kind, payload or _NO_PAYLOAD, seq)
        heapq.heappush(self._queue, (fire_time, seq, event))
        return event

    def sleep(
        self,
        fire_time: int,
        period: int,
        kind: EventKind,
        payload: Mapping[str, Any],
        read_key: Callable[[], Any],
        wake_time: float,
    ) -> None:
        """Like `schedule`, for an event whose handler reschedules it every
        `period` ms and does nothing while `read_key()` returns what it
        returns now and the clock is before `wake_time`."""
        if fire_time < self.clock:
            raise PastEvent(f"cannot schedule {kind.value} at t={fire_time} (clock={self.clock})")
        seq = self._next_seq
        self._next_seq = seq + 1
        handlers = self._handlers.setdefault(kind, _Handlers())
        sleeper = _Sleeper(handlers, kind, payload, period, read_key(), read_key, wake_time)
        heapq.heappush(self._queue, (fire_time, seq, sleeper))

    def _rouse(self, fire: int, seq: int, s: _Sleeper, t_end: int) -> Event | None:
        """A sleeping firing at the head of the queue: the event to run, left
        for the caller to pop, or None once it and its later firings before
        the next queued entry are skipped and the head is replaced."""
        if fire >= s.wake_time or len(s.handlers) != 1 or s.read_key() != s.key:
            return Event(fire, s.kind, s.payload, seq)
        # Skip the firings before the next entry, t_end + 1 and the wake time:
        # at least this one, which may share the next entry's time with a
        # smaller id. Each skipped firing draws the id of the next one, so n
        # skips leave the sleeper at the id drawn by the last of them. The
        # next entry is a child of the head, queue[1] or queue[2].
        queue = self._queue
        limit = t_end + 1
        if len(queue) > 1:
            nxt = queue[1][0]
            if len(queue) > 2 and queue[2][0] < nxt:
                nxt = queue[2][0]
            if nxt < limit:
                limit = nxt
        if s.wake_time < limit:
            limit = s.wake_time
        n = -((fire - limit) // s.period) or 1
        heapq.heapreplace(queue, (fire + n * s.period, self._next_seq + n - 1, s))
        self._next_seq += n
        s.handlers.skipped += n
        return None

    def run_until(self, t_end: int) -> MetricsLog:
        """Runs every event up to and including `t_end`; at return, every
        sleeper fires after `t_end`."""
        if t_end < self.clock:
            raise PastEvent(f"t_end={t_end} is before the clock ({self.clock})")
        queue, handlers, pop, rouse = self._queue, self._handlers, heapq.heappop, self._rouse
        while queue:
            fire, seq, event = queue[0]
            if fire > t_end:
                break
            if event.__class__ is _Sleeper:
                event = rouse(fire, seq, event, t_end)
                if event is None:
                    continue
            pop(queue)
            self.clock = fire
            kind_handlers = handlers.get(event.kind)
            if kind_handlers is None:
                kind_handlers = handlers[event.kind] = _Handlers()
            kind_handlers.dispatched += 1
            for handler in kind_handlers:
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

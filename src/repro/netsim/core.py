"""Deterministic discrete-event kernel for network-scale simulation.

The kernel is a binary heap of ``(time, sequence, action)`` entries and
a simulated clock. Two properties make every run replayable bit for
bit, at any worker count:

* **FIFO tie-breaking** — every scheduled event carries a monotone
  sequence number, so events that share a timestamp dispatch in the
  order they were scheduled. Heap order is therefore total and
  independent of Python's hash seed, the heap's internal layout, or
  anything else non-deterministic.
* **No wall-clock, no global RNG** — the kernel never reads real time
  or draws randomness. All stochastic behaviour lives in the actors,
  each of which owns a seeded per-entity stream from
  :func:`repro.utils.rng.indexed_rngs`.

Actors are plain objects that schedule callbacks; there is no thread or
generator machinery. A simulation's event trace is recorded into a
:class:`repro.protocol.events.EventLog` on the simulated clock (with an
optional bounded-ring capacity for very long runs), so traces diff
cleanly against protocol-layer sessions and across runs.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro import obs
from repro.errors import NetworkSimError
from repro.protocol.events import EventLog

__all__ = ["EventQueue", "NetworkSimulation"]


class EventQueue:
    """A time-ordered heap of scheduled actions with FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def push(self, time_s: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at ``time_s``."""
        heapq.heappush(self._heap, (time_s, self._seq, action))
        self._seq += 1

    def pop(self) -> tuple[float, Callable[[], None]]:
        """Remove and return the earliest ``(time_s, action)`` entry."""
        if not self._heap:
            raise NetworkSimError("event queue is empty")
        time_s, _, action = heapq.heappop(self._heap)
        return time_s, action

    def peek_time_s(self) -> float:
        """Timestamp of the earliest pending event."""
        if not self._heap:
            raise NetworkSimError("event queue is empty")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class NetworkSimulation:
    """The shared clock + event queue every actor schedules against.

    One instance drives one scenario run: access points, fleet nodes,
    the roaming controller and transfer processes all schedule their
    callbacks here, and every noteworthy milestone is recorded into the
    simulated-time :attr:`trace`.
    """

    def __init__(self, trace_capacity: int | None = None) -> None:
        self._queue = EventQueue()
        self._now_s = 0.0
        self._events_processed = 0
        self.trace = EventLog(capacity=trace_capacity)

    @property
    def now_s(self) -> float:
        """Current simulated time."""
        return self._now_s

    @property
    def events_processed(self) -> int:
        """Events dispatched so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Events still queued."""
        return len(self._queue)

    def schedule(self, delay_s: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay_s`` of simulated time."""
        if delay_s < 0:
            raise NetworkSimError("cannot schedule into the past")
        self._queue.push(self._now_s + delay_s, action)

    def schedule_at(self, time_s: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute simulated time ``time_s``."""
        if time_s < self._now_s:
            raise NetworkSimError("cannot schedule into the past")
        self._queue.push(time_s, action)

    def log(self, kind: str, **detail: Any) -> None:
        """Record a trace event at the current simulated time."""
        self.trace.record(kind, **detail)

    def run(
        self,
        until_s: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Dispatch events in timestamp order; returns how many ran.

        Stops when the queue drains, when the next event lies beyond
        ``until_s``, or after ``max_events`` dispatches — whichever comes
        first. In the first two cases the clock then advances to
        ``until_s``; a stop on ``max_events`` with an event still due by
        ``until_s`` leaves it at the last dispatch.
        """
        dispatched = 0
        while self._queue:
            if max_events is not None and dispatched >= max_events:
                break
            next_s = self._queue.peek_time_s()
            if until_s is not None and next_s > until_s:
                break
            time_s, action = self._queue.pop()
            self._advance_clock(time_s)
            action()
            dispatched += 1
        if (
            until_s is not None
            and until_s > self._now_s
            and (not self._queue or self._queue.peek_time_s() > until_s)
        ):
            self._advance_clock(until_s)
        self._events_processed += dispatched
        obs.counter("netsim.events.processed").inc(dispatched)
        return dispatched

    def _advance_clock(self, time_s: float) -> None:
        self._now_s = time_s
        # Keep the trace's simulated clock in lockstep so recorded
        # events carry the dispatch timestamp.
        delta_s = time_s - self.trace.now_s
        if delta_s > 0:
            self.trace.advance(delta_s)

"""Streaming telemetry bus: schema-versioned JSONL over the metrics plane.

A :class:`TelemetryStream` watches a :class:`~repro.obs.metrics.MetricsRegistry`
and, every ``interval_cycles`` of *simulated* time, emits one ``delta``
record — the sparse difference (counter increments, histogram bucket
deltas, gauge samples) since the previous emission — to a JSONL sink
and/or in-process subscribers (the SLO engine rides the bus this way).

Cycle neutrality is the load-bearing property: the stream **never
schedules engine events**.  It registers as an observational tap
(:meth:`~repro.sim.engine.Simulator.attach_stream`) that the dispatcher
consults after firing due events — so the event queue, the idle
fast-forward jump targets, the ``sim.*`` counters and every cycle-exact
series are bit-identical with streaming on or off.  Streaming costs host
wall-clock only; emission boundaries are crossed at deterministic points
of the run, so the JSONL output is byte-identical across same-seed runs.

Wire schema (docs/OBSERVABILITY.md §10): one JSON object per line,
``sort_keys`` canonical form, every record carrying ``type``, ``t``
(sim cycle) and ``seq``.  Record types: ``header`` (schema version,
cadence, seed, full start snapshot), ``delta``, ``snapshot`` (full final
image), ``shard`` / ``aggregate`` (per-board images and their merged
fleet view, emitted by the fleet harness), ``slo_breach`` (from
:mod:`repro.obs.slo`) and ``end``.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .aggregate import MetricSnapshot, delta_between

#: Bump when the JSONL record layout changes.
STREAM_SCHEMA_VERSION = 1

#: Default emission cadence for the CLI, in simulated milliseconds.
DEFAULT_INTERVAL_MS = 10.0


class TelemetryStream:
    """Periodic metric-delta emitter + record bus.

    ``metrics`` may be ``None`` for a pure record bus (the fleet harness
    uses one to carry per-board shard snapshots without a live registry).
    """

    def __init__(self, metrics=None, *, interval_cycles: int = 1,
                 sink=None, source: str = "run",
                 seed: int | None = None,
                 meta: dict[str, Any] | None = None) -> None:
        if interval_cycles <= 0:
            raise ValueError(f"interval_cycles must be > 0: {interval_cycles}")
        self.metrics = metrics
        self.interval = int(interval_cycles)
        self.source = source
        self.seed = seed
        self.meta = dict(meta or {})
        self._sink = sink
        self._subscribers: list[Callable[[dict[str, Any]], None]] = []
        self._sim = None
        self._prev = MetricSnapshot.empty()
        #: Next emission boundary (absolute cycle); the engine compares
        #: its clock against this — cheap enough for the dispatch path.
        self.next_due = self.interval
        self.seq = 0
        self.records = 0
        self.deltas = 0
        self.closed = False
        if metrics is not None:
            self._c_records = metrics.counter("stream.records")
            self._c_deltas = metrics.counter("stream.deltas")
        else:
            self._c_records = self._c_deltas = None

    # -- bus plumbing -------------------------------------------------------

    def subscribe(self, fn: Callable[[dict[str, Any]], None]) -> None:
        """Receive every record as a dict, in emission order."""
        self._subscribers.append(fn)

    def _now(self) -> int:
        return self._sim.now if self._sim is not None else 0

    def _emit(self, rtype: str, fields: dict[str, Any]) -> dict[str, Any]:
        rec = {"type": rtype, "t": self._now(), "seq": self.seq, **fields}
        self.seq += 1
        self.records += 1
        if self._c_records is not None:
            self._c_records.inc()
        if self._sink is not None:
            self._sink.write(json.dumps(rec, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        for fn in self._subscribers:
            fn(rec)
        return rec

    # -- lifecycle ----------------------------------------------------------

    def attach(self, sim) -> None:
        """Start streaming against an engine clock (emits the header).

        The header carries the full registry snapshot at attach time, so
        folding it with every subsequent delta reproduces the final
        snapshot exactly (:func:`repro.obs.aggregate.apply_delta`).
        """
        if self._sim is not None:
            raise ValueError("stream already attached")
        self._sim = sim
        self.next_due = sim.now + self.interval
        if self.metrics is not None:
            self._prev = MetricSnapshot.of(self.metrics)
        self.emit_header()
        sim.attach_stream(self)

    def emit_header(self) -> None:
        """The first record: schema version, cadence, source, seed and
        start snapshot (empty for a record bus, which never attaches)."""
        self._emit("header", {
            "schema_version": STREAM_SCHEMA_VERSION,
            "interval_cycles": self.interval,
            "source": self.source,
            "seed": self.seed,
            "meta": self.meta,
            "snapshot": self._prev.to_dict(),
        })

    def on_tick(self, now: int) -> None:
        """Engine callback: the clock crossed ``next_due``.

        Emits at most one delta per crossing; an idle fast-forward that
        jumps several boundaries coalesces into a single delta (nothing
        changed in between — the engine was idle).
        """
        while self.next_due <= now:
            self.next_due += self.interval
        if self.metrics is None:
            return
        cur = MetricSnapshot.of(self.metrics)
        body = delta_between(self._prev, cur)
        self._prev = cur
        if not body:
            return                      # quiet interval: no record
        self.deltas += 1
        if self._c_deltas is not None:
            self._c_deltas.inc()
        self._emit("delta", body)

    # -- harness records ----------------------------------------------------

    def emit_shard(self, label: str, snapshot: MetricSnapshot,
                   **info: Any) -> None:
        """One fleet shard's final registry image (fleet runs)."""
        self._emit("shard", {"label": label, "info": info,
                             "snapshot": snapshot.to_dict()})

    def emit_aggregate(self, snapshot: MetricSnapshot, *,
                       shards: int, **info: Any) -> None:
        """The merged fleet view of every shard emitted so far."""
        self._emit("aggregate", {"shards": shards, "info": info,
                                 "snapshot": snapshot.to_dict()})

    def emit_explore_schedule(self, schedule_id: str, *, sites: list[str],
                              fired: list[str], paths: list[str],
                              novel: bool, ok: bool, **info: Any) -> None:
        """One executed explorer schedule: which sites fired, which
        recovery paths the run's coverage fingerprint contains."""
        self._emit("explore_schedule",
                   {"schedule_id": schedule_id, "sites": sites,
                    "fired": fired, "paths": paths, "novel": novel,
                    "ok": ok, "info": info})

    def emit_overload_transition(self, kind: str, *, tick: int,
                                 **info: Any) -> None:
        """One overload-plane state change: a tenant degrade/restore/
        overload_kill, a breaker open/half_open/close, or a brownout
        enter/exit (docs/FLEET.md §11)."""
        self._emit("overload_transition",
                   {"kind": kind, "tick": tick, "info": info})

    def emit_explore_failure(self, schedule_id: str, *, reasons: list[str],
                             shrunk_to: int, replayed_identical: bool,
                             **info: Any) -> None:
        """A failing explorer schedule and its shrunk minimal repro."""
        self._emit("explore_failure",
                   {"schedule_id": schedule_id, "reasons": reasons,
                    "shrunk_to": shrunk_to,
                    "replayed_identical": replayed_identical,
                    "info": info})

    def close(self) -> None:
        """Flush the final delta, full snapshot, and the ``end`` record."""
        if self.closed:
            return
        self.closed = True
        if self.metrics is not None:
            cur = MetricSnapshot.of(self.metrics)
            body = delta_between(self._prev, cur)
            self._prev = cur
            if body:
                self.deltas += 1
                if self._c_deltas is not None:
                    self._c_deltas.inc()
                self._emit("delta", body)
            self._emit("snapshot", {"snapshot": cur.to_dict()})
        # +1 so the count includes the end record itself: "records" ==
        # the line count of the finished JSONL file.
        self._emit("end", {"records": self.records + 1,
                           "deltas": self.deltas})
        if self._sim is not None:
            self._sim.detach_stream(self)
            self._sim = None

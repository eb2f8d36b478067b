"""Span recording from outside the program, for the traced run.

:func:`install` replaces the public functions and methods at each layer
boundary with thin wrappers that record a span — name, start, end and
the enclosing span — into a :class:`Recorder`.  Nothing inside the
program changes: the wrappers call straight through, and while the
recorder is inactive they add one attribute check per call.

The recorder keeps, per span name, the call count, the inclusive time
and the self time (duration minus the time its child spans cover), plus
the same per ``(parent, name)`` pair, layer counters (records, bytes,
items, ...) and the intervals of root spans so the time no span covers
can be computed.  Raw spans are held in memory up to ``keep`` and
written out as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class Recorder:
    def __init__(self, keep: int = 100_000) -> None:
        self.active = False
        self.keep = keep
        self.reset()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        #: Solver instances captured while ``capture_solves`` is set.
        self.capture_solves = False
        self.solves: list[tuple] = []

    def reset(self) -> None:
        """Drop the aggregates (raw spans and captured solves survive)."""
        self._stack: list[list] = []
        self.agg: dict[str, list] = {}
        self.pairs: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.roots: list[tuple[float, float]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _now(), 0.0])

    def end(self) -> None:
        span_id, name, start, child = self._stack.pop()
        now = _now()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += now - start
        self._fold(span_id, name, start, now, child, parent)

    def record(self, name: str, start: float, end: float) -> None:
        """A span that cannot nest on the stack (an awaited coroutine)."""
        self._next_id += 1
        self._fold(self._next_id, name, start, end, 0.0, None)

    def _fold(self, span_id, name, start, end, child, parent) -> None:
        dur = end - start
        for table, key in (
            (self.agg, name),
            (self.pairs, (parent[1] if parent is not None else None, name)),
        ):
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child
        if parent is None:
            self.roots.append((start, end))
        if len(self.spans) < self.keep:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent is not None else None)
            )
        else:
            self.dropped += 1

    # -- readouts ------------------------------------------------------
    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def covered(self) -> float:
        return covered(self.roots)

    def aggregates(self) -> dict:
        """JSON-safe aggregates (shipped back by the traced server)."""
        return {
            "agg": self.agg,
            "pairs": [[p, n, row] for (p, n), row in self.pairs.items()],
            "counts": dict(self.counts),
            "roots": self.roots,
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def covered(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _sync(rec: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end()
        if count is not None:
            count(rec, result, args)
        return result

    return wrapper


def _iterator(rec: Recorder, name: str, fn, counter: str):
    """Times every ``next()`` of the iterator ``fn`` returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        if not rec.active:
            return it

        def timed():
            while True:
                rec.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.end()
                rec.counts[counter] += 1
                yield item

        return timed()

    return wrapper


def _coroutine(rec: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not rec.active:
            return await fn(*args, **kwargs)
        start = _now()
        try:
            result = await fn(*args, **kwargs)
        finally:
            rec.record(name, start, _now())
        if count is not None:
            count(rec, result, args)
        return result

    return wrapper


def _patch_function(module_name: str, attr: str, make, per_module=None) -> None:
    """Replace every binding of ``module.attr`` in loaded ``repro`` modules.

    ``from x import f`` copies the function into the importer, so the
    wrapper has to land in each module that holds a reference.
    ``per_module`` maps an importing module to its own wrapper factory.
    """
    original = getattr(sys.modules[module_name], attr)
    default = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                factory = (per_module or {}).get(mod_name)
                setattr(mod, key, factory(original) if factory else default)


def _patch_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _add(counter: str, of):
    def count(rec: Recorder, result, args) -> None:
        rec.counts[counter] += of(result, args)

    return count


def _trace_records(trace) -> int:
    return len(trace.screen_sessions) + len(trace.usages) + len(trace.activities)


def _capture_solve(rec: Recorder, solution, args) -> None:
    slots, items = args[0], args[1]
    rec.counts["solver.items"] += len(items)
    if rec.capture_solves:
        rec.solves.append((slots, items, solution))


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries shared by every phase."""
    import repro.baselines as baselines
    import repro.core.batch  # noqa: F401  (bindings must be loaded)
    import repro.core.overlapped  # noqa: F401
    import repro.core.scheduler  # noqa: F401
    import repro.evaluation.experiments  # noqa: F401
    import repro.evaluation.metrics  # noqa: F401
    import repro.service.gateway  # noqa: F401
    import repro.stream.fleet  # noqa: F401
    import repro.stream.ingest  # noqa: F401
    import repro.stream.shards.service  # noqa: F401
    import repro.stream.shards.store  # noqa: F401
    import repro.stream.shards.wal  # noqa: F401
    import repro.traces.io  # noqa: F401
    from repro.core.netmaster import NetMaster
    from repro.habits.prediction import HabitModel
    from repro.monitor.feedback import UserMonitor
    from repro.stream.fleet import FleetService
    from repro.stream.online_habits import OnlineHabitModel
    from repro.stream.online_netmaster import OnlineNetMaster
    from repro.stream.shards.service import ShardedFleetService
    from repro.traces.generator import TraceGenerator

    def sync(name, count=None):
        return lambda fn: _sync(rec, name, fn, count)

    _patch_method(
        TraceGenerator, "generate",
        sync("traces.generate", _add("traces.records", lambda r, a: _trace_records(r))),
    )
    _patch_function("repro.traces.io", "trace_from_jsonl", sync("ingest.decode"))
    _patch_function(
        "repro.stream.ingest", "stream_trace",
        lambda fn: _iterator(rec, "ingest.next", fn, "ingest.records"),
    )
    _patch_method(OnlineNetMaster, "observe", sync("engine.observe"))
    _patch_method(OnlineNetMaster, "state_dict", sync("engine.state_dict"))
    _patch_method(
        OnlineNetMaster, "to_json",
        sync("checkpoint.encode", _add("checkpoint.bytes", lambda r, a: len(r))),
    )
    _patch_method(OnlineNetMaster, "from_json", sync("checkpoint.decode"))
    _patch_method(OnlineHabitModel, "close_day", sync("habits.close_day"))
    _patch_method(OnlineHabitModel, "to_model", sync("habits.to_model"))
    _patch_method(NetMaster, "adopt_model", sync("netmaster.adopt"))
    _patch_method(
        NetMaster, "execute_day",
        sync("netmaster.execute_day",
             _add("netmaster.degraded_days", lambda r, a: int(r.degraded))),
    )
    _patch_function(
        "repro.core.overlapped", "solve_overlapped",
        sync("solver.solve", _capture_solve),
    )
    _patch_function(
        "repro.core.batch", "measure_outcomes_columnar",
        sync("pricing.columnar", _add("pricing.days", lambda r, a: len(r))),
    )
    _patch_function(
        "repro.evaluation.metrics", "measure_outcome",
        sync("pricing.scalar", _add("pricing.days", lambda r, a: 1)),
        per_module={
            "repro.service.gateway": sync(
                "gateway.pricing", _add("pricing.days", lambda r, a: 1)
            )
        },
    )
    _patch_method(FleetService, "run", sync("fleet.run"))
    _patch_method(ShardedFleetService, "run", sync("shards.run"))
    _patch_method(
        ShardedFleetService, "recover",
        sync("recovery",
             _add("recovery.records",
                  lambda r, a: sum(rep.replayed_records for rep in r))),
    )
    _patch_function("repro.stream.shards.wal", "append_record", sync("wal.append"))
    _patch_function(
        "repro.stream.shards.wal", "encode_record",
        sync("wal.encode", _add("wal.bytes", lambda r, a: len(r) + 1)),
    )
    _patch_method(
        UserMonitor, "feed", sync("monitor.feed", _add("monitor.alerts", lambda r, a: len(r)))
    )
    _patch_method(HabitModel, "fit", sync("eval.habit_fit"))
    for cls_name in (
        "NaivePolicy", "OraclePolicy", "NetMasterPolicy",
        "DelayPolicy", "BatchPolicy", "DelayBatchPolicy",
    ):
        cls = getattr(baselines, cls_name)
        if "execute_day" in cls.__dict__:
            _patch_method(cls, "execute_day", sync("eval.policy_execute"))


def install_service(rec: Recorder) -> None:
    """Wrap the HTTP-side boundaries (inside the traced server process)."""
    import repro.service.routes  # noqa: F401  (bindings must be loaded)
    from repro.service.gateway import FleetGateway
    from repro.service.http import ServiceApp

    _patch_function(
        "repro.service.http", "read_request",
        lambda fn: _coroutine(
            rec, "http.read", fn,
            _add("http.requests", lambda r, a: int(r is not None)),
        ),
    )
    _patch_function(
        "repro.service.http", "render_response", lambda fn: _sync(rec, "http.render", fn)
    )
    _patch_function(
        "repro.service.schemas", "parse_event_batch",
        lambda fn: _sync(
            rec, "schemas.decode", fn, _add("schemas.records", lambda r, a: len(r[0]))
        ),
    )
    _patch_method(FleetGateway, "ingest", lambda fn: _sync(rec, "gateway.ingest", fn))

    original_call = ServiceApp.call

    @functools.wraps(original_call)
    def call(self, fn):
        if not rec.active:
            return original_call(self, fn)
        queued = _now()
        busy = [0.0]

        def timed(gateway):
            start = _now()
            try:
                return fn(gateway)
            finally:
                busy[0] = _now() - start

        future = original_call(self, timed)

        def done(_future) -> None:
            rec.counts["service.queue_wait_s"] += (_now() - queued) - busy[0]

        future.add_done_callback(done)
        return future

    ServiceApp.call = call

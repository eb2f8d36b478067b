"""The four timed phases every run executes on its cohort.

A phase is a repeatable round over the whole cohort.  :func:`interleave`
runs the phases in turn — one round of each per cycle — for the run's
time budget.  Inside a round the cohort is processed in fixed groups of
users (or, for the evaluation, one figure at a time), and each group is
timed on its own: its timer covers only the program's work.  Inputs
were built at set-up, the knapsack slot memo is cleared before every
timed fleet group (and of every evaluation round) so no repetition is
served by another's solutions, and server start-up happens before any
clock starts.

A round's rate is its work over the sum of its tasks' timed seconds,
and a phase reports the median round.  Dealing the phases' small tasks
out in turn spreads every round over the whole cycle, so a spell of
interference on a shared machine slows a little of every round rather
than all of one.

* ``stream`` — :meth:`FleetService.run` over in-memory traces, with the
  checkpoint cadence on; no WAL, HTTP or monitor.
* ``durable`` — :meth:`ShardedFleetService.run` with default shard
  settings and the monitor attached, each trace decoded lazily from its
  JSONL file; then every shard's live WAL is cut at a fixed byte
  fraction, ``recover()`` is timed over the torn state, and (in the
  first round) the group is resumed to its end without the monitor.
* ``service`` — a fresh ``python -m repro serve`` per round, replayed by
  a closed loop of keep-alive connections, one group after another.
* ``eval`` — Figs. 7, 8, 9 and 10(c) at their default options (seed
  included) and a longer horizon.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import clear_slot_memo
from repro.evaluation import experiments as ex
from repro.monitor import MonitorHub, RingAlertSink
from repro.stream.fleet import FleetConfig, FleetService, FleetUserSpec
from repro.stream.shards import ShardConfig, ShardedFleetService
from repro.stream.shards import wal as wal_mod
from repro.traces import io as traces_io

import cohort as cohort_mod
import httpload

#: Fleet configs of the in-process phases: defaults, plus the in-line
#: checkpoint cadence on the stream phase and the monitor on the durable one.
STREAM_CONFIG = FleetConfig(checkpoint_every_days=2)
DURABLE_CONFIG = FleetConfig()
#: ``serve`` flags of the service phase (the CLI turns the breaker off).
SERVE_ARGS = ["--checkpoint-every", "2"]
#: Share of each live WAL's bytes kept by the cut (the rest is torn off).
CUT_FRACTION = 0.6
#: Timed ``recover()`` calls per durable group, each over the same torn state.
RECOVERY_REPS = 6
#: Users per timed durable task and per timed service task (one user per
#: connection); stream tasks are single users.
DURABLE_GROUP = 2
SERVICE_GROUP = 2
FIGURES = ("fig7", "fig8", "fig9", "fig10c")


@dataclass
class PhaseRun:
    """What the rounds of one phase measured."""

    rounds: int = 0
    #: Timed seconds per key (a group, a figure), one entry per round.
    times: dict = field(default_factory=dict)
    #: Work units (events, policy-days) of one whole round.
    units: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Phase-specific extras (latencies, recovery times, results, ...).
    extra: dict = field(default_factory=dict)

    def time(self, key, seconds: float) -> None:
        self.times.setdefault(key, []).append(seconds)

    def round_rates(self) -> list[float]:
        """Units per second of each round: its work over its timed seconds."""
        return [
            self.units / sum(t[r] for t in self.times.values())
            for r in range(self.rounds)
        ]

    def rate(self) -> float:
        """The median round's rate."""
        return statistics.median(self.round_rates())


@dataclass
class Phase:
    """One phase: per-round set-up, independently timed tasks, wrap-up."""

    name: str
    #: Called with the phase's run; returns the round's timed tasks.
    begin: object  # Callable[[PhaseRun], list[Callable[[], None]]]
    #: Called with the phase's run once the round's tasks are done.
    end: object  # Callable[[PhaseRun], None]
    #: Releases what ``begin`` started when a round fails half-way.
    abort: object = None  # Callable[[], None] | None
    run: PhaseRun = field(default_factory=PhaseRun)


def interleave(phases: list[Phase], budget_s: float, min_cycles: int) -> None:
    """Run cycles while another whole cycle fits ``budget_s``.

    A cycle is one round of every phase.  The phases' tasks are dealt
    out in turn — a stream user, a durable group, a service pair, a
    figure, the next stream user, ... — so each phase's work is spread
    over the whole cycle and every task's repetitions fall at different
    moments of a run.
    """
    start = time.perf_counter()
    cycles = 0
    while (
        cycles < min_cycles
        or (time.perf_counter() - start) * (cycles + 1) / cycles <= budget_s
    ):
        try:
            queues = [list(phase.begin(phase.run)) for phase in phases]
            while any(queues):
                for queue in queues:
                    if queue:
                        queue.pop(0)()
        except BaseException:
            for phase in phases:
                if phase.abort is not None:
                    phase.abort()
            raise
        for phase in phases:
            phase.end(phase.run)
            phase.run.rounds += 1
        cycles += 1


def _activate(rec, on: bool) -> None:
    if rec is not None:
        rec.active = on


def _specs(traces) -> list[FleetUserSpec]:
    return [
        FleetUserSpec(
            user_id=t.user_id, n_days=t.n_days, start_weekday=t.start_weekday, trace=t
        )
        for t in traces
    ]


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def stream(cohort, rec=None) -> Phase:
    """One task per user: ``FleetService.run`` over that user's trace."""
    specs = _specs(cohort.traces)
    summaries: list = []

    def task(spec: FleetUserSpec, run: PhaseRun):
        def timed() -> None:
            clear_slot_memo()
            if rec is not None:
                rec.capture_solves = run.rounds == 0
            _activate(rec, True)
            start = time.perf_counter()
            result = FleetService(STREAM_CONFIG).run([spec])
            run.time(spec.user_id, time.perf_counter() - start)
            _activate(rec, False)
            if rec is not None:
                rec.capture_solves = False
            summaries.extend(result.summaries)
            run.attempted += 1

        return timed

    def begin(run: PhaseRun):
        summaries.clear()
        return [task(spec, run) for spec in specs]

    def end(run: PhaseRun) -> None:
        run.units = sum(s.events for s in summaries)
        run.extra.setdefault("summaries", []).append(list(summaries))

    return Phase("stream", begin, end)


# ----------------------------------------------------------------------
# durable
# ----------------------------------------------------------------------
class WalBytes:
    """Counts the bytes of every WAL line the program frames.

    A byte counter, not a timer: it wraps ``wal.encode_record`` (which
    ``append_record`` calls once per record) and adds the line length.
    """

    def __init__(self) -> None:
        self.bytes = 0
        original = wal_mod.encode_record

        def encode_record(payload: dict) -> str:
            line = original(payload)
            self.bytes += len(line) + 1
            return line

        wal_mod.encode_record = encode_record


def lazy_specs(paths):
    """Admission source that decodes each user's JSONL file when drawn."""
    for path in paths:
        trace = traces_io.trace_from_jsonl(path)
        yield FleetUserSpec(
            user_id=trace.user_id,
            n_days=trace.n_days,
            start_weekday=trace.start_weekday,
            trace=trace,
        )


def _hub() -> tuple[MonitorHub, RingAlertSink]:
    ring = RingAlertSink(capacity=4096)
    return MonitorHub([ring]), ring


def durable(cohort, tmp: Path, wal_bytes: WalBytes, rec=None) -> Phase:
    """One task per group of users: a sharded run, a torn WAL, recoveries."""
    groups = cohort.path_groups(DURABLE_GROUP)
    x: dict = {}

    def one_group(run: PhaseRun, g: int, paths: list[Path], x: dict) -> None:
        root = Path(tempfile.mkdtemp(prefix="shards-", dir=tmp))
        shards = ShardConfig(root=root)
        service = ShardedFleetService(DURABLE_CONFIG, shards=shards)
        hub, ring = _hub()
        clear_slot_memo()
        before = wal_bytes.bytes
        _activate(rec, True)
        start = time.perf_counter()
        result = service.run(lazy_specs(paths), monitor=hub)
        run.time(g, time.perf_counter() - start)
        _activate(rec, False)
        x["wal_bytes"] += wal_bytes.bytes - before
        hub.close()

        # Tear every shard's live WAL at the same byte fraction (a shard
        # no user of the group routed to has no WAL and replays nothing).
        cuts = []
        for store in service.stores:
            data = store.wal_path.read_bytes() if store.wal_path.exists() else None
            kept = data[: int(len(data) * CUT_FRACTION)] if data is not None else None
            cuts.append((store.wal_path, kept, kept.count(b"\n") if kept else 0))
        recovery_s = run.extra.setdefault("recovery_s", {}).setdefault(g, [])
        for _ in range(RECOVERY_REPS):
            for path, kept, _expected in cuts:
                if kept is not None:
                    path.write_bytes(kept)
            resumed_service = ShardedFleetService(DURABLE_CONFIG, shards=shards)
            _activate(rec, True)
            start = time.perf_counter()
            reports = resumed_service.recover()
            recovery_s.append(time.perf_counter() - start)
            _activate(rec, False)
            x["replay_ok"] &= (
                [r.replayed_records for r in reports] == [c[2] for c in cuts]
            )
        x["replayed"] += sum(c[2] for c in cuts)
        if run.rounds == 0 and rec is None:
            # Resume the torn group to its end once per run (untimed).
            # Without the monitor: a resumed monitor restarts its detector
            # baselines and can raise alerts the uninterrupted run did not
            # (see README), so the WAL path is checked on its own.
            resumed = resumed_service.run(lazy_specs(paths))
            x["resume_diff"] += [
                a.user_id
                for a, b in zip(result.summaries, resumed.summaries)
                if a.as_dict() != b.as_dict()
            ]
            x["resumed_users"] += resumed.resumed_users
        shutil.rmtree(root)
        x["summaries"].extend(result.summaries)
        x["alerts"].extend(ring.alerts())
        x["events"] += result.events
        run.attempted += len(paths) + RECOVERY_REPS

    def begin(run: PhaseRun):
        x.clear()
        x.update({"wal_bytes": 0, "replay_ok": True, "replayed": 0,
                  "resume_diff": [], "resumed_users": 0, "summaries": [],
                  "alerts": [], "events": 0})
        return [
            (lambda g=g, paths=paths: one_group(run, g, paths, x))
            for g, paths in enumerate(groups)
        ]

    def end(run: PhaseRun) -> None:
        run.units = x["events"]
        for key in ("wal_bytes", "replay_ok", "replayed", "summaries", "alerts"):
            run.extra.setdefault(key, []).append(x[key])
        if run.rounds == 0 and rec is None:
            run.extra["resume_diff"] = sorted(x["resume_diff"])
            run.extra["resumed_users"] = x["resumed_users"]

    return Phase("durable", begin, end)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def service(cohort, root: Path, connections: int, traced_dir: Path | None = None) -> Phase:
    """One server per round; one task per group of users replayed over
    ``connections`` keep-alive connections."""
    groups = [[t.user_id for t in g] for g in cohort.groups(SERVICE_GROUP)]
    state: dict = {}

    def task(g: int, users: list[str], run: PhaseRun):
        def timed() -> None:
            load = httpload.replay(state["server"], cohort, users, connections)
            run.time(g, load.elapsed_s)
            state["windows"].append(load.window)
            latencies = run.extra.setdefault("latencies_s", {})
            for key, seconds in load.latencies_s.items():
                latencies.setdefault(key, []).append(seconds)
            state["savings"].update(load.savings)
            state["events"] += load.events
            run.attempted += load.requests
            run.failed += load.failed

        return timed

    def begin(run: PhaseRun):
        traced_out = None
        if traced_dir is not None:
            traced_out = traced_dir / f"server-{run.rounds}.json"
        state.clear()
        state.update(
            server=httpload.start_server(root, SERVE_ARGS, traced_out),
            traced_out=traced_out, windows=[], savings={}, events=0,
        )
        return [task(g, users, run) for g, users in enumerate(groups)]

    def abort() -> None:
        if "server" in state:
            state["server"].stop()

    def end(run: PhaseRun) -> None:
        server = state["server"]
        server.stop()
        run.units = state["events"]
        x = run.extra
        x.setdefault("startup_s", []).append(server.startup_s)
        x.setdefault("peak_rss_mib", []).append(server.peak_rss_mib)
        x.setdefault("savings", []).append(
            {uid: json.loads(body) for uid, body in state["savings"].items()}
        )
        if state["traced_out"] is not None:
            doc = json.loads(state["traced_out"].read_text())
            doc["windows"] = state["windows"]
            x.setdefault("server_traces", []).append(doc)

    return Phase("service", begin, end, abort)


# ----------------------------------------------------------------------
# paper evaluation
# ----------------------------------------------------------------------
def evaluation(rec=None) -> Phase:
    """One task per figure."""
    days, seed = cohort_mod.EVAL_DAYS, cohort_mod.EVAL_SEED
    results: dict = {}

    def task(name: str, run: PhaseRun):
        def timed() -> None:
            clear_slot_memo()
            _activate(rec, True)
            start = time.perf_counter()
            results[name] = getattr(ex, name)(seed=seed, n_days=days)
            run.time(name, time.perf_counter() - start)
            _activate(rec, False)
            run.attempted += 1

        return timed

    def begin(run: PhaseRun):
        results.clear()
        return [task(name, run) for name in FIGURES]

    def end(run: PhaseRun) -> None:
        r7, r8, r9, r10 = (results[name] for name in FIGURES)
        # Policy-days executed and priced: Fig. 7's grid, then per test
        # day a naive baseline plus one lane per swept value (Figs. 8, 9)
        # and naive + oracle + one NetMaster lane per delta (Fig. 10(c)).
        test_days = sum(len(v.per_policy["baseline"]) for v in r7.volunteers)
        run.units = sum(
            len(m) for v in r7.volunteers for m in v.per_policy.values()
        ) + test_days * (
            1 + len(r8.delays_s) + 1 + len(r9.batch_sizes) + 2 + len(r10.thresholds)
        )
        run.extra.setdefault("results", []).append((r7, r8, r9, r10))

    return Phase("eval", begin, end)

"""Benchmark inputs: one seeded cohort, built once per set-up.

Everything the timed phases consume is produced here, before any timer
starts: the synthetic traces (with the stuck-DCH injection of the
``dch-quarter`` workload), the per-user JSONL files the durable phase
decodes lazily, the pre-encoded HTTP bodies the service phase replays,
and the warm trace-cache entry of the paper-evaluation volunteers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.evaluation.extensions import random_profile
from repro.faults import AnomalyInjector
from repro.monitor import MonitorConfig
from repro.runtime.cache import clear_cache
from repro.service.schemas import record_to_doc
from repro.stream.ingest import stream_trace
from repro.stream.specgen import iter_fleet_specs
from repro.traces import io as traces_io
from repro.traces.events import Trace
from repro.traces.generator import TraceGenerator, generate_volunteers

#: Users per cohort and days per user trace.
N_USERS = 4
N_DAYS = 28
#: Training horizon of the in-process fleets (the ``FleetConfig`` default)
#: and of the HTTP service (the ``serve`` CLI default).
FLEET_TRAIN_DAYS = 10
SERVICE_TRAIN_DAYS = 7
#: Every ``INJECT_EVERY``-th user of ``dch-quarter`` carries a stuck-DCH hold.
INJECT_EVERY = 4
#: Records per HTTP ingest batch: about 1,300 requests per service round,
#: so the p99 has more than ten samples beyond it.
BATCH_EVENTS = 25
#: Horizon of the paper-evaluation volunteers (the figures default to 14)
#: and their seed, the figures' default.  The figures do not take the run
#: seed: ``split_history`` raises on some seeds' volunteers (30 among
#: 1-30), so a seeded eval phase would fail on some runs and not others.
EVAL_DAYS = 21
EVAL_SEED = 43

WORKLOADS = ("clean", "dch-quarter")
#: Seed of the persona draw.  The population of habits is fixed; the run
#: seed draws each persona's day-to-day behaviour, so seeds change the
#: traces but not the mix of users the figures average over.
PERSONA_SEED = 2014


@dataclass
class Cohort:
    """One set-up's products (all in memory except the JSONL files)."""

    seed: int
    workload: str
    traces: list[Trace]
    #: user_id -> number of trace records (sessions + usages + activities).
    records: dict[str, int]
    #: user ids carrying an injected stuck-DCH hold.
    injected: frozenset[str]
    #: Per-user JSONL trace files, in admission order.
    jsonl_paths: list[Path]
    #: user_id -> list of pre-encoded ingest bodies.
    bodies: dict[str, list[bytes]]
    #: user_id -> pre-encoded ``finish`` body.
    finish_bodies: dict[str, bytes]

    @property
    def total_records(self) -> int:
        return sum(self.records.values())

    def trace_of(self, user_id: str) -> Trace:
        return self.traces[[t.user_id for t in self.traces].index(user_id)]

    def groups(self, size: int) -> list[list[Trace]]:
        """Consecutive groups of ``size`` users, in admission order."""
        return [self.traces[i : i + size] for i in range(0, len(self.traces), size)]

    def path_groups(self, size: int) -> list[list[Path]]:
        return [self.jsonl_paths[i : i + size]
                for i in range(0, len(self.jsonl_paths), size)]


def onset_day() -> int:
    """First anomalous day: enough executed days to arm the detectors
    (the ``python -m repro monitor`` experiment's default onset)."""
    return FLEET_TRAIN_DAYS + MonitorConfig().runaway_min_days


def build(seed: int, workload: str, workdir: Path) -> Cohort:
    """Generate, inject, serialize and encode one cohort under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    traces = []
    personas = iter_fleet_specs(seed=PERSONA_SEED, n_users=N_USERS, n_days=N_DAYS)
    for persona, spec in zip(
        personas, iter_fleet_specs(seed=seed, n_users=N_USERS, n_days=N_DAYS)
    ):
        profile = random_profile(spec.user_id, np.random.default_rng(persona.seed))
        rng = np.random.default_rng(spec.seed)
        traces.append(
            TraceGenerator(profile, rng).generate(
                spec.n_days, start_weekday=spec.start_weekday
            )
        )
    injected: set[str] = set()
    if workload == "dch-quarter":
        injector = AnomalyInjector(seed=seed)
        for i in range(0, len(traces), INJECT_EVERY):
            traces[i] = injector.stuck_dch(traces[i], start_day=onset_day())
            injected.add(traces[i].user_id)
    records = {
        t.user_id: len(t.screen_sessions) + len(t.usages) + len(t.activities)
        for t in traces
    }

    jsonl_dir = workdir / "traces"
    jsonl_dir.mkdir(parents=True, exist_ok=True)
    jsonl_paths = []
    for t in traces:
        path = jsonl_dir / f"{t.user_id}.jsonl"
        traces_io.trace_to_jsonl(t, path)
        jsonl_paths.append(path)

    bodies: dict[str, list[bytes]] = {}
    finish_bodies: dict[str, bytes] = {}
    for t in traces:
        docs = [record_to_doc(r) for r in stream_trace(t)]
        bodies[t.user_id] = [
            json.dumps(
                {"events": docs[i : i + BATCH_EVENTS], "start_weekday": t.start_weekday}
            ).encode("utf-8")
            for i in range(0, len(docs), BATCH_EVENTS)
        ]
        finish_bodies[t.user_id] = json.dumps({"n_days": t.n_days}).encode("utf-8")

    # The figure drivers generate their volunteers through the trace
    # cache; a fresh entry here keeps that generation out of the timers.
    clear_cache()
    generate_volunteers(EVAL_DAYS, seed=EVAL_SEED)

    return Cohort(
        seed=seed,
        workload=workload,
        traces=traces,
        records=records,
        injected=frozenset(injected),
        jsonl_paths=jsonl_paths,
        bodies=bodies,
        finish_bodies=finish_bodies,
    )

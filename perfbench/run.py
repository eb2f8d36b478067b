"""NetMaster fleet benchmark.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Every run builds one seeded cohort (set-up, repeated and
timed), then spends ``--seconds`` on cycles of four timed phases — the
streaming fleet, the durable monitored fleet with a torn WAL recovery,
the HTTP service, and the paper's evaluation figures — and checks every
phase's outputs against an offline recomputation or a property the
method must have.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``; the per-layer metrics of a
traced run, with its overhead, with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
#: Offline-oracle sample sizes (users checked bit-for-bit per phase).
ORACLE_STREAM_USERS = 2
ORACLE_SERVICE_USERS = 2
#: Cycles (one round of every phase) each run makes at least.
MIN_CYCLES = 2
#: Lemma IV.1 is checked exhaustively on live solves up to this size.
BRUTEFORCE_MAX_ITEMS = 12


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scheduler_plans() -> int:
    """The process's count of day plans, each one overlapped-knapsack solve."""
    from repro.telemetry import metrics

    return metrics().snapshot().get("counters", {}).get("core.scheduler.plans", 0)


def median(values) -> float:
    return statistics.median(values)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def tail_quantile(n: int) -> float:
    """The highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9, 0.5):
        if n * (1 - q) >= 10:
            return q
    return 0.5


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            "run.py: no src/repro here; run from the root of a source checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    # The torn-tail repairs the durable phase provokes log a warning per
    # shard and recovery; they are expected, so keep stderr for failures.
    logging.getLogger("repro.stream.shards").setLevel(logging.ERROR)

    import cohort as cohort_mod
    import phases
    import spans

    if args.workload not in cohort_mod.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r} "
              f"(choose from {', '.join(cohort_mod.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    tmp_parent = root / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    traced = bool(args.trace)
    rec = spans.Recorder() if traced else None
    wal_bytes = phases.WalBytes()
    if rec is not None:
        spans.install(rec)
    checks = Checks()
    try:
        # ---------------- set-up (repeated; median reported) ----------
        setup_s = []
        for i in range(SETUP_REPS):
            if rec is not None:
                rec.active = True
            start = time.perf_counter()
            cohort = cohort_mod.build(args.seed, args.workload, tmp / f"setup-{i}")
            setup_s.append(time.perf_counter() - start)
            if rec is not None:
                rec.active = False
        setup_layers = None
        if rec is not None:
            setup_layers = {
                "traces.generate_s": rec.total("traces.generate"),
                "traces.records": rec.counts["traces.records"],
            }
            rec.spans.clear()  # keep the raw-span budget for the traced pass
            rec.dropped = 0
        for i in range(SETUP_REPS - 1):
            shutil.rmtree(tmp / f"setup-{i}")

        connections = min(2, os.cpu_count() or 1)
        layers = {}
        plans_before = scheduler_plans()
        if not traced:
            stream, durable, service, evaluation = all_phases = [
                phases.stream(cohort),
                phases.durable(cohort, tmp, wal_bytes),
                phases.service(cohort, root, connections),
                phases.evaluation(),
            ]
            phases.interleave(all_phases, args.seconds, MIN_CYCLES)
        else:
            stream, durable, service, evaluation, layers = traced_phases(
                cohort, args.seconds, tmp, root, connections, rec, wal_bytes
            )
        stream, durable, service, evaluation = (
            p.run for p in (stream, durable, service, evaluation)
        )

        # ---------------- checks (after every timer) -----------------
        check_outputs(checks, cohort, stream, durable, service, evaluation)
        if rec is not None:
            check_solves(checks, rec, layers)
            write_spans(rec, root, args)

        ops = {
            "stream.user_streams": stream.attempted,
            "durable.user_streams_and_recoveries": durable.attempted,
            "service.requests": service.attempted,
            "eval.figures": evaluation.attempted,
        }
        attempted = sum(ops.values())
        # Knapsack solves made in this process (the servers' are their own).
        ops["in_process.solves"] = scheduler_plans() - plans_before
        failed = stream.failed + durable.failed + service.failed + evaluation.failed
        for name, run in (("stream", stream), ("durable", durable),
                          ("service", service), ("eval", evaluation)):
            print(f"{name}: median of {run.rounds} rounds {run.rate():.1f}/s; rounds "
                  + " ".join(f"{r:.1f}" for r in run.round_rates()))
        print("ops " + json.dumps(ops))

        if traced:
            layers.update(setup_layers or {})
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer_table(layers).items()}
        else:
            metrics = end_to_end(cohort, setup_s, stream, durable, service, evaluation)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(cohort, setup_s, stream, durable, service, evaluation) -> dict:
    """The end-to-end metrics of an untraced run: medians over rounds.

    A throughput is the median round's rate.  ``recovery_s`` is the
    median over rounds of the round's summed ``recover()`` time (each
    durable pair's median repetition).  The latency percentiles are
    taken over every request's median latency across rounds: each
    request of the replay is sent once per round, in the same order on
    the same connection.
    """
    latency = sorted(median(v) for v in service.extra["latencies_s"].values())
    tail = tail_quantile(len(latency))
    if tail != 0.99:
        print(f"note: {len(latency)} requests per round; the tail figure "
              f"is p{round(tail * 100)}", file=sys.stderr)
    from phases import RECOVERY_REPS as reps

    recovery = [
        sum(median(t[r * reps:(r + 1) * reps]) for t in durable.extra["recovery_s"].values())
        for r in range(durable.rounds)
    ]
    executed_days = sum(s.days_executed for s in durable.extra["summaries"][0])
    values = {
        "setup_s": (median(setup_s) + median(service.extra["startup_s"]), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "service_peak_rss_mib": (median(service.extra["peak_rss_mib"]), "MiB"),
        "stream_events_per_s": (stream.rate(), "events/s"),
        "durable_events_per_s": (durable.rate(), "events/s"),
        "wal_bytes_per_day": (median(durable.extra["wal_bytes"]) / executed_days,
                              "bytes/day"),
        "recovery_s": (median(recovery), "s"),
        "service_events_per_s": (service.rate(), "events/s"),
        "service_latency_p50_ms": (nearest_rank(latency, 0.5) * 1e3, "ms"),
        "service_latency_p99_ms": (nearest_rank(latency, tail) * 1e3, "ms"),
        "eval_user_days_per_s": (evaluation.rate(), "days/s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check_outputs(checks: Checks, cohort, stream, durable, service, evaluation) -> None:
    import cohort as cohort_mod
    import oracle
    import phases
    from repro.core.netmaster import NetMasterConfig

    users = [t.user_id for t in cohort.traces]
    n_users = len(users)
    fleet_days = cohort_mod.N_DAYS - cohort_mod.FLEET_TRAIN_DAYS
    service_days = cohort_mod.N_DAYS - cohort_mod.SERVICE_TRAIN_DAYS

    def same_rounds(rounds) -> bool:
        return all(r == rounds[0] for r in rounds[1:])

    # -- stream: counts, determinism across rounds, offline oracle -----
    rounds = [[s.as_dict() for s in r] for r in stream.extra["summaries"]]
    summaries = {s.user_id: s for s in stream.extra["summaries"][0]}
    checks.require(sorted(summaries) == users, "stream: users missing from the summaries")
    checks.require(stream.units == cohort.total_records,
                   f"stream events {stream.units} != generated records {cohort.total_records}")
    executed = sum(s.days_executed for s in summaries.values())
    checks.require(executed == n_users * fleet_days,
                   f"stream executed days {executed} != {n_users * fleet_days}")
    checks.require(same_rounds(rounds), "stream rounds disagree")
    fleet_cfg = phases.STREAM_CONFIG.netmaster
    naive = {t.user_id: oracle.naive_energy(t, cohort_mod.FLEET_TRAIN_DAYS, fleet_cfg)
             for t in cohort.traces}
    for uid in users:
        checks.require(summaries[uid].energy_j < naive[uid],
                       f"stream: {uid} saves nothing against naive")
    sample = sample_users(cohort, ORACLE_STREAM_USERS, exclude=cohort.injected)
    offline = {uid: oracle.offline_user(cohort.trace_of(uid), cohort_mod.FLEET_TRAIN_DAYS,
                                        fleet_cfg) for uid in sample}
    for uid, ref in offline.items():
        got = summaries[uid]
        checks.require(
            (got.energy_j, got.degraded_days, got.days_executed)
            == (ref.energy_j, ref.degraded_days, ref.days_executed),
            f"stream: {uid} differs from the offline oracle "
            f"({got.energy_j!r}/{got.degraded_days} vs {ref.energy_j!r}/{ref.degraded_days})",
        )
        checks.require(ref.naive_energy_j == naive[uid], f"oracle naive energy drifted for {uid}")

    # -- durable: counts, torn-tail replay, resume equality, monitor ---
    d_summaries = {s.user_id: s for s in durable.extra["summaries"][0]}
    checks.require(sorted(d_summaries) == users, "durable: users missing from the summaries")
    checks.require(durable.units == cohort.total_records,
                   f"durable events {durable.units} != {cohort.total_records}")
    executed = sum(s.days_executed for s in d_summaries.values())
    checks.require(executed == n_users * fleet_days,
                   f"durable executed days {executed} != {n_users * fleet_days}")
    checks.require(all(durable.extra["replay_ok"]),
                   "recover() replayed a different record count than survived the cut")
    checks.require(same_rounds([[s.as_dict() for s in r] for r in durable.extra["summaries"]]),
                   "durable rounds disagree")
    alerts = durable.extra["alerts"][0]
    checks.require(same_rounds([[a.as_dict() for a in r] for r in durable.extra["alerts"]]),
                   "durable rounds raised different alerts")
    alerted = {a.user_id for a in alerts}
    # The resume runs without the monitor, so a user whose monitor acted
    # loses its later quarantines; every user that raised no alert must
    # resume bit-identically.
    diverged = durable.extra["resume_diff"]
    checks.require(not set(diverged) - alerted,
                   f"resumed cohort differs from the uninterrupted run for {diverged}")
    for uid in sorted(cohort.injected):
        kinds = {a.kind for a in alerts if a.user_id == uid}
        checks.require("dch_stuck" in kinds, f"injected {uid} raised {sorted(kinds)}")
        checks.require(d_summaries[uid].degraded_days > summaries[uid].degraded_days,
                       f"injected {uid} got no quarantined days")
    clean_alerted = sorted(alerted - cohort.injected)
    print(f"durable: {len(clean_alerted)} clean user(s) alerted {clean_alerted}; "
          f"alerted users diverging after resume {diverged}; "
          f"{durable.extra['resumed_users']} user(s) resumed mid-stream; "
          f"records replayed per round {durable.extra['replayed']}")
    for uid in users:
        checks.require(d_summaries[uid].energy_j < naive[uid],
                       f"durable: {uid} saves nothing against naive")
        if uid in alerted:
            continue
        checks.require(
            d_summaries[uid].as_dict() | {"checkpoints": 0}
            == summaries[uid].as_dict() | {"checkpoints": 0},
            f"durable: quiet monitor changed {uid}'s summary",
        )
    for uid, ref in offline.items():
        if uid in alerted:
            continue
        got = d_summaries[uid]
        checks.require((got.energy_j, got.degraded_days) == (ref.energy_j, ref.degraded_days),
                       f"durable: {uid} differs from the offline oracle")

    # -- service: statuses, counts, oracle on HTTP savings -------------
    checks.require(service.failed == 0, f"service: {service.failed} requests failed")
    savings = service.extra["savings"]
    checks.require(same_rounds(savings), "service rounds disagree")
    docs = savings[0]
    checks.require(sorted(docs) == users, "service: savings missing for some users")
    for uid in users:
        doc = docs.get(uid, {})
        checks.require(doc.get("events") == cohort.records[uid],
                       f"service: {uid} events {doc.get('events')} != {cohort.records[uid]}")
        checks.require(doc.get("days_executed") == service_days,
                       f"service: {uid} executed {doc.get('days_executed')} days")
        checks.require(doc.get("saving", 0.0) > 0.0, f"service: {uid} saves nothing")
    service_cfg = NetMasterConfig(enable_circuit_breaker=False)
    for uid in sample_users(cohort, ORACLE_SERVICE_USERS, exclude=frozenset(), salt=1):
        ref = oracle.offline_user(cohort.trace_of(uid), cohort_mod.SERVICE_TRAIN_DAYS,
                                  service_cfg)
        doc = docs.get(uid, {})
        checks.require(
            (doc.get("energy_j"), doc.get("degraded_days"), doc.get("naive_energy_j"))
            == (ref.energy_j, ref.degraded_days, ref.naive_energy_j),
            f"service: {uid} savings differ from the offline oracle",
        )

    # -- eval: Fig. 7(a) ordering, determinism across rounds -----------
    results = evaluation.extra["results"]
    for v in results[0][0].volunteers:
        s = v.energy_saving
        best_db = max(s[k] for k in s if k.startswith("delay-batch"))
        checks.require(
            0.0 < best_db < s["netmaster"] <= s["oracle"],
            f"fig7 {v.user_id}: delay-batch {best_db:.4f}, NetMaster "
            f"{s['netmaster']:.4f}, oracle {s['oracle']:.4f} out of order",
        )
    checks.require(same_rounds([repr(r) for r in results]), "evaluation rounds disagree")


def sample_users(cohort, k: int, exclude: frozenset, salt: int = 0) -> list[str]:
    """``k`` seeded picks among the users not in ``exclude``."""
    import numpy as np

    pool = [t.user_id for t in cohort.traces if t.user_id not in exclude]
    rng = np.random.default_rng([cohort.seed, salt])
    return [pool[i] for i in sorted(rng.choice(len(pool), size=k, replace=False))]


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def traced_phases(cohort, seconds, tmp, root, connections, rec, wal_bytes):
    """Untraced cycles for half the budget, then traced cycles for the rest.

    Returns the untraced phases (whose outputs the checks read) and the
    per-phase layer aggregates of the traced ones, with each phase's
    tracing overhead against its untraced rounds.
    """
    import phases
    from repro.runtime.cache import cache_stats
    from repro.telemetry import metrics

    plain = [
        phases.stream(cohort),
        phases.durable(cohort, tmp, wal_bytes),
        phases.service(cohort, root, connections),
        phases.evaluation(),
    ]
    phases.interleave(plain, seconds / 2, 1)

    tdir = tmp / "server-traces"
    tdir.mkdir()
    traced = [
        phases.stream(cohort, rec),
        phases.durable(cohort, tmp, wal_bytes, rec),
        phases.service(cohort, root, connections, traced_dir=tdir),
        phases.evaluation(rec),
    ]
    layers: dict[str, object] = {"phases": {}}
    in_process = [p for p in traced if p.name != "service"]
    # The phases' tasks interleave, so each in-process task is wrapped to
    # drain the shared recorder into its own phase's aggregates.
    state = {p.name: {"agg": {}, "pairs": {}, "counts": {}, "covered": 0.0,
                      "telemetry": {}, "cache": {"hits": 0, "misses": 0}}
             for p in in_process}

    def folded(name, task):
        """Run one timed task and fold the recorder into its phase."""

        def run_task():
            rec.reset()
            before = dict(metrics().snapshot().get("counters", {}))
            cache_before = cache_stats()
            task()
            after = dict(metrics().snapshot().get("counters", {}))
            cache_after = cache_stats()
            acc = state[name]
            for table in ("agg", "pairs"):
                for key, row in getattr(rec, table).items():
                    cur = acc[table].setdefault(key, [0, 0.0, 0.0])
                    for i in range(3):
                        cur[i] += row[i]
            for key, value in rec.counts.items():
                acc["counts"][key] = acc["counts"].get(key, 0) + value
            acc["covered"] += rec.covered()
            for key, value in after.items():
                acc["telemetry"][key] = (
                    acc["telemetry"].get(key, 0) + value - before.get(key, 0)
                )
            for key in ("hits", "misses"):
                acc["cache"][key] += cache_after.get(key, 0) - cache_before.get(key, 0)

        return run_task

    def folding(phase):
        begin = phase.begin
        return lambda run: [folded(phase.name, task) for task in begin(run)]

    for phase in in_process:
        phase.begin = folding(phase)
    phases.interleave(traced, seconds / 2, 1)

    by_name = {p.name: p for p in plain}
    for phase in in_process:
        run = phase.run
        layers["phases"][phase.name] = {
            **state[phase.name],
            "rounds": run.rounds,
            "wall": timed_wall(run),
            "increments": sum(state[phase.name]["telemetry"].values()),
            "overhead": by_name[phase.name].run.rate() / run.rate() - 1.0,
        }
    layers["phases"]["service"] = server_layers(by_name["service"].run, traced[2].run)
    return (*plain, layers)


def timed_wall(run) -> float:
    """Every timed second of a pass (fleet groups, figures, recoveries)."""
    recovery = run.extra.get("recovery_s", {})
    return (sum(map(sum, run.times.values()))
            + sum(map(sum, recovery.values())))


def server_layers(untraced, traced_run) -> dict:
    """Fold the traced servers' aggregates (one file per round)."""
    import spans

    agg: dict[str, list] = {}
    pairs: dict = {}
    counts: dict[str, float] = {}
    covered = 0.0
    telemetry = 0
    memo = [0, 0]
    for doc in traced_run.extra["server_traces"]:
        for name, row in doc["agg"].items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for parent, name, row in doc["pairs"]:
            acc = pairs.setdefault((parent, name), [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        covered += sum(spans.covered(doc["roots"], lo, hi) for lo, hi in doc["windows"])
        telemetry += doc["telemetry_increments"]
        memo[0] += doc["memo_hits"]
        memo[1] += doc["memo_lookups"]
    return {
        "rounds": traced_run.rounds,
        "agg": agg,
        "pairs": pairs,
        "counts": counts,
        "covered": covered,
        "wall": timed_wall(traced_run),
        "telemetry": {"solver.memo_hits": memo[0],
                      "core.knapsack.fptas_batch_solves": memo[1]},
        "increments": telemetry,
        "cache": {"hits": 0, "misses": 0},
        "overhead": untraced.rate() / traced_run.rate() - 1.0,
    }


def check_solves(checks: Checks, rec, layers: dict) -> None:
    """Validate captured live solves; Lemma IV.1 against brute force."""
    from repro.core.netmaster import NetMasterConfig
    from repro.core.overlapped import solve_exact_bruteforce

    bound = (1 - NetMasterConfig().eps) / 2
    worst = 1.0
    checked = 0
    for slots, items, solution in rec.solves:
        try:
            solution.validate(slots, items)
        except ValueError as exc:
            checks.require(False, f"live solve infeasible: {exc}")
            continue
        if len(items) > BRUTEFORCE_MAX_ITEMS:
            continue
        exact = solve_exact_bruteforce(slots, items)
        checked += 1
        if exact.total_profit > 0:
            worst = min(worst, solution.total_profit / exact.total_profit)
    checks.require(worst >= bound, f"live solve ratio {worst:.4f} below (1-eps)/2 = {bound}")
    layers["solver.bound_checked"] = checked
    layers["solver.worst_ratio"] = worst
    rec.solves.clear()


def write_spans(rec, root: Path, args) -> None:
    out = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec.write_spans(out)
    print(f"spans: {len(rec.spans)} written to {out.relative_to(root)}"
          f" ({rec.dropped} beyond the in-memory cap not kept)")


# ----------------------------------------------------------------------
# per-layer table
# ----------------------------------------------------------------------
def layer_table(layers: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per round of the phase that produced it,
    summed over the phases that exercise the layer."""
    ph = layers["phases"]

    def per_round(names, field: int, phase_names=None) -> float:
        total = 0.0
        for pname, p in ph.items():
            if phase_names and pname not in phase_names:
                continue
            for name in names:
                row = p["agg"].get(name)
                if row is not None:
                    total += row[field] / p["rounds"]
        return total

    def calls(*names, phases=None):
        return per_round(names, 0, phases)

    def total(*names, phases=None):
        return per_round(names, 1, phases)

    def self_s(*names, phases=None):
        return per_round(names, 2, phases)

    def count(name, phases=None) -> float:
        return sum(p["counts"].get(name, 0) / p["rounds"] for pn, p in ph.items()
                   if not phases or pn in phases)

    def pair(parent, name, phases=None) -> float:
        return sum(p["pairs"].get((parent, name), (0, 0.0, 0.0))[1] / p["rounds"]
                   for pn, p in ph.items() if not phases or pn in phases)

    def telemetry(name) -> float:
        return sum(p["telemetry"].get(name, 0) / p["rounds"] for p in ph.values())

    pricing = ("pricing.columnar", "pricing.scalar", "gateway.pricing")
    pricing_calls = calls(*pricing)
    pricing_days = count("pricing.days")
    memo_lookups = telemetry("core.knapsack.fptas_batch_solves")
    cache_hits = sum(p["cache"]["hits"] for p in ph.values())
    cache_lookups = cache_hits + sum(p["cache"]["misses"] for p in ph.values())
    increments = sum(p["increments"] / p["rounds"] for p in ph.values())
    wall = sum(p["wall"] / p["rounds"] for p in ph.values())
    uncovered = sum((p["wall"] - p["covered"]) / p["rounds"] for p in ph.values())
    t = {
        "traces.generate_s": (layers["traces.generate_s"] / SETUP_REPS, "s"),
        "traces.records": (layers["traces.records"] / SETUP_REPS, "count"),
        "ingest.decode_s": (total("ingest.decode"), "s"),
        "ingest.records": (count("ingest.records"), "count"),
        "ingest.s": (total("ingest.next"), "s"),
        "engine.observe_calls": (calls("engine.observe"), "count"),
        "engine.observe_self_s": (self_s("engine.observe"), "s"),
        "engine.day_closes": (calls("habits.close_day"), "count"),
        "habits.to_model_calls": (calls("habits.to_model"), "count"),
        "habits.to_model_s": (total("habits.to_model"), "s"),
        "habits.close_day_s": (total("habits.close_day"), "s"),
        "netmaster.adopt_s": (total("netmaster.adopt"), "s"),
        "netmaster.execute_day_calls": (calls("netmaster.execute_day"), "count"),
        "netmaster.execute_day_self_s": (self_s("netmaster.execute_day"), "s"),
        "netmaster.degraded_days": (count("netmaster.degraded_days"), "count"),
        "solver.solves": (calls("solver.solve"), "count"),
        "solver.items": (count("solver.items"), "count"),
        "solver.solve_s": (total("solver.solve"), "s"),
        "solver.memo_hit_ratio": (
            telemetry("solver.memo_hits") / memo_lookups if memo_lookups else 0.0, "ratio"),
        "solver.bound_checked": (layers["solver.bound_checked"], "count"),
        "solver.worst_ratio": (layers["solver.worst_ratio"], "ratio"),
        "pricing.calls": (pricing_calls, "count"),
        "pricing.days": (pricing_days, "count"),
        "pricing.days_per_call": (
            pricing_days / pricing_calls if pricing_calls else 0.0, "ratio"),
        "pricing.s": (total(*pricing), "s"),
        "checkpoint.roundtrips": (calls("checkpoint.decode"), "count"),
        "checkpoint.bytes": (count("checkpoint.bytes"), "bytes"),
        "checkpoint.s": (total("checkpoint.encode", "checkpoint.decode"), "s"),
        "fleet.batches": (telemetry("stream.batches"), "count"),
        "fleet.admission_self_s": (self_s("fleet.run", "shards.run"), "s"),
        "wal.appends": (calls("wal.append"), "count"),
        "wal.bytes": (count("wal.bytes"), "bytes"),
        "wal.append_s": (self_s("wal.append"), "s"),
        "wal.state_encode_s": (
            total("engine.state_dict", phases=("durable",))
            - pair("checkpoint.encode", "engine.state_dict", phases=("durable",))
            + total("wal.encode"), "s"),
        "recovery.records": (count("recovery.records"), "count"),
        "recovery.replay_s": (total("recovery"), "s"),
        "monitor.feed_calls": (calls("monitor.feed"), "count"),
        "monitor.feed_s": (total("monitor.feed"), "s"),
        "monitor.alerts": (count("monitor.alerts"), "count"),
        "monitor.quarantined_days": (telemetry("stream.quarantined_days"), "count"),
        "http.requests": (count("http.requests"), "count"),
        "http.read_s": (total("http.read"), "s"),
        "http.render_s": (total("http.render"), "s"),
        "schemas.decode_s": (total("schemas.decode"), "s"),
        "schemas.records": (count("schemas.records"), "count"),
        "service.queue_wait_s": (count("service.queue_wait_s"), "s"),
        "gateway.ingest_self_s": (self_s("gateway.ingest"), "s"),
        "gateway.pricing_calls": (calls("gateway.pricing"), "count"),
        "gateway.pricing_s": (total("gateway.pricing"), "s"),
        "eval.habit_fit_s": (total("eval.habit_fit", phases=("eval",)), "s"),
        "eval.policy_execute_s": (total("eval.policy_execute", phases=("eval",)), "s"),
        "eval.pricing_s": (total(*pricing, phases=("eval",)), "s"),
        "cache.hit_ratio": (cache_hits / cache_lookups if cache_lookups else 0.0, "ratio"),
        "telemetry.increments": (increments, "count"),
        "trace.overhead.stream": (ph["stream"]["overhead"], "ratio"),
        "trace.overhead.durable": (ph["durable"]["overhead"], "ratio"),
        "trace.overhead.service": (ph["service"]["overhead"], "ratio"),
        "trace.overhead.eval": (ph["eval"]["overhead"], "ratio"),
        "trace.uncovered_s": (uncovered, "s"),
        "trace.uncovered_share": (uncovered / wall if wall else 0.0, "ratio"),
    }
    return t


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

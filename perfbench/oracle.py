"""Offline reference for the streamed pipelines.

:func:`offline_user` recomputes one user's executed days the batch way:
a single long-lived :class:`~repro.core.netmaster.NetMaster` (so its
circuit breaker carries across days, as the online engine's does) is
retrained before every executed day ``d`` on the clipped prefix of days
``0..d-1`` with :meth:`HabitModel.fit`, replays ``trace.day_view(d)``,
and the day is priced with the scalar
:func:`~repro.evaluation.metrics.measure_outcome`.  None of the
streaming code — incremental habit mining, day buffering, columnar
pricing, checkpoints, WAL, HTTP — is on this path, so bit-equality with
the streamed totals is a real cross-check.

Run it after the timed regions: the knapsack slot memo is process-wide,
and a warm memo would flatter the next timed round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import DAY
from repro.baselines import NaivePolicy
from repro.baselines.policy import PolicyOutcome
from repro.core.netmaster import NetMaster, NetMasterConfig
from repro.evaluation.metrics import measure_outcome
from repro.traces.events import ScreenSession, Trace


@dataclass(frozen=True)
class OfflineUser:
    user_id: str
    days_executed: int
    energy_j: float
    degraded_days: int
    naive_energy_j: float


def clipped_prefix(trace: Trace, n_days: int) -> Trace:
    """The first ``n_days`` as a stream sees them: sessions crossing the
    horizon are clipped, not dropped."""
    horizon = n_days * DAY
    return Trace(
        user_id=trace.user_id,
        n_days=n_days,
        start_weekday=trace.start_weekday,
        screen_sessions=[
            ScreenSession(s.start, min(s.end, horizon))
            for s in trace.screen_sessions
            if s.start < horizon
        ],
        usages=[u for u in trace.usages if u.time < horizon],
        activities=[a for a in trace.activities if a.time < horizon],
    )


def naive_energy(trace: Trace, train_days: int, config: NetMasterConfig) -> float:
    """Stock-radio energy of the executed days, summed in day order."""
    total = 0.0
    for d in range(train_days, trace.n_days):
        day = trace.day_view(d)
        total += measure_outcome(NaivePolicy().execute_day(day), config.power, day).energy_j
    return total


def offline_user(trace: Trace, train_days: int, config: NetMasterConfig) -> OfflineUser:
    middleware = NetMaster(config)
    energy = 0.0
    degraded = 0
    for d in range(train_days, trace.n_days):
        middleware.train(clipped_prefix(trace, d))
        day = trace.day_view(d)
        ex = middleware.execute_day(day)
        outcome = PolicyOutcome(
            policy="netmaster-offline",
            activities=ex.activities,
            activity_tails=ex.activity_tails,
            extra_windows=ex.wake_windows,
            interrupts=ex.interrupts,
            user_interactions=ex.user_interactions,
            deferred=ex.deferred_to_slots + ex.duty_serviced,
        )
        energy += measure_outcome(outcome, config.power, day).energy_j
        degraded += int(ex.degraded)
    return OfflineUser(
        user_id=trace.user_id,
        days_executed=trace.n_days - train_days,
        energy_j=energy,
        degraded_days=degraded,
        naive_energy_j=naive_energy(trace, train_days, config),
    )

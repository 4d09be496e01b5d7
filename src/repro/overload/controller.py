"""Deadline controller and the ε-guaranteed degradation ladder.

The paper supplies the safety valve for overload: the approximate
monitor (Pruning Rules 3–4) answers with a hard ``(1-ε)`` weight
guarantee at a fraction of the exact cost, and the sampling comparator
of [25] is cheaper still (with only a probabilistic bound).  The ladder
arranges them by cost:

    exact aG2 (ε=0)  →  approx aG2 (ε₁ < ε₂ < … < εₖ)  →  sampling

:class:`DeadlineController` decides *when* to move: it tracks the
per-update latency EWMA — the same measurement the engine's
``update_ms`` histogram records — against a user latency budget, with
hysteresis (separate high/low watermarks, consecutive-sample counters,
a minimum residency before stepping back down) so one slow batch does
not cause mode flapping.  A single catastrophic sample (``panic_factor``
× budget) jumps straight to the cheapest rung: during a 10× burst, one
over-budget update is information enough, and p95 latency cannot afford
an escalation staircase.

:class:`AdaptiveMonitor` is the monitor-shaped wrapper that walks the
ladder.  Implementation notes:

* The aG2 rungs are *one* ``AG2Monitor`` whose ``epsilon`` is dialed.
  This is sound: Theorem 1's argument is per-update — after any update
  performed with tolerance ε, every un-adopted space was pruned against
  ``(1-ε)``, so the answer satisfies the ``(1-ε)`` floor for the ε *in
  effect during that update*, regardless of history.  Transitions
  between aG2 rungs are therefore free.
* The sampling rung's window is kept warm on every update (its
  maintenance is O(batch)); entering sampling is free, and leaving it
  rebuilds the aG2 index from the surviving window contents — the same
  recovery pattern :class:`~repro.resilience.supervisor.MonitorSupervisor`
  uses to heal.
* Every answer carries its contract in the result (``mode``,
  ``guarantee``, ``stale_for``), so downstream consumers can tell what
  they got without knowing the ladder exists.
"""

from __future__ import annotations

import enum
import time
from dataclasses import replace
from typing import Callable, Dict, List, Sequence

from repro.core.ag2 import AG2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.core.sampling import SamplingMonitor
from repro.core.spaces import MaxRSResult
from repro.errors import InvalidParameterError
from repro.obs.metrics import NULL_METRICS, Ewma, Metrics
from repro.overload.breaker import BreakerState, CircuitBreaker
from repro.resilience.supervisor import MonitorSupervisor
from repro.window.base import SlidingWindow

__all__ = [
    "AdaptiveMonitor",
    "DeadlineController",
    "LadderDecision",
    "rung_latency_model",
]

LatencyModel = Callable[[int, int], float]


def rung_latency_model(unit_ms: float, approx_rungs: int) -> LatencyModel:
    """A modeled ``(rung, batch_size) -> ms`` update cost.

    Exact work costs ``unit_ms`` per object; approximate rung ``i``
    (1-based) costs ``1 / (i + 1)`` of that and sampling a tenth.  The
    shape, not the absolute numbers, is what the controller steers on;
    feeding it this instead of wall-clock time makes a ladder
    trajectory the same on every run and host.
    """
    discounts = [1.0] + [1.0 / (i + 2) for i in range(approx_rungs)] + [0.1]

    def latency_model(rung: int, batch: int) -> float:
        return unit_ms * batch * discounts[min(rung, len(discounts) - 1)]

    return latency_model


class LadderDecision(enum.Enum):
    """What the controller wants done after one latency observation."""

    HOLD = "hold"
    ESCALATE = "escalate"  # one rung cheaper
    DEESCALATE = "deescalate"  # one rung more accurate
    PANIC = "panic"  # jump to the cheapest rung now


class DeadlineController:
    """Hysteresis controller: latency EWMA vs. a latency budget.

    Args:
        budget_ms: Per-update latency budget the ladder must defend.
        alpha: EWMA smoothing weight on the newest sample.
        high_fraction: Escalation watermark — pressure builds while
            ``ewma > high_fraction * budget``.
        low_fraction: De-escalation watermark — headroom builds while
            ``ewma < low_fraction * budget``.  Must be strictly below
            ``high_fraction``; the dead band between them is the
            hysteresis that prevents flapping.
        escalate_after: Consecutive over-watermark observations needed
            to escalate.
        deescalate_after: Consecutive under-watermark observations
            needed to de-escalate.
        min_residency: Observations a mode must serve before the
            controller will step *down* (escalation is never delayed —
            overload will not wait).
        panic_factor: A single sample above ``panic_factor * budget``
            returns :attr:`LadderDecision.PANIC`.  Panic is also
            returned when an escalation falls due while the triggering
            sample itself exceeds the full budget — an overloaded rung
            should be abandoned for the cheapest one, not the next one.
        metrics: Optional scope; mirrors the EWMA into the
            ``latency_ewma_ms`` gauge.
    """

    def __init__(
        self,
        budget_ms: float,
        *,
        alpha: float = 0.4,
        high_fraction: float = 0.9,
        low_fraction: float = 0.5,
        escalate_after: int = 2,
        deescalate_after: int = 3,
        min_residency: int = 5,
        panic_factor: float = 3.0,
        metrics: Metrics = NULL_METRICS,
    ) -> None:
        if budget_ms <= 0:
            raise InvalidParameterError(
                f"latency budget must be positive, got {budget_ms}"
            )
        if not (0.0 < low_fraction < high_fraction <= 1.0):
            raise InvalidParameterError(
                "need 0 < low_fraction < high_fraction <= 1, got "
                f"low={low_fraction}, high={high_fraction}"
            )
        if escalate_after <= 0 or deescalate_after <= 0:
            raise InvalidParameterError(
                "escalate_after and deescalate_after must be positive"
            )
        if min_residency < 0:
            raise InvalidParameterError(
                f"min_residency must be >= 0, got {min_residency}"
            )
        if panic_factor <= 1.0:
            raise InvalidParameterError(
                f"panic_factor must exceed 1, got {panic_factor}"
            )
        self.budget_ms = float(budget_ms)
        self.high_fraction = float(high_fraction)
        self.low_fraction = float(low_fraction)
        self.escalate_after = int(escalate_after)
        self.deescalate_after = int(deescalate_after)
        self.min_residency = int(min_residency)
        self.panic_factor = float(panic_factor)
        self.metrics = metrics
        self.ewma = Ewma("latency_ewma_ms", alpha=alpha)
        self._breaches = 0
        self._clears = 0
        self._residency = 0

    @property
    def latency_ewma_ms(self) -> float:
        return self.ewma.value

    def set_budget(self, budget_ms: float) -> None:
        """Re-target the budget (e.g. after auto-calibration)."""
        if budget_ms <= 0:
            raise InvalidParameterError(
                f"latency budget must be positive, got {budget_ms}"
            )
        self.budget_ms = float(budget_ms)

    def observe(self, elapsed_ms: float) -> LadderDecision:
        """Feed one per-update latency sample; get a ladder decision."""
        value = self.ewma.observe(elapsed_ms)
        self.metrics.set_gauge("latency_ewma_ms", value)
        self._residency += 1
        if elapsed_ms > self.panic_factor * self.budget_ms:
            return LadderDecision.PANIC
        if value > self.high_fraction * self.budget_ms:
            self._breaches += 1
            self._clears = 0
            if self._breaches >= self.escalate_after:
                # severity-aware: if escalation is due while the raw
                # sample is already past the *full* budget (not just
                # the watermark), single-rung steps would spend one
                # over-budget p95 sample per rung — jump to the
                # cheapest rung instead.  Gradual pressure (EWMA over
                # the watermark, samples still inside the budget)
                # keeps the one-rung staircase.
                if elapsed_ms > self.budget_ms:
                    return LadderDecision.PANIC
                return LadderDecision.ESCALATE
        elif value < self.low_fraction * self.budget_ms:
            self._clears += 1
            self._breaches = 0
            if (
                self._clears >= self.deescalate_after
                and self._residency >= self.min_residency
            ):
                return LadderDecision.DEESCALATE
        else:  # dead band: hysteresis — consecutive runs restart
            self._breaches = 0
            self._clears = 0
        return LadderDecision.HOLD

    def note_transition(self) -> None:
        """The ladder moved; restart counters for the new mode."""
        self._breaches = 0
        self._clears = 0
        self._residency = 0


class AdaptiveMonitor:
    """Monitor-shaped degradation ladder under a latency budget.

    Drop-in wherever the library consumes a :class:`MaxRSMonitor`
    structurally (``StreamEngine``, ``MultiQueryGroup``): it exposes
    ``update`` / ``ingest`` / ``result`` / ``window`` /
    ``attach_metrics``.  Internally it serves from the cheapest rung
    that currently meets the latency budget and annotates every answer
    with the guarantee of the rung that produced it.

    Args:
        rect_width / rect_height: Query rectangle.
        window_factory: Zero-argument factory producing *fresh* sliding
            windows of the query's configuration (each rung monitor
            owns one; they observe identical pushes).
        budget_ms: Per-update latency budget.
        epsilon_schedule: Strictly increasing tolerances of the
            approximate rungs, each in (0, 1).
        sampling_epsilon: Target error used to size the sampling rung's
            samples.  The default is deliberately coarse: the bottom
            rung exists to shed load, and ``O(log n / ε²)`` sample
            sizes only beat the exact sweep when ε is large.
        cell_size: Grid resolution forwarded to the aG2 rungs.
        seed: Seed of the sampling rung's private RNG.
        controller: Latency controller; built from ``budget_ms`` with
            defaults when omitted.
        breaker: Circuit breaker; built with defaults when omitted.
        probe_every / max_heals: When ``probe_every > 0`` the aG2 rungs
            run supervised (:class:`MonitorSupervisor`) with periodic
            invariant probes, and every heal feeds the breaker.
        latency_model: Optional ``(rung, batch_size) -> ms`` callable.
            When given, the controller is steered by *modeled* latency
            samples instead of wall-clock measurements — the soak
            harness uses this to make ladder trajectories (and hence
            whole soak reports) bit-identical across runs and hosts.
            Production serving leaves it ``None``.
    """

    SAMPLING = "sampling"
    EXACT = "exact"

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window_factory: Callable[[], SlidingWindow],
        *,
        budget_ms: float = 50.0,
        epsilon_schedule: Sequence[float] = (0.1, 0.2, 0.4),
        sampling_epsilon: float = 0.5,
        cell_size: float | None = None,
        seed: int = 0,
        controller: DeadlineController | None = None,
        breaker: CircuitBreaker | None = None,
        probe_every: int = 0,
        max_heals: int | None = None,
        latency_model: LatencyModel | None = None,
    ) -> None:
        schedule = tuple(float(e) for e in epsilon_schedule)
        if not schedule:
            raise InvalidParameterError(
                "epsilon_schedule needs at least one tolerance"
            )
        for eps in schedule:
            if not (0.0 < eps < 1.0):
                raise InvalidParameterError(
                    "approximate monitoring needs 0 < epsilon < 1, "
                    f"got {eps} in schedule {schedule}"
                )
        if list(schedule) != sorted(set(schedule)):
            raise InvalidParameterError(
                f"epsilon_schedule must be strictly increasing, got {schedule}"
            )
        self.rect_width = float(rect_width)
        self.rect_height = float(rect_height)
        self._window_factory = window_factory
        self.epsilon_schedule = schedule
        self.controller = controller or DeadlineController(budget_ms)
        self.breaker = breaker or CircuitBreaker()
        self.probe_every = int(probe_every)
        self.max_heals = max_heals
        self.latency_model = latency_model
        self._cell_size = cell_size
        # rung 0 = exact, rungs 1..k = approx(εᵢ), rung k+1 = sampling
        self.mode_names: tuple[str, ...] = (
            (self.EXACT,)
            + tuple(f"approx({eps:g})" for eps in schedule)
            + (self.SAMPLING,)
        )
        self._rung = 0
        self._ag2_stale = False
        self._metrics_base: Metrics = NULL_METRICS
        self.metrics: Metrics = NULL_METRICS
        self._ag2 = self._make_ag2(0.0)
        self._sampler = SamplingMonitor(
            rect_width,
            rect_height,
            window_factory(),
            epsilon=sampling_epsilon,
            seed=seed,
        )
        self._last = MaxRSResult()
        self._stale_for = 0
        self._updates = 0
        self._backlog = 0
        self.deescalations_deferred = 0
        self.rebuilds = 0
        self.transitions: List[Dict[str, object]] = []
        self.residency: Dict[str, int] = {name: 0 for name in self.mode_names}
        self.stale_residency = 0

    # -- rung bookkeeping ----------------------------------------------------

    @property
    def sampling_rung(self) -> int:
        return len(self.epsilon_schedule) + 1

    @property
    def rung(self) -> int:
        return self._rung

    @property
    def mode(self) -> str:
        return self.mode_names[self._rung]

    @property
    def guarantee(self) -> float:
        """Deterministic weight floor of the current rung."""
        if self._rung == 0:
            return 1.0
        if self._rung == self.sampling_rung:
            return 0.0
        return 1.0 - self.epsilon_schedule[self._rung - 1]

    def _rung_epsilon(self, rung: int) -> float:
        return 0.0 if rung == 0 else self.epsilon_schedule[rung - 1]

    # -- monitor construction ------------------------------------------------

    def _make_ag2(self, epsilon: float) -> MaxRSMonitor:
        monitor: MaxRSMonitor = AG2Monitor(
            self.rect_width,
            self.rect_height,
            self._window_factory(),
            cell_size=self._cell_size,
            epsilon=epsilon,
        )
        if self.probe_every > 0:
            monitor = MonitorSupervisor(  # type: ignore[assignment]
                monitor,
                probe_every=self.probe_every,
                max_heals=self.max_heals,
                on_heal=self.breaker.note_heal,
            )
        if self._metrics_base is not NULL_METRICS:
            monitor.attach_metrics(self._metrics_base)
        return monitor

    def _ag2_core(self) -> AG2Monitor:
        inner = self._ag2
        if isinstance(inner, MonitorSupervisor):
            inner = inner.monitor
        return inner  # type: ignore[return-value]

    # -- monitor surface -----------------------------------------------------

    @property
    def window(self) -> SlidingWindow:
        """The authoritative window: the sampling rung's, which stays
        warm in every mode (the aG2 window goes stale during sampling
        residency and breaker-open stretches)."""
        return self._sampler.window

    @property
    def result(self) -> MaxRSResult:
        return self._last

    @property
    def stats(self):
        if self._rung == self.sampling_rung:
            return self._sampler.stats
        return self._ag2.stats

    def attach_metrics(self, metrics: Metrics) -> None:
        """Engine attachment point.  The live aG2 gets the scope itself
        (so ``cells_pruned`` etc. land where profiles expect them), the
        sampling rung a ``sampler`` child, the ladder/controller/breaker
        an ``overload`` child."""
        self._metrics_base = metrics
        self._ag2.attach_metrics(metrics)
        self._sampler.attach_metrics(metrics.scope("sampler"))
        self.metrics = metrics.scope("overload")
        self.controller.metrics = self.metrics
        self.breaker.metrics = self.metrics
        self.metrics.set_gauge("ladder_rung", self._rung)

    def checkpoint_target(self) -> MaxRSMonitor:
        """The ladder's persistable view, for :mod:`repro.persist`.

        The ladder itself is not a snapshot kind, but its state *is*
        its authoritative window (the index is derived); a NaiveMonitor
        over that same window captures exactly the configuration +
        window contents a checkpoint needs, and restores cheaply
        (naive ingest is a window push, no sweep).
        """
        return NaiveMonitor(
            self.rect_width, self.rect_height, self._sampler.window
        )

    def check_invariants(self) -> None:
        if self._rung != self.sampling_rung and not self._ag2_stale:
            probe = getattr(self._ag2, "check_invariants", None)
            if probe is not None:
                probe()

    # -- serving -------------------------------------------------------------

    def note_pressure(self, backlog: int) -> None:
        """Upstream pressure signal (the engine reports the queue depth
        left after each drain).  Recovery is deferred while a backlog
        exists: stepping up to a pricier rung mid-drain just re-creates
        the overload that built the backlog, and the rebuild that
        re-entry from sampling costs is wasted.

        A drained queue is also the moment to pay outstanding recovery
        debt: a pending aG2 rebuild runs here, in the slack between
        batches, rather than inside the next timed update.
        """
        self._backlog = max(0, int(backlog))
        if (
            self._backlog == 0
            and self._ag2_stale
            and self._rung != self.sampling_rung
            and self.breaker.state is BreakerState.CLOSED
        ):
            self._rebuild_ag2(self._rung_epsilon(self._rung))

    def ingest(self, objects: Sequence[SpatialObject]) -> None:
        """Bulk-load (priming, backfill) every warm rung."""
        if self._rung != self.sampling_rung and not self._ag2_stale:
            self._ag2.ingest(objects)
        self._sampler.ingest(objects)

    def update(self, objects: Sequence[SpatialObject]) -> MaxRSResult:
        """Push one arrival batch through the current rung.

        The update is timed internally (the same quantity the engine's
        ``update_ms`` histogram observes), the latency sample drives the
        controller and breaker, and the answer carries the producing
        rung's contract.
        """
        self._updates += 1
        if not self.breaker.allow_update():
            return self._serve_stale(objects)
        if self._rung != self.sampling_rung and self._ag2_stale:
            # rebuild before the clock starts: a full-window re-ingest is
            # recovery cost, not steady-state cost, and timing it would
            # hand the controller a spurious panic sample
            self._rebuild_ag2(self._rung_epsilon(self._rung))
        serving_rung = self._rung
        start = time.perf_counter()
        if self._rung == self.sampling_rung:
            result = self._sampler.update(objects)
        else:
            result = self._ag2.update(objects)
            self._sampler.ingest(objects)
        if self.latency_model is not None:
            elapsed_ms = float(self.latency_model(serving_rung, len(objects)))
        else:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._stale_for = 0
        self._last = result
        self.residency[self.mode] += 1
        self._steer(elapsed_ms)
        return result

    def _serve_stale(self, objects: Sequence[SpatialObject]) -> MaxRSResult:
        """Breaker open: keep the cheap window warm, hold the answer."""
        self._sampler.ingest(objects)
        if self._rung != self.sampling_rung:
            self._ag2_stale = True
        self._stale_for += 1
        self.stale_residency += 1
        self._last = replace(self._last, stale_for=self._stale_for)
        return self._last

    def _steer(self, elapsed_ms: float) -> None:
        """Feed one latency sample to breaker + controller, apply moves."""
        over_budget = elapsed_ms > self.controller.budget_ms
        self.breaker.record_update(over_budget)
        if (
            self.breaker.state is BreakerState.OPEN
            and self._rung != self.sampling_rung
        ):
            # open means even probing is rationed — park at the
            # cheapest rung so the eventual probe is the cheap one
            self._transition(self.sampling_rung, "breaker_trip")
            return
        decision = self.controller.observe(elapsed_ms)
        if decision is LadderDecision.PANIC:
            if self._rung != self.sampling_rung:
                self._transition(self.sampling_rung, "panic")
        elif decision is LadderDecision.ESCALATE:
            if self._rung < self.sampling_rung:
                self._transition(self._rung + 1, "deadline_pressure")
        elif decision is LadderDecision.DEESCALATE:
            if self._backlog > 0:
                # headroom is real but the queue is still draining —
                # hold the cheap rung until the backlog is gone (the
                # controller's clear-counter stays primed, so recovery
                # begins on the first clear sample afterwards)
                self.deescalations_deferred += 1
                self.metrics.inc("deescalations_deferred")
            elif self._rung > 0:
                self._transition(self._rung - 1, "headroom")

    # -- transitions ---------------------------------------------------------

    def _transition(self, rung: int, reason: str) -> None:
        from_mode = self.mode
        if rung == self._rung:
            return
        if rung == self.sampling_rung:
            # the sampler's window is warm; the aG2 index stops being
            # maintained from here on
            self._ag2_stale = True
        elif not self._ag2_stale:
            # aG2 → aG2: dialing ε is free (Theorem 1 is per-update)
            self._ag2_core().epsilon = self._rung_epsilon(rung)
        # else: leaving sampling with a stale index — the rebuild is
        # deferred to the next idle moment (note_pressure with an empty
        # queue) or, failing that, the top of the next update
        direction = "degrade" if rung > self._rung else "recover"
        self._rung = rung
        self.controller.note_transition()
        self.transitions.append(
            {
                "update": self._updates,
                "from": from_mode,
                "to": self.mode,
                "reason": reason,
            }
        )
        self.metrics.inc("ladder_transitions")
        self.metrics.inc(f"ladder_{direction}")
        self.metrics.set_gauge("ladder_rung", rung)

    def _rebuild_ag2(self, epsilon: float) -> None:
        """Re-enter an aG2 rung: rebuild the index from the warm window."""
        self._ag2 = self._make_ag2(epsilon)
        survivors = list(self._sampler.window.contents)
        if survivors:
            self._ag2.ingest(survivors)
        self._ag2_stale = False
        self.rebuilds += 1
        self.metrics.inc("ladder_rebuilds")

    # -- reporting -----------------------------------------------------------

    def overload_summary(self) -> Dict[str, object]:
        """Plain-data ladder report for engine reports and the CLI."""
        return {
            "mode": self.mode,
            "rung": self._rung,
            "guarantee": self.guarantee,
            "budget_ms": self.controller.budget_ms,
            "latency_ewma_ms": self.controller.latency_ewma_ms,
            "transitions": [dict(t) for t in self.transitions],
            "residency": dict(self.residency),
            "stale_served": self.stale_residency,
            "breaker_state": self.breaker.state.value,
            "breaker_trips": self.breaker.trips,
            "rebuilds": self.rebuilds,
            "deescalations_deferred": self.deescalations_deferred,
        }

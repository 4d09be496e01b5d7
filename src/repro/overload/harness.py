"""Overload soak harness: burst a degradation ladder and verify it.

:func:`run_overload` assembles the full overload pipeline —

    dataset stream → BackpressureQueue → StreamEngine
                                       → AdaptiveMonitor (exact → aG2(ε) → sampling)

— drives it with a seeded :class:`LoadGenerator` arrival profile
(square wave by default: calm traffic punctuated by multi-x bursts),
then closes the loop with four independent checks:

* **latency**: p95 per-update latency stays within the budget the
  ladder was asked to defend;
* **guarantees**: every ``verify_every``-th answer with a deterministic
  floor is re-checked against a fresh exact plane sweep over the live
  window — ``best_weight >= guarantee * exact_weight`` must hold;
* **accounting**: the backpressure conservation ledger closes exactly
  (``offered == processed + shed + refused + pending``);
* **recovery**: once the burst passes, the ladder must walk back down
  to the exact rung.

The latency budget is auto-calibrated when not given: a handful of
exact warm-up batches at the base rate measure this machine's exact
update cost, and the budget is a multiple of that — so the soak tests
the *control loop*, not the host's absolute speed.  Passing a
``latency_model`` goes one step further: the ladder is steered by
modeled update costs, so the whole verdict repeats on any host.  The
CLI subcommand ``maxrs-stream overload`` and the CI overload smoke job
are thin wrappers over this function; the report is plain data so the
soak can also be asserted in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.core.objects import SpatialObject, to_weighted_rects
from repro.core.planesweep import plane_sweep_max
from repro.core.spaces import MaxRSResult
from repro.datasets import make_stream
from repro.engine.engine import EngineReport, StreamEngine
from repro.engine.stats import TimingStats
from repro.errors import InvalidParameterError
from repro.obs.metrics import Metrics
from repro.overload.backpressure import BackpressureQueue, ShedPolicy
from repro.overload.breaker import CircuitBreaker
from repro.overload.controller import (
    AdaptiveMonitor,
    DeadlineController,
    LatencyModel,
)
from repro.soak.report import ReportBase
from repro.window import CountWindow

__all__ = ["LoadGenerator", "OverloadReport", "run_overload"]

_WEIGHT_TOL = 1e-6
_MONITOR = "ladder"


class LoadGenerator:
    """Seeded arrival-rate profile for overload soaks.

    Produces one arrival count per tick.  Patterns:

    * ``square`` — each period opens with ``burst_ticks`` ticks at
      ``base_rate * burst_factor``, then stays calm at ``base_rate``
      (the classic flash-crowd shape; the calm tail is what lets the
      ladder demonstrate recovery);
    * ``ramp`` — a triangle wave climbing linearly from ``base_rate``
      to the burst rate over the first half of each period and back
      down over the second (gradual pressure, exercises the hysteresis
      staircase rather than panic);
    * ``spike`` — a single tick at the burst rate per period, calm
      otherwise (tests that one catastrophic batch cannot wedge the
      ladder).

    Counts carry multiplicative seeded jitter (``±jitter``), so soaks
    are reproducible per seed yet not metronomic.
    """

    PATTERNS = ("square", "ramp", "spike")

    def __init__(
        self,
        base_rate: int,
        *,
        pattern: str = "square",
        burst_factor: float = 10.0,
        period: int = 80,
        burst_ticks: int = 15,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        if base_rate <= 0:
            raise InvalidParameterError(
                f"base rate must be positive, got {base_rate}"
            )
        if pattern not in self.PATTERNS:
            raise InvalidParameterError(
                f"unknown load pattern {pattern!r}; choose from "
                f"{', '.join(self.PATTERNS)}"
            )
        if burst_factor < 1.0:
            raise InvalidParameterError(
                f"burst factor must be >= 1, got {burst_factor}"
            )
        if period <= 0:
            raise InvalidParameterError(f"period must be positive, got {period}")
        if not (0 < burst_ticks <= period):
            raise InvalidParameterError(
                f"need 0 < burst_ticks <= period, got {burst_ticks} / {period}"
            )
        if not (0.0 <= jitter < 1.0):
            raise InvalidParameterError(
                f"jitter must be in [0, 1), got {jitter}"
            )
        self.base_rate = int(base_rate)
        self.pattern = pattern
        self.burst_factor = float(burst_factor)
        self.period = int(period)
        self.burst_ticks = int(burst_ticks)
        self.jitter = float(jitter)
        self.seed = seed

    def _shape(self, tick: int) -> float:
        """Noise-free rate at ``tick`` (the pattern itself)."""
        phase = tick % self.period
        base = float(self.base_rate)
        peak = base * self.burst_factor
        if self.pattern == "square":
            return peak if phase < self.burst_ticks else base
        if self.pattern == "spike":
            return peak if phase == 0 else base
        # ramp: triangle — up over the first half-period, down over the rest
        half = self.period / 2.0
        frac = phase / half if phase < half else (self.period - phase) / half
        return base + (peak - base) * frac

    def arrivals(self, ticks: int) -> List[int]:
        """The arrival counts for ``ticks`` ticks (one list per call,
        jittered by a private RNG seeded from ``seed`` — repeatable)."""
        if ticks <= 0:
            raise InvalidParameterError(
                f"tick count must be positive, got {ticks}"
            )
        rng = random.Random(self.seed)
        counts = []
        for tick in range(ticks):
            rate = self._shape(tick)
            if self.jitter:
                rate *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
            counts.append(max(1, round(rate)))
        return counts


@dataclass
class OverloadReport(ReportBase):
    """Everything an overload soak observed, plus the four verdicts."""

    engine_report: EngineReport
    budget_ms: float
    calibrated: bool
    mean_ms: float
    p95_ms: float
    # backpressure accounting
    ledger: Dict[str, int]
    ledger_closed: bool
    shed: int
    refused: int
    queue_high_water: int
    queue_pending: int
    # ladder trajectory
    final_mode: str
    final_guarantee: float
    transitions: List[Dict[str, object]]
    residency: Dict[str, int]
    stale_served: int
    breaker_trips: int
    rebuilds: int
    # exact-companion guarantee checks
    guarantee_checks: int
    guarantee_failures: int
    guarantee_details: List[Dict[str, object]] = field(default_factory=list)

    @property
    def within_budget(self) -> bool:
        """p95 update latency stayed inside the defended budget."""
        return self.p95_ms <= self.budget_ms

    @property
    def recovered(self) -> bool:
        """The ladder walked back to the exact rung after the bursts."""
        return self.final_mode == AdaptiveMonitor.EXACT

    @property
    def guarantees_verified(self) -> bool:
        """Every checked degraded answer honoured its ``(1-ε)`` floor."""
        return self.guarantee_checks > 0 and self.guarantee_failures == 0

    @property
    def ok(self) -> bool:
        return (
            self.within_budget
            and self.ledger_closed
            and self.recovered
            and self.guarantees_verified
        )

    def failures(self) -> list[str]:
        lines = []
        if not self.within_budget:
            lines.append(
                f"p95 update latency {self.p95_ms:.3f} ms exceeded the "
                f"{self.budget_ms:.3f} ms budget"
            )
        if not self.ledger_closed:
            lines.append(f"conservation ledger did not close: {self.ledger}")
        if not self.recovered:
            lines.append(
                f"ladder finished at {self.final_mode!r}, never recovered "
                "to exact"
            )
        if not self.guarantees_verified:
            lines.append(
                f"{self.guarantee_failures} of {self.guarantee_checks} "
                "guarantee checks failed (or none ran)"
            )
        return lines

    def _pairs(self) -> list[tuple[str, object]]:
        return [
            ("coalesced batches", self.engine_report.batches),
            ("arrival ticks", self.engine_report.requested_batches),
            ("budget ms", f"{self.budget_ms:.3f}"),
            ("budget calibrated", self.calibrated),
            ("mean update ms", f"{self.mean_ms:.3f}"),
            ("p95 update ms", f"{self.p95_ms:.3f}"),
            ("objects offered", self.ledger.get("offered", 0)),
            ("objects processed", self.ledger.get("processed", 0)),
            ("objects shed", self.shed),
            ("objects refused", self.refused),
            ("queue high water", self.queue_high_water),
            ("queue pending", self.queue_pending),
            ("ladder transitions", len(self.transitions)),
            ("final mode", self.final_mode),
            ("final guarantee", f"{self.final_guarantee:.3f}"),
            ("stale served", self.stale_served),
            ("breaker trips", self.breaker_trips),
            ("index rebuilds", self.rebuilds),
            ("guarantee checks", self.guarantee_checks),
            ("guarantee failures", self.guarantee_failures),
            ("p95 within budget", self.within_budget),
            ("ledger closed", self.ledger_closed),
            ("recovered to exact", self.recovered),
            ("guarantees verified", self.guarantees_verified),
        ]

    def _extra(self) -> dict[str, Any]:
        return {
            "ledger": dict(self.ledger),
            "residency": dict(self.residency),
            "transitions": [dict(t) for t in self.transitions],
            "guarantee_details": [dict(d) for d in self.guarantee_details],
            "engine": self.engine_report.to_dict(),
        }


def exact_weight_over(
    contents: Sequence[SpatialObject], side: float
) -> float:
    """Exact plane-sweep MaxRS weight over a window's contents."""
    if not contents:
        return 0.0
    region = plane_sweep_max(to_weighted_rects(contents, side, side))
    return 0.0 if region is None else region.weight


def run_overload(
    dataset: str = "synthetic",
    *,
    window: int = 2000,
    rate: int = 50,
    ticks: int = 160,
    pattern: str = "square",
    burst_factor: float = 10.0,
    period: int = 80,
    burst_ticks: int = 15,
    jitter: float = 0.1,
    side: float = 1000.0,
    domain: float = 140_000.0,
    seed: int = 11,
    budget_ms: float | None = None,
    budget_factor: float = 3.0,
    calibration_batches: int = 8,
    capacity: int | None = None,
    max_batch: int | None = None,
    shed_policy: ShedPolicy | str = ShedPolicy.SHED_OLDEST,
    epsilons: Sequence[float] = (0.2, 0.4),
    sampling_epsilon: float = 0.5,
    cell_size: float | None = None,
    verify_every: int = 10,
    panic_factor: float = 1.6,
    latency_model: LatencyModel | None = None,
) -> OverloadReport:
    """Run the full overload pipeline and verify the outcome.

    Defaults shape a two-burst square-wave soak: ``ticks = 2 * period``
    gives two flash crowds with a calm tail long enough for the ladder
    to recover to exact.  ``capacity`` defaults to ``20 * rate`` (the
    queue absorbs a burst without shedding at moderate factors) and
    ``max_batch`` to ``8 * rate`` (coalesced drains clear a backlog in
    a few updates).

    When ``budget_ms`` is ``None`` it is calibrated on this machine:
    ``calibration_batches`` exact updates at the base rate are timed
    (untimed phase — they do not appear in the soak's report) and the
    budget is ``budget_factor`` × their mean.  A burst batch is then
    several budgets worth of exact work, which is exactly the regime
    the ladder exists for.

    With a ``latency_model`` (see
    :func:`~repro.overload.controller.rung_latency_model`) the ladder is
    steered by modeled update costs instead of wall-clock time: the
    calibrated budget is ``budget_factor`` × the modeled exact cost of
    a base-rate batch, and the report's mean and p95 are over the
    modeled samples the controller was fed.  The whole report is then
    the same on every run and host.
    """
    if ticks <= 0:
        raise InvalidParameterError(f"tick count must be positive, got {ticks}")
    if verify_every < 0:
        raise InvalidParameterError(
            f"verify_every must be >= 0, got {verify_every}"
        )
    if budget_ms is None and calibration_batches <= 0:
        raise InvalidParameterError(
            "budget auto-calibration needs calibration_batches > 0 "
            "(or pass an explicit budget_ms)"
        )
    if capacity is None:
        capacity = 20 * rate
    if max_batch is None:
        max_batch = 8 * rate

    stream = make_stream(dataset, domain=domain, seed=seed)
    metrics = Metrics("overload")
    # a placeholder budget during calibration: every sample lands far
    # below the low watermark, so the controller only sees headroom.
    # The soak's controller is tuned for decisiveness — one EWMA breach
    # escalates (each over-budget update is a p95 sample we cannot take
    # back), while the EWMA itself (alpha 0.5) still rides out a single
    # calm-phase latency spike.  The cheap-side defaults (deescalate
    # after 3 clears, min residency 5) keep recovery deliberate, and
    # the dead band between the watermarks keeps the ladder parked on a
    # cheap rung for as long as the burst actually lasts.
    controller = DeadlineController(
        budget_ms if budget_ms is not None else 1e9,
        alpha=0.5,
        high_fraction=0.85,
        escalate_after=1,
        panic_factor=panic_factor,
    )
    # modeled samples the controller is fed, kept for the report
    modeled = TimingStats()

    def recorded_model(rung: int, batch: int) -> float:
        assert latency_model is not None
        ms = float(latency_model(rung, batch))
        modeled.record(ms / 1000.0)
        return ms

    adaptive = AdaptiveMonitor(
        side,
        side,
        lambda: CountWindow(window),
        epsilon_schedule=epsilons,
        sampling_epsilon=sampling_epsilon,
        cell_size=cell_size,
        seed=seed,
        controller=controller,
        breaker=CircuitBreaker(),
        latency_model=None if latency_model is None else recorded_model,
    )
    queue = BackpressureQueue(
        capacity, policy=shed_policy, max_batch=max_batch
    )
    engine = StreamEngine(
        {_MONITOR: adaptive},
        stream,
        batch_size=rate,
        metrics=metrics,
        backpressure=queue,
    )
    engine.prime(window)

    calibrated = budget_ms is None
    if calibrated:
        # two discarded batches warm caches and branch predictors, then
        # the budget anchors to the p75 of the measured batches: a
        # short calibration that catches the host on a fast (or slow)
        # moment must not hand the soak a budget the steady state
        # cannot live inside
        engine.run(2)
        warmup = engine.run(calibration_batches)
        if latency_model is None:
            anchor_ms = warmup.timings[_MONITOR].percentile(75.0) * 1000.0
        else:
            anchor_ms = float(latency_model(0, rate))
        controller.set_budget(max(budget_factor * anchor_ms, 0.05))
    modeled.samples.clear()  # the report covers the soak's updates only

    checks: Dict[str, Any] = {"performed": 0, "failures": 0, "details": []}

    def verify(index: int, batch: list, results: Dict[str, MaxRSResult]) -> None:
        if verify_every == 0 or (index + 1) % verify_every != 0:
            return
        result = results[_MONITOR]
        # stale answers describe an older window; sampling answers
        # carry no deterministic floor — neither has a claim to check
        if result.stale_for > 0 or result.guarantee <= 0.0:
            return
        exact = exact_weight_over(list(adaptive.window.contents), side)
        checks["performed"] += 1
        floor = result.guarantee * exact - _WEIGHT_TOL * max(1.0, abs(exact))
        if result.best_weight < floor:
            checks["failures"] += 1
            checks["details"].append(
                {
                    "batch": index,
                    "mode": result.mode,
                    "guarantee": result.guarantee,
                    "answer_weight": result.best_weight,
                    "exact_weight": exact,
                }
            )

    generator = LoadGenerator(
        rate,
        pattern=pattern,
        burst_factor=burst_factor,
        period=period,
        burst_ticks=burst_ticks,
        jitter=jitter,
        seed=seed + 1,
    )
    report = engine.run_offered(generator.arrivals(ticks), on_batch=verify)

    summary = adaptive.overload_summary()
    overload = report.overload or {}
    latency = report.timings[_MONITOR] if latency_model is None else modeled
    return OverloadReport(
        engine_report=report,
        budget_ms=controller.budget_ms,
        calibrated=calibrated,
        mean_ms=latency.mean_ms,
        p95_ms=latency.percentile(95.0) * 1000.0,
        ledger=dict(overload.get("ledger", {})),
        ledger_closed=bool(overload.get("ledger_closed", False)),
        shed=int(overload.get("shed", 0)),
        refused=int(overload.get("refused", 0)),
        queue_high_water=int(overload.get("queue_high_water", 0)),
        queue_pending=int(overload.get("queue_pending", 0)),
        final_mode=str(summary["mode"]),
        final_guarantee=float(summary["guarantee"]),
        transitions=list(adaptive.transitions),
        residency=dict(adaptive.residency),
        stale_served=adaptive.stale_residency,
        breaker_trips=adaptive.breaker.trips,
        rebuilds=adaptive.rebuilds,
        guarantee_checks=checks["performed"],
        guarantee_failures=checks["failures"],
        guarantee_details=checks["details"],
    )

"""The two kinds of run: measured (tracing off) and traced.

A measured run reports the end-to-end metrics of one workload.  A
traced run reports the per-layer metrics: it serves a fixed number of
closed-loop batches three times over the same inputs — traced (spans
plus the program's ``repro.obs`` registry), untraced, traced again —
and fails unless the two traced passes count exactly the same work.
The second traced pass goes on through the open loop and recovery.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
import random
import shutil
import statistics
import time
from pathlib import Path

from repro.core import ag2 as ag2_module

from pipeline import Ledger, Session
from spans import Tracer
from workloads import PREDICTIONS, Workload, make_inputs

perf = time.perf_counter
#: counters the monitors emit through repro.obs, reported per arrival
CORE_COUNTERS = ("local_sweeps", "overlap_tests", "edges_touched",
                 "cells_visited", "cells_pruned", "full_sweeps")
#: per-layer metrics that count work; they must repeat exactly across
#: traced passes and across processes run with one seed
COUNT_METRICS = tuple(
    f"core.{key}" for key in CORE_COUNTERS + ("objects_swept",)
) + ("core.prune_ratio", "durability.bytes_per_arrival",
     "durability.fsyncs", "resilience.admit_ratio",
     "window.expired_per_batch")


def _p(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation); 0 when
    nothing was sampled."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _records_needed(w: Workload, closed_batches: int, seconds: float) -> int:
    """Records one session consumes, with room to spare."""
    turnover = math.ceil(w.window / w.batch)
    recovery = w.recoveries * (w.checkpoint_every + w.recovery_tail)
    batches = turnover + closed_batches + recovery + w.rounds + 2
    return batches * w.batch + math.ceil(w.rate * w.open_share * seconds)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _rss_kib(field: str) -> int:
    """``VmRSS`` or ``VmHWM`` of this process, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _reset_peak_rss() -> int:
    """Reset the process's peak resident memory to its current level
    (Linux ``clear_refs``); returns that level in KiB."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _rss_kib("VmRSS")


def _reference_work() -> float:
    """A fixed piece of pure-Python work shaped like the program's own:
    float tuples built, sorted and bucketed into grid cells.  It never
    calls the program, so no change to the program moves its time."""
    rng = random.Random(12345)
    points = [(rng.random(), rng.random(), float(i % 7))
              for i in range(2000)]
    points.sort()
    cells: dict[tuple[int, int], list[float]] = {}
    for x, y, weight in points:
        cells.setdefault((int(x * 16), int(y * 16)), []).append(weight)
    return sum(max(weights) for weights in cells.values())


def _host_ms() -> float:
    """Wall milliseconds of ``_reference_work`` now: the median of three
    calls, so one interrupt does not count.  The collector is off
    meanwhile, so the program's heap never enters the figure."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = perf()
            _reference_work()
            times.append(perf() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) * 1e3


class HostSpeed:
    """Scales each timed stretch to the reference host speed.

    The shared host this was written on runs at two speeds: within
    seconds it drops to about two thirds of its fast speed and back,
    and some minutes run slow throughout, so raw times of one program
    moved 25-40% between runs.  The reference work is timed before and
    after every timed stretch; the stretch's times are multiplied by
    ``REFERENCE_MS`` over the mean of the two, which reads them as if
    the reference work had taken ``REFERENCE_MS`` throughout.
    """

    #: wall ms of one ``_reference_work`` call on that host while fast
    REFERENCE_MS = 1.8
    #: the open loop times the reference work while idle only when the
    #: next tick is further away than this (seconds), so it never
    #: delays a tick
    IDLE_MIN_S = 0.03

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.times: list[float] = []  # perf() at the end of each probe
        self.probe()

    def probe(self) -> None:
        """Time the reference work now."""
        self.probes.append(_host_ms())
        self.times.append(perf())

    def phase_factor(self) -> float:
        """Call right after a timed stretch: the factor its times scale
        by."""
        self.probe()
        return self._factor(len(self.probes) - 1)

    def factor_at(self, at: float) -> float:
        """The factor of a time taken at ``perf()`` = ``at``: from the
        probes just before and just after it."""
        return self._factor(bisect.bisect(self.times, at))

    def _factor(self, after: int) -> float:
        pair = self.probes[after - 1:after + 1]
        return self.REFERENCE_MS / statistics.fmean(pair)


def measured_run(w: Workload, seed: int, seconds: float, workdir: Path):
    """``w.setups`` set-ups (the last becomes the live pipeline), then
    ``w.rounds`` rounds of closed loop, open loop and crash recovery on
    it, then verification.  Every timed phase is scaled by
    :class:`HostSpeed`.  Returns (metrics, ledger, report lines)."""
    rounds = w.rounds
    per_round = math.ceil(w.closed_batches / rounds)
    inputs = make_inputs(
        w, seed, _records_needed(w, per_round * rounds, seconds))
    # the inputs live for the whole run; keep them out of the program's
    # garbage collections, and out of the memory peak
    gc.collect()
    gc.freeze()
    baseline_kib = _reset_peak_rss()
    ledger = Ledger()
    host = HostSpeed()
    # raw and scaled samples of every timing metric
    raw = {name: [] for name in ("setup", "rate", "batch", "fresh",
                                 "recovery")}
    scaled = {name: [] for name in raw}

    def add(name: str, values: list[float], factor: float) -> None:
        raw[name] += values
        scaled[name] += [value * factor for value in values]

    # a phase calls pause() after each stretch it times; the factor of
    # each stretch lands in factors
    factors: list[float] = []

    def pause() -> None:
        factors.append(host.phase_factor())

    # every set-up runs with no other pipeline alive, as in a fresh
    # process; all but the last are built and dropped, the last serves
    mark = perf()
    for i in range(w.setups):
        session = Session(w, inputs, workdir / f"setup{i}", ledger)
        add("setup", [session.setup_s], host.phase_factor())
        if i < w.setups - 1:
            session.close()
            del session
            shutil.rmtree(workdir / f"setup{i}")
    walls = {"setups": perf() - mark, "closed": 0.0, "open": 0.0,
             "recovery": 0.0}
    objects, elapsed = 0, 0.0
    opened: list[dict] = []
    for r in range(rounds):
        mark = perf()
        # the reference work runs every probe_every batches, and each
        # stretch of batches is scaled by the probes around it
        factors.clear()
        lat, count = session.closed_loop(per_round, pause, w.probe_every)
        if len(lat) % w.probe_every:
            pause()
        for i, factor in enumerate(factors):
            add("batch", lat[i * w.probe_every:(i + 1) * w.probe_every],
                factor)
        spent = sum(scaled["batch"][-len(lat):])
        raw["rate"].append(count / sum(lat))
        scaled["rate"].append(count / spent)
        objects += count
        elapsed += sum(lat)
        walls["closed"] += perf() - mark
        mark = perf()
        phase = session.open_loop(w.rate, w.open_share * seconds / rounds,
                                  host.probe, HostSpeed.IDLE_MIN_S)
        opened.append(phase)
        host.probe()
        for value, at in zip(phase["fresh"], phase["fresh_at"]):
            add("fresh", [value], host.factor_at(at))
        walls["open"] += perf() - mark
        mark = perf()
        points = (w.recoveries * (r + 1) // rounds
                  - w.recoveries * r // rounds)
        factors.clear()
        samples = session.recover(points, pause)
        for sample, factor in zip(samples, factors):
            add("recovery", [sample["recovery_s"]], factor)
        walls["recovery"] += perf() - mark
    rss_mb = (_rss_kib("VmHWM") - baseline_kib) / 1024.0
    mark = perf()
    session.crash()
    session.close()
    for phase in opened:
        ledger.check(phase["ledger_closed"], "backpressure ledger open")
    session.verify()
    walls["verify"] = perf() - mark
    gen_lag = [value for phase in opened for value in phase["gen_lag"]]

    def summary(values: list[float], kind: str) -> float:
        if kind == "median":
            return statistics.median(values)
        return _p(values, int(kind[1:]))

    # metric: (samples, statistic, scale to unit, unit, what a sample is)
    spec = {
        "arrivals_per_s": ("rate", "median", 1.0, "obj/s",
                           f"rounds; {objects} objects in {elapsed:.2f} s "
                           f"of batches"),
        "batch_p50_ms": ("batch", "p50", 1e3, "ms", "batches"),
        "batch_p95_ms": ("batch", "p95", 1e3, "ms", "batches"),
        "fresh_p50_ms": ("fresh", "p50", 1e3, "ms", "objects"),
        "fresh_p95_ms": ("fresh", "p95", 1e3, "ms", "objects"),
        "setup_s": ("setup", "median", 1.0, "s", "set-ups"),
        "recovery_s": ("recovery", "median", 1.0, "s", "rebuilds"),
    }
    metrics = {
        name: _metric(summary(scaled[key], kind) * unit_scale, unit)
        for name, (key, kind, unit_scale, unit, _what) in spec.items()
    }
    metrics["peak_rss_mb"] = _metric(rss_mb, "MiB")
    lines = [f"workload {w.name}  seed {seed}  offered rate {w.rate:g} obj/s"]
    for name, (key, kind, unit_scale, unit, what) in spec.items():
        lines.append(
            f"  {name:<16} {metrics[name]['value']:>14.4f} {unit:<6} "
            f"({kind} of n={len(scaled[key])} {what}; unscaled "
            f"{summary(raw[key], kind) * unit_scale:.4f})")
    lines.append(f"  {'peak_rss_mb':<16} {rss_mb:>14.4f} {'MiB':<6} "
                 f"(n=1; above {baseline_kib / 1024.0:.1f} MiB with inputs "
                 f"generated)")
    lines.append(f"  {'error_rate':<16} "
                 f"{ledger.failed / max(1, ledger.attempted):>14.6f} "
                 f"{'':<6} ({ledger.failed} of {ledger.attempted})")
    lines.append(f"  {'driver.gen_lag_p95_ms':<16} "
                 f"{_p(gen_lag, 95) * 1e3:>9.4f} ms "
                 f"(n={len(gen_lag)} idle wake-ups)")
    lines.append(f"  {'host_ms':<16} {statistics.median(host.probes):>9.4f} "
                 f"ms (reference work, median of n={len(host.probes)}; "
                 f"{min(host.probes):.2f}-{max(host.probes):.2f}; scaled "
                 f"to {HostSpeed.REFERENCE_MS} ms)")
    lines.append("  phase wall seconds: " + ", ".join(
        f"{phase} {sec:.1f}" for phase, sec in walls.items()))
    lines += [f"  problem: {p}" for p in ledger.problems]
    return metrics, ledger, lines


@contextlib.contextmanager
def _counting_sweeps(tracer: Tracer):
    """Wrap aG2's cached local sweep: one span per sweep, plus a count
    of the objects each sweep covers (the vertex and its neighbours)."""
    original = ag2_module.local_plane_sweep_cached
    swept = [0]

    def counted(vertex, backend="python"):
        swept[0] += len(vertex.neighbors) + 1
        return original(vertex, backend=backend)

    ag2_module.local_plane_sweep_cached = tracer.wrap("core.sweep", counted)
    try:
        yield swept
    finally:
        ag2_module.local_plane_sweep_cached = original


def _work_counts(session: Session, swept: list[int]) -> dict[str, float]:
    """Cumulative work counters of one session, read from the program's
    registry and objects."""
    totals = {key: 0.0 for key in CORE_COUNTERS}
    totals["evictions"] = 0.0
    for name in session.monitors:
        counters = session.registry.scope(name).snapshot().counters
        for key in CORE_COUNTERS:
            totals[key] += counters.get(key, 0.0)
        totals["evictions"] += counters.get("window.evictions", 0.0)
    totals["objects_swept"] = float(swept[0])
    wal = session.registry.scope("wal").snapshot().counters
    totals["wal_bytes"] = wal.get("wal_bytes_written", 0.0)
    totals["fsyncs"] = float(session.wal.fsyncs if session.wal else 0)
    totals["offered"] = float(session.guard.offered)
    totals["admitted"] = float(session.guard.admitted)
    return totals


def _count_metrics(before, after, objects: int, pushes: int):
    d = {key: after[key] - before[key] for key in after}
    visited, pruned = d["cells_visited"], d["cells_pruned"]
    counts = {f"core.{key}": d[key] / objects
              for key in CORE_COUNTERS + ("objects_swept",)}
    counts["core.prune_ratio"] = pruned / max(1.0, visited + pruned)
    counts["durability.bytes_per_arrival"] = d["wal_bytes"] / objects
    counts["durability.fsyncs"] = d["fsyncs"]
    counts["resilience.admit_ratio"] = d["admitted"] / d["offered"]
    counts["window.expired_per_batch"] = d["evictions"] / pushes
    return counts


def _mean_ms(values: list[float]) -> float:
    return statistics.fmean(values) * 1e3 if values else 0.0


def traced_run(w: Workload, seed: int, seconds: float, workdir: Path,
               trace_out: Path):
    """The per-layer run.  Returns (metrics, ledger, report lines)."""
    batches = w.count_batches
    inputs = make_inputs(w, seed, _records_needed(w, batches, seconds))
    gc.collect()
    gc.freeze()
    ledger = Ledger()
    # traced, untraced, traced: the untraced twin runs between the two
    # traced passes, so no side alone pays first-run costs; both rates
    # are scaled to the reference host speed, as in a measured run
    host = HostSpeed()
    passes = []
    untraced_rate = 0.0
    for i, traced in enumerate((True, False, True)):
        tracer = Tracer() if traced else None
        session = Session(w, inputs, workdir / f"pass{i}", ledger, tracer)
        host.probe()
        if not traced:
            lat, objects = session.closed_loop(batches)
            untraced_rate = objects / (sum(lat) * host.phase_factor())
            session.close()
            session.verify()
            continue
        with _counting_sweeps(tracer) as swept:
            before = _work_counts(session, swept)
            lat, objects = session.closed_loop(batches)
            elapsed = sum(lat) * host.phase_factor()
            counts = _count_metrics(before, _work_counts(session, swept),
                                    objects, batches * len(w.sides))
            if passes:
                opened = session.open_loop(w.rate, w.open_share * seconds)
                recoveries = session.recover(w.recoveries)
                session.crash()
        session.close()
        session.verify()
        tracer.write(trace_out.with_name(
            f"{trace_out.stem}-pass{len(passes) + 1}.jsonl"))
        passes.append((tracer, session, counts, objects / elapsed))
    (t1, s1, counts, traced_rate), (t2, s2, counts2, _rate) = passes
    ledger.check(counts == counts2,
                 f"work counts differ between traced passes: "
                 f"{sorted(k for k in counts if counts[k] != counts2.get(k))}")
    ledger.check(opened["ledger_closed"], "backpressure ledger open")
    # per-layer times come from the first traced pass: its spans cover
    # exactly the fixed closed-loop batches
    own = t1.self_seconds()
    serve_span = "engine.process" if s1.engine is not None else "engine.update"
    per_batch = 1e3 / batches
    apply_ms = sum(t1.durations("core.apply")) * per_batch
    sweep_ms = sum(t1.durations("core.sweep")) * per_batch
    checkpoints = t1.durations("resilience.checkpoint") or \
        t2.durations("resilience.checkpoint")
    sizes = s1.checkpoint_bytes or s2.checkpoint_bytes
    waits = opened["queue_wait"]
    values = {
        "resilience.guard_ms": sum(t1.durations("resilience.guard"))
        * per_batch,
        "resilience.admit_ratio": counts["resilience.admit_ratio"],
        "resilience.checkpoint_ms": _mean_ms(checkpoints),
        "resilience.checkpoint_bytes": statistics.fmean(sizes),
        "resilience.restore_s": statistics.median(
            r["restore_s"] for r in recoveries),
        "durability.append_ms": _mean_ms(t1.durations("durability.append")),
        "durability.sync_ms": _mean_ms(t1.durations("durability.sync")),
        "durability.bytes_per_arrival":
            counts["durability.bytes_per_arrival"],
        "durability.fsyncs": counts["durability.fsyncs"],
        "durability.replay_s": statistics.median(
            r["replay_s"] for r in recoveries),
        "overload.queue_wait_p50_ms": _p(waits, 50) * 1e3,
        "overload.queue_wait_p95_ms": _p(waits, 95) * 1e3,
        "overload.backlog_max": float(opened["backlog_max"]),
        "overload.batch_mean": statistics.fmean(opened["batch_sizes"]),
        "engine.self_ms": own.get(serve_span, 0.0) * per_batch,
        "window.push_ms": sum(t1.durations("window.push")) * per_batch,
        "window.expired_per_batch": counts["window.expired_per_batch"],
        "core.apply_ms": apply_ms,
        "core.sweep_ms": sweep_ms,
        "core.index_ms": apply_ms - sweep_ms,
        **{key: counts[key] for key in counts if key.startswith("core.")},
        "driver.gen_lag_p95_ms": _p(opened["gen_lag"], 95) * 1e3,
        "trace.arrivals_per_s": traced_rate,
        "trace.untraced_arrivals_per_s": untraced_rate,
        "trace.overhead_pct": (untraced_rate / traced_rate - 1.0) * 100.0,
    }
    units = per_layer_units()
    metrics = {name: _metric(values[name], units[name]) for name in units}
    lines = [f"workload {w.name}  seed {seed}  traced: {batches} closed-loop "
             f"batches per pass, {len(t1.spans)} + {len(t2.spans)} spans",
             f"  {'metric':<30} {'value':>14} {'unit':<8} moves"]
    for name, metric in metrics.items():
        lines.append(f"  {name:<30} {metric['value']:>14.4f} "
                     f"{metric['unit']:<8} {PREDICTIONS[name]}")
    lines.append(f"  counts repeat across both traced passes: "
                 f"{counts == counts2}")
    lines += [f"  problem: {p}" for p in ledger.problems]
    return metrics, ledger, lines


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {
        "resilience.guard_ms": "ms",
        "resilience.admit_ratio": "ratio",
        "resilience.checkpoint_ms": "ms",
        "resilience.checkpoint_bytes": "bytes",
        "resilience.restore_s": "s",
        "durability.append_ms": "ms",
        "durability.sync_ms": "ms",
        "durability.bytes_per_arrival": "bytes",
        "durability.fsyncs": "count",
        "durability.replay_s": "s",
        "overload.queue_wait_p50_ms": "ms",
        "overload.queue_wait_p95_ms": "ms",
        "overload.backlog_max": "count",
        "overload.batch_mean": "count",
        "engine.self_ms": "ms",
        "window.push_ms": "ms",
        "window.expired_per_batch": "count",
        "core.apply_ms": "ms",
        "core.sweep_ms": "ms",
        "core.index_ms": "ms",
    }
    for key in CORE_COUNTERS + ("objects_swept",):
        units[f"core.{key}"] = "count"
    units["core.prune_ratio"] = "ratio"
    units["driver.gen_lag_p95_ms"] = "ms"
    units["trace.arrivals_per_s"] = "obj/s"
    units["trace.untraced_arrivals_per_s"] = "obj/s"
    units["trace.overhead_pct"] = "%"
    return units

"""One workload's pipeline and the phases that drive it.

A :class:`Session` owns one freshly built pipeline — ingest guard,
monitors, and either a ``StreamEngine`` (with WAL and checkpoints on
``fleet_durable``) or a ``MultiQueryGroup`` — plus a cursor into the
pre-generated records.  Its phases are the ones the run reports on:
set-up, a closed loop, an open loop through a ``BackpressureQueue``,
and crash recovery.  Afterwards :meth:`Session.verify` checks the
answers against a ``NaiveMonitor`` oracle, the guard's ingest ledger
and the recovered answers; every failure lands in :class:`Ledger`.
"""

from __future__ import annotations

import gc
import math
import time
import traceback
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core import AG2Monitor, NaiveMonitor
from repro.core import grid as grid_module
from repro.core.objects import SpatialObject, dual_rect
from repro.durability import WriteAheadLog, reconcile, scan_wal
from repro.engine import MultiQueryGroup, StreamEngine
from repro.obs.metrics import Metrics
from repro.overload import BackpressureQueue, ShedPolicy
from repro.resilience import CheckpointManager, ErrorPolicy, IngestGuard
from repro.window import CountWindow

from spans import Tracer
from workloads import Inputs, Workload

perf = time.perf_counter


def _untraced(_name: str, fn: Callable) -> Callable:
    return fn


@dataclass
class Ledger:
    """Failed operations over attempted ones: ``error_rate``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.problems) < 20:
                self.problems.append(what)


def clear_program_caches() -> None:
    """Empty the program's process-wide memo caches, so every set-up
    starts from the state a fresh process would see."""
    dual_rect.cache_clear()
    cell_cache = getattr(grid_module, "_cell_keys_cached", None)
    if cell_cache is not None:
        cell_cache.cache_clear()


class Session:
    """One pipeline instance and the phases run against it.

    Args:
        workload: What to build.
        inputs: The pre-generated records.
        workdir: Directory for this session's WAL and checkpoints.
        ledger: Where failures are counted.
        tracer: When given, spans are recorded around every layer call
            and the program's ``repro.obs`` registry is attached.
    """

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        workdir: Path,
        ledger: Ledger,
        tracer: Tracer | None = None,
    ) -> None:
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.ledger = ledger
        self.tracer = tracer
        self.wrap = tracer.wrap if tracer is not None else _untraced
        self.registry = Metrics() if tracer is not None else None
        self.cursor = 0  # next record to hand to the guard
        self.batches_served = 0
        # ids of every admitted object, in admission order; plain arrays
        # and float tuples keep the benchmark's own bookkeeping out of
        # the program's garbage collections
        self.oids = array("q")
        self.recent: deque[list[SpatialObject]] = deque(
            maxlen=workload.recovery_tail)
        # (objects admitted since priming, best weight per query)
        self.answers: list[tuple[int, tuple[float, ...]]] = []
        # (first, end) answer indexes of every phase served so far
        self.phases: list[tuple[int, int]] = []
        self.checkpoint_bytes: list[int] = []
        # (live answer, recovered answer per query) per rebuild
        self.recovered: list[tuple[tuple[float, ...], dict[str, float]]] = []
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.setup_s = self._setup()

    # -- construction ------------------------------------------------------

    def _setup(self) -> float:
        """Build the queries, prime the window and run one full window
        turnover; returns the wall seconds it took."""
        w = self.workload
        clear_program_caches()
        gc.collect()
        start = perf()
        self.monitors = {
            f"q{i}": AG2Monitor(side, side, CountWindow(w.window))
            for i, side in enumerate(w.sides)
        }
        self.guard = IngestGuard(
            policy=ErrorPolicy.QUARANTINE, max_lateness=w.max_lateness
        )
        self.wal = None
        self.checkpoint = None
        if w.checkpoint_every:
            self.wal = WriteAheadLog(
                self.workdir / "wal",
                fsync="batch",
                # two checkpoint periods per segment: compaction keeps
                # the recovery scan to a few segments
                segment_records=2 * w.checkpoint_every,
            )
            (only,) = self.monitors.values()
            self.checkpoint = CheckpointManager(
                only, self.workdir / "checkpoint.json",
                every=w.checkpoint_every, keep=1,
            )
        if len(self.monitors) == 1:
            self.engine = StreamEngine(
                self.monitors, iter(()), w.batch, metrics=self.registry,
                checkpoint=self.checkpoint, wal=self.wal,
            )
            serve = self.engine.process
            serve_name = "engine.process"
        else:
            self.engine = None
            self.group = MultiQueryGroup()
            for name, monitor in self.monitors.items():
                self.group.add(name, monitor)
                if self.registry is not None:
                    monitor.attach_metrics(self.registry.scope(name))
            serve = self.group.update
            serve_name = "engine.update"
        for monitor in self.monitors.values():
            monitor.ingest(self.inputs.prime)
        self.serve = serve
        for _ in range(math.ceil(w.window / w.batch)):
            self.handle(self.take(w.batch))
        elapsed = perf() - start
        if self.tracer is not None:
            self._instrument(serve, serve_name)
        return elapsed

    def _instrument(self, serve: Callable, serve_name: str) -> None:
        tracer = self.tracer
        tracer.instrument(self.guard, "filter", "resilience.guard")
        self.serve = tracer.wrap(serve_name, serve)
        for monitor in self.monitors.values():
            tracer.instrument(monitor, "apply", "core.apply")
            tracer.instrument(monitor.window, "push", "window.push")
        if self.wal is not None:
            tracer.instrument(self.wal, "append_batch", "durability.append")
            tracer.instrument(self.wal, "sync", "durability.sync")
            tracer.instrument(self.wal, "compact", "durability.compact")
        if self.checkpoint is not None:
            self._instrument_checkpoint(self.checkpoint)

    def _instrument_checkpoint(self, manager: CheckpointManager) -> None:
        write = manager.checkpoint

        def checkpoint_and_size():
            path = write()
            self.checkpoint_bytes.append(path.stat().st_size)
            return path

        manager.checkpoint = self.wrap("resilience.checkpoint",
                                       checkpoint_and_size)

    # -- serving -----------------------------------------------------------

    def take(self, count: int) -> list[object]:
        """The next ``count`` pre-generated records."""
        records = self.inputs.records[self.cursor:self.cursor + count]
        if len(records) < count:
            raise RuntimeError("benchmark inputs exhausted; generate more")
        self.cursor += count
        return records

    def handle(self, records: list[object]) -> tuple[float, ...] | None:
        """Guard one raw batch and serve what it admits; returns the
        best weight per query, or None when nothing was admitted or
        serving raised."""
        admitted = self.guard.filter(records)
        if not admitted:
            return None
        self.oids.extend([obj.oid for obj in admitted])
        self.recent.append(admitted)
        self.batches_served += 1
        if self.tracer is not None:
            self.tracer.batch = self.batches_served
        try:
            results = self.serve(admitted)
        except Exception:  # a failed batch is counted, and the run goes on
            self.ledger.check(False, "batch raised: "
                              + traceback.format_exc(limit=3))
            return None
        self.ledger.check(True, "batch")
        weights = tuple([result.best_weight for result in results.values()])
        self.answers.append((len(self.oids), weights))
        return weights

    def _mark(self, first_answer: int) -> None:
        self.phases.append((first_answer, len(self.answers)))

    # -- phases ------------------------------------------------------------

    def closed_loop(
        self,
        batches: int,
        pause: Callable[[], None] | None = None,
        every: int = 0,
    ) -> tuple[list[float], int]:
        """Offer ``batches`` batches back to back; each is timed from
        hand-off to the last answer.  When given, ``pause`` is called
        after every ``every`` batches, outside the timed batches.

        Returns per-batch latencies (s) and objects answered.
        """
        size = self.workload.batch
        first_answer = len(self.answers)
        handle = self.wrap("load.batch", self.handle)
        before = len(self.oids)
        latencies: list[float] = []
        # every phase starts from an empty young generation, so the
        # collector's pauses fall at the same points in every run
        gc.collect()
        for i in range(batches):
            records = self.take(size)
            t0 = perf()
            handle(records)
            latencies.append(perf() - t0)
            if pause is not None and (i + 1) % every == 0:
                pause()
        self._mark(first_answer)
        return latencies, len(self.oids) - before

    def open_loop(
        self,
        rate: float,
        seconds: float,
        idle: Callable[[], None] | None = None,
        idle_min: float = 0.0,
    ) -> dict[str, object]:
        """Offer records at fixed due times through a bounded queue.

        Records arrive in ticks of half a batch, as the paper's
        streams generate ``m`` objects per time unit: tick ``k`` is due
        ``k * tick / rate`` seconds after the phase begins, whether or
        not the pipeline kept up.  Records wait upstream while the queue
        (capacity = batch size, BLOCK policy) is full; each iteration
        serves one coalesced batch of whatever is queued.  Latency runs
        from a record's due time to the first answer that includes it.
        When given, ``idle`` is called when the queue is empty and the
        next tick is more than ``idle_min`` seconds away.
        """
        w = self.workload
        count = int(rate * seconds)
        records = self.take(count)
        tick = w.batch // 2
        due = [(j // tick) * tick / rate for j in range(count)]
        due_by_oid = {
            rec.oid: due[j]
            for j, rec in enumerate(records)
            if isinstance(rec, SpatialObject)
        }
        queue = BackpressureQueue(w.batch, policy=ShedPolicy.BLOCK,
                                  max_batch=w.batch)
        handle = self.wrap("load.batch", self.handle)
        first_answer = len(self.answers)
        holdover: list[object] = []
        offered = 0
        taken = 0
        takes: list[tuple[float, int, int]] = []
        answered: list[tuple[float, int, int]] = []  # (time, oid span)
        gen_lag: list[float] = []
        woke = False  # the last iteration slept until a tick was due
        backlog_max = 0
        gc.collect()
        t0 = perf()
        while taken < count:
            now = perf() - t0
            end = offered
            while end < count and due[end] <= now:
                end += 1
            if woke and end > offered:
                # how late the generator released a tick it was free to release
                gen_lag.append(now - due[end - 1])
            woke = False
            if end > offered or holdover:
                holdover = queue.offer_all(holdover + records[offered:end])
                offered = end
            backlog_max = max(backlog_max, queue.pending + len(holdover))
            if queue.pending == 0:
                # idle until the next record is due; spinning, not
                # sleeping, so the wake-up latency of a shared host's
                # scheduler stays out of the freshness figures
                target = t0 + due[offered]
                if idle is not None and target - perf() > idle_min:
                    idle()
                while perf() < target:
                    pass
                woke = True
                continue
            batch = queue.take_batch()
            takes.append((perf(), taken, len(batch)))
            taken += len(batch)
            first_oid = len(self.oids)
            if handle(batch) is not None:
                answered.append((perf(), first_oid, len(self.oids)))
        self._mark(first_answer)
        queue_wait = [
            at - t0 - due[j]
            for at, first, size in takes
            for j in range(first, first + size)
        ]
        fresh_at = [
            (at, due_by_oid[oid])
            for at, first, end in answered
            for oid in self.oids[first:end]
            if oid in due_by_oid
        ]
        return {
            "fresh": [at - t0 - due for at, due in fresh_at],
            "fresh_at": [at for at, _due in fresh_at],  # perf() answer times
            "queue_wait": queue_wait,
            "gen_lag": gen_lag,
            "backlog_max": backlog_max,
            "batch_sizes": [size for _at, _first, size in takes],
            "ledger_closed": queue.ledger_closed,
        }

    def recover(
        self, points: int, pause: Callable[[], None] | None = None,
    ) -> list[dict[str, float]]:
        """Rebuild the compute tier from disk at ``points`` crash points,
        ``recovery_repeats`` times at each from the same files.  When
        given, ``pause`` is called after each rebuild, outside its time.

        ``fleet_durable`` serves batches until its newest periodic
        checkpoint is exactly ``recovery_tail`` batches old, then
        rebuilds from that checkpoint plus the WAL tail.
        ``multi_tenant`` has no journal: each query is checkpointed, serves
        ``recovery_tail`` more batches, and recovery replays them from
        the replayable source (the recorded admitted batches).  The
        rebuilt monitors are separate objects, so the live pipeline
        keeps serving; :meth:`crash` tears it down at the end of a run.
        Every recovered first answer is compared with the live one.
        """
        first_answer = len(self.answers)
        recover = self.wrap("resilience.recover", CheckpointManager.recover)
        scan = self.wrap("durability.scan_wal", scan_wal)
        plan = self.wrap("durability.reconcile", reconcile)
        samples = []
        for _ in range(points):
            paths = self._crash_point()
            replay_source = list(self.recent)
            live = self.answers[-1][1]
            for _ in range(self.workload.recovery_repeats):
                # the collector is off while a rebuild is timed: here it
                # would traverse the live pipeline, which a real crash
                # takes with it (on multi_tenant, full collections over
                # the sixteen live monitors were two thirds of a rebuild)
                gc.collect()
                gc.disable()
                try:
                    start = perf()
                    restored = {name: recover(path)
                                for name, path in paths.items()}
                    restored_at = perf()
                    if self.wal is not None:
                        (monitor, position), = restored.values()
                        batches = [objs for _i, objs in plan(
                            scan(self.wal.directory), position).batches]
                        replays = {"q0": (monitor, batches)}
                    else:
                        replays = {
                            name: (monitor, replay_source)
                            for name, (monitor, _pos) in restored.items()}
                    firsts = {
                        name: self._replay(monitor, batches)
                        for name, (monitor, batches) in replays.items()}
                    done = perf()
                finally:
                    gc.enable()
                del restored, replays
                # keep the answer, not the result: a result can hold on
                # to the rebuilt monitor's objects and inflate peak_rss_mb
                self.recovered.append(
                    (live, {name: result.best_weight
                            for name, result in firsts.items()}))
                samples.append({
                    "recovery_s": done - start,
                    "restore_s": restored_at - start,
                    "replay_s": done - restored_at,
                })
                if pause is not None:
                    pause()
        self._mark(first_answer)
        return samples

    def crash(self) -> None:
        """Drop the live compute tier, as the crash recovery stands for."""
        if self.engine is not None:
            self.engine.teardown()
        self.monitors = {}
        self.group = None

    def _crash_point(self) -> dict[str, Path]:
        """Serve up to the next crash point; returns the checkpoint file
        of each query."""
        w = self.workload
        tail = w.recovery_tail
        if self.checkpoint is not None:
            # serve at least one batch, so consecutive crash points fall
            # a checkpoint period apart
            self.handle(self.take(w.batch))
            while (not self.checkpoint.positions
                   or self.checkpoint.batch_index
                   - self.checkpoint.last_position != tail):
                self.handle(self.take(w.batch))
            return {"q0": self.checkpoint.path}
        paths = {}
        for name, monitor in self.monitors.items():
            manager = CheckpointManager(
                monitor, self.workdir / f"{name}.checkpoint.json")
            self._instrument_checkpoint(manager)
            manager.checkpoint()
            paths[name] = manager.path
        for _ in range(tail):
            self.handle(self.take(w.batch))
        return paths

    def _replay(self, monitor, batches: list[list[SpatialObject]]):
        replay = self.wrap("durability.replay", _replay_batches)
        return replay(monitor, batches)

    # -- verification ------------------------------------------------------

    def verify(self) -> None:
        """Count every wrong answer, lost record and bad recovery."""
        self._verify_answers()
        self._verify_ingest()
        for live, firsts in self.recovered:
            for (name, recovered), weight in zip(firsts.items(), live):
                self.ledger.check(
                    recovered == weight,
                    f"recovered {name} answer {recovered} != live {weight}",
                )

    def _verify_answers(self) -> None:
        w = self.workload
        sequence = self.inputs.prime + self.inputs.expected
        naive = {
            side: NaiveMonitor(side, side, CountWindow(w.window))
            for side in w.distinct_sides
        }
        fed = 0
        # the last answer of every phase: a stride through the run that
        # ends at its last batch
        ends = sorted({end - 1 for first, end in self.phases if end > first})
        for index in ends:
            admitted, weights = self.answers[index]
            n = len(self.inputs.prime) + admitted
            references = {}
            for side, monitor in naive.items():
                if n - 1 > fed:
                    monitor.ingest(sequence[fed:n - 1])
                references[side] = monitor.update(sequence[n - 1:n])
            fed = n
            for i, (side, weight) in enumerate(zip(w.sides, weights)):
                expected = references[side].best_weight
                self.ledger.check(
                    weight == expected,
                    f"q{i} after {admitted} arrivals answered {weight}, "
                    f"reference {expected}",
                )

    def _verify_ingest(self) -> None:
        """Every valid record offered must be admitted, once, in
        timestamp order; every injected malformed one quarantined."""
        offered = self.inputs.records[:self.cursor]
        # the cursor can stop inside a shuffled block, so the valid
        # records offered need not be a prefix of the timestamp order;
        # ids are arrival positions, so sorting them is timestamp order
        expected = sorted(r.oid for r in offered
                          if isinstance(r, SpatialObject))
        got = list(self.oids) + [o.oid for o in self.guard.flush()]
        missing = len(set(expected) - set(got))
        extra = len(got) - len(set(got) & set(expected))  # dups, strays
        wrong = missing + extra
        if not wrong and got != expected:
            wrong = 1  # the right records in the wrong order
        if wrong:
            self.ledger.check(False, f"ingest ledger: {missing} missing, "
                              f"{extra} extra", weight=wrong)
        self.ledger.check(True, "ingest ledger",
                          weight=max(0, len(expected) - wrong))
        malformed = len(offered) - len(expected)
        self.ledger.check(
            self.guard.quarantined == malformed,
            f"quarantined {self.guard.quarantined} of {malformed} "
            f"malformed records",
        )

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()


def _replay_batches(monitor, batches: list[list[SpatialObject]]):
    """Replay a recovery tail; the last batch yields the first answer."""
    for objs in batches[:-1]:
        monitor.ingest(objs)
    return monitor.update(batches[-1])

"""Workload definitions and seeded input generation for the benchmark.

Each workload is one traffic mix driven through the program's public
API (``repro.resilience``, ``repro.durability``, ``repro.engine``,
``repro.window``, ``repro.core``).  Every input — records, injected
faults and open-loop due times — is generated from ``--seed`` before
any clock starts; the program only ever receives the generated inputs.

Why these two workloads
-----------------------

``fleet_durable``
    ``tdrive_like`` vehicle fleet, one exact aG2 query of 1000 x 1000,
    python backend, the full durable write path: ``IngestGuard``
    (QUARANTINE, ``max_lateness`` > 0) over records with a seeded share
    of malformed and out-of-order ones, then ``StreamEngine.process``
    with a ``WriteAheadLog`` (``fsync=batch``) and a
    ``CheckpointManager`` every 10 batches.  The aG2
    update is cheap here (sweeps are small), so validation, journal and
    snapshot are a large share of each batch: write-path and recovery
    changes show only on this workload, and fan-out changes are
    predicted not to move it.  A checkpoint lands on 10% of
    the batches, twice the 5% that ``batch_p95_ms`` sits on, so p95
    reads the checkpoint batches and never an edge between two modes.
``multi_tenant``
    uniform ``synthetic`` stream, 16 aG2 queries through
    ``MultiQueryGroup.update`` (four sides from 600 to 1200, four
    identical queries per side), python backend.  Each query re-indexes
    the same stream today, so cost grows linearly with query count; the
    identical sizes give shared-index serving something to share.  There
    is no journal, so write-path changes are predicted not to move it.
    Batches hold 100 objects, not 200: at 200 the 200 timed batches
    that p95 needs took over half a minute per run, more than the
    benchmark's run-time budget allows.  About one batch in seven
    pays a full (generation 2) garbage collection over the sixteen
    monitors' state, four to five times a plain batch, so
    ``batch_p95_ms`` reads those batches.

A dense-hotspot workload (``hotspot_static``, one aG2 query, numpy
backend) is left out: the 4 + 22 runs per workload that a comparison
makes must end within 57 minutes, so with a third workload a run
would have to average under 50 s, and ``multi_tenant`` alone takes
about 65 s.

Both enter through an ``IngestGuard``, as a serving deployment would;
only ``fleet_durable`` injects faults and reorders arrivals.

Phases of a measured run
------------------------

First ``setups`` set-ups, one after another and each with no other
pipeline alive, as in a fresh process; all but the last are dropped,
the last becomes the live pipeline.  Then ``rounds`` rounds of: a
closed loop of a ``rounds``-th of ``closed_batches`` batches offered
back to back (200 or more in all, so p95 has ten batches beyond it),
an open loop whose due times span a ``rounds``-th of ``open_share``
times ``--seconds``, and a ``rounds``-th of the ``recoveries`` crash
points, each rebuilt ``recovery_repeats`` times from the same files.
``arrivals_per_s`` is the median of the rounds' closed-loop rates, each
the round's objects over the summed time of its batches; ``setup_s``
and ``recovery_s`` are medians; the percentiles pool every batch or
object of the run.

Every timed stretch (each set-up, ``probe_every`` closed-loop batches,
open loop and rebuild) is scaled to a reference host speed by
``measure.HostSpeed``: a fixed piece of pure-Python work, outside the
program, is timed before and after the stretch, and the stretch's
times are multiplied by ``HostSpeed.REFERENCE_MS`` over the mean of the
two.  The open loop also times it whenever it idles with the next tick
more than ``HostSpeed.IDLE_MIN_S`` away, and each answer is scaled by
the probes just before and after it.  The shared host this was written on runs at two speeds, swapping
within seconds, and some minutes run slow throughout; unscaled, the
medians of one program moved 25-40% between runs, and the scaled
figures of a slow stretch read close to the unscaled ones of a fast
stretch.  Each report line prints the unscaled figure beside the
scaled one.
``fleet_durable`` recovers from its newest periodic checkpoint plus
the WAL tail; ``multi_tenant`` has no journal, so each query is
checkpointed and the tail is replayed from the replayable source.  The
rebuild runs beside the live pipeline, which a real crash would have
taken with it, so the garbage collector is off while a rebuild is
timed; on ``multi_tenant`` full collections over the live monitors
were two thirds of a rebuild's time, and how many landed in it set
``recovery_s``.
Afterwards the last answer of every phase is checked against a
``NaiveMonitor`` per distinct query size, the guard's ingest ledger is
audited, and every recovered first answer is compared with the live
one.  ``error_rate`` = failed / attempted over
all of these; the JSON result carries it as ``failed`` and
``attempted``, because an end-to-end metric must never be 0.

``peak_rss_mb`` is the process's peak resident memory above its level
once the inputs are generated: the peak is reset after generation, so
the figure is what serving adds, not the benchmark's own inputs.

Open-loop rates
---------------

Each workload's ``rate`` is one fixed offered rate (objects/s): a
constant, never derived from the code under test at run time.  On the
2-CPU container the benchmark was written on, the closed-loop
``arrivals_per_s`` of the unchanged program measured about 24k (fleet)
and 1.2k (multi-tenant) objects/s while the host was quiet, and half
that or less while neighbours kept it busy.  Each rate is about a
fifth of the quiet capacity, so the open loop stays well below half
load even on a host running twice as slow: at half the quiet capacity
a busy host pushed the queue to saturation, where freshness swings by
tens of percent from run to run.  The fleet rate also allows for
open-loop batches being small while each still pays a WAL append, and
every tenth a checkpoint.  The closed-loop capacity stands in for a
search for the highest sustainable rate: each probed rate would be
another open-loop phase and would multiply the run time.

The records of one open-loop tick (half a batch) share a due time and
mostly one answer, so freshness percentiles rest on ticks, not
objects.  ``multi_tenant`` offers 50-record ticks five times a second:
over 10 s its ``fresh_p95_ms`` read the worst two or three of 50 ticks
and moved 11-23% between sets of ten runs, so its open loop runs
``open_share`` = 1.5 times ``--seconds``.  ``fleet_durable`` offers 40
ticks a second over ``--seconds``; over half of it, its
``fresh_p50_ms`` moved 13-16% between runs instead of 6-9%.

Where the WAL and checkpoints live
----------------------------------

Under ``.perfbench_work/`` in the checkout the benchmark runs from — a
real disk, not tmpfs — one fresh directory per set-up, removed when the
run ends.

Layer -> end-to-end predictions
-------------------------------

``PREDICTIONS`` maps every per-layer metric to the end-to-end metric
and workload it should move; the traced table prints it next to each
value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice

from repro.core.objects import SpatialObject
from repro.datasets import make_stream

@dataclass(frozen=True)
class Workload:
    """One traffic mix; sizes are objects, batches and seconds."""

    name: str
    dataset: str
    sides: tuple[float, ...]  # one square query per entry
    window: int
    batch: int
    rate: float  # open-loop offered objects/s
    open_share: float  # open-loop seconds per second of --seconds
    count_batches: int  # fixed closed-loop batches of a traced pass
    recoveries: int  # crash points per run; recovery_s is their median
    setups: int  # set-ups per run; setup_s is their median
    rounds: int  # rounds of a measured run
    probe_every: int  # closed-loop batches between two host-speed probes
    checkpoint_every: int = 0  # > 0: WAL + a checkpoint every n batches
    malformed_share: float = 0.0  # extra malformed records per valid one
    reorder_share: float = 0.0  # share of 4-record blocks shuffled
    max_lateness: float = 0.0
    closed_batches: int = 200  # >= 200, so p95 has 10 batches beyond it
    recovery_tail: int = 5  # batches replayed after the newest checkpoint
    recovery_repeats: int = 1  # rebuilds timed at each crash point

    @property
    def distinct_sides(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.sides)))


WORKLOADS = {
    "fleet_durable": Workload(
        name="fleet_durable",
        dataset="tdrive_like",
        sides=(1000.0,),
        window=2000,
        batch=200,
        rate=4000.0,
        open_share=1.0,
        checkpoint_every=10,
        malformed_share=0.01,
        reorder_share=0.05,
        max_lateness=8.0,
        closed_batches=600,
        count_batches=200,
        recoveries=12,
        setups=10,
        rounds=12,
        probe_every=25,
    ),
    "multi_tenant": Workload(
        name="multi_tenant",
        dataset="synthetic",
        sides=tuple(side for side in (600.0, 800.0, 1000.0, 1200.0)
                    for _ in range(4)),
        window=2000,
        batch=100,
        rate=250.0,
        open_share=1.5,
        count_batches=30,
        recovery_tail=2,
        recoveries=3,
        recovery_repeats=2,
        setups=3,
        rounds=8,
        probe_every=5,
    ),
}

#: per-layer metric -> (end-to-end metric, workload) it should move
PREDICTIONS = {
    "resilience.guard_ms": "batch_p50_ms on fleet_durable",
    "resilience.admit_ratio": "batch_p50_ms on fleet_durable",
    "resilience.checkpoint_ms": "batch_p95_ms on fleet_durable",
    "resilience.checkpoint_bytes": "batch_p95_ms on fleet_durable",
    "resilience.restore_s": "recovery_s",
    "durability.append_ms": "arrivals_per_s on fleet_durable",
    "durability.sync_ms": "arrivals_per_s on fleet_durable",
    "durability.bytes_per_arrival": "arrivals_per_s on fleet_durable",
    "durability.fsyncs": "arrivals_per_s on fleet_durable",
    "durability.replay_s": "recovery_s",
    "overload.queue_wait_p50_ms": "fresh_* on both workloads",
    "overload.queue_wait_p95_ms": "fresh_* on both workloads",
    "overload.backlog_max": "fresh_* on both workloads",
    "overload.batch_mean": "fresh_* on both workloads",
    "engine.self_ms": "batch_p50_ms on multi_tenant",
    "window.push_ms": "none predicted (sanity row)",
    "window.expired_per_batch": "none predicted (sanity row)",
    "core.apply_ms": "arrivals_per_s on both workloads",
    "core.sweep_ms": "arrivals_per_s (sweeps are small on both)",
    "core.index_ms": "arrivals_per_s on fleet_durable, multi_tenant",
    "core.local_sweeps": "arrivals_per_s (count per arrival)",
    "core.objects_swept": "arrivals_per_s (count per arrival)",
    "core.overlap_tests": "arrivals_per_s (count per arrival)",
    "core.edges_touched": "arrivals_per_s (count per arrival)",
    "core.cells_visited": "arrivals_per_s (count per arrival)",
    "core.cells_pruned": "arrivals_per_s (count per arrival)",
    "core.full_sweeps": "arrivals_per_s (count per arrival)",
    "core.prune_ratio": "arrivals_per_s (count ratio)",
    "driver.gen_lag_p95_ms": "none: the generator must stay on time",
    "trace.arrivals_per_s": "none: traced throughput",
    "trace.untraced_arrivals_per_s": "none: untraced twin of the above",
    "trace.overhead_pct": "none: cost of tracing",
}


@dataclass
class Inputs:
    """Everything a run feeds the program, generated before timing.

    ``prime`` fills the window untimed.  ``records`` is the raw arrival
    sequence after it (valid objects plus injected malformed payloads,
    with some valid ones locally out of order).  ``expected`` is the
    valid objects in timestamp order: what the guard must admit, and
    what the reference oracle replays.
    """

    prime: list[SpatialObject]
    records: list[object]
    expected: list[SpatialObject]


def _malformed(rng: random.Random, near: SpatialObject) -> dict:
    """A payload the guard must quarantine (three kinds of damage)."""
    kind = rng.randrange(3)
    if kind == 0:
        return {"x": math.nan, "y": near.y, "weight": near.weight}
    if kind == 1:
        return {"x": near.x, "y": near.y, "weight": -1.0}
    return {"y": near.y, "weight": near.weight}


def make_inputs(workload: Workload, seed: int, count: int) -> Inputs:
    """Generate ``workload.window`` priming objects plus ``count`` valid
    arrivals and their fault injections, all from ``seed``.

    Weights are rounded to whole numbers so that a best weight is the
    same float whatever order a monitor sums it in; that lets the
    oracle compare answers exactly.  Object ids and timestamps are the
    arrival position, so reruns within a process see identical bytes.
    """
    raw = islice(make_stream(workload.dataset, seed=seed),
                 workload.window + count)
    objects = [
        SpatialObject(o.x, o.y, float(round(o.weight)), float(i), oid=i)
        for i, o in enumerate(raw)
    ]
    prime = objects[: workload.window]
    expected = objects[workload.window:]
    rng = random.Random(seed * 7919 + 17)
    ordered = list(expected)
    if workload.reorder_share > 0.0:
        # shuffle inside disjoint 4-record blocks: no record trails the
        # newest timestamp by more than 3, well inside max_lateness
        for start in range(0, len(ordered) - 3, 4):
            if rng.random() < workload.reorder_share:
                block = ordered[start:start + 4]
                rng.shuffle(block)
                ordered[start:start + 4] = block
    records: list[object] = []
    for obj in ordered:
        records.append(obj)
        if workload.malformed_share and rng.random() < workload.malformed_share:
            records.append(_malformed(rng, obj))
    return Inputs(prime=prime, records=records, expected=expected)

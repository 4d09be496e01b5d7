"""Tests of the benchmark's own checks, on shrunken workloads.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
from repro.core import AG2Monitor  # noqa: E402
from pipeline import Ledger, Session  # noqa: E402
from repro.resilience import IngestGuard  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SECONDS = 0.3  # open-loop length of the shrunken runs


def tiny(name: str):
    """The named workload at a size that runs in seconds."""
    return dataclasses.replace(
        WORKLOADS[name], window=200, batch=20, closed_batches=32,
        count_batches=12, recoveries=2, setups=3, rounds=4)


def benchmark_names(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[key]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_run_reports_every_metric_and_no_failure(name, tmp_path):
    metrics, ledger, _lines = measure.measured_run(
        tiny(name), 3, SECONDS, tmp_path)
    assert ledger.failed == 0, ledger.problems
    assert ledger.attempted > 0
    assert list(metrics) == benchmark_names("end_to_end")
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_timings_are_scaled_to_the_reference_host_speed(monkeypatch,
                                                        tmp_path):
    # a host running the reference work at half speed throughout
    monkeypatch.setattr(measure, "_host_ms",
                        lambda: 2 * measure.HostSpeed.REFERENCE_MS)
    metrics, ledger, lines = measure.measured_run(
        tiny("fleet_durable"), 3, SECONDS, tmp_path)
    assert ledger.failed == 0, ledger.problems
    unscaled = {line.split()[0]: float(line.rsplit(" ", 1)[1].rstrip(")"))
                for line in lines if "unscaled" in line}
    assert len(unscaled) == len(metrics) - 1  # all but peak_rss_mb
    for name, value in unscaled.items():
        factor = 2.0 if name == "arrivals_per_s" else 0.5
        # the unscaled figure is printed to four decimals
        assert metrics[name]["value"] == pytest.approx(
            value * factor, rel=1e-3, abs=1e-4)


def test_perturbed_answer_raises_error_rate(monkeypatch, tmp_path):
    original = AG2Monitor.apply

    def off_by_one(self, delta):
        result = original(self, delta)
        if not result.regions:
            return result
        best = dataclasses.replace(result.regions[0],
                                   weight=result.regions[0].weight + 1.0)
        return dataclasses.replace(result, regions=(best,))

    monkeypatch.setattr(AG2Monitor, "apply", off_by_one)
    _metrics, ledger, _lines = measure.measured_run(
        tiny("multi_tenant"), 3, SECONDS, tmp_path)
    assert ledger.failed > 0
    assert any("reference" in problem for problem in ledger.problems)


def test_dropped_record_raises_error_rate(monkeypatch, tmp_path):
    original = IngestGuard.filter
    calls = itertools.count()

    def drop_one(self, records):
        admitted = original(self, records)
        # three set-ups of ten batches come first (the last is the
        # live pipeline), then the first round's closed loop
        if next(calls) == 32 and admitted:
            return admitted[1:]
        return admitted

    monkeypatch.setattr(IngestGuard, "filter", drop_one)
    _metrics, ledger, _lines = measure.measured_run(
        tiny("fleet_durable"), 3, SECONDS, tmp_path)
    assert ledger.failed > 0
    assert any("ingest ledger" in problem for problem in ledger.problems)


def test_ingest_ledger_holds_when_offers_stop_inside_a_shuffled_block(
        tmp_path):
    workload = dataclasses.replace(tiny("fleet_durable"), reorder_share=1.0,
                                   malformed_share=0.0)
    inputs = make_inputs(workload, 3, 400)
    ledger = Ledger()
    session = Session(workload, inputs, tmp_path, ledger)
    session.handle(session.take(3))  # set-up took 200; stop mid-block
    session.close()
    session.verify()
    assert ledger.failed == 0, ledger.problems


def test_traced_run_reports_every_layer_and_counts_repeat(tmp_path):
    metrics, ledger, lines = measure.traced_run(
        tiny("fleet_durable"), 3, SECONDS, tmp_path / "work",
        tmp_path / "out" / "trace.jsonl")
    assert ledger.failed == 0, ledger.problems
    assert list(metrics) == benchmark_names("per_layer")
    assert "  counts repeat across both traced passes: True" in lines
    assert metrics["durability.fsyncs"]["value"] > 0
    assert (tmp_path / "out" / "trace-pass1.jsonl").stat().st_size > 0


def test_counts_that_differ_between_traced_passes_fail(monkeypatch,
                                                       tmp_path):
    original = measure._count_metrics
    calls = itertools.count()

    def drifting(*args):
        counts = original(*args)
        if next(calls) == 1:
            counts["core.local_sweeps"] += 1.0
        return counts

    monkeypatch.setattr(measure, "_count_metrics", drifting)
    _metrics, ledger, _lines = measure.traced_run(
        tiny("multi_tenant"), 3, SECONDS, tmp_path / "work",
        tmp_path / "out" / "trace.jsonl")
    assert ledger.failed == 1
    assert "work counts differ" in ledger.problems[0]


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_durable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

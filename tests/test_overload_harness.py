"""LoadGenerator shapes and the run_overload soak acceptance."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.overload import LoadGenerator, run_overload, rung_latency_model
from repro.overload.harness import exact_weight_over


class TestLoadGenerator:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": 0},
            {"pattern": "sawtooth"},
            {"burst_factor": 0.5},
            {"period": 0},
            {"burst_ticks": 0},
            {"burst_ticks": 90, "period": 80},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_parameters_validated(self, kwargs):
        defaults = dict(base_rate=10)
        defaults.update(kwargs)
        with pytest.raises(InvalidParameterError):
            LoadGenerator(**defaults)

    def test_ticks_validated(self):
        with pytest.raises(InvalidParameterError):
            LoadGenerator(10).arrivals(0)

    def test_same_seed_reproduces_exactly(self):
        a = LoadGenerator(10, seed=4).arrivals(50)
        b = LoadGenerator(10, seed=4).arrivals(50)
        c = LoadGenerator(10, seed=5).arrivals(50)
        assert a == b
        assert a != c

    def test_square_wave_shape(self):
        gen = LoadGenerator(
            10, pattern="square", burst_factor=5.0, period=10,
            burst_ticks=3, jitter=0.0,
        )
        counts = gen.arrivals(20)
        assert counts[:3] == [50, 50, 50]
        assert counts[3:10] == [10] * 7
        assert counts[10:13] == [50, 50, 50]  # second period bursts again

    def test_spike_is_one_tick_per_period(self):
        gen = LoadGenerator(
            10, pattern="spike", burst_factor=8.0, period=5, jitter=0.0,
            burst_ticks=1,
        )
        counts = gen.arrivals(10)
        assert counts == [80, 10, 10, 10, 10, 80, 10, 10, 10, 10]

    def test_ramp_is_a_triangle(self):
        gen = LoadGenerator(
            10, pattern="ramp", burst_factor=5.0, period=8, burst_ticks=4,
            jitter=0.0,
        )
        counts = gen.arrivals(8)
        assert counts[0] == 10
        assert max(counts) == counts[4] == 50  # crest at the half period
        assert counts[1:5] == sorted(counts[1:5])  # monotone climb
        assert counts[4:] == sorted(counts[4:], reverse=True)

    def test_jitter_stays_within_band(self):
        gen = LoadGenerator(100, pattern="square", burst_factor=1.0,
                            burst_ticks=1, jitter=0.2, seed=9)
        for count in gen.arrivals(200):
            assert 80 <= count <= 120


class TestExactCompanion:
    def test_empty_window_scores_zero(self):
        assert exact_weight_over([], 10.0) == 0.0


class TestRunOverloadValidation:
    def test_ticks_validated(self):
        with pytest.raises(InvalidParameterError):
            run_overload(ticks=0)

    def test_verify_every_validated(self):
        with pytest.raises(InvalidParameterError):
            run_overload(verify_every=-1)

    def test_calibration_needs_batches(self):
        with pytest.raises(InvalidParameterError):
            run_overload(budget_ms=None, calibration_batches=0)


class TestSoak:
    def test_seeded_burst_soak_meets_acceptance(self):
        """The acceptance scenario: a seeded 10x square-wave burst
        against a calibrated budget must keep p95 within budget, close
        the shed ledger exactly, verify every degraded answer's floor
        against the exact companion, and recover to the exact rung.

        The ladder runs on modeled latency, so the verdict is the
        control loop's, not the host's speed at the moment."""
        rep = run_overload(
            window=800,
            rate=30,
            ticks=80,
            period=40,
            burst_ticks=8,
            burst_factor=10.0,
            seed=11,
            verify_every=5,
            latency_model=rung_latency_model(1.0, 2),
        )
        assert rep.ledger_closed, rep.ledger
        assert rep.within_budget, (rep.p95_ms, rep.budget_ms)
        assert rep.recovered, rep.final_mode
        assert rep.guarantees_verified, rep.guarantee_details
        assert rep.ok
        # the burst actually forced the ladder down and back
        assert rep.transitions, "soak never left the exact rung"
        reasons = {t["reason"] for t in rep.transitions}
        assert reasons & {"panic", "deadline_pressure"}
        assert "headroom" in reasons
        # bounded depth: the queue never outgrew its capacity
        assert rep.queue_high_water <= 20 * 30
        assert rep.queue_pending == 0

    def test_modeled_latency_repeats_across_runs(self):
        """Budget, ladder trajectory and latency summary come from the
        model alone, so two runs agree exactly."""
        kwargs = dict(
            window=300,
            rate=10,
            ticks=40,
            period=20,
            burst_ticks=4,
            burst_factor=10.0,
            seed=5,
            verify_every=0,
            latency_model=rung_latency_model(2.0, 2),
        )
        first = run_overload(**kwargs)
        second = run_overload(**kwargs)
        assert first.calibrated
        assert first.budget_ms == 3.0 * 2.0 * 10  # budget_factor x model
        assert first.transitions
        assert first.transitions == second.transitions
        assert first.residency == second.residency
        assert (first.mean_ms, first.p95_ms) == (second.mean_ms, second.p95_ms)

    def test_explicit_budget_skips_calibration(self):
        rep = run_overload(
            window=300,
            rate=10,
            ticks=20,
            period=20,
            burst_ticks=2,
            burst_factor=2.0,
            budget_ms=10_000.0,  # everything fits: ladder never moves
            seed=3,
            verify_every=4,
        )
        assert not rep.calibrated
        assert rep.budget_ms == 10_000.0
        assert rep.transitions == []
        assert rep.final_mode == "exact"
        assert rep.final_guarantee == 1.0
        assert rep.ledger_closed
        assert rep.guarantee_checks > 0
        assert rep.guarantee_failures == 0

    def test_report_round_trips_to_plain_data(self):
        rep = run_overload(
            window=200,
            rate=10,
            ticks=10,
            period=10,
            burst_ticks=2,
            burst_factor=2.0,
            budget_ms=10_000.0,
            seed=5,
            verify_every=0,  # verification disabled entirely
        )
        assert rep.guarantee_checks == 0
        assert not rep.guarantees_verified  # no checks = not verified
        doc = rep.to_dict()
        assert doc["budget_ms"] == "10000.000"
        assert doc["ledger"]["offered"] == doc["ledger"]["processed"] + (
            doc["ledger"]["refused"]
            + doc["ledger"]["shed_oldest"]
            + doc["ledger"]["shed_newest"]
            + doc["ledger"]["pending"]
        )
        assert {"engine", "residency", "transitions"} <= set(doc)
        quantities = [row["quantity"] for row in rep.rows()]
        assert "p95 within budget" in quantities
        assert "guarantees verified" in quantities

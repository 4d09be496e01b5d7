"""Counter-exact differentials for branch-and-bound candidate selection.

The aG2 monitor (and the quadtree and top-k monitors built on it) only
orders the cells whose bound beats the refreshed answer, and counts
the rest as pruned in one step.  That is sound only because the answer
never falls within a batch, so every filtered cell would have been
reached after all candidates and failed Rule 1 there.  These tests pin
it: each monitor runs beside a test-local reference that keeps the
earlier loop — a heap (or stable sort) over *every* cell — and after
each batch the answers must be equal (``==``, not approx) and so must
every visit/prune/sweep counter and the metrics registry.

Streams use whole-number weights on a coarse lattice, so cell bounds
tie often, and small count windows, so the monitored answer expires
often and the start cell is re-seeded by the Equation (6) heuristic.
"""

from __future__ import annotations

import heapq
from heapq import heapify, heappop

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ag2 import AG2Monitor
from repro.core.objects import SpatialObject
from repro.core.quadtree import QuadtreeAG2Monitor
from repro.core.topk import TopKAG2Monitor
from repro.obs.metrics import Metrics
from repro.window import CountWindow

coord = st.integers(min_value=0, max_value=30).map(float)

objects = st.lists(
    st.builds(
        SpatialObject,
        x=coord,
        y=coord,
        weight=st.integers(min_value=0, max_value=3).map(float),
    ),
    min_size=1,
    max_size=60,
)

STAT_FIELDS = (
    "cells_visited",
    "cells_pruned",
    "vertices_pruned",
    "local_sweeps",
    "overlap_tests",
)


class _FullHeapSelection:
    """Candidate selection as it was before the Rule-1 pre-filter:
    every cell except the start cell is heapified on every batch, and a
    tuple per cell is built to re-seed the start cell."""

    def _pick_start_cell(self):
        if self._star_cell is not None and self._star_cell in self._cells:
            return self._star_cell
        return max((cell.cw, key) for key, cell in self._cells.items())[1]

    def _on_delta(self, delta):
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._purge_all()
        if not self._cells:
            self._star = None
            self._star_cell = None
            return
        start_key = self._pick_start_cell()
        self._overlap_computation(self._cells[start_key])
        self._exact_weight_computation(start_key)
        heap = [
            (-cell.cw, cell.rank, key)
            for key, cell in self._cells.items()
            if key != start_key
        ]
        heapify(heap)
        while heap:
            _neg_cw, _rank, key = heappop(heap)
            cell = self._cells[key]
            if not self._may_beat(cell.cw):
                pruned = len(heap) + 1
                self.stats.cells_pruned += pruned
                self.metrics.inc("cells_pruned", pruned)
                break
            self._overlap_computation(cell)
            if self._may_beat(cell.cw):
                self._exact_weight_computation(key)
            else:
                self.stats.cells_pruned += 1
                self.metrics.inc("cells_pruned")


class _FullHeapGrid(_FullHeapSelection, AG2Monitor):
    pass


class _FullHeapQuadtree(_FullHeapSelection, QuadtreeAG2Monitor):
    pass


class _FullSortTopK(TopKAG2Monitor):
    """Top-k selection before the pre-filter: a stable sort of every
    non-priority cell on every pass."""

    def _on_delta(self, delta):
        self._expired_upto += len(delta.expired)
        self._map_arrivals(delta)
        self._purge_all()
        self._star = None
        self._star_cell = None
        if not self._cells:
            self._answer = []
            return
        candidates = self._merge_candidates()
        rho = self._kth_weight(candidates)
        priority = {
            key
            for _v, key in heapq.nlargest(
                self.k,
                candidates.values(),
                key=lambda entry: entry[0].space.weight,
            )
        }
        if not priority:
            priority = {
                max(self._cells, key=lambda key: (self._cells[key].cw, key))
            }
        for key in priority:
            cell = self._cells.get(key)
            if cell is None:
                continue
            self._overlap_computation(cell)
            rho = self._exact_topk(key, rho, candidates)
        order = sorted(
            (key for key in self._cells if key not in priority),
            key=lambda key: -self._cells[key].cw,
        )
        for pos, key in enumerate(order):
            cell = self._cells[key]
            if not cell.cw > rho:
                self.stats.cells_pruned += len(order) - pos
                break
            self._overlap_computation(cell)
            if cell.cw > rho:
                rho = self._exact_topk(key, rho, candidates)
            else:
                self.stats.cells_pruned += 1
        self._answer = self._rank(candidates)


def _with_metrics(monitor):
    monitor.attach_metrics(Metrics("m"))
    return monitor


def _assert_lockstep(monitor, reference, objs, batch):
    for pos in range(0, len(objs), batch):
        chunk = objs[pos : pos + batch]
        got = monitor.update(chunk)
        want = reference.update(chunk)
        assert got == want
        for name in STAT_FIELDS:
            assert getattr(monitor.stats, name) == getattr(
                reference.stats, name
            ), name
        assert monitor.metrics.snapshot() == reference.metrics.snapshot()
    monitor.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    objs=objects,
    capacity=st.integers(min_value=1, max_value=12),
    batch=st.integers(min_value=1, max_value=6),
    side=st.sampled_from([4.0, 8.0]),
    cell_size=st.sampled_from([5.0, 10.0, 16.0]),
    epsilon=st.sampled_from([0.0, 0.1]),
)
def test_grid_selection_matches_full_heap(
    objs, capacity, batch, side, cell_size, epsilon
):
    def make(cls):
        return _with_metrics(
            cls(
                side,
                side,
                CountWindow(capacity),
                cell_size=cell_size,
                epsilon=epsilon,
            )
        )

    _assert_lockstep(make(AG2Monitor), make(_FullHeapGrid), objs, batch)


@settings(max_examples=60, deadline=None)
@given(
    objs=objects,
    capacity=st.integers(min_value=1, max_value=16),
    batch=st.integers(min_value=1, max_value=6),
    side=st.sampled_from([3.0, 6.0]),
    split_occupancy=st.integers(min_value=3, max_value=8),
    epsilon=st.sampled_from([0.0, 0.1]),
)
def test_quadtree_selection_matches_full_heap(
    objs, capacity, batch, side, split_occupancy, epsilon
):
    def make(cls):
        return _with_metrics(
            cls(
                side,
                side,
                CountWindow(capacity),
                split_occupancy=split_occupancy,
                merge_occupancy=2,
                epsilon=epsilon,
            )
        )

    _assert_lockstep(
        make(QuadtreeAG2Monitor), make(_FullHeapQuadtree), objs, batch
    )


@settings(max_examples=60, deadline=None)
@given(
    objs=objects,
    k=st.integers(min_value=1, max_value=4),
    capacity=st.integers(min_value=1, max_value=14),
    batch=st.integers(min_value=1, max_value=6),
    cell_size=st.sampled_from([5.0, 10.0]),
)
def test_topk_selection_matches_full_sort(objs, k, capacity, batch, cell_size):
    def make(cls):
        return _with_metrics(
            cls(4.0, 4.0, CountWindow(capacity), k=k, cell_size=cell_size)
        )

    _assert_lockstep(make(TopKAG2Monitor), make(_FullSortTopK), objs, batch)


def test_pruning_actually_filters():
    """On a spread-out stream most cells are pruned without a visit,
    so the lockstep check covers the filter's one-step count."""
    stream = [
        SpatialObject(x=float(7 * i % 97), y=float(13 * i % 89), weight=1.0)
        for i in range(400)
    ]
    monitor = _with_metrics(AG2Monitor(4.0, 4.0, CountWindow(120)))
    reference = _with_metrics(_FullHeapGrid(4.0, 4.0, CountWindow(120)))
    _assert_lockstep(monitor, reference, stream, 20)
    assert monitor.stats.cells_pruned > 3 * monitor.stats.cells_visited

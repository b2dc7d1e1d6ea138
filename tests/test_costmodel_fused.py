"""Tests for the evaluator's fast path: the fused prune+evaluate
kernel, O(Δ) base commits and chunk auto-sizing.

Every optimization here claims bit-identical results to the code it
replaced; these tests hold it to that — ``==`` and
``np.array_equal``, not ``pytest.approx``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchdb.synth import synthetic_workload
from repro.benchdb.tpch import tpch_database
from repro.core.costmodel import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    CostModel,
    WorkloadCostEvaluator,
)
from repro.core.fullstripe import full_striping
from repro.core.greedy import TsGreedySearch
from repro.core.layout import stripe_fractions
from repro.core.random_layout import random_layout
from repro.core.tolerance import EPS_COST, EPS_FRACTION
from repro.errors import LayoutError
from repro.obs import Telemetry
from repro.storage.disk import winbench_farm
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph

# The conftest fixtures are read-only; sharing them across hypothesis
# examples is safe (same suppression the costmodel tests use).
_PROPERTY = settings(
    deadline=None, max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def case(mini_db, join_workload, farm8):
    analyzed = analyze_workload(join_workload, mini_db)
    sizes = mini_db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
    graph = build_access_graph(analyzed, mini_db)
    return evaluator, graph, sizes, farm8


def _random_row(rng, farm) -> np.ndarray:
    """A stripe row over a random non-empty disk subset."""
    n_disks = rng.integers(1, len(farm) + 1)
    subset = rng.choice(len(farm), size=n_disks, replace=False)
    return np.array(stripe_fractions([int(j) for j in subset], farm))


def _random_rows(rng, farm, count) -> np.ndarray:
    return np.array([_random_row(rng, farm) for _ in range(count)])


def _assert_serves_like(warm, cold, name, rows) -> None:
    """``warm`` answers every single-row query exactly as ``cold``."""
    assert np.array_equal(warm.costs_for_rows(name, rows),
                          cold.costs_for_rows(name, rows))
    assert np.array_equal(warm.bounds_for_rows(name, rows),
                          cold.bounds_for_rows(name, rows))
    incumbent = cold._base_total
    assert warm.best_for_rows(name, rows, incumbent) \
        == cold.best_for_rows(name, rows, incumbent)


class TestCommitRows:
    """commit_rows must be indistinguishable from a fresh set_base."""

    @_PROPERTY
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_commit_sequence_matches_fresh_set_base(
            self, mini_db, join_workload, farm8, seed):
        analyzed = analyze_workload(join_workload, mini_db)
        sizes = mini_db.object_sizes()
        incremental = WorkloadCostEvaluator(analyzed, farm8,
                                            sorted(sizes))
        rng = np.random.default_rng(seed)
        base = full_striping(sizes, farm8)
        matrix = incremental.matrix_of(base)
        incremental.set_base(matrix.copy())
        names = incremental.object_names
        for _ in range(6):
            # Commit one to three objects at once (multi-row commits
            # are the co-location path).
            count = int(rng.integers(1, 4))
            picked = rng.choice(len(names), size=count, replace=False)
            rows = {names[int(i)]: _random_row(rng, farm8)
                    for i in picked}
            committed_total = incremental.commit_rows(rows)
            for name, row in rows.items():
                matrix[names.index(name)] = row
            # A new evaluator per step: one reused across steps would
            # share any cache-epoch bug with the one under test.
            fresh = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
            fresh_total = fresh.set_base(matrix.copy())
            # Bit-identical, not approximately equal: the O(Δ) commit
            # recomputes exactly the touched subplans and re-derives
            # the total with the same full dot product.
            assert committed_total == fresh_total
            assert np.array_equal(incremental._base_costs,
                                  fresh._base_costs)
            assert np.array_equal(incremental._base_matrix,
                                  fresh._base_matrix)
            # And the caches the commit preserved/invalidated serve
            # the same answers a cold evaluator computes.
            probe_name = names[int(rng.integers(0, len(names)))]
            _assert_serves_like(incremental, fresh, probe_name,
                                _random_rows(rng, farm8, 4))

    @_PROPERTY
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_interleaved_set_base_and_commits(
            self, mini_db, join_workload, farm8, seed):
        """Epoch bookkeeping survives set_base between commits.

        Regression guard: a commit must never re-validate cache
        entries left over from *before* an intervening set_base —
        they describe a dead base.
        """
        analyzed = analyze_workload(join_workload, mini_db)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(sizes))
        rng = np.random.default_rng(seed)
        names = evaluator.object_names
        matrix = evaluator.matrix_of(full_striping(sizes, farm8))
        evaluator.set_base(matrix.copy())
        for _ in range(8):
            action = rng.integers(0, 3)
            if action == 0:
                # Warm one object's cost and bound halves at the
                # current epoch.
                name = names[int(rng.integers(0, len(names)))]
                probes = _random_rows(rng, farm8, 3)
                evaluator.costs_for_rows(name, probes)
                evaluator.bounds_for_rows(name, probes)
            elif action == 1:
                i = int(rng.integers(0, len(names)))
                matrix[i] = _random_row(rng, farm8)
                evaluator.set_base(matrix.copy())
            else:
                i = int(rng.integers(0, len(names)))
                row = _random_row(rng, farm8)
                matrix[i] = row
                evaluator.commit_rows({names[i]: row})
        # After any interleaving, every object's delta costs and
        # bounds must match a cold evaluator given the same final base.
        cold = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        cold.set_base(matrix.copy())
        for name in names:
            probes = _random_rows(rng, farm8, 4)
            assert np.array_equal(
                evaluator.costs_for_rows(name, probes),
                cold.costs_for_rows(name, probes))
            assert np.array_equal(
                evaluator.bounds_for_rows(name, probes),
                cold.bounds_for_rows(name, probes))

    def test_commit_before_set_base_raises(self, case):
        evaluator, _, _, farm = case
        with pytest.raises(LayoutError, match="set_base"):
            evaluator.commit_rows(
                {"big": np.array(stripe_fractions([0], farm))})

    def test_empty_commit_keeps_total_and_caches(self, case):
        evaluator, _, sizes, farm = case
        base_cost = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        probe = np.array([stripe_fractions([0, 1], farm)])
        before = evaluator.costs_for_rows("big", probe)
        assert evaluator.commit_rows({}) == base_cost
        assert np.array_equal(evaluator.costs_for_rows("big", probe),
                              before)

    def test_commit_counts_metric(self, case):
        evaluator, _, sizes, farm = case
        telemetry = Telemetry()
        evaluator.bind_telemetry(telemetry)
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        evaluator.commit_rows(
            {"big": np.array(stripe_fractions([0], farm))})
        assert telemetry.value("costmodel.commit_evaluations") == 1.0


class TestBestForRows:
    """The fused kernel vs the composition it replaced."""

    def _naive(self, evaluator, name, rows, incumbent, prune=True):
        """bounds -> prune -> costs -> sequential epsilon acceptance,
        exactly as the pre-fusion greedy loop composed them."""
        if prune:
            bounds = evaluator.bounds_for_rows(name, rows)
            keep = np.nonzero(bounds < incumbent - EPS_COST)[0]
            pruned = len(rows) - int(keep.size)
        else:
            keep = np.arange(len(rows))
            pruned = 0
        best_cost, best_index = float(incumbent), -1
        if keep.size:
            costs = evaluator.costs_for_rows(name, rows[keep])
            for position, cost in enumerate(costs):
                if cost < best_cost - EPS_COST:
                    best_cost = float(cost)
                    best_index = int(keep[position])
        return best_cost, best_index, pruned

    @_PROPERTY
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_fused_matches_naive_composition(
            self, mini_db, join_workload, farm8, seed):
        analyzed = analyze_workload(join_workload, mini_db)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(sizes))
        rng = np.random.default_rng(seed)
        base_cost = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm8)))
        names = evaluator.object_names
        name = names[int(rng.integers(0, len(names)))]
        rows = _random_rows(rng, farm8, int(rng.integers(1, 40)))
        # Sweep the incumbent from hopeless to generous so the
        # all-pruned, some-pruned and none-pruned regimes all occur.
        incumbent = float(base_cost * rng.uniform(0.2, 1.5))
        for prune in (True, False):
            assert evaluator.best_for_rows(name, rows, incumbent,
                                           prune=prune) \
                == self._naive(evaluator, name, rows, incumbent,
                               prune=prune)

    def test_all_pruned_returns_incumbent_unchanged(self, case):
        evaluator, _, sizes, farm = case
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rows = np.array([stripe_fractions([j], farm)
                         for j in range(len(farm))])
        # An impossible incumbent: every bound exceeds it, every
        # candidate is pruned, and the incumbent comes back intact.
        best_cost, best_index, pruned = \
            evaluator.best_for_rows("big", rows, 0.0)
        assert (best_cost, best_index) == (0.0, -1)
        assert pruned == len(rows)

    def test_empty_rows_is_a_noop(self, case):
        evaluator, _, sizes, farm = case
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        assert evaluator.best_for_rows(
            "big", np.empty((0, len(farm))), 42.0) == (42.0, -1, 0)

    def test_prune_flag_changes_counts_not_results(self, case):
        evaluator, _, sizes, farm = case
        incumbent = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rows = np.array([stripe_fractions(subset, farm)
                         for subset in ([0], [1], [0, 1], [0, 1, 2],
                                        list(range(len(farm))))])
        pruned_run = evaluator.best_for_rows("big", rows, incumbent,
                                             prune=True)
        full_run = evaluator.best_for_rows("big", rows, incumbent,
                                           prune=False)
        assert pruned_run[:2] == full_run[:2]
        assert full_run[2] == 0

    def test_fused_counts_metric(self, case):
        evaluator, _, sizes, farm = case
        telemetry = Telemetry()
        evaluator.bind_telemetry(telemetry)
        incumbent = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rows = np.array([stripe_fractions([0], farm)])
        evaluator.best_for_rows("big", rows, incumbent)
        assert telemetry.value("costmodel.fused_evaluations") == 1.0


_TPCH = tpch_database()
_TPCH_SIZES = _TPCH.object_sizes()
_TPCH_NAMES = sorted(_TPCH_SIZES)


@functools.lru_cache(maxsize=None)
def _synthetic(seed: int):
    return analyze_workload(synthetic_workload(6, seed), _TPCH)


class TestGroupMoves:
    """A co-location group's move through the same kernel as a lone
    object's: costs, bounds and the fused selection."""

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(data=st.data())
    def test_property_group_kernel(self, data):
        m = data.draw(st.integers(3, 10))
        farm = winbench_farm(m, seed=data.draw(st.integers(0, 1000)))
        analyzed = _synthetic(data.draw(st.integers(0, 3)))
        evaluator = WorkloadCostEvaluator(analyzed, farm, _TPCH_NAMES)
        base = random_layout(_TPCH_SIZES, farm,
                             seed=data.draw(st.integers(0, 10_000)))
        base_cost = evaluator.set_base(evaluator.matrix_of(base))
        group = tuple(data.draw(st.lists(st.sampled_from(_TPCH_NAMES),
                                         min_size=2, max_size=3,
                                         unique=True)))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        # Members share each candidate's row, as a frontier builds
        # them, or get rows of their own, as budget projection does.
        shared = data.draw(st.booleans())
        rows = []
        for _ in range(data.draw(st.integers(1, 12))):
            if shared:
                rows.append([_random_row(rng, farm)] * len(group))
            else:
                rows.append([_random_row(rng, farm) for _ in group])
        rows = np.array(rows)                             # (C, G, m)
        costs = evaluator.costs_for_rows(group, rows)
        model = CostModel(farm)
        for candidate, cost in zip(rows, costs):
            layout = base
            for name, row in zip(group, candidate):
                layout = layout.with_fractions(name, tuple(row),
                                               check_capacity=False)
            assert cost == pytest.approx(
                model.workload_cost(analyzed, layout), rel=EPS_FRACTION)
        bounds = evaluator.bounds_for_rows(group, rows)
        assert np.all(bounds <= costs + 1e-9)
        incumbent = float(base_cost * rng.uniform(0.5, 1.2))
        pruned = evaluator.best_for_rows(group, rows, incumbent,
                                         prune=True)
        full = evaluator.best_for_rows(group, rows, incumbent,
                                       prune=False)
        assert pruned[:2] == full[:2]
        assert full[2] == 0

    def test_one_member_group_is_the_object(self, case):
        evaluator, _, sizes, farm = case
        incumbent = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rows = _random_rows(np.random.default_rng(3), farm, 20)
        assert np.array_equal(evaluator.costs_for_rows(("big",),
                                                       rows[:, None]),
                              evaluator.costs_for_rows("big", rows))
        assert np.array_equal(evaluator.bounds_for_rows(("big",),
                                                        rows[:, None]),
                              evaluator.bounds_for_rows("big", rows))
        assert evaluator.best_for_rows(("big",), rows[:, None], incumbent) \
            == evaluator.best_for_rows("big", rows, incumbent)

    def test_cost_with_rows_is_one_kernel_candidate(self, case):
        evaluator, _, sizes, farm = case
        evaluator.set_base(evaluator.matrix_of(full_striping(sizes, farm)))
        change = {"big": np.array(stripe_fractions([0, 1], farm)),
                  "mid": np.array(stripe_fractions([2], farm))}
        rows = np.array([list(change.values())])
        assert evaluator.cost_with_rows(change) \
            == evaluator.costs_for_rows(("big", "mid"), rows)[0]


class TestChunkAutoSizing:
    def test_chunk_size_never_changes_results(self, case, monkeypatch):
        evaluator, _, sizes, farm = case
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rng = np.random.default_rng(7)
        rows = _random_rows(rng, farm, 100)
        auto = evaluator.costs_for_rows("big", rows)
        for chunk in (1, 16, 33, 1024):
            monkeypatch.setattr(evaluator, "_auto_chunk",
                                lambda n_affected, chunk=chunk: chunk)
            assert np.array_equal(
                auto, evaluator.costs_for_rows("big", rows))

    def test_auto_chunk_is_clamped_and_shape_only(self, case):
        evaluator, _, _, _ = case
        for n_affected in (0, 1, 3, 100, 10_000):
            chunk = evaluator._auto_chunk(n_affected)
            assert _CHUNK_MIN <= chunk <= _CHUNK_MAX
        # More affected subplans -> same or smaller chunks (a fixed
        # byte budget for the candidate tensor).
        assert evaluator._auto_chunk(1) >= evaluator._auto_chunk(100)


class TestGreedyUsesFastPath:
    def test_greedy_search_emits_commit_and_fused_counters(self, case):
        evaluator, graph, sizes, farm = case
        telemetry = Telemetry()
        evaluator.bind_telemetry(telemetry)
        result = TsGreedySearch(farm, evaluator, sizes, prune=True,
                                telemetry=telemetry).search(graph)
        assert result.cost > 0
        assert telemetry.value("costmodel.fused_evaluations") > 0
        assert telemetry.value("costmodel.commit_evaluations") > 0

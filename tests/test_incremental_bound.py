"""The step-1 movement bound against its oracles.

A fresh TS-GREEDY's step 2 only widens, and every row it builds is
rate-proportional over a superset of the object's step-1 disks, so its
step-1 layout bounds how far the whole search moves from a current
layout.  ``IncrementalSearch`` skips its fallback's step 2 on that
bound, which is sound only while it stays at or below two oracles:

* the exact minimum over every rate-proportional superset row,
  enumerated, for one object on a heterogeneous farm;
* the movement of the fresh search's actual result, on generated
  catalogs with co-location and availability constraints, where the
  test also checks the widen-only, rate-proportional premise row by
  row — this guards it against changes to step 2.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import TsGreedySearch
from repro.core.tolerance import EPS_ZERO
from repro.core.incremental import (
    _fallback_movement_bound,
    _widened_distance,
)
from repro.errors import LayoutError
from repro.obs import Telemetry
from tests.test_greedy_frontier import _SIZES, _TOTAL, cases


def _oracle(current: np.ndarray, support: np.ndarray, spare: np.ndarray,
            rates: np.ndarray) -> float:
    """The exact minimum L1 distance from ``current`` to a
    rate-proportional row over any ``S`` with
    ``support ⊆ S ⊆ support | spare``."""
    spare_disks = np.flatnonzero(spare)
    best = float("inf")
    for size in range(len(spare_disks) + 1):
        for added in itertools.combinations(spare_disks, size):
            mask = support.copy()
            mask[list(added)] = True
            row = np.where(mask, rates, 0.0) / rates[mask].sum()
            best = min(best, float(np.abs(current - row).sum()))
    return best


@st.composite
def objects(draw):
    """One object's current row, step-1 support and spare disks on a
    farm of 2-8 disks with heterogeneous read rates."""
    m = draw(st.integers(2, 8))
    disk = st.integers(0, m - 1)
    rates = np.array(draw(st.lists(st.floats(5.0, 200.0), min_size=m,
                                   max_size=m)))
    support = np.zeros(m, dtype=bool)
    support[list(draw(st.sets(disk, min_size=1)))] = True
    spare = np.zeros(m, dtype=bool)
    spare[list(draw(st.sets(disk)))] = True
    held = np.zeros(m, dtype=bool)
    held[list(draw(st.sets(disk, min_size=1)))] = True
    # A layout's row is rate-proportional; an arbitrary row is allowed.
    weights = rates if draw(st.booleans()) else np.array(draw(
        st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    current = np.where(held, weights, 0.0)
    return current / current.sum(), support, spare & ~support, rates


class TestWidenedDistance:
    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(case=objects())
    def test_never_above_the_enumerated_minimum(self, case):
        current, support, spare, rates = case
        assert _widened_distance(current, support, spare, rates) \
            <= _oracle(current, support, spare, rates) + 1e-12

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(case=objects())
    def test_exact_without_spare_disks(self, case):
        # With nothing to add, S is the support and the bound is the
        # distance itself.
        current, support, _, rates = case
        none = np.zeros_like(support)
        assert abs(_widened_distance(current, support, none, rates)
                   - _oracle(current, support, none, rates)) <= 1e-12

    def test_counts_what_no_widening_can_keep(self):
        # Half of the object sits on disk 0, which step 1 left out and
        # which it may not widen onto: at least that half moves.
        rates = np.array([50.0, 50.0, 50.0])
        current = np.array([0.5, 0.5, 0.0])
        support = np.array([False, True, False])
        spare = np.array([False, False, True])
        assert _widened_distance(current, support, spare, rates) \
            == _oracle(current, support, spare, rates) == 1.0


class TestBoundOnFreshSearch:
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(case=cases())
    def test_premise_and_bound_hold_on_fresh_searches(self, case):
        current = case.layout()
        search = TsGreedySearch(case.farm, case.evaluator(Telemetry()),
                                _SIZES, constraints=case.constraints,
                                k=case.k, prune=case.prune)
        try:
            start = search.step1(case.graph)
        except LayoutError:
            return  # step 1 cannot pack this farm: no fallback to bound
        bound = _fallback_movement_bound(current, start, case.constraints)
        result = search.search(case.graph)
        assert bound <= current.data_movement_blocks(result.layout) \
            + 1e-9 * _TOTAL
        # The premise itself, which the loose bound above would let
        # slip: every final row stripes rate-proportionally over the
        # object's step-1 disks plus disks it may use.
        rates = np.array([disk.read_mb_s for disk in case.farm])
        for name in start.object_names:
            held = np.asarray(start.fractions_of(name)) > EPS_ZERO
            row = np.asarray(result.layout.fractions_of(name))
            final = row > EPS_ZERO
            allowed = np.zeros_like(final)
            allowed[case.constraints.allowed_disks(name, case.farm)] = True
            assert not (held & ~final).any(), name
            assert not (final & ~held & ~allowed).any(), name
            assert np.abs(row - np.where(final, rates, 0.0)
                          / rates[final].sum()).max() <= 1e-12, name

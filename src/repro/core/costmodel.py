"""The analytical I/O response-time cost model (Section 5, Figure 7).

For a statement ``Q`` under layout ``L``::

    Cost(Q, L) = sum over non-blocking subplans P of
                   max over disks D_j of (TransferCost_j + SeekCost_j)

    TransferCost_j = sum_i x_ij * B(|R_i|, P) / T_j
    SeekCost_j     = k * S_j * min_i (x_ij * B(|R_i|, P))   if k > 1
                   = 0                                      otherwise

where the sums run over objects accessed in ``P``, ``k`` is the number of
such objects with a positive fraction on ``D_j``, ``T_j`` is the read or
write transfer rate as appropriate, and ``S_j`` the average seek time.
The max captures "the last disk drive to complete I/O determines the I/O
response time"; the seek term models proportional interleaving of
co-located streams.

Mirroring the paper's implementation, accesses to temp objects (tempdb)
are *ignored* by this model — the paper's Section 7 attributes its
validation failures to exactly that omission, and our simulator charges
them, so the same failure mode reproduces here.

Two implementations are provided: a direct, readable one
(:class:`CostModel`) and a precompiled vectorized one
(:class:`WorkloadCostEvaluator`) used by the search, which must evaluate
thousands of layouts.  They agree to float precision (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.layout import Layout
from repro.core.tolerance import EPS_COST, EPS_ZERO
from repro.errors import LayoutError
from repro.obs import NULL_TELEMETRY
from repro.optimizer.planner import TEMPDB
from repro.storage.disk import DiskFarm, DiskSpec
from repro.workload.access import (
    AnalyzedStatement,
    AnalyzedWorkload,
    SubplanAccess,
)

#: Byte budget for the candidate tensor of one vectorized evaluation
#: pass.  :meth:`WorkloadCostEvaluator.costs_for_rows` sizes its chunk
#: so the ``(chunk, S_affected, K, m)`` working set stays near this
#: figure — small problems get large chunks (fewer Python iterations),
#: paper-scale problems keep the old memory profile.  Sized to sit in
#: the L2 cache: measured on the SRCH bench, throughput peaks with
#: ~128 KB working sets and falls ~20% by 1 MB (the reduction passes
#: re-stream the tensor from L3/DRAM instead).
_CHUNK_TARGET_BYTES = 128 << 10

#: Chunk bounds for the auto-sizer: the floor matches the historical
#: fixed chunk (never slower than before), the ceiling bounds peak
#: memory when a workload barely touches an object.
_CHUNK_MIN = 16
_CHUNK_MAX = 1024

#: The read-only packed evaluation arrays (sized by
#: ``packed_nbytes``); mutable per-search state is never in this list.
PACKED_ARRAYS = ("_idx", "_blocks", "_mask", "_inv", "_weights",
                 "_seeks")


def _move_rows(rows: np.ndarray) -> np.ndarray:
    """Candidate rows as ``(C, G, m)``: a lone object's ``(C, m)`` rows
    gain a member axis (a view)."""
    rows = np.asarray(rows, dtype=float)
    return rows[:, None, :] if rows.ndim == 2 else rows


class CostModel:
    """Direct (reference) implementation of the Figure-7 cost model.

    Args:
        farm: The disk drives layouts are defined over.
        tempdb: Optional dedicated temp drive.  The paper's formulation
            supports temp objects ("we can incorporate these effects by
            modeling temporary tables as objects") but its implementation
            ignored them — the source of its validation failures.  Pass
            the tempdb drive spec to enable the temp-aware extension:
            each subplan's temp I/O is charged to this drive, which
            participates in the last-disk-to-finish max.
    """

    def __init__(self, farm: DiskFarm, tempdb: "DiskSpec | None" = None):
        self._farm = farm
        self._tempdb = tempdb

    def _tempdb_cost(self, subplan: SubplanAccess) -> float:
        """I/O time of the subplan's temp streams on the temp drive.

        Spill passes are sequential (a sort writes its run files fully
        before reading them back), so no Figure-7 interleave seek term
        applies between the write and read streams.
        """
        if self._tempdb is None:
            return 0.0
        return sum(
            blocks / self._tempdb.transfer_blocks_s(write=write)
            for (name, write), blocks
            in subplan.blocks_by_object(include_temp=True).items()
            if name == TEMPDB and blocks > 0)

    def subplan_cost(self, subplan: SubplanAccess, layout: Layout) -> float:
        """Estimated I/O time of one non-blocking subplan: max over disks."""
        streams = [(name, write, blocks)
                   for (name, write), blocks
                   in subplan.blocks_by_object(include_temp=False).items()
                   if blocks > 0 and name in layout.object_names]
        worst = self._tempdb_cost(subplan)
        if not streams:
            return worst
        for j, disk in enumerate(self._farm):
            transfer = 0.0
            active: list[float] = []
            for name, write, blocks in streams:
                here = layout.fraction(name, j) * blocks
                if here <= EPS_ZERO:
                    continue
                transfer += here / disk.transfer_blocks_s(write=write)
                active.append(here)
            if not active:
                continue
            seek = 0.0
            if len(active) > 1:
                seek = len(active) * disk.avg_seek_s * min(active)
            worst = max(worst, transfer + seek)
        return worst

    def statement_cost(self, analyzed: AnalyzedStatement,
                       layout: Layout) -> float:
        """``Cost(Q, L)``: summed subplan costs (unweighted)."""
        return sum(self.subplan_cost(s, layout) for s in analyzed.subplans)

    def workload_cost(self, workload: AnalyzedWorkload,
                      layout: Layout) -> float:
        """Weighted total: ``sum_Q w_Q * Cost(Q, L)``."""
        return sum(a.weight * self.statement_cost(a, layout)
                   for a in workload)


@dataclass(eq=False)
class _Slice:
    """One move's touched subplans, gathered for candidate evaluation.

    A *move* is one object, or a co-location group whose ``G`` members
    move as one (Section 2.3); its candidates are ``(C, G, m)`` row
    arrays.  The fields up to ``target_coeff`` depend only on the packed
    workload and are built once.  ``base_sub`` and ``affected_base``
    describe the base layout at ``epoch`` and are (re)built whenever the
    evaluator's base epoch differs from it; ``other_transfer`` is
    derived from ``base_sub`` by the first bound pass at that epoch.
    """

    affected: np.ndarray       # (S,) subplans touching any member
    idx: np.ndarray            # (S, K) object row of each stream
    blocks_mask: np.ndarray    # (S, K, 1) stream blocks, 0 on padding
    inv: np.ndarray            # (S, K, m) inverse transfer rates
    is_target: np.ndarray      # (S, K, 1) streams of the move's members
    member: np.ndarray | None  # (S, K) member of each stream; None if G < 2
    weights: np.ndarray        # (S,) subplan weights
    target_coeff: tuple        # G x (S, m): each member's transfer per unit row
    epoch: int = -1
    base_sub: np.ndarray = field(init=False)  # (S, K, m) base stream spread
    affected_base: float = field(init=False)  # these subplans' base total
    other_transfer: np.ndarray | None = None  # (S, m) other objects' transfer


class WorkloadCostEvaluator:
    """Precompiled, vectorized workload cost evaluation.

    The search algorithms evaluate thousands of candidate layouts that
    differ from a base layout by one *move*: a single object's fraction
    row, or the rows of a co-location group that moves as one.  This
    class supports both full evaluation (:meth:`cost`) and O(affected
    subplans) batched evaluation of such moves (:meth:`costs_for_rows`,
    :meth:`bounds_for_rows` and :meth:`best_for_rows` after
    :meth:`set_base`).  Every cost path computes Figure 7 through one
    kernel, :meth:`_fig7`.

    Two optimizations keep large experiments (64 disks x 800 queries)
    tractable without changing any result:

    * **workload compression** — subplans with identical (object, write,
      blocks) stream sets are merged, summing their statement weights
      (frequent in template-generated workloads like APB-800);
    * **padded-array evaluation** — all subplans are packed into
      ``(S, K, m)`` arrays (K = max streams per subplan) so a full
      evaluation is a handful of vectorized operations.

    Args:
        workload: A planned-and-decomposed workload.
        farm: The disk farm candidate layouts are defined over.
        object_names: Row order of the layout matrices to evaluate;
            must match the layouts passed in later.
        telemetry: Optional :class:`repro.obs.Telemetry`; records
            ``costmodel.*`` evaluation counters.
    """

    def __init__(self, workload: AnalyzedWorkload, farm: DiskFarm,
                 object_names: Sequence[str], telemetry=NULL_TELEMETRY):
        self._telemetry = telemetry
        self._farm = farm
        self._names = list(object_names)
        self._index = {name: i for i, name in enumerate(self._names)}
        m = len(farm)
        self._seeks = np.array([d.avg_seek_s for d in farm])
        inv_read = np.array([1.0 / d.read_blocks_s for d in farm])
        inv_write = np.array([1.0 / d.write_blocks_s for d in farm])

        # Collect subplans as hashable stream signatures and compress.
        signatures: dict[tuple, float] = {}
        for analyzed in workload:
            for subplan in analyzed.subplans:
                entries = tuple(sorted(
                    (self._index[name], write, round(blocks, 6))
                    for (name, write), blocks
                    in subplan.blocks_by_object(include_temp=False).items()
                    if blocks > 0 and name in self._index))
                if not entries:
                    continue
                signatures[entries] = signatures.get(entries, 0.0) \
                    + analyzed.weight
        self._n_subplans = len(signatures)
        self.n_compressed_from = sum(
            1 for a in workload for s in a.subplans if s.accesses)
        if self._n_subplans == 0:
            self._idx = np.zeros((0, 1), dtype=np.intp)
            self._blocks = np.zeros((0, 1))
            self._mask = np.zeros((0, 1), dtype=bool)
            self._inv = np.zeros((0, 1, m))
            self._weights = np.zeros(0)
        else:
            k_max = max(len(sig) for sig in signatures)
            s_count = self._n_subplans
            self._idx = np.zeros((s_count, k_max), dtype=np.intp)
            self._blocks = np.zeros((s_count, k_max))
            self._mask = np.zeros((s_count, k_max), dtype=bool)
            self._inv = np.zeros((s_count, k_max, m))
            self._weights = np.zeros(s_count)
            for s, (sig, weight) in enumerate(signatures.items()):
                self._weights[s] = weight
                for k, (obj, write, blocks) in enumerate(sig):
                    self._idx[s, k] = obj
                    self._blocks[s, k] = blocks
                    self._mask[s, k] = True
                    self._inv[s, k] = inv_write if write else inv_read
        #: subplan indices touching each object row
        self._touching: list[np.ndarray] = []
        for i in range(len(self._names)):
            rows = np.nonzero(((self._idx == i) & self._mask)
                              .any(axis=1))[0]
            self._touching.append(rows)
        self._init_mutable_state()
        self._telemetry.set_gauge("costmodel.subplans", self._n_subplans)
        self._telemetry.set_gauge("costmodel.subplans_raw",
                                  self.n_compressed_from)

    def _init_mutable_state(self) -> None:
        """Fresh per-search mutable state (base matrix and caches).

        Shared by ``__init__`` and unpickling — anything mutable an
        evaluator owns starts here, so a pool worker's copy never
        carries the sender's search state.
        """
        self._base_matrix: np.ndarray | None = None
        self._base_costs: np.ndarray | None = None
        self._base_total: float = 0.0
        #: Monotone counter identifying the current base layout; bumped
        #: by :meth:`set_base` and :meth:`commit_rows`.  Base-dependent
        #: cache entries are tagged with the epoch they were built at
        #: and are valid only while the tags match.
        self._base_epoch: int = 0
        #: move (object name or group tuple) -> its gathered subplans
        #: and base state
        self._slices: dict[str | tuple[str, ...], _Slice] = {}

    # -- matrix plumbing -----------------------------------------------------

    @property
    def packed_nbytes(self) -> int:
        """Total bytes of the packed evaluation arrays.

        The deterministic size signal the portfolio engine keys its
        serial-or-process choice on
        (:data:`repro.parallel.portfolio.POOL_MIN_PACKED_BYTES`).
        """
        return int(sum(getattr(self, attr).nbytes
                       for attr in PACKED_ARRAYS))

    def bind_telemetry(self, telemetry):
        """Swap the handle recording ``costmodel.*`` counters.

        Returns the previous handle.  A portfolio trajectory reuses one
        evaluator but wants per-trajectory counter attribution: it
        binds its own handle for the run and restores the previous one
        afterwards.
        """
        previous, self._telemetry = self._telemetry, telemetry
        return previous

    @property
    def object_names(self) -> list[str]:
        return list(self._names)

    @property
    def farm(self) -> DiskFarm:
        """The disk farm this evaluator's layouts are defined over."""
        return self._farm

    @property
    def n_subplans(self) -> int:
        """Number of distinct (compressed) subplan signatures."""
        return self._n_subplans

    def matrix_of(self, layout: Layout) -> np.ndarray:
        """The layout's fraction matrix in this evaluator's row order."""
        return np.array([layout.fractions_of(name)
                         for name in self._names])

    def touching_count(self, object_name: str) -> int:
        """How many subplans read ``object_name``.

        The object's delta-evaluation cost is proportional to this;
        benchmarks use it to pick the hottest object.
        """
        return int(self._touching[self._index[object_name]].size)

    # -- evaluation ------------------------------------------------------------

    def _fig7(self, sub: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """Figure 7 over a ``(..., S, K, m)`` stream tensor: ``(..., S)``.

        ``sub[..., s, k, j]`` is the blocks stream ``k`` of subplan
        ``s`` reads on disk ``j``; ``inv`` (broadcastable) holds the
        streams' inverse transfer rates.  Each subplan costs the max
        over disks of transfer time plus the ``k * S_j * min`` seek.
        The streams are reduced along the non-innermost axis ``-2``,
        which numpy sums sequentially: every caller sees the same
        rounding whatever the leading shape.
        """
        transfer = (sub * inv).sum(axis=-2)             # (..., S, m)
        active = sub > EPS_ZERO
        k = active.sum(axis=-2)
        stream_min = np.where(active, sub, np.inf).min(axis=-2,
                                                       initial=np.inf)
        stream_min = np.where(np.isfinite(stream_min), stream_min, 0.0)
        seek = np.where(k > 1, k * self._seeks * stream_min, 0.0)
        return (transfer + seek).max(axis=-1)

    def _subplan_costs(self, matrix: np.ndarray,
                       rows: np.ndarray | None = None) -> np.ndarray:
        """Per-subplan Figure-7 costs; ``rows`` selects a subset."""
        if rows is None:
            idx, blocks, mask, inv = (self._idx, self._blocks,
                                      self._mask, self._inv)
        else:
            idx, blocks, mask, inv = (self._idx[rows],
                                      self._blocks[rows],
                                      self._mask[rows], self._inv[rows])
        # sub[s, k, j]: blocks of stream k on disk j.
        return self._fig7(
            matrix[idx] * blocks[:, :, None] * mask[:, :, None], inv)

    def cost(self, layout: Layout) -> float:
        """Weighted workload cost of a layout."""
        self._telemetry.inc("costmodel.full_evaluations")
        return float(self._subplan_costs(self.matrix_of(layout))
                     @ self._weights)

    # -- delta evaluation ----------------------------------------------------------

    def set_base(self, matrix: np.ndarray) -> float:
        """Fix a base matrix; returns its total cost.

        Subsequent :meth:`costs_for_rows`, :meth:`bounds_for_rows` and
        :meth:`best_for_rows` calls evaluate moves away from this base
        in time proportional to the number of subplans that touch the
        moved objects.
        """
        self._telemetry.inc("costmodel.base_evaluations")
        self._base_matrix = matrix.copy()
        self._base_costs = self._subplan_costs(matrix)
        self._base_total = float(self._base_costs @ self._weights)
        # New base: every slice's base half is stale (the static half
        # survives — it never depends on the base).
        self._base_epoch += 1
        return self._base_total

    def commit_rows(self, rows: dict[str, np.ndarray]) -> float:
        """Adopt row replacements into the base in O(Δ); return the total.

        Equivalent to rebuilding the full matrix and calling
        :meth:`set_base` — bit-identical ``_base_costs`` and total, by
        construction: only the subplans touching a committed object are
        recomputed (each subplan's cost is elementwise-independent of
        the rest), and the total is re-derived as the full dot product
        over the patched per-subplan costs rather than accumulated
        incrementally.  A slice current at the previous epoch whose
        move's subplans are disjoint from the committed ones stays
        valid and is re-tagged to the new epoch; every other slice
        rebuilds its base half on next use.

        This is what makes an adopted search move cheap: greedy and
        annealing call this after every accepted move instead of
        re-evaluating all ``S`` subplans from scratch.
        """
        if self._base_matrix is None or self._base_costs is None:
            raise LayoutError("set_base() must be called before "
                              "commit_rows()")
        self._telemetry.inc("costmodel.commit_evaluations")
        objects = [self._index[name] for name in rows]
        for i, row in zip(objects, rows.values()):
            self._base_matrix[i] = row
        touched = self._touched(objects)
        affected = np.flatnonzero(touched)
        previous = self._base_epoch
        self._base_epoch += 1
        if affected.size:
            self._base_costs[affected] = self._subplan_costs(
                self._base_matrix, rows=affected)
            self._base_total = float(self._base_costs @ self._weights)
        for entry in self._slices.values():
            if entry.epoch == previous \
                    and not touched[entry.affected].any():
                entry.epoch = self._base_epoch
        return self._base_total

    def cost_with_rows(self, rows: dict[str, np.ndarray]) -> float:
        """Cost of the base matrix with several rows replaced at once.

        One candidate of :meth:`costs_for_rows` for the move
        ``tuple(rows)``: the same kernel and slice cache the search
        uses.
        """
        candidate = np.asarray(list(rows.values()), dtype=float).reshape(
            1, len(rows), len(self._farm))
        return float(self.costs_for_rows(tuple(rows), candidate)[0])

    def _slice(self, move: str | tuple[str, ...]) -> _Slice:
        """The move's slice, its base half current at this epoch (a
        move that touches no subplan has no base half)."""
        entry = self._slices.get(move)
        if entry is None:
            entry = self._slices[move] = self._gather(move)
        if entry.epoch != self._base_epoch and entry.affected.size:
            entry.epoch = self._base_epoch
            entry.base_sub = self._base_matrix[entry.idx] \
                * entry.blocks_mask
            entry.affected_base = float(
                self._base_costs[entry.affected] @ entry.weights)
            entry.other_transfer = None
        return entry

    def _gather(self, move: str | tuple[str, ...]) -> _Slice:
        """The static half of a move's slice: the subplans touching any
        member, and each member's streams and transfer coefficients."""
        members = np.array([self._index[name] for name in
                            ((move,) if isinstance(move, str) else move)],
                           dtype=np.intp)
        affected = np.flatnonzero(self._touched(members))
        idx = self._idx[affected]
        blocks_mask = self._blocks[affected][:, :, None] \
            * self._mask[affected][:, :, None]
        inv = self._inv[affected]
        # owner[g, s, k]: stream k of subplan s belongs to member g.
        owner = idx[None] == members[:, None, None]
        return _Slice(
            affected=affected, idx=idx, blocks_mask=blocks_mask, inv=inv,
            is_target=owner.any(axis=0)[:, :, None],
            member=owner.argmax(axis=0) if len(members) > 1 else None,
            weights=self._weights[affected],
            target_coeff=tuple(
                (np.where(owner[..., None], blocks_mask, 0.0) * inv)
                .sum(axis=2)))

    def _touched(self, objects: Iterable[int]) -> np.ndarray:
        """``(S,)`` mask of the subplans that touch any of ``objects``
        (object rows)."""
        touched = np.zeros(self._n_subplans, dtype=bool)
        for i in objects:
            touched[self._touching[i]] = True
        return touched

    def _auto_chunk(self, n_affected: int) -> int:
        """Deterministic chunk size for one vectorized pass.

        Sized so the ``(chunk, S_affected, K, m)`` float64 candidate
        tensor stays near :data:`_CHUNK_TARGET_BYTES`; clamped to
        ``[_CHUNK_MIN, _CHUNK_MAX]``.  Depends only on array shapes, so
        results and evaluation counts never vary with the machine.
        """
        k_max = max(1, self._idx.shape[1] if self._idx.ndim == 2 else 1)
        per_row = max(1, n_affected) * k_max * max(1, len(self._farm)) * 8
        return max(_CHUNK_MIN, min(_CHUNK_MAX,
                                   _CHUNK_TARGET_BYTES // per_row))

    def costs_for_rows(self, move: str | tuple[str, ...],
                       rows: np.ndarray) -> np.ndarray:
        """Costs of many candidate moves away from the base, batched.

        Candidate ``c`` costs the base with the move's rows replaced by
        ``rows[c]``.  Only the subplans touching a member are
        re-costed, a chunk of candidates (:meth:`_auto_chunk`) per
        vectorized pass — the hot loop of the greedy search, and one
        row at a time annealing's proposal cost.

        Args:
            move: The object whose fraction row varies, or the tuple of
                a co-location group's members.
            rows: Candidate rows: ``(C, m)`` for one object, or
                ``(C, G, m)`` with ``rows[c, g]`` member ``g``'s row.

        Returns:
            Array of ``C`` total workload costs.
        """
        if self._base_matrix is None or self._base_costs is None:
            raise LayoutError("set_base() must be called before "
                              "costs_for_rows()")
        self._telemetry.inc("costmodel.batch_evaluations")
        self._telemetry.inc("costmodel.batch_rows", len(rows))
        rows = _move_rows(rows)
        entry = self._slice(move)
        if entry.affected.size == 0:
            return np.full(len(rows), self._base_total)
        chunk = self._auto_chunk(entry.affected.size)
        out = np.empty(len(rows))
        for start in range(0, len(rows), chunk):
            batch = rows[start:start + chunk]                # (C, G, m)
            # Each stream's candidate row: a broadcast view for a lone
            # object, a gather for a group.
            spread = batch[:, :, None, :] if entry.member is None \
                else batch[:, entry.member]
            # (C, S, K, m): base streams, with the members' streams
            # re-spread per candidate row.
            sub = np.where(entry.is_target[None],
                           spread * entry.blocks_mask[None],
                           entry.base_sub[None])
            out[start:start + chunk] = self._base_total \
                - entry.affected_base \
                + self._fig7(sub, entry.inv) @ entry.weights
        return out

    # -- transfer-only lower bound ----------------------------------------------

    def bounds_for_rows(self, move: str | tuple[str, ...],
                        rows: np.ndarray) -> np.ndarray:
        """Lower bounds on :meth:`costs_for_rows`, one per candidate.

        For the subplans touching the move only the seek-free transfer
        term is charged (a per-subplan underestimate while subplan
        weights are non-negative); every untouched subplan keeps its
        exact base cost.  The result therefore never exceeds the true
        candidate cost, and costs ``O(C * S_affected * m)`` — no
        per-stream axis and no seek bookkeeping, an order of magnitude
        cheaper than full evaluation.
        """
        if self._base_matrix is None or self._base_costs is None:
            raise LayoutError("set_base() must be called before "
                              "bounds_for_rows()")
        rows = _move_rows(rows)
        self._telemetry.inc("costmodel.bound_evaluations", len(rows))
        entry = self._slice(move)
        if entry.affected.size == 0:
            return np.full(len(rows), self._base_total)
        if entry.other_transfer is None:
            # Transfer per disk splits into each member's streams
            # (``target_coeff``, scaled by its candidate row) and
            # everything else (constant across candidates).
            entry.other_transfer = (
                np.where(entry.is_target, 0.0, entry.base_sub)
                * entry.inv).sum(axis=1)                 # (S, m)
        # (C, S, m): candidate transfer time per subplan and disk.
        transfer = entry.other_transfer
        for g, coeff in enumerate(entry.target_coeff):
            transfer = transfer + rows[:, g, None] * coeff
        bound = transfer.max(axis=2) @ entry.weights      # (C,)
        return self._base_total - entry.affected_base + bound

    # -- fused prune + evaluate --------------------------------------------------

    def best_for_rows(self, move: str | tuple[str, ...], rows: np.ndarray,
                      incumbent: float, prune: bool = True,
                      ) -> tuple[float, int, int]:
        """Fused prune+evaluate: the best candidate of one move, one call.

        Computes transfer-only lower bounds for all ``C`` candidates in
        one vectorized pass, fully evaluates only the survivors (bound
        below the incumbent), and replays the search's sequential
        epsilon acceptance over the survivor costs — so the selected
        candidate, the winning cost, and the pruned count are
        bit-identical to the unfused ``bounds_for_rows`` →
        ``costs_for_rows`` → Python-loop composition it replaces.

        Args:
            move: The object, or co-location group, that moves.
            rows: Candidate rows, as :meth:`costs_for_rows` takes them.
            incumbent: The cost to beat (the search's running best).
            prune: Disable to evaluate every candidate (results are
                identical; only the evaluation count changes).

        Returns:
            ``(best_cost, best_index, n_pruned)``.  ``best_index`` is
            the index into ``rows`` of the accepted candidate, or
            ``-1`` when nothing beats the incumbent by ``EPS_COST`` —
            in which case ``best_cost`` is the incumbent, unchanged.
        """
        rows = np.asarray(rows, dtype=float)
        self._telemetry.inc("costmodel.fused_evaluations")
        if len(rows) == 0:
            return float(incumbent), -1, 0
        if prune:
            bounds = self.bounds_for_rows(move, rows)
            keep = np.nonzero(bounds < incumbent - EPS_COST)[0]
            pruned = len(rows) - int(keep.size)
        else:
            keep = np.arange(len(rows))
            pruned = 0
        if keep.size == 0:
            return float(incumbent), -1, pruned
        costs = self.costs_for_rows(move, rows[keep])
        best_cost = float(incumbent)
        best_index = -1
        # Sequential epsilon acceptance, not argmin: each later
        # candidate must beat the *running* best by EPS_COST, exactly
        # the tie-breaking the greedy loop has always used.  An
        # accepted candidate is strictly below every earlier cost
        # (accepted ones by > EPS_COST; rejected ones were >= the
        # then-best - EPS_COST, which the acceptance undercuts), so
        # only strict prefix minima can be accepted — the Python loop
        # replaying the rule runs over those few, not all survivors.
        running_min = np.minimum.accumulate(costs)
        contender = np.empty(costs.size, dtype=bool)
        contender[0] = True
        np.less(costs[1:], running_min[:-1], out=contender[1:])
        for position in np.nonzero(contender)[0]:
            candidate_cost = costs[position]
            if candidate_cost < best_cost - EPS_COST:
                best_cost = float(candidate_cost)
                best_index = int(keep[position])
        return best_cost, best_index, pruned

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        """The evaluator minus its telemetry handle and search state.

        A spawned pool worker unpickles the evaluator once; a handle
        with a file sink cannot be pickled, and the sender's base
        matrix and caches mean nothing to the worker.
        """
        # The search state is whatever _init_mutable_state sets.
        blank = WorkloadCostEvaluator.__new__(WorkloadCostEvaluator)
        blank._init_mutable_state()
        return {name: value for name, value in vars(self).items()
                if name != "_telemetry" and name not in vars(blank)}

    def __setstate__(self, state: dict) -> None:
        """Rebuild with the no-op handle and fresh search state."""
        vars(self).update(state)
        self._telemetry = NULL_TELEMETRY
        self._init_mutable_state()

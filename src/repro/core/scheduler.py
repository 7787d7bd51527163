"""Iterative modulo scheduling (Section 3, Figures 2-4).

:func:`modulo_schedule` is the paper's procedure ``ModuloSchedule``: it
computes the MII, then calls the inner scheduler (:class:`IterativeScheduler`,
the paper's ``IterativeSchedule``) for successively larger candidate IIs
until one succeeds within the operation-scheduling budget
``BudgetRatio * NumberOfOperations``.

The inner scheduler differs from acyclic list scheduling exactly as the
paper describes:

* it is an *operation* scheduler — the highest-priority unscheduled
  operation is picked even if predecessors are currently unscheduled, and
  the same operation may be picked repeatedly after being displaced;
* priorities are HeightR (Figure 5a);
* Estart considers only *currently scheduled* predecessors (Figure 5b);
* only II contiguous candidate time slots are tried, on a modulo
  reservation table;
* when no conflict-free slot exists, a slot is forced with the
  forward-progress rule of Figure 4, and every operation conflicting with
  any of the opcode's alternatives is displaced (Section 3.4), along with
  any dependence-violated successors.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.deadline import Deadline, check_deadline
from repro.core.heights import height_r
from repro.core.mii import MIIResult, compute_mii
from repro.core.mrt import (
    ModuloReservations,
    make_modulo_reservations,
    resolve_mrt_impl,
)
from repro.core.schedule import Schedule
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph, GraphError
from repro.machine.resources import ReservationTable


#: FindTimeSlot probing strategies; "batch" answers a whole II-wide
#: window across all alternatives with a handful of mask rotations.
SLOT_IMPLS = ("batch", "scalar")

#: Environment override consulted when no explicit ``slot_impl`` is given.
SLOT_IMPL_ENV = "REPRO_SLOT_IMPL"


def resolve_slot_impl(impl: Optional[str] = None) -> str:
    """Pick the FindTimeSlot strategy: explicit arg > environment > batch."""
    choice = (
        impl if impl is not None else os.environ.get(SLOT_IMPL_ENV, "batch")
    )
    if choice not in SLOT_IMPLS:
        raise ValueError(
            f"unknown slot implementation {choice!r}; "
            f"choose from {SLOT_IMPLS}"
        )
    return choice


class SchedulingFailure(RuntimeError):
    """No modulo schedule was found up to the II cap.

    The exception carries the whole search trajectory — every candidate
    II attempted and the scheduling steps burned at each — so a failure
    record (or a quarantine entry) is actionable without re-running the
    scheduler.  It pickles cleanly through worker pools.
    """

    def __init__(
        self,
        message: str,
        attempted_iis: Optional[List[int]] = None,
        steps_by_ii: Optional[Dict[int, int]] = None,
        budget: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.attempted_iis = list(attempted_iis or [])
        self.steps_by_ii = dict(steps_by_ii or {})
        self.budget = budget

    def detail(self) -> Dict[str, object]:
        """JSON-compatible search trajectory for structured failure records."""
        return {
            "attempted_iis": list(self.attempted_iis),
            "steps_by_ii": {
                str(ii): steps for ii, steps in self.steps_by_ii.items()
            },
            "budget_per_ii": self.budget,
            "steps_total": sum(self.steps_by_ii.values()),
        }

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.attempted_iis, self.steps_by_ii, self.budget),
        )


@dataclass(frozen=True)
class AttemptRecord:
    """One candidate-II attempt by one backend, normalized across backends.

    Historically the budget/attempt bookkeeping lived only in
    :func:`modulo_schedule`'s per-call totals, so a degradation-ladder
    run (full IMS, then relaxed IMS, then the list fallback) reported
    only the *last* call's attempts and nothing recorded which scheduler
    produced which rung.  Attempt records fix that: every backend tags
    each candidate II it tries with its own name, the ladder concatenates
    the records across rungs, and the journal payload carries the full
    sequence.

    ``steps`` is the backend's unit of search effort — operation
    scheduling steps for the heuristic schedulers, solver conflicts for
    the exact backend.
    """

    backend: str
    ii: int
    success: bool
    steps: int
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form for cache/journal payloads."""
        return {
            "backend": self.backend,
            "ii": self.ii,
            "success": self.success,
            "steps": self.steps,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AttemptRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            backend=data["backend"],
            ii=int(data["ii"]),
            success=bool(data["success"]),
            steps=int(data["steps"]),
            reason=data.get("reason", ""),
        )


@dataclass
class _AttemptResult:
    """Outcome of one IterativeSchedule invocation at a fixed II."""

    success: bool
    times: Dict[int, int]
    alternatives: Dict[int, Optional[ReservationTable]]
    steps: int


@dataclass
class ModuloScheduleResult:
    """Outcome of the full ModuloSchedule procedure.

    Attributes
    ----------
    schedule:
        The legal modulo schedule that was found.
    mii_result:
        The MII computation the search started from.
    budget_ratio:
        The BudgetRatio used.
    attempts:
        Number of candidate II values tried (the successful one included).
    steps_total:
        Operation scheduling steps across *all* attempts — the quantity the
        paper's aggregate scheduling inefficiency (Figure 6) is built from.
    steps_last:
        Steps in the successful attempt only (Table 3's "number of nodes
        scheduled" uses this).
    counters:
        Instrumentation accumulated over the whole run.
    backend:
        Registered name of the scheduler backend that produced the
        schedule (``"ims"`` for this module's heuristic search).
    optimal:
        ``True`` when the II is *proven* minimal (the exact backend's
        claim, or II == MII), ``False`` when proven non-minimal, and
        ``None`` when nothing proved anything either way — the heuristic
        backends always report ``None`` unless II == MII.
    attempt_records:
        Per-candidate-II :class:`AttemptRecord` sequence, each tagged
        with the backend that ran the attempt (the degradation ladder
        concatenates records across its rungs).
    certificates:
        For the exact backend: ``{ii: unsat-certificate}`` for every II
        it refuted below the achieved one (solver statistics + encoding
        shape; empty for heuristic backends).
    """

    schedule: Schedule
    mii_result: MIIResult
    budget_ratio: float
    attempts: int
    steps_total: int
    steps_last: int
    counters: Counters
    backend: str = "ims"
    optimal: Optional[bool] = None
    attempt_records: List[AttemptRecord] = field(default_factory=list)
    certificates: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ii(self) -> int:
        """The achieved initiation interval."""
        return self.schedule.ii

    @property
    def delta_ii(self) -> int:
        """Achieved II minus the MII lower bound (0 means optimal-vs-bound)."""
        return self.schedule.ii - self.mii_result.mii

    @property
    def ii_ratio(self) -> float:
        """Achieved II over the MII lower bound (1.0 = optimal-vs-bound)."""
        return self.schedule.ii / self.mii_result.mii

    @property
    def schedule_length(self) -> int:
        """SL of the found schedule (one iteration, issue to completion)."""
        return self.schedule.schedule_length

    @property
    def inefficiency(self) -> float:
        """Nodes scheduled per node, within the successful attempt."""
        return self.steps_last / self.schedule.graph.n_ops

    @property
    def heuristic_ii(self) -> Optional[int]:
        """II the heuristic (non-exact) search achieved for this loop.

        For a heuristic backend this is the achieved II itself.  For the
        exact backend it is the II of the successful IMS attempt that
        seeded the upper bound — the quantity the optimality-gap study
        compares against the proven-minimal II — or ``None`` when the
        heuristic found nothing.
        """
        for record in self.attempt_records:
            if record.backend != "exact" and record.success:
                return record.ii
        return self.ii if self.backend != "exact" else None

    @property
    def optimality_gap(self) -> Optional[int]:
        """``heuristic II − proven-minimal II`` (None unless proven)."""
        if self.optimal is not True or self.heuristic_ii is None:
            return None
        return self.heuristic_ii - self.ii


def _priority_heightr(graph: DependenceGraph, ii: int, counters) -> List[int]:
    """The paper's HeightR priority (Figure 5a) — the default."""
    return height_r(graph, ii, counters)


def _priority_input_order(graph: DependenceGraph, ii: int, counters) -> List[int]:
    """Ablation: schedule in (reverse) input order, ignoring structure."""
    return [graph.n_ops - op for op in range(graph.n_ops)]


def _priority_fanout(graph: DependenceGraph, ii: int, counters) -> List[int]:
    """Ablation: prioritize by immediate successor count only."""
    return [len(graph.succ_edges(op)) for op in range(graph.n_ops)]


#: Priority schemes selectable by name; ``"heightr"`` is the paper's.
PRIORITY_SCHEMES = {
    "heightr": _priority_heightr,
    "input_order": _priority_input_order,
    "fanout": _priority_fanout,
}


class IterativeScheduler:
    """One invocation of ``IterativeSchedule`` (Figure 3) at a fixed II."""

    #: Whether a failed FindTimeSlot may force a slot and displace
    #: conflicting operations.  The greedy (non-iterative) subclass turns
    #: this off to quantify what iteration itself buys.
    allow_displacement = True

    def __init__(
        self,
        graph: DependenceGraph,
        machine,
        ii: int,
        counters: Optional[Counters] = None,
        priority: str = "heightr",
        trace=None,
        mrt_impl: Optional[str] = None,
        deadline: Optional[Deadline] = None,
        slot_impl: Optional[str] = None,
    ) -> None:
        if not graph.sealed:
            raise GraphError(f"graph {graph.name!r} must be sealed")
        self.graph = graph
        self.machine = machine
        self.ii = ii
        self.counters = counters if counters is not None else Counters()
        self.trace = trace
        self.deadline = deadline
        self.mrt_impl = resolve_mrt_impl(mrt_impl)
        self.slot_impl = resolve_slot_impl(slot_impl)
        self._slot_batch_probes = 0
        try:
            scheme = PRIORITY_SCHEMES[priority]
        except KeyError:
            raise ValueError(
                f"unknown priority scheme {priority!r}; "
                f"choose from {sorted(PRIORITY_SCHEMES)}"
            ) from None
        self.heights = scheme(graph, ii, self.counters)

    # ------------------------------------------------------------------

    def _prepare(self) -> Optional[_AttemptResult]:
        """Per-attempt setup shared by both scheduling styles.

        Complex reservation tables can fold onto themselves at specific
        IIs (same resource at offsets differing by a multiple of II);
        such alternatives are unplaceable at this II.  If any operation
        loses every alternative, the II is infeasible outright and a
        failed attempt is returned; otherwise None.
        """
        graph = self.graph
        self._mrt = make_modulo_reservations(
            self.ii, machine=self.machine, impl=self.mrt_impl
        )
        mask_set = None
        if self.mrt_impl == "mask":
            compiled_masks = getattr(self.machine, "compiled_masks", None)
            if compiled_masks is not None:
                mask_set = compiled_masks(self.ii)
        self._feasible_alts: Dict[str, tuple] = {}
        for operation in graph.real_operations():
            if operation.opcode in self._feasible_alts:
                continue
            if mask_set is not None:
                # Self-conflicting alternatives were rejected once at
                # mask-compile time; reuse that verdict per (machine, II).
                usable = mask_set.feasible(operation.opcode)
            else:
                usable = tuple(
                    alt
                    for alt in self.machine.opcode(
                        operation.opcode
                    ).alternatives
                    if not self._mrt.self_conflicting(alt)
                )
            if not usable:
                return _AttemptResult(False, {}, {}, 0)
            self._feasible_alts[operation.opcode] = usable
        # Hot-loop views: pseudo flags, opcodes, successor edge lists,
        # and raw predecessor edges.  All of it is II-independent for a
        # sealed graph, so it is computed once and cached on the graph
        # (``graph.succ_edges`` copies into a fresh tuple per call —
        # thousands of calls per attempt otherwise); only the
        # II-resolved weights below are rebuilt per attempt.
        cache = getattr(graph, "_sched_cache", None)
        if cache is None:
            all_ops = [graph.operation(op) for op in range(graph.n_ops)]
            pred_raw = []
            for op in range(graph.n_ops):
                entries = []
                count = 0
                for edge in graph.pred_edges(op):
                    count += 1
                    if edge.pred == op:
                        continue
                    entries.append((edge.pred, edge.delay, edge.distance))
                pred_raw.append((tuple(entries), count))
            cache = graph._sched_cache = (
                [operation.is_pseudo for operation in all_ops],
                [
                    None if operation.is_pseudo else operation.opcode
                    for operation in all_ops
                ],
                [graph.succ_edges(op) for op in range(graph.n_ops)],
                pred_raw,
            )
        self._is_pseudo, opcodes, self._succ_lists, pred_raw = cache
        self._op_alts = [
            None if opcode is None else self._feasible_alts[opcode]
            for opcode in opcodes
        ]
        # Batched FindTimeSlot needs the bitmask MRT's occupancy integer;
        # the dict oracle keeps the scalar scan (exactly as recorded in
        # the as-if probe accounting, so counters agree either way).
        self._batch_slots = (
            self.slot_impl == "batch"
            and type(self._mrt) is ModuloReservations
        )
        # Estart sweeps run once per scheduling step (and per readiness
        # probe in the instruction-driven style); precompute each
        # operation's predecessor array with the II-resolved edge weight
        # ``delay - II*distance`` so the sweep is a max over pairs — and
        # a vectorized numpy max for high-fanin operations.
        n_ops = graph.n_ops
        ii = self.ii
        pred_pairs: List[tuple] = [
            tuple(
                (pred, delay - ii * distance)
                for pred, delay, distance in entries
            )
            for entries, _ in pred_raw
        ]
        self._pred_pairs = pred_pairs
        self._pred_counts = [count for _, count in pred_raw]
        self._pred_vec: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        wide = [op for op in range(n_ops) if len(pred_pairs[op]) >= 16]
        for op in wide:
            arr = np.array(pred_pairs[op], dtype=np.int64)
            self._pred_vec[op] = (arr[:, 0], arr[:, 1].astype(float))
        self._time_arr = (
            np.full(n_ops, -np.inf) if wide else None
        )
        # Dense slot array: None marks unscheduled.  Indexing beats a
        # dict in the Estart sweep, the hottest read in the attempt.
        self._times: List[Optional[int]] = [None] * n_ops
        self._alts: Dict[int, Optional[ReservationTable]] = {}
        self._prev_time: Dict[int, int] = {}
        self._never_scheduled: Set[int] = set(range(graph.n_ops))
        self._unscheduled: Set[int] = set(range(1, graph.n_ops))
        self._heap: List[Tuple[int, int]] = [
            (-self.heights[op], op) for op in self._unscheduled
        ]
        heapq.heapify(self._heap)
        return None

    def run(self, budget: int) -> _AttemptResult:
        """Attempt to schedule every operation within ``budget`` steps."""
        graph = self.graph
        dead = self._prepare()
        if dead is not None:
            return dead
        steps = 0

        # START is pinned at time 0 (Figure 3) and consumes no resources.
        self._place(graph.START, 0, None)
        steps += 1

        while self._unscheduled and steps < budget:
            # Cooperative watchdog: one clock read every 32 steps keeps
            # the overhead unmeasurable while bounding a wedged attempt.
            if self.deadline is not None and (steps & 31) == 0:
                self.deadline.check("scheduling")
            op = self._pop_highest_priority()
            estart = self._calculate_early_start(op)
            if self.trace is not None:
                self.trace.pick(op, estart)
            min_time = estart
            max_time = min_time + self.ii - 1
            slot, alternative = self._find_time_slot(op, min_time, max_time)
            if (
                alternative is None
                and not self._is_pseudo[op]
                and not self.allow_displacement
            ):
                # Greedy mode: no conflict-free slot means this II is
                # abandoned on the spot — no unscheduling, no retries.
                break
            self._schedule(op, slot, alternative)
            steps += 1

        return _AttemptResult(
            success=not self._unscheduled,
            times={
                op: t for op, t in enumerate(self._times) if t is not None
            },
            alternatives=dict(self._alts),
            steps=steps,
        )

    # ------------------------------------------------------------------

    def _pop_highest_priority(self) -> int:
        """HighestPriorityOperation: lazy-deletion max-heap on HeightR."""
        while self._heap:
            _, op = heapq.heappop(self._heap)
            if op in self._unscheduled:
                return op
        raise AssertionError("heap empty while operations remain unscheduled")

    def _calculate_early_start(self, op: int) -> int:
        """Estart per Figure 5b: only scheduled predecessors constrain.

        The sweep runs over the per-operation predecessor arrays built in
        :meth:`_prepare` (weights already II-resolved); high-fanin
        operations take a vectorized numpy max over the scheduled-time
        array, where unscheduled predecessors sit at −inf and drop out of
        the max for free.
        """
        self.counters.estart_preds += self._pred_counts[op]
        vec = self._pred_vec.get(op)
        if vec is not None:
            best = float(np.max(self._time_arr[vec[0]] + vec[1]))
            return int(best) if best > 0 else 0
        estart = 0
        times = self._times
        for pred, weight in self._pred_pairs[op]:
            pred_time = times[pred]
            if pred_time is None:
                continue
            candidate = pred_time + weight
            if candidate > estart:
                estart = candidate
        return estart

    def _find_time_slot(
        self, op: int, min_time: int, max_time: int
    ) -> Tuple[int, Optional[ReservationTable]]:
        """FindTimeSlot per Figure 4, extended over the opcode alternatives.

        Returns ``(slot, alternative)``; ``alternative`` is ``None`` when
        the slot was forced (the caller then displaces conflicting
        operations) or when the operation is a pseudo-operation.
        """
        if self._is_pseudo[op]:
            self.counters.findtimeslot_iters += 1
            return min_time, None
        alternatives = self._op_alts[op]
        if self._batch_slots:
            # One mask/rotate sweep answers the whole II-wide window over
            # every alternative; ``findtimeslot_iters`` still records the
            # (slot, alternative) pairs the scalar scan would have probed.
            self._slot_batch_probes += 1
            time, index = self._mrt.first_free_slot(alternatives, min_time)
            if time is not None:
                self.counters.findtimeslot_iters += (
                    (time - min_time) * len(alternatives) + index + 1
                )
                return time, alternatives[index]
            self.counters.findtimeslot_iters += self.ii * len(alternatives)
        else:
            for time in range(min_time, max_time + 1):
                for alternative in alternatives:
                    self.counters.findtimeslot_iters += 1
                    if not self._mrt.conflicts(alternative, time):
                        return time, alternative
        # No conflict-free slot: pick one that guarantees forward progress.
        if op in self._never_scheduled or min_time > self._prev_time[op]:
            return min_time, None
        return self._prev_time[op] + 1, None

    def _schedule(
        self, op: int, slot: int, alternative: Optional[ReservationTable]
    ) -> None:
        """Schedule per Figure 3's note: displace whatever conflicts."""
        forced = False
        if not self._is_pseudo[op]:
            alternatives = self._op_alts[op]
            if alternative is None:
                # Forced placement (Section 3.4): displace every operation
                # conflicting with *any* alternative, then take the first.
                forced = True
                for victim in sorted(
                    self._mrt.conflicting_ops(alternatives, slot)
                ):
                    self._unschedule(victim, culprit=op)
                alternative = alternatives[0]
        if forced:
            self.counters.ops_forced += 1
        if self.trace is not None:
            if forced:
                self.trace.force(op, slot)
            else:
                self.trace.place(
                    op, slot, alternative.name if alternative else "pseudo"
                )
        self._place(op, slot, alternative)
        # Displace dependence-violated successors; predecessors were
        # honoured through Estart.
        times = self._times
        ii = self.ii
        for edge in self._succ_lists[op]:
            if edge.succ == op:
                continue
            succ_time = times[edge.succ]
            if succ_time is None:
                continue
            if succ_time < slot + edge.delay - ii * edge.distance:
                self._unschedule(edge.succ, culprit=op)

    def _place(
        self, op: int, slot: int, alternative: Optional[ReservationTable]
    ) -> None:
        if alternative is not None:
            self._mrt.reserve(op, alternative, slot)
            # The MRT's fast path works on CompiledAlternative wrappers;
            # the schedule itself records the underlying table.
            alternative = getattr(alternative, "table", alternative)
        self._times[op] = slot
        if self._time_arr is not None:
            self._time_arr[op] = slot
        self._alts[op] = alternative
        self._prev_time[op] = slot
        self._unscheduled.discard(op)
        self._never_scheduled.discard(op)
        self.counters.ops_scheduled += 1

    def _unschedule(self, op: int, culprit: int = -1) -> None:
        if op == self.graph.START:
            raise AssertionError("START must never be displaced")
        if self.trace is not None:
            self.trace.displace(op, self._times[op], culprit)
        self._mrt.release(op)
        self._times[op] = None
        if self._time_arr is not None:
            self._time_arr[op] = -np.inf
        del self._alts[op]
        self._unscheduled.add(op)
        heapq.heappush(self._heap, (-self.heights[op], op))
        self.counters.ops_unscheduled += 1


class GreedyScheduler(IterativeScheduler):
    """Non-iterative ablation: list scheduling onto the MRT.

    Identical to :class:`IterativeScheduler` except that nothing is ever
    displaced: if the highest-priority operation finds no conflict-free
    slot in its II-wide window, the candidate II is abandoned
    immediately.  This is modulo scheduling *without* the paper's
    contribution, and the ablation benchmark measures how much II (and
    how many wasted attempts) that costs on complex reservation tables.
    """

    allow_displacement = False


def default_max_ii(graph: DependenceGraph, mii: int) -> int:
    """A generous cap on the II search.

    Once II exceeds the total resource occupancy of one iteration, every
    II-wide window contains a conflict-free slot, so failures beyond a cap
    proportional to the sequential schedule length indicate a bug rather
    than a hard loop; we cap at twice that plus slack.
    """
    sequential = sum(
        max(1, graph.latency(op.index)) for op in graph.real_operations()
    )
    return 2 * max(mii, sequential) + 32


def modulo_schedule(
    graph: DependenceGraph,
    machine,
    budget_ratio: float = 2.0,
    counters: Optional[Counters] = None,
    mii_result: Optional[MIIResult] = None,
    max_ii: Optional[int] = None,
    exact_mii: bool = True,
    priority: str = "heightr",
    style: str = "operation",
    trace=None,
    obs=None,
    mrt_impl: Optional[str] = None,
    deadline: Optional[Deadline] = None,
    slot_impl: Optional[str] = None,
) -> ModuloScheduleResult:
    """ModuloSchedule (Figure 2): find a legal modulo schedule.

    Parameters
    ----------
    graph:
        A sealed dependence graph.
    machine:
        The machine description providing reservation-table alternatives.
    budget_ratio:
        The paper's BudgetRatio: the budget for each candidate II is
        ``budget_ratio * NumberOfOperations``.  The paper finds ~2 to be
        the sweet spot (Figure 6); 6 reproduces the quality-oriented
        setting of the Table 3 experiments.
    counters:
        Optional instrumentation accumulator.
    mii_result:
        A precomputed MII (to avoid recomputation in sweeps).
    max_ii:
        Cap on the II search; :class:`SchedulingFailure` is raised beyond it.
    exact_mii:
        Forwarded to :func:`repro.core.mii.compute_mii` when ``mii_result``
        is not supplied.
    priority:
        Name of the scheduling priority scheme (see ``PRIORITY_SCHEMES``);
        ``"heightr"`` is the paper's, the others exist for ablations.
    style:
        ``"operation"`` (the paper's operation scheduler),
        ``"instruction"`` (the footnoted time-cursor style, implemented in
        :mod:`repro.core.instruction_scheduler`), or ``"greedy"``
        (non-iterative: no displacement, for the ablation study).
    trace:
        Optional :class:`repro.core.trace.ScheduleTrace` receiving every
        pick / place / force / displace decision.
    obs:
        Optional :class:`repro.obs.ObsContext`.  Each IterativeSchedule
        attempt becomes a ``schedule.attempt`` span carrying the
        candidate II, the budget burn-down (steps used / remaining) and
        the displacement/force counts of that attempt; deterministic
        outcome metrics (attempts, delta II, per-attempt steps, MRT
        conflict-probe counts ``mrt.conflict_checks`` /
        ``mrt.mask_fastpath``) land in the metrics registry.
    mrt_impl:
        Reservation-table implementation: ``"mask"`` (the bitmask fast
        path, the default), ``"dict"`` (the original dict-of-cells
        oracle), or ``None`` to consult ``REPRO_MRT_IMPL``.
    slot_impl:
        FindTimeSlot strategy: ``"batch"`` (the default — one
        mask/rotate sweep per window over all alternatives, bitmask MRT
        only; the dict oracle always scans), ``"scalar"`` (the per-slot,
        per-alternative scan), or ``None`` to consult
        ``REPRO_SLOT_IMPL``.  Schedules and counters are identical
        either way.
    deadline:
        Optional cooperative :class:`repro.core.deadline.Deadline`.
        Checked before every II attempt and every 32 operation-scheduling
        steps within an attempt (and threaded into the MII computation
        when one happens here); expiry raises
        :class:`repro.core.deadline.DeadlineExceeded`, which the corpus
        engine's degradation ladder turns into a fallback schedule.

    Raises
    ------
    SchedulingFailure
        If no schedule is found for any II up to ``max_ii``.  The
        exception records every attempted II and the steps spent on it.
    repro.core.deadline.DeadlineExceeded
        If ``deadline`` expires mid-search.
    """
    if budget_ratio < 1.0:
        raise ValueError("budget_ratio below 1 cannot schedule every operation")
    if style == "operation":
        scheduler_class = IterativeScheduler
    elif style == "greedy":
        scheduler_class = GreedyScheduler
    elif style == "instruction":
        from repro.core.instruction_scheduler import InstructionDrivenScheduler

        scheduler_class = InstructionDrivenScheduler
    else:
        raise ValueError(
            f"unknown scheduling style {style!r}; "
            "choose 'operation' or 'instruction'"
        )
    from repro.obs.context import NULL_OBS

    obs = obs if obs is not None else NULL_OBS
    counters = counters if counters is not None else Counters()
    if mii_result is None:
        mii_result = compute_mii(
            graph, machine, counters, exact=exact_mii, obs=obs,
            deadline=deadline,
        )
    if max_ii is None:
        max_ii = default_max_ii(graph, mii_result.mii)
    budget = int(budget_ratio * graph.n_ops)
    attempts = 0
    steps_total = 0
    steps_by_ii: Dict[int, int] = {}
    records: List[AttemptRecord] = []
    ii = mii_result.mii
    with obs.span(
        "schedule", graph=graph.name, style=style, mii=mii_result.mii
    ) as schedule_span:
        while ii <= max_ii:
            check_deadline(deadline, "modulo_schedule II search")
            attempts += 1
            counters.ii_attempts += 1
            if trace is not None:
                trace.attempt(ii)
            displaced_before = counters.ops_unscheduled
            forced_before = counters.ops_forced
            with obs.span("schedule.attempt", ii=ii) as attempt_span:
                scheduler = scheduler_class(
                    graph, machine, ii, counters, priority=priority,
                    trace=trace, mrt_impl=mrt_impl, deadline=deadline,
                    slot_impl=slot_impl,
                )
                attempt = scheduler.run(budget)
            steps_by_ii[ii] = attempt.steps
            mrt = getattr(scheduler, "_mrt", None)
            if mrt is not None:
                obs.counter("mrt.conflict_checks").inc(mrt.checks)
                obs.counter("mrt.mask_fastpath").inc(mrt.fastpath_checks)
            obs.counter("sched.slot_batch_probes").inc(
                scheduler._slot_batch_probes
            )
            attempt_span.set("success", attempt.success)
            attempt_span.set("steps", attempt.steps)
            attempt_span.set("budget", budget)
            attempt_span.set("budget_left", budget - attempt.steps)
            attempt_span.set(
                "displaced", counters.ops_unscheduled - displaced_before
            )
            attempt_span.set("forced", counters.ops_forced - forced_before)
            obs.histogram("sched.attempt.steps").observe(attempt.steps)
            steps_total += attempt.steps
            records.append(
                AttemptRecord(
                    backend="ims",
                    ii=ii,
                    success=attempt.success,
                    steps=attempt.steps,
                    reason=(
                        "scheduled"
                        if attempt.success
                        else ("infeasible" if attempt.steps == 0 else "budget")
                    ),
                )
            )
            if attempt.success:
                schedule = Schedule(
                    graph, ii, attempt.times, attempt.alternatives
                )
                schedule_span.set("ii", ii)
                schedule_span.set("attempts", attempts)
                obs.counter("sched.loops").inc()
                obs.histogram("sched.attempts").observe(attempts)
                obs.histogram("sched.ii").observe(ii)
                obs.histogram("sched.delta_ii").observe(ii - mii_result.mii)
                return ModuloScheduleResult(
                    schedule=schedule,
                    mii_result=mii_result,
                    budget_ratio=budget_ratio,
                    attempts=attempts,
                    steps_total=steps_total,
                    steps_last=attempt.steps,
                    counters=counters,
                    backend="ims",
                    # II == MII is a proof by the lower bound; anything
                    # above it the heuristic cannot certify either way.
                    optimal=True if ii == mii_result.mii else None,
                    attempt_records=records,
                )
            ii += 1
    obs.counter("sched.failures").inc()
    raise SchedulingFailure(
        f"no modulo schedule for {graph.name!r} with II in "
        f"[{mii_result.mii}, {max_ii}] at budget_ratio={budget_ratio} "
        f"({attempts} attempts, budget {budget} steps/II, "
        f"{steps_total} steps total)",
        attempted_iis=sorted(steps_by_ii),
        steps_by_ii=steps_by_ii,
        budget=budget,
    )

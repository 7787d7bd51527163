"""One-stop evaluation of corpus loops: everything Section 4 measures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.model import execution_time, execution_time_bound
from repro.baselines.list_scheduler import list_schedule_length
from repro.core.mii import MIIResult, compute_mii
from repro.core.mindist import schedule_length_lower_bound
from repro.core.scheduler import ModuloScheduleResult
from repro.core.stats import Counters
from repro.workloads.corpus import CorpusLoop


@dataclass
class LoopEvaluation:
    """All per-loop measurements used by the Table 3/4 and Figure 6 benches."""

    loop: CorpusLoop
    n_ops: int
    n_real_ops: int
    n_edges: int
    mii_result: MIIResult
    result: ModuloScheduleResult
    list_sl: int
    mindist_sl_at_mii: int
    mindist_sl_at_ii: int
    counters: Counters
    #: Degradation-ladder record when the engine fell back (None on the
    #: normal full-IMS path): level, rung name, trigger and its detail.
    degradation: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------

    @property
    def degradation_level(self) -> int:
        """Ladder rung this record came from (0 = full IMS, no fallback)."""
        if not self.degradation:
            return 0
        return int(self.degradation.get("level", 0))

    @property
    def degraded(self) -> bool:
        """Whether this record came from a fallback scheduler."""
        return self.degradation_level > 0

    @property
    def mii(self) -> int:
        """The MII lower bound for this loop."""
        return self.mii_result.mii

    @property
    def ii(self) -> int:
        """The achieved initiation interval."""
        return self.result.ii

    @property
    def delta_ii(self) -> int:
        """Achieved II minus the MII bound."""
        return self.result.delta_ii

    @property
    def sl(self) -> int:
        """The achieved schedule length."""
        return self.result.schedule_length

    @property
    def sl_bound(self) -> int:
        """Lower bound on SL at the achieved II (Section 4.2): the larger
        of MinDist[START, STOP] and the acyclic list schedule length."""
        return max(self.mindist_sl_at_ii, self.list_sl)

    @property
    def sl_bound_at_mii(self) -> int:
        """SL lower bound evaluated at the MII (for the exec-time bound)."""
        return max(self.mindist_sl_at_mii, self.list_sl)

    @property
    def sl_ratio(self) -> float:
        """Achieved SL over its (not necessarily achievable) bound."""
        bound = self.sl_bound
        return self.sl / bound if bound else 1.0

    @property
    def exec_time(self) -> int:
        """The Section 4.3 execution-time model at the achieved SL and II."""
        return execution_time(
            self.loop.entry_freq, self.loop.loop_freq, self.sl, self.ii
        )

    @property
    def exec_bound(self) -> int:
        """The execution-time lower bound (SL bound at MII, and MII)."""
        return execution_time_bound(
            self.loop.entry_freq,
            self.loop.loop_freq,
            self.sl_bound_at_mii,
            self.mii,
        )

    @property
    def exec_ratio(self) -> float:
        """Execution time over its lower bound."""
        bound = self.exec_bound
        return self.exec_time / bound if bound else 1.0

    @property
    def schedule_ratio(self) -> float:
        """Operations scheduled per operation, in the successful attempt."""
        return self.result.steps_last / self.n_ops

    @property
    def backend(self) -> str:
        """Name of the scheduler backend that produced the result."""
        return self.result.backend

    @property
    def optimal(self) -> Optional[bool]:
        """Whether the achieved II is proven minimal (None = unproven)."""
        return self.result.optimal

    @property
    def optimality_gap(self) -> Optional[int]:
        """Heuristic II minus proven-minimal II (None without a proof)."""
        return self.result.optimality_gap


def evaluate_loop(
    loop: CorpusLoop,
    machine,
    budget_ratio: float = 6.0,
    exact_mii: bool = True,
    backend: str = "ims",
) -> LoopEvaluation:
    """Schedule one corpus loop and gather every Section-4 measurement."""
    from repro.backends import IIPolicy, get_backend

    counters = Counters()
    mii_result = compute_mii(loop.graph, machine, counters, exact=exact_mii)
    result = get_backend(backend).schedule(
        loop.graph,
        machine,
        IIPolicy(budget_ratio=budget_ratio, exact_mii=exact_mii),
        counters=counters,
        mii_result=mii_result,
    )
    list_sl = list_schedule_length(loop.graph, machine)
    at_mii = schedule_length_lower_bound(loop.graph, mii_result.mii)
    if result.ii == mii_result.mii:
        at_ii = at_mii
    else:
        at_ii = schedule_length_lower_bound(loop.graph, result.ii)
    return LoopEvaluation(
        loop=loop,
        n_ops=loop.graph.n_ops,
        n_real_ops=loop.graph.n_real_ops,
        n_edges=loop.graph.n_edges,
        mii_result=mii_result,
        result=result,
        list_sl=list_sl,
        mindist_sl_at_mii=at_mii,
        mindist_sl_at_ii=at_ii,
        counters=counters,
    )


def evaluate_corpus(
    corpus: Sequence[CorpusLoop],
    machine,
    budget_ratio: float = 6.0,
    exact_mii: bool = True,
    backend: str = "ims",
    jobs: Optional[int] = 1,
    cache_dir=None,
    use_cache: bool = True,
    verify_iterations: int = 0,
    failures: Optional[list] = None,
    counters: Optional[Counters] = None,
    obs=None,
    loop_timeout: Optional[float] = None,
    retry_policy=None,
    degrade: bool = True,
    journal_path=None,
    resume: bool = False,
    quarantine_path=None,
    fault_plan=None,
) -> List[LoopEvaluation]:
    """Evaluate every loop of a corpus (order preserved).

    Delegates to :class:`repro.analysis.engine.EvaluationEngine`: ``jobs``
    fans the work out over a process pool, and ``cache_dir`` enables the
    content-addressed result cache (``use_cache=False`` bypasses it).

    A loop that raises no longer aborts the whole run — it is skipped and
    reported as a structured :class:`repro.analysis.engine.LoopFailure`,
    appended to ``failures`` when a list is supplied.  Pass a
    :class:`Counters` as ``counters`` to receive the run-level aggregate
    merged over every evaluation (identical for any ``jobs`` value — the
    per-loop bundles ride back through the engine's JSON payloads), and
    an :class:`repro.obs.ObsContext` as ``obs`` to trace the run.  Use
    the engine directly for the full result (failures, timings, cache
    counters, the metric snapshot).
    """
    from repro.analysis.engine import EvaluationEngine

    engine = EvaluationEngine(
        machine,
        budget_ratio=budget_ratio,
        exact_mii=exact_mii,
        backend=backend,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        verify_iterations=verify_iterations,
        obs=obs,
        loop_timeout=loop_timeout,
        retry_policy=retry_policy,
        degrade=degrade,
        journal_path=journal_path,
        resume=resume,
        quarantine_path=quarantine_path,
        fault_plan=fault_plan,
    )
    result = engine.evaluate(corpus)
    if failures is not None:
        failures.extend(result.failures)
    if counters is not None:
        counters.merge(result.counters)
    return result.evaluations

"""Instrumentation counters for the complexity study (Section 4.4, Table 4).

The paper characterizes the empirical computational complexity of modulo
scheduling by counting how many times each algorithm's innermost loop
executes as a function of N, the number of operations in the loop.  The
:class:`Counters` object threads through every core algorithm and counts
the same quantities:

* ``mindist_inner`` — innermost-loop executions of ComputeMinDist,
* ``mindist_closure_inner`` / ``mindist_parametric_evals`` — the build
  and materialization work of :class:`repro.core.mindist.ParametricMinDist`,
  which the per-loop pipeline does not use (both stay 0 there),
* ``heightr_inner`` — edge relaxations when solving the HeightR equations,
* ``estart_preds`` — predecessor edges examined while computing Estart,
* ``findtimeslot_iters`` — time slots examined by FindTimeSlot,
* ``ops_scheduled`` / ``ops_unscheduled`` — Schedule/Unschedule calls,
* ``ops_forced`` — placements that used Figure 4's forced-slot rule,
* ``resmii_steps`` — alternative/resource inspections in the ResMII pass,
* ``scc_steps`` — vertex+edge visits during SCC identification.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Counters:
    """Mutable counter bundle; all algorithms accept one optionally."""

    mindist_inner: int = 0
    mindist_invocations: int = 0
    mindist_closure_inner: int = 0
    mindist_parametric_evals: int = 0
    heightr_inner: int = 0
    estart_preds: int = 0
    findtimeslot_iters: int = 0
    ops_scheduled: int = 0
    ops_unscheduled: int = 0
    ops_forced: int = 0
    resmii_steps: int = 0
    scc_steps: int = 0
    ii_attempts: int = 0

    def merge(self, other: "Counters") -> None:
        """Accumulate another counter bundle into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self) -> dict:
        """Plain-dict copy, convenient for DataFrame-less tabulation."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Shared no-op sink used when the caller does not ask for instrumentation.
#: A real Counters is cheap, so we simply use one and throw it away.
def _sink() -> Counters:
    return Counters()

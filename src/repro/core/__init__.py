"""The paper's primary contribution: iterative modulo scheduling.

Public entry points:

* :func:`repro.core.mii.compute_mii` — the MII lower bound (Section 2),
  combining the resource-constrained bound (ResMII) and the
  recurrence-constrained bound (RecMII, via ComputeMinDist on each SCC).
* :func:`repro.core.scheduler.modulo_schedule` — the iterative modulo
  scheduling algorithm of Section 3 (Figures 2-4), including the HeightR
  priority, Estart windows, the modulo reservation table, displacement
  with the forward-progress rule, and the BudgetRatio mechanism.
* :func:`repro.core.validate.validate_schedule` — static legality checks.
"""

from repro.core.stats import Counters
from repro.core.scc import strongly_connected_components, condensation_order
from repro.core.mindist import compute_mindist, mindist_feasible
from repro.core.mii import MIIResult, compute_mii, res_mii, rec_mii
from repro.core.heights import height_r
from repro.core.mrt import (
    DictLinearReservations,
    DictModuloReservations,
    LinearReservations,
    ModuloReservations,
    ReservationConflict,
    make_linear_reservations,
    make_modulo_reservations,
    resolve_mrt_impl,
)
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    IterativeScheduler,
    ModuloScheduleResult,
    SchedulingFailure,
    modulo_schedule,
)
from repro.core.validate import validate_schedule, assert_valid_schedule
from repro.core.preunroll import (
    UnrollRecommendation,
    recommend_unroll,
    unroll_for_modulo,
)
from repro.core.trace import PhaseTimer, ScheduleTrace, TraceEvent
from repro.core.instruction_scheduler import InstructionDrivenScheduler

__all__ = [
    "PhaseTimer",
    "ScheduleTrace",
    "TraceEvent",
    "InstructionDrivenScheduler",
    "UnrollRecommendation",
    "recommend_unroll",
    "unroll_for_modulo",
    "Counters",
    "strongly_connected_components",
    "condensation_order",
    "compute_mindist",
    "mindist_feasible",
    "MIIResult",
    "compute_mii",
    "res_mii",
    "rec_mii",
    "height_r",
    "LinearReservations",
    "ModuloReservations",
    "DictLinearReservations",
    "DictModuloReservations",
    "ReservationConflict",
    "make_linear_reservations",
    "make_modulo_reservations",
    "resolve_mrt_impl",
    "Schedule",
    "IterativeScheduler",
    "ModuloScheduleResult",
    "SchedulingFailure",
    "modulo_schedule",
    "validate_schedule",
    "assert_valid_schedule",
]

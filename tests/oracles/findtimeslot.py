"""FindTimeSlot as Figure 4 writes it: one probe per (slot, alternative).

:func:`scalar_find_time_slot` is a drop-in for
:meth:`repro.core.scheduler.IterativeScheduler._find_time_slot`.  It
walks the II-wide window time-major, alternative-minor, asks the MRT's
``conflicts`` once per pair and bills one ``findtimeslot_iters`` per
probe, so it works on any MRT — the dict oracle included, which has no
batched ``first_free_slot``.  The parity suites patch it onto the
scheduler class and require bit-identical schedules and counters.
"""

from __future__ import annotations


def scalar_find_time_slot(self, op, min_time, max_time):
    if self._is_pseudo[op]:
        self.counters.findtimeslot_iters += 1
        return min_time, None
    for time in range(min_time, max_time + 1):
        for alternative in self._op_alts[op]:
            self.counters.findtimeslot_iters += 1
            if not self._mrt.conflicts(alternative, time):
                return time, alternative
    # No conflict-free slot: pick one that guarantees forward progress.
    if op in self._never_scheduled or min_time > self._prev_time[op]:
        return min_time, None
    return self._prev_time[op] + 1, None

"""The dict-of-cells schedule reservation tables: the MRT oracle.

The reference the bitmask tables of :mod:`repro.core.mrt` are tested
against.  Every cell is a ``(resource, folded time)`` dict key and every
probe walks the table's uses, so the representation is as close to
Section 3.1's wording as it gets.  The lockstep suite
(``tests/core/test_mrt_differential.py``) drives both implementations
through the same reserve/release scripts, and the full-corpus parity
suite (``tests/test_differential.py``) patches them into the schedulers
in place of the bitmask tables.  ``cell_probes`` counts the cells the
dict walk touches, which the kernel hot-path benchmark reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.core.mrt import ReservationConflict, _render_kernel
from repro.machine.resources import ReservationTable


class DictLinearReservations:
    """The original dict-backed acyclic schedule reservation table."""

    def __init__(self) -> None:
        # (resource, folded time) -> occupying operation index
        self._cells: Dict[Tuple[str, int], int] = {}
        # operation index -> cells it occupies
        self._held: Dict[int, List[Tuple[str, int]]] = {}
        self.checks = 0
        self.cell_probes = 0

    def _fold(self, time: int) -> int:
        return time

    # ------------------------------------------------------------------

    def conflicts(self, table: ReservationTable, time: int) -> bool:
        """Would placing ``table`` at ``time`` collide with the schedule?

        Includes *self*-conflicts: under modulo folding, two uses of the
        same resource at offsets differing by a multiple of II land in the
        same cell, making the table unplaceable at this II no matter what
        else is scheduled (e.g. a load whose port is busy at issue and at
        data return cannot be scheduled at II equal to the return offset).
        """
        self.checks += 1
        occupied = self._cells
        fold = self._fold
        cells = set()
        probed = 0
        hit = False
        for resource, offset in table.uses:
            probed += 1
            cell = (resource, fold(time + offset))
            if cell in occupied or cell in cells:
                hit = True
                break
            cells.add(cell)
        self.cell_probes += probed
        return hit

    def self_conflicting(self, table: ReservationTable) -> bool:
        """True when the table folds onto itself at this interval."""
        cells = set()
        for resource, offset in table.uses:
            cell = (resource, self._fold(offset))
            if cell in cells:
                return True
            cells.add(cell)
        return False

    def conflicting_ops(
        self, tables: Iterable[ReservationTable], time: int
    ) -> Set[int]:
        """Operations occupying any cell any of ``tables`` would use.

        This is the displacement set of Section 3.4: when an operation must
        be force-scheduled, everything conflicting with *any* of its
        alternatives is unscheduled.
        """
        occupants: Set[int] = set()
        for table in tables:
            for resource, offset in table.uses:
                self.cell_probes += 1
                holder = self._cells.get((resource, self._fold(time + offset)))
                if holder is not None:
                    occupants.add(holder)
        return occupants

    def reserve(self, op: int, table: ReservationTable, time: int) -> None:
        """Overlay ``table`` at ``time`` on behalf of operation ``op``."""
        if op in self._held:
            raise ReservationConflict(f"operation {op} already holds cells")
        cells: List[Tuple[str, int]] = []
        taken: Set[Tuple[str, int]] = set()
        for resource, offset in table.uses:
            cell = (resource, self._fold(time + offset))
            self.cell_probes += 1
            holder = self._cells.get(cell)
            if holder is not None:
                raise ReservationConflict(
                    f"operation {op} at time {time}: {resource!r} slot "
                    f"{cell[1]} already held by operation {holder}"
                )
            if cell in taken:
                raise ReservationConflict(
                    f"operation {op} at time {time}: table "
                    f"{table.name!r} self-conflicts on {resource!r} slot "
                    f"{cell[1]} at this interval"
                )
            taken.add(cell)
            cells.append(cell)
        for cell in cells:
            self._cells[cell] = op
        self._held[op] = cells

    def release(self, op: int) -> None:
        """Remove all reservations held by operation ``op`` (idempotent)."""
        for cell in self._held.pop(op, ()):
            del self._cells[cell]

    def holds(self, op: int) -> bool:
        """Whether operation ``op`` currently holds any cells."""
        return op in self._held

    def occupancy(self) -> Dict[Tuple[str, int], int]:
        """Copy of the cell map, for validation and rendering."""
        return dict(self._cells)


class DictModuloReservations(DictLinearReservations):
    """The original dict-backed MRT: cells are folded by ``time mod II``."""

    def __init__(self, ii: int) -> None:
        if ii < 1:
            raise ValueError(f"II must be >= 1, got {ii}")
        super().__init__()
        self.ii = ii

    def _fold(self, time: int) -> int:
        return time % self.ii

    def render(self, resources: Iterable[str]) -> str:
        """ASCII kernel view: one row per modulo slot, one column per resource."""
        return _render_kernel(self._cells, self.ii, resources)


def dict_modulo_reservations(ii: int, mask_set=None) -> DictModuloReservations:
    """Drop-in for the :class:`~repro.core.mrt.ModuloReservations`
    constructor (the dict table needs no mask set)."""
    return DictModuloReservations(ii)


def dict_linear_reservations(machine=None) -> DictLinearReservations:
    """Drop-in for the :class:`~repro.core.mrt.LinearReservations`
    constructor (the dict table grows its cells on demand)."""
    return DictLinearReservations()

"""Property-based differential suite for a MinDist and a FindTimeSlot kernel.

Both claim *bit-identical* behavior to their scalar oracles:

* :class:`repro.core.mindist.ParametricMinDist` (off the per-loop path,
  kept for the benchmark's input screen) vs per-II
  :func:`repro.core.mindist.compute_mindist` — the closure's
  ``matrix(II)`` must equal the Floyd-Warshall matrix at every integer
  II (−inf cells included), and its closed-form ``crossing`` must equal
  what the scalar doubling/binary search converges to.
* :meth:`repro.core.mrt.ModuloReservations.first_free_slot` vs the
  scalar time-major, alternative-minor scan — same placement, same
  as-if probe accounting.

Hypothesis drives both over random graphs / occupancies × II ranges;
corpus-level FindTimeSlot parity lives in ``tests/test_differential.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mii import _min_feasible_ii
from repro.core.mindist import (
    ParametricMinDist,
    compute_mindist,
    mindist_feasible,
)
from repro.core.mrt import ModuloReservations
from repro.core.scc import strongly_connected_components
from repro.ir import DependenceGraph, DependenceKind, GraphError
from repro.machine import single_alu_machine
from repro.machine.resources import ReservationTable

MACHINE = single_alu_machine()

#: The II range every property sweeps; RecMIIs of the generated graphs
#: fall well inside it, so both feasible and infeasible IIs are hit.
MAX_II = 9


@st.composite
def dependence_graphs(draw):
    """Small random sealed graphs — recurrences, multi-edges, and
    zero-distance circuits included: the closure must agree with the
    oracle on infeasible inputs too."""
    n = draw(st.integers(min_value=1, max_value=6))
    graph = DependenceGraph(MACHINE, name="hyp")
    ops = [graph.add_operation("fadd", dest=f"v{i}") for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        graph.add_edge(
            ops[draw(st.integers(min_value=0, max_value=n - 1))],
            ops[draw(st.integers(min_value=0, max_value=n - 1))],
            DependenceKind.FLOW,
            distance=draw(st.integers(min_value=0, max_value=3)),
            delay=draw(st.integers(min_value=0, max_value=7)),
        )
    return graph.seal()


class TestParametricVsOracle:
    @settings(max_examples=80, deadline=None)
    @given(graph=dependence_graphs())
    def test_matrix_matches_the_oracle_at_every_ii(self, graph):
        """One closure build answers every integer II bit-identically —
        including −inf (no-path) cells and infeasible IIs."""
        closure = ParametricMinDist(graph)
        for ii in range(1, MAX_II + 1):
            expected, index_map = compute_mindist(graph, ii)
            assert np.array_equal(closure.matrix(ii), expected), ii
            assert closure.index_map == index_map

    @settings(max_examples=80, deadline=None)
    @given(graph=dependence_graphs())
    def test_feasibility_is_the_diagonal_crossing(self, graph):
        closure = ParametricMinDist(graph)
        for ii in range(1, MAX_II + 1):
            dist, _ = compute_mindist(graph, ii)
            assert closure.feasible(ii) == mindist_feasible(dist), ii

    @settings(max_examples=80, deadline=None)
    @given(graph=dependence_graphs())
    def test_crossing_matches_the_scalar_search(self, graph):
        """The closed-form crossing equals what the doubling/binary
        search converges to, and both reject zero-distance circuits."""
        crossing = ParametricMinDist(graph).crossing()
        try:
            scalar = _min_feasible_ii(
                graph, list(range(graph.n_ops)), 1, None
            )
        except GraphError:
            assert math.isinf(crossing)
        else:
            assert scalar == max(1, int(crossing))

    @settings(max_examples=60, deadline=None)
    @given(graph=dependence_graphs(), data=st.data())
    def test_subgraph_closures_match_subset_oracles(self, graph, data):
        """A closure built over any ops subset sees exactly the edges
        the subset-restricted oracle sees."""
        ops = data.draw(
            st.lists(
                st.sampled_from(range(graph.n_ops)),
                min_size=1,
                max_size=graph.n_ops,
                unique=True,
            )
        )
        closure = ParametricMinDist(graph, ops)
        for ii in (1, 2, MAX_II):
            expected, _ = compute_mindist(graph, ii, ops)
            assert np.array_equal(closure.matrix(ii), expected), ii

    @settings(max_examples=60, deadline=None)
    @given(graph=dependence_graphs())
    def test_whole_graph_closure_serves_every_scc(self, graph):
        """The containment lemma behind the RecMII shortcut: paths
        between vertices of an SCC never leave it, so the whole-graph
        closure's crossing restricted to an SCC equals the SCC-subgraph
        closure's crossing."""
        whole = ParametricMinDist(graph)
        for component in strongly_connected_components(graph):
            sub = ParametricMinDist(graph, component)
            assert whole.crossing(component) == sub.crossing()


# ----------------------------------------------------------------------
# Batched FindTimeSlot vs the scalar scan.


@st.composite
def slot_scenarios(draw):
    """A partially filled MRT plus a probe: random II, resources,
    reservation shapes (self-conflicting ones included), and min_time."""
    ii = draw(st.integers(min_value=1, max_value=8))
    resources = [f"r{i}" for i in range(draw(st.integers(1, 3)))]

    def table(tag):
        uses = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(resources),
                    st.integers(min_value=0, max_value=6),
                ),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        return ReservationTable(tag, uses)

    mrt = ModuloReservations(ii)
    op = 0
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        candidate = table(f"fill{i}")
        time = draw(st.integers(min_value=0, max_value=2 * ii))
        if not mrt.conflicts(candidate, time):
            mrt.reserve(op, candidate, time)
            op += 1
    alternatives = [
        table(f"alt{i}")
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    min_time = draw(st.integers(min_value=0, max_value=3 * ii))
    return mrt, alternatives, min_time


def _scalar_scan(mrt, alternatives, min_time):
    """The oracle: probe every (slot, alternative) pair in scan order."""
    for time in range(min_time, min_time + mrt.ii):
        for idx, alternative in enumerate(alternatives):
            if not mrt.conflicts(alternative, time):
                return time, idx
    return None, None


class TestFirstFreeSlotParity:
    @settings(max_examples=120, deadline=None)
    @given(scenario=slot_scenarios())
    def test_batch_matches_the_scalar_scan(self, scenario):
        """Same placement, same winning alternative, and the same
        ``checks`` accounting as if the scalar scan had run."""
        mrt, alternatives, min_time = scenario
        before = mrt.checks
        expected = _scalar_scan(mrt, alternatives, min_time)
        scalar_probes = mrt.checks - before
        before = mrt.checks
        got = mrt.first_free_slot(alternatives, min_time)
        assert got == expected
        assert mrt.checks - before == scalar_probes

    def test_ties_go_to_the_earliest_declared_alternative(self):
        mrt = ModuloReservations(4)
        a = ReservationTable("a", [("r0", 0)])
        b = ReservationTable("b", [("r0", 0)])
        time, index = mrt.first_free_slot([a, b], min_time=3)
        assert (time, index) == (3, 0)

    def test_full_window_reports_no_slot(self):
        mrt = ModuloReservations(2)
        blocker = ReservationTable("blk", [("r0", 0), ("r0", 1)])
        mrt.reserve(0, blocker, 0)
        probe = ReservationTable("p", [("r0", 0)])
        before = mrt.checks
        assert mrt.first_free_slot([probe], min_time=5) == (None, None)
        assert mrt.checks - before == mrt.ii  # ii slots x one alternative


class TestDeadlineInKernels:
    """The closure build is the new long-running kernel; an expired
    cooperative deadline must abort it, not just the scalar oracle."""

    def _expired(self):
        from repro.core.deadline import Deadline

        deadline = Deadline(60.0)
        deadline._expires_at = 0.0
        return deadline

    def test_closure_build_honors_deadline(self):
        from repro.core.deadline import DeadlineExceeded

        graph = DependenceGraph(MACHINE, name="deadline")
        a = graph.add_operation("fadd", dest="a")
        b = graph.add_operation("fadd", dest="b", srcs=["a"])
        graph.add_edge(a, b, DependenceKind.FLOW)
        graph.add_edge(b, a, DependenceKind.FLOW, distance=1)
        graph.seal()
        with pytest.raises(DeadlineExceeded, match="mindist"):
            ParametricMinDist(graph, deadline=self._expired())

"""Single-source MinDist against the Floyd-Warshall oracle.

The per-loop pipeline answers its MinDist queries with one Bellman-Ford
pass from START (the schedule-length bound, the exact encoder's ``lo``
windows) or into STOP (the encoder's ``hi`` windows).  Hypothesis drives
random graphs — recurrences, parallel edges and zero-distance circuits
included — over a range of IIs on both sides of the RecMII:

* at and above the RecMII every entry equals the full matrix's;
* below it the pass reports the positive circuit: the bound raises and
  the encoder refutes the II as ``INFEASIBLE``/``"recurrence"``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.backends.encode import INFEASIBLE, encode_exact_ii
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.mii import rec_mii
from repro.core.mindist import (
    NO_PATH,
    compute_mindist,
    schedule_length_lower_bound,
    single_source_mindist,
)
from repro.ir import DependenceGraph, DependenceKind, GraphError

from tests.core.test_mindist_parametric import MACHINE, MAX_II, dependence_graphs
from tests.oracles.mindist import fw_single_source


def _rec_mii_or_none(graph):
    """The RecMII, or None when a zero-distance circuit rules out every II."""
    try:
        return rec_mii(graph)
    except GraphError:
        return None


class TestAgainstTheOracle:
    @settings(max_examples=80, deadline=None)
    @given(graph=dependence_graphs())
    def test_row_and_column_match_the_matrix(self, graph):
        for ii in range(1, MAX_II + 1):
            for to_stop in (False, True):
                assert single_source_mindist(
                    graph, ii, to_stop=to_stop
                ) == fw_single_source(graph, ii, to_stop=to_stop), (ii, to_stop)

    @settings(max_examples=80, deadline=None)
    @given(graph=dependence_graphs())
    def test_bound_is_the_entry_or_raises(self, graph):
        recmii = _rec_mii_or_none(graph)
        for ii in range(1, MAX_II + 1):
            if recmii is None or ii < recmii:
                with pytest.raises(GraphError, match="positive dependence"):
                    schedule_length_lower_bound(graph, ii)
                continue
            dist, index = compute_mindist(graph, ii)
            value = dist[index[graph.START], index[graph.stop]]
            expected = 0 if value == NO_PATH else int(value)
            assert schedule_length_lower_bound(graph, ii) == expected, ii

    @settings(max_examples=60, deadline=None)
    @given(graph=dependence_graphs())
    def test_encoder_refutes_below_rec_mii(self, graph):
        recmii = _rec_mii_or_none(graph)
        for ii in range(1, MAX_II + 1):
            encoding = encode_exact_ii(graph, MACHINE, ii, max_slack=2)
            if recmii is None or ii < recmii:
                assert encoding.status == INFEASIBLE, ii
                assert encoding.reason == "recurrence", ii
            else:
                assert encoding.reason != "recurrence", ii


class TestDeadline:
    def test_pass_honors_an_expired_deadline(self):
        graph = DependenceGraph(MACHINE, name="deadline")
        a = graph.add_operation("fadd", dest="a")
        graph.add_edge(a, a, DependenceKind.FLOW, distance=1)
        graph.seal()
        deadline = Deadline(60.0)
        deadline._expires_at = 0.0
        with pytest.raises(DeadlineExceeded, match="mindist"):
            single_source_mindist(graph, 2, deadline=deadline)

    def test_rejects_ii_below_one(self):
        graph = DependenceGraph(MACHINE, name="ii0").seal()
        with pytest.raises(ValueError):
            single_source_mindist(graph, 0)

"""MinDist rows and columns read off the full Floyd-Warshall matrix.

:func:`fw_single_source` has the contract of
:func:`repro.core.mindist.single_source_mindist` but answers from the
paper's all-pairs :func:`~repro.core.mindist.compute_mindist`: ``None``
when the matrix has a positive diagonal entry (II below the RecMII),
otherwise the START row (or, with ``to_stop``, the STOP column) as
python ints with ``NO_PATH`` where no path exists and 0 at the source.
"""

from __future__ import annotations

from repro.core.mindist import NO_PATH, compute_mindist, mindist_feasible


def fw_single_source(graph, ii, to_stop=False, deadline=None):
    dist, index = compute_mindist(graph, ii, deadline=deadline)
    if not mindist_feasible(dist):
        return None
    if to_stop:
        source = graph.stop
        values = [dist[index[op], index[source]] for op in range(graph.n_ops)]
    else:
        source = graph.START
        values = [dist[index[source], index[op]] for op in range(graph.n_ops)]
    row = [NO_PATH if value == NO_PATH else int(value) for value in values]
    row[source] = 0
    return row

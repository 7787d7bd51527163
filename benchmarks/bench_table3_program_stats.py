"""Table 3, rows 1-6: program statistics over the corpus.

Regenerates the distribution rows for: number of operations, MII, minimum
modulo schedule length, max(0, RecMII - ResMII), number of non-trivial
SCCs, and number of nodes per SCC.  The paper's shape to reproduce: every
row heavily skewed toward its minimum (median < mean, long tail);
RecMII <= ResMII for the large majority of loops; very few non-trivial
SCCs, almost all of them tiny.
"""

from repro.analysis import EvaluationEngine, render_table, table3_rows


def _rows(evaluations):
    return table3_rows(evaluations)[:6]


def test_table3_program_stats(machine, corpus, evaluations, emit, benchmark):
    rows = _rows(evaluations)
    text = render_table(
        ["Measurement", "Min poss.", "Freq(min)", "Median", "Mean", "Max"],
        [row.cells() for row in rows],
        title=f"Table 3 (rows 1-6) over {len(evaluations)} loops:",
    )
    emit("table3_program_stats", text)

    by_name = {row.name: row for row in rows}
    # Shape assertions mirroring the paper's observations.
    ops = by_name["Number of operations"]
    assert ops.median < ops.mean  # skew with a long tail
    rec_gap = by_name["max(0, RecMII - ResMII)"]
    assert rec_gap.frequency_of_minimum >= 0.6  # paper: 0.84
    sccs = by_name["Number of non-trivial SCCs"]
    assert sccs.frequency_of_minimum >= 0.6  # paper: 0.773
    nodes = by_name["Number of nodes per SCC"]
    assert nodes.frequency_of_minimum >= 0.8  # paper: 0.93

    benchmark(EvaluationEngine(machine).evaluate_loop, corpus[0])

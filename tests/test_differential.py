"""End-to-end differential harness: IMS vs the acyclic list scheduler.

For every corpus loop the iterative modulo scheduler must be at least as
good as conventional acyclic list scheduling (the list schedule *is* a
legal modulo schedule with II = SL, so IMS can never do worse), and for
every front-end kernel both schedules must compute exactly what the
sequential oracle computes — the cycle-level simulator runs the modulo
schedule and the list schedule from the same initial state and both must
match the reference, which makes them identical to each other.
"""

from __future__ import annotations

import pytest

from repro.analysis import evaluate_corpus
from repro.analysis.engine import EvaluationEngine
from repro.baselines.list_scheduler import list_schedule
from repro.core.mii import compute_mii
from repro.core.scheduler import modulo_schedule
from repro.machine import cydra5
from repro.simulator import check_equivalence
from repro.simulator.state import make_initial_state
from repro.workloads import build_corpus
from repro.workloads.corpus import PAPER_CORPUS_SIZE

#: Iterations to simulate — comfortably more than any kernel's stage count.
SIM_ITERATIONS = 24


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    """Every DSL kernel plus a synthetic tail (one corpus, all tests)."""
    return build_corpus(machine, n_synthetic=15, seed=9)


@pytest.fixture(scope="module")
def evaluations(machine, corpus):
    evaluations = evaluate_corpus(corpus, machine)
    assert len(evaluations) == len(corpus)
    return evaluations


class TestScheduleQuality:
    def test_ims_ii_never_worse_than_list_schedule(self, evaluations):
        """II <= acyclic SL for every loop (the list schedule is a legal
        modulo schedule at II = max(1, SL), so IMS can always match it)."""
        for evaluation in evaluations:
            assert evaluation.ii <= max(1, evaluation.list_sl), (
                f"{evaluation.loop.name}: IMS II {evaluation.ii} worse than "
                f"list-schedule length {evaluation.list_sl}"
            )

    def test_ims_ii_at_least_mii(self, evaluations):
        for evaluation in evaluations:
            assert evaluation.ii >= evaluation.mii

    def test_list_schedule_really_is_the_bound(self, machine, corpus, evaluations):
        """The list_sl the runner records matches a fresh list schedule."""
        for loop, evaluation in zip(corpus[:10], evaluations[:10]):
            fresh = list_schedule(loop.graph, machine)
            assert fresh.schedule_length == evaluation.list_sl


class TestSimulatedEquivalence:
    def test_both_schedules_match_the_sequential_oracle(
        self, machine, corpus, evaluations
    ):
        """Modulo schedule and list schedule produce identical loop results.

        Both pipelined executions start from the same initial state and are
        diffed against the same sequential reference; two executions that
        each match the reference match each other.
        """
        verified = 0
        for loop, evaluation in zip(corpus, evaluations):
            if loop.lowered is None:
                continue  # synthetic graphs have no executable semantics
            state = make_initial_state(loop.lowered, SIM_ITERATIONS, seed=1)
            modulo_report = check_equivalence(
                loop.lowered,
                evaluation.result.schedule,
                n=SIM_ITERATIONS,
                state=state,
            )
            assert modulo_report.ok, (
                f"{loop.name} (modulo): {modulo_report.describe()}"
            )
            list_report = check_equivalence(
                loop.lowered,
                list_schedule(loop.graph, machine),
                n=SIM_ITERATIONS,
                state=state,
            )
            assert list_report.ok, (
                f"{loop.name} (list): {list_report.describe()}"
            )
            verified += 1
        assert verified >= 50  # all front-end kernels were exercised

    def test_engine_verify_mode_agrees(self, machine, corpus):
        """The engine's built-in verification pass finds no mismatches."""
        kernels = [loop for loop in corpus if loop.lowered is not None][:12]
        engine = EvaluationEngine(
            machine, verify_iterations=SIM_ITERATIONS
        )
        result = engine.evaluate(kernels)
        assert result.ok, [f.describe() for f in result.failures]
        simulated = result.phase_seconds().get("simulation", 0.0)
        assert simulated > 0.0


def _alternative_names(schedule):
    return {
        op: (alt.name if alt is not None else None)
        for op, alt in schedule.alternatives.items()
    }


class TestMrtImplementationParity:
    """The bitmask MRT and the dict oracle must schedule identically.

    Acceptance for the bitmask kernel: over the *full* corpus, both
    implementations reach the same II, the same schedule length, the
    same per-operation times, and pick the same opcode alternatives —
    the fast path is a pure representation change.
    """

    def test_modulo_scheduler_agrees_over_the_full_corpus(
        self, machine, corpus
    ):
        for loop in corpus:
            mii_result = compute_mii(loop.graph, machine)
            mask = modulo_schedule(
                loop.graph, machine, mii_result=mii_result, mrt_impl="mask"
            )
            oracle = modulo_schedule(
                loop.graph, machine, mii_result=mii_result, mrt_impl="dict"
            )
            context = loop.name
            assert mask.ii == oracle.ii, context
            assert (
                mask.schedule.schedule_length
                == oracle.schedule.schedule_length
            ), context
            assert mask.schedule.times == oracle.schedule.times, context
            assert _alternative_names(mask.schedule) == _alternative_names(
                oracle.schedule
            ), context

    def test_list_scheduler_agrees(self, machine, corpus):
        for loop in corpus[:20]:
            mask = list_schedule(loop.graph, machine, mrt_impl="mask")
            oracle = list_schedule(loop.graph, machine, mrt_impl="dict")
            assert mask.times == oracle.times, loop.name
            assert _alternative_names(mask) == _alternative_names(oracle), (
                loop.name
            )

    def test_environment_selects_the_oracle_end_to_end(
        self, machine, corpus, monkeypatch
    ):
        """REPRO_MRT_IMPL=dict routes a whole evaluation through the
        oracle and changes no observable result."""
        loop = corpus[0]
        defaulted = modulo_schedule(loop.graph, machine)
        monkeypatch.setenv("REPRO_MRT_IMPL", "dict")
        forced = modulo_schedule(loop.graph, machine)
        assert forced.ii == defaulted.ii
        assert forced.schedule.times == defaulted.schedule.times


class TestMinDistOracleParity:
    """The single-source MinDist passes the pipeline ships must give the
    bits the paper's all-pairs ComputeMinDist gives: the schedule-length
    bounds over the whole corpus, and the exact encoder's time windows —
    hence its whole formula — on every DSL kernel."""

    def test_bounds_match_the_fw_oracle(
        self, corpus, evaluations
    ):
        from repro.core.mindist import NO_PATH, compute_mindist

        for loop, evaluation in zip(corpus, evaluations):
            graph = loop.graph
            for ii, bound in (
                (evaluation.mii, evaluation.mindist_sl_at_mii),
                (evaluation.ii, evaluation.mindist_sl_at_ii),
            ):
                dist, index = compute_mindist(graph, ii)
                value = dist[index[graph.START], index[graph.stop]]
                expected = 0 if value == NO_PATH else int(value)
                assert bound == expected, (loop.name, ii)

    def test_paper_corpus_bounds_match_the_fw_oracle(self, machine):
        """The paper-sized synthetic corpus, at MII and at the II the
        shipped scheduler configuration (budget ratio 6) reaches."""
        from repro.core.mindist import (
            NO_PATH,
            compute_mindist,
            schedule_length_lower_bound,
        )

        paper = build_corpus(
            machine,
            n_synthetic=PAPER_CORPUS_SIZE - 65,
            include_kernels=False,
            seed=1,
        )
        for loop in paper:
            graph = loop.graph
            result = modulo_schedule(graph, machine, budget_ratio=6.0)
            for ii in {result.mii_result.mii, result.ii}:
                dist, index = compute_mindist(graph, ii)
                value = dist[index[graph.START], index[graph.stop]]
                expected = 0 if value == NO_PATH else int(value)
                assert schedule_length_lower_bound(graph, ii) == expected, (
                    loop.name,
                    ii,
                )

    def test_kernel_encodings_match_the_fw_oracle(
        self, machine, corpus, monkeypatch
    ):
        import repro.backends.encode as encode
        from tests.oracles.mindist import fw_single_source

        kernels = [loop for loop in corpus if loop.lowered is not None]
        assert len(kernels) == 65
        for loop in kernels:
            graph = loop.graph
            mii = compute_mii(graph, machine).mii
            for ii in range(mii, mii + 4):
                shipped = encode.encode_exact_ii(graph, machine, ii, max_slack=8)
                with monkeypatch.context() as patch:
                    patch.setattr(encode, "single_source_mindist", fw_single_source)
                    oracle = encode.encode_exact_ii(
                        graph, machine, ii, max_slack=8
                    )
                context = (loop.name, ii)
                assert (shipped.status, shipped.reason) == (
                    oracle.status,
                    oracle.reason,
                ), context
                assert shipped.lo == oracle.lo, context
                assert shipped.hi == oracle.hi, context
                assert shipped.n_vars == oracle.n_vars, context
                assert len(shipped.clauses) == len(oracle.clauses), context
                assert shipped.clauses == oracle.clauses, context


class TestSlotImplementationParity:
    """Batched FindTimeSlot and the scalar time-major scan must place
    every operation identically — same slots, same alternatives, and the
    *same counter snapshot in full*: the batch path accounts its probes
    as if the scalar scan had run."""

    def test_modulo_scheduler_agrees_over_the_full_corpus(
        self, machine, corpus
    ):
        from repro.core import Counters

        for loop in corpus:
            batch_counters, scalar_counters = Counters(), Counters()
            batch = modulo_schedule(
                loop.graph, machine, counters=batch_counters, slot_impl="batch"
            )
            scalar = modulo_schedule(
                loop.graph,
                machine,
                counters=scalar_counters,
                slot_impl="scalar",
            )
            context = loop.name
            assert batch.ii == scalar.ii, context
            assert batch.schedule.times == scalar.schedule.times, context
            assert _alternative_names(batch.schedule) == _alternative_names(
                scalar.schedule
            ), context
            assert (
                batch_counters.snapshot() == scalar_counters.snapshot()
            ), context

    def test_environment_selects_the_scalar_scan_end_to_end(
        self, machine, corpus, monkeypatch
    ):
        loop = corpus[0]
        defaulted = modulo_schedule(loop.graph, machine)
        monkeypatch.setenv("REPRO_SLOT_IMPL", "scalar")
        forced = modulo_schedule(loop.graph, machine)
        assert forced.ii == defaulted.ii
        assert forced.schedule.times == defaulted.schedule.times


@pytest.fixture(scope="module")
def exact_results(machine, corpus):
    """Every corpus loop through the exact backend, with solver budgets
    small enough that hard instances report honestly-unproven fast
    instead of spending a minute on an exhaustive UNSAT proof."""
    from repro.backends import IIPolicy, get_backend

    backend = get_backend(
        "exact", max_time_vars=6000, max_clauses=25000, max_conflicts=20000
    )
    return [
        backend.schedule(loop.graph, machine, IIPolicy())
        for loop in corpus
    ]


class TestExactDifferential:
    """IMS vs the proving SAT backend over the whole corpus slice."""

    def test_exact_ii_never_worse_than_ims(self, evaluations, exact_results):
        for evaluation, exact in zip(evaluations, exact_results):
            assert exact.ii <= evaluation.ii, (
                f"{evaluation.loop.name}: exact II {exact.ii} worse than "
                f"IMS II {evaluation.ii}"
            )
            assert exact.ii >= evaluation.mii

    def test_exact_schedules_validate(self, machine, corpus, exact_results):
        from repro.check import check_schedule

        for loop, exact in zip(corpus, exact_results):
            diags = check_schedule(loop.graph, machine, exact.schedule)
            assert diags.ok, f"{loop.name}: {diags.render()}"

    def test_optimality_gap_report(self, evaluations, exact_results):
        """The Rau-style question: how often does the heuristic reach the
        proven-minimal II?  Every MII-matched loop is trivially proven,
        so the proven share must cover at least those loops; any recorded
        gap must be a positive integer backed by certificates."""
        proven = 0
        gaps = []
        for evaluation, exact in zip(evaluations, exact_results):
            if exact.optimal is not True:
                continue
            proven += 1
            gap = exact.optimality_gap
            assert gap is not None and gap >= 0
            if gap:
                gaps.append((evaluation.loop.name, gap))
                assert exact.certificates[exact.ii]["status"] == "sat"
        mii_matched = sum(1 for e in evaluations if e.delta_ii == 0)
        assert proven >= mii_matched
        # The report itself: IMS achieves II* on every proven loop that
        # records no gap.
        assert all(gap > 0 for _, gap in gaps)

    def test_ims_is_optimal_on_easy_kernels(self, evaluations, exact_results):
        """On MII-matched front-end kernels (the easy fixtures) the exact
        backend must confirm the heuristic: same II, proven minimal."""
        confirmed = 0
        for evaluation, exact in zip(evaluations, exact_results):
            if evaluation.loop.lowered is None or evaluation.delta_ii != 0:
                continue
            assert exact.ii == evaluation.ii, evaluation.loop.name
            assert exact.optimal is True, evaluation.loop.name
            confirmed += 1
        assert confirmed >= 50  # nearly all kernels are MII-matched

    def test_exact_results_stable_across_cache_hits(
        self, machine, corpus, tmp_path
    ):
        """Cache hits and resume replay must reproduce the exact backend's
        results bit-for-bit: same II, same proof status, same certificates."""
        kernels = [
            loop for loop in corpus
            if loop.lowered is not None and loop.name != "distance"
        ][:12]
        cache = tmp_path / "exact-cache"

        def run():
            engine = EvaluationEngine(
                machine, backend="exact", cache_dir=cache
            )
            result = engine.evaluate(kernels)
            assert result.ok, [f.describe() for f in result.failures]
            return result

        first = run()
        second = run()
        assert second.hits == len(kernels)
        for before, after in zip(first.evaluations, second.evaluations):
            assert after.backend == "exact"
            assert after.ii == before.ii
            assert after.optimal == before.optimal
            assert after.result.certificates == before.result.certificates
            assert (
                after.result.attempt_records == before.result.attempt_records
            )

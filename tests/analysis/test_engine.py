"""The corpus-evaluation engine: cache keys, caching, failure records."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.analysis.engine as engine_module
from repro.analysis import evaluate_corpus
from repro.analysis.engine import (
    EvaluationEngine,
    cache_key,
    evaluation_from_dict,
    evaluation_to_dict,
)
from repro.analysis.regression import load_timing_report, timing_speedup
from repro.ir import DependenceGraph, DependenceKind
from repro.ir.serialize import graph_to_dict
from repro.machine import cydra5
from repro.machine.serialize import machine_from_dict, machine_to_dict
from repro.workloads import build_corpus
from repro.workloads.corpus import CorpusLoop

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Deterministic DSL loop used for the cross-process stability check.
DSL_SOURCE = "for i in n:\n    s = s + x[i] * y[i]\n"


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    return build_corpus(
        machine, n_synthetic=8, seed=13, include_kernels=False
    )


def _recurrence_graph(machine, distance=1, delay=None, extra_edge=False):
    """Small load->accumulate graph with a tunable recurrence."""
    graph = DependenceGraph(machine, name="probe")
    load = graph.add_operation("load", dest="v")
    acc = graph.add_operation("fadd", dest="s", srcs=("s", "v"))
    graph.add_edge(load, acc, DependenceKind.FLOW, delay=delay)
    graph.add_edge(acc, acc, DependenceKind.FLOW, distance=distance)
    if extra_edge:
        graph.add_edge(load, acc, DependenceKind.ANTI, distance=1)
    return graph.seal()


def _infeasible_loop(machine):
    """A deliberately infeasible loop: a zero-distance dependence circuit."""
    graph = DependenceGraph(machine, name="infeasible")
    a = graph.add_operation("fadd", dest="a", srcs=("b",))
    b = graph.add_operation("fmul", dest="b", srcs=("a",))
    graph.add_edge(a, b, DependenceKind.FLOW)
    graph.add_edge(b, a, DependenceKind.FLOW)
    return CorpusLoop(
        name="infeasible",
        graph=graph.seal(),
        category="synthetic",
        entry_freq=1,
        loop_freq=10,
        executed=True,
    )


class TestCacheKey:
    def test_stable_within_process(self, machine):
        graph = _recurrence_graph(machine)
        assert cache_key(graph, machine) == cache_key(graph, machine)

    def test_stable_across_rebuilds(self, machine):
        first = _recurrence_graph(machine)
        second = _recurrence_graph(machine)
        assert cache_key(first, machine) == cache_key(second, machine)

    def test_stable_across_corpus_rebuilds(self, machine, corpus):
        rebuilt = build_corpus(
            machine, n_synthetic=8, seed=13, include_kernels=False
        )
        for a, b in zip(corpus, rebuilt):
            assert cache_key(a, machine) == cache_key(b, machine)

    def test_stable_across_processes(self, machine):
        """The key must not depend on the interpreter's hash seed."""
        snippet = (
            "from repro.loopir import compile_loop_full\n"
            "from repro.machine import cydra5\n"
            "from repro.analysis.engine import cache_key\n"
            "machine = cydra5()\n"
            f"lowered = compile_loop_full({DSL_SOURCE!r}, machine, name='dot')\n"
            "print(cache_key(lowered.graph, machine))\n"
        )
        keys = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(SRC_DIR) + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            output = subprocess.run(
                [sys.executable, "-c", snippet],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            keys.append(output.stdout.strip())
        assert keys[0] == keys[1]
        assert len(keys[0]) == 64  # sha256 hex

    def test_edge_distance_changes_key(self, machine):
        base = _recurrence_graph(machine, distance=1)
        changed = _recurrence_graph(machine, distance=2)
        assert cache_key(base, machine) != cache_key(changed, machine)

    def test_edge_delay_changes_key(self, machine):
        base = _recurrence_graph(machine)
        changed = _recurrence_graph(machine, delay=7)
        assert cache_key(base, machine) != cache_key(changed, machine)

    def test_extra_edge_changes_key(self, machine):
        base = _recurrence_graph(machine)
        changed = _recurrence_graph(machine, extra_edge=True)
        assert cache_key(base, machine) != cache_key(changed, machine)

    def test_machine_latency_changes_key(self, machine):
        graph = _recurrence_graph(machine)
        description = machine_to_dict(machine)
        description["opcodes"][0]["latency"] += 1
        mutated = machine_from_dict(description)
        assert cache_key(graph, machine) != cache_key(graph, mutated)

    def test_budget_ratio_changes_key(self, machine):
        graph = _recurrence_graph(machine)
        assert cache_key(graph, machine, budget_ratio=6.0) != cache_key(
            graph, machine, budget_ratio=2.0
        )

    def test_exact_mii_changes_key(self, machine):
        graph = _recurrence_graph(machine)
        assert cache_key(graph, machine, exact_mii=True) != cache_key(
            graph, machine, exact_mii=False
        )

    def test_verify_iterations_changes_key(self, machine):
        graph = _recurrence_graph(machine)
        assert cache_key(graph, machine, verify_iterations=0) != cache_key(
            graph, machine, verify_iterations=16
        )

    def test_format_version_changes_key(self, machine, monkeypatch):
        graph = _recurrence_graph(machine)
        before = cache_key(graph, machine)
        monkeypatch.setattr(
            engine_module,
            "CODE_FORMAT_VERSION",
            engine_module.CODE_FORMAT_VERSION + 1,
        )
        assert cache_key(graph, machine) != before

    def test_profile_does_not_change_key(self, machine, corpus):
        """The execution profile scales the time model, not the schedule."""
        loop = corpus[0]
        twin = CorpusLoop(
            name=loop.name,
            graph=loop.graph,
            category=loop.category,
            entry_freq=loop.entry_freq + 5,
            loop_freq=loop.loop_freq * 2,
            executed=not loop.executed,
        )
        assert cache_key(loop, machine) == cache_key(twin, machine)


class TestCacheKeyBytes:
    def test_keys_equal_the_whole_document_formula(self, machine):
        """The spliced key text is byte-for-byte the canonical dump of
        the whole key document, for every corpus loop on every shipped
        machine (and on a machine rebuilt from its own JSON), under the
        default and non-default scheduler configurations."""
        from repro.cli import MACHINES

        loops = build_corpus(machine, n_synthetic=200, seed=5)
        machines = [factory() for _, factory in sorted(MACHINES.items())]
        machines.append(machine_from_dict(machine_to_dict(machine)))
        cases = [(target, {}) for target in machines] + [
            (
                machine,
                dict(budget_ratio=2.5, exact_mii=False, verify_iterations=16),
            ),
            (machine, dict(backend="exact")),
        ]
        for target, config in cases:
            document_config = {
                "backend": "ims",
                "budget_ratio": 6.0,
                "exact_mii": True,
                "verify_iterations": 0,
                **config,
            }
            for loop in loops:
                document = {
                    "version": engine_module.CODE_FORMAT_VERSION,
                    "graph": graph_to_dict(loop.graph),
                    "machine": machine_to_dict(target),
                    "config": document_config,
                }
                text = json.dumps(document, sort_keys=True, separators=(",", ":"))
                expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
                assert cache_key(loop, target, **config) == expected, (
                    target.name,
                    loop.name,
                    config,
                )


class TestPayloadRoundTrip:
    def test_round_trip_is_identity(self, machine, corpus):
        engine = EvaluationEngine(machine)
        evaluation = engine.evaluate_loop(corpus[0])
        payload = evaluation_to_dict(evaluation, machine)
        rebuilt = evaluation_from_dict(payload, corpus[0], machine)
        assert evaluation_to_dict(rebuilt, machine) == payload
        assert rebuilt.loop is corpus[0]
        assert rebuilt.ii == evaluation.ii
        assert rebuilt.exec_time == evaluation.exec_time

    def test_json_round_trip_is_identity(self, machine, corpus):
        engine = EvaluationEngine(machine)
        evaluation = engine.evaluate_loop(corpus[1])
        payload = evaluation_to_dict(evaluation, machine)
        assert json.loads(json.dumps(payload)) == payload


class TestCache:
    def test_warm_cache_skips_all_work(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        cold = engine.evaluate(corpus)
        assert cold.hits == 0 and cold.misses == len(corpus)
        assert cold.phase_seconds().get("scheduling", 0.0) > 0.0

        warm = engine.evaluate(corpus)
        assert warm.hits == len(corpus) and warm.misses == 0
        phases = warm.phase_seconds()
        assert phases.get("mindist", 0.0) == 0.0
        assert phases.get("scheduling", 0.0) == 0.0
        assert phases.get("simulation", 0.0) == 0.0
        assert all(t.cache_hit for t in warm.timings)

        canonical = lambda e: json.dumps(
            evaluation_to_dict(e, machine), sort_keys=True
        )
        assert list(map(canonical, warm.evaluations)) == list(
            map(canonical, cold.evaluations)
        )

    def test_cache_layout_is_content_addressed(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        engine.evaluate(corpus[:1])
        key = engine.key_for(corpus[0])
        path = engine.cache_path(key)
        assert path == tmp_path / "cache" / key[:2] / f"{key}.json"
        assert path.is_file()
        assert json.loads(path.read_text())["format"].startswith(
            "repro.loop-evaluation"
        )

    def test_corrupt_entry_is_a_miss(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        engine.evaluate(corpus[:1])
        key = engine.key_for(corpus[0])
        engine.cache_path(key).write_text("{not json")
        again = engine.evaluate(corpus[:1])
        assert again.hits == 0 and again.misses == 1
        assert again.ok

    def test_corruption_is_counted_and_entry_replaced(
        self, machine, corpus, tmp_path
    ):
        """A garbled entry ticks cache_corrupt and is rewritten clean."""
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        clean = engine.evaluate(corpus[:2])
        assert clean.cache_corrupt == 0
        key = engine.key_for(corpus[0])
        path = engine.cache_path(key)
        path.write_bytes(path.read_bytes()[:40])  # truncated mid-document
        again = engine.evaluate(corpus[:2])
        assert again.cache_corrupt == 1
        assert again.hits == 1 and again.misses == 1
        assert again.ok
        # The rewrite left a loadable entry behind.
        third = engine.evaluate(corpus[:2])
        assert third.hits == 2 and third.cache_corrupt == 0

    def test_foreign_document_is_counted_corrupt(
        self, machine, corpus, tmp_path
    ):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        engine.evaluate(corpus[:1])
        path = engine.cache_path(engine.key_for(corpus[0]))
        path.write_text(json.dumps({"format": "someone-elses-cache"}))
        again = engine.evaluate(corpus[:1])
        assert again.cache_corrupt == 1 and again.ok

    def test_no_cache_flag_bypasses_directory(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(
            machine, cache_dir=tmp_path / "cache", use_cache=False
        )
        engine.evaluate(corpus[:2])
        assert not (tmp_path / "cache").exists()

    def test_config_change_invalidates(self, machine, corpus, tmp_path):
        cache = tmp_path / "cache"
        EvaluationEngine(machine, cache_dir=cache).evaluate(corpus)
        other = EvaluationEngine(
            machine, cache_dir=cache, budget_ratio=2.0
        ).evaluate(corpus)
        assert other.hits == 0 and other.misses == len(corpus)


class TestFailureRecords:
    def test_infeasible_loop_becomes_failure_record(self, machine, corpus):
        mixed = [corpus[0], _infeasible_loop(machine), corpus[1]]
        result = EvaluationEngine(machine).evaluate(mixed)
        assert len(result.evaluations) == 2
        assert [e.loop.name for e in result.evaluations] == [
            corpus[0].name,
            corpus[1].name,
        ]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 1
        assert failure.loop_name == "infeasible"
        assert failure.phase == "mindist"
        assert failure.error_type == "GraphError"
        assert "zero-distance" in failure.message
        assert failure.traceback
        assert not result.ok

    def test_evaluate_corpus_surfaces_failures(self, machine, corpus):
        mixed = [corpus[0], _infeasible_loop(machine), corpus[1]]
        failures = []
        evaluations = evaluate_corpus(mixed, machine, failures=failures)
        assert len(evaluations) == 2
        assert len(failures) == 1
        assert failures[0].loop_name == "infeasible"

    def test_failures_appear_in_timing_report(self, machine, corpus):
        mixed = [_infeasible_loop(machine), corpus[0]]
        report = EvaluationEngine(machine).evaluate(mixed).timing_report()
        assert report["n_failures"] == 1
        assert report["failures"][0]["loop"] == "infeasible"
        assert report["failures"][0]["error_type"] == "GraphError"

    def test_parallel_failures_also_structured(self, machine, corpus):
        mixed = [corpus[0], _infeasible_loop(machine), corpus[1]]
        result = EvaluationEngine(machine, jobs=2).evaluate(mixed)
        assert len(result.evaluations) == 2
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "GraphError"

    def test_evaluate_loop_raises(self, machine):
        engine = EvaluationEngine(machine)
        with pytest.raises(RuntimeError, match="infeasible"):
            engine.evaluate_loop(_infeasible_loop(machine))


class TestTimingReport:
    def test_report_structure(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        result = engine.evaluate(corpus)
        report = result.timing_report()
        assert report["format"] == "repro.engine-timing.v1"
        assert report["machine"] == machine.name
        assert report["n_loops"] == len(corpus)
        assert len(report["loops"]) == len(corpus)
        record = report["loops"][0]
        assert set(record) == {
            "index", "loop", "key", "cache_hit", "seconds", "resumed"
        }
        assert record["seconds"]["total"] > 0.0

    def test_write_and_load_round_trip(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        cold = engine.evaluate(corpus)
        warm = engine.evaluate(corpus)
        cold_path = cold.write_timing_json(tmp_path / "cold.json")
        warm_path = warm.write_timing_json(tmp_path / "warm.json")
        cold_report = load_timing_report(cold_path)
        warm_report = load_timing_report(warm_path)
        assert warm_report["cache"]["hits"] == len(corpus)
        assert warm_report["cache"]["misses"] == 0
        assert timing_speedup(cold_report, warm_report) > 0.0

    def test_load_rejects_other_documents(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_timing_report(path)

"""In-memory spans around calls into the pipeline's layers.

Tracing is installed from outside the program: :func:`install` replaces
the module globals through which the engine (and the benchmark itself)
reaches each layer with a wrapper that records one span per call.
Nothing under ``src/`` is edited.  Spans live in a flat list of
``(layer, start, end, depth)`` tuples; self time is a span's duration
minus the durations of its direct children, so a layer's self times
plus its parents' self times add up to the outermost wall exactly.

Pool workers are forked after :func:`install`, so they inherit the
wrappers.  Their spans never reach the parent's list; instead the
wrapped per-loop task folds them into per-layer sums and returns them
beside the engine's own outcome fields, under :data:`WORKER_KEY`, and
the wrapped pool driver collects those sums from the outcomes it
returns.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Outcome key that carries a pool worker's spans home, folded.
WORKER_KEY = "perfbench_layers"

_clock = time.perf_counter


class Recorder:
    """Span list, call counts and counts taken from wrapped return values."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.depth = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Layer self times reported back by pool workers.
        self.worker_seconds: Dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.__init__()

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time over every recorded span."""
        totals: Dict[str, float] = defaultdict(float)
        # A span closes after all of its children, so scanning in close
        # order with a per-depth accumulator of finished child time
        # gives each span's self time in one pass.
        child_time: Dict[int, float] = defaultdict(float)
        for layer, start, end, depth in self.spans:
            duration = end - start
            totals[layer] += duration - child_time.pop(depth + 1, 0.0)
            child_time[depth] += duration
        return dict(totals)


RECORDER = Recorder()


def _wrap(layer: str, function: Callable, count=None) -> Callable:
    """Return ``function`` wrapped in a span named ``layer``."""
    recorder = RECORDER

    def wrapper(*args, **kwargs):
        depth = recorder.depth
        recorder.depth = depth + 1
        start = _clock()
        try:
            result = function(*args, **kwargs)
        finally:
            end = _clock()
            recorder.depth = depth
            recorder.spans.append((layer, start, end, depth))
            recorder.calls[layer] += 1
        if count is not None:
            count(recorder.counts, result)
        return result

    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", layer)
    return wrapper


def _count_lowered(counts, lowered) -> None:
    counts["loopir.ops_out"] += lowered.graph.n_ops


def _count_findings(counts, diagnostics) -> None:
    counts["check.findings"] += len(diagnostics)


def _count_clauses(counts, encoding) -> None:
    counts["encode.clauses"] += len(encoding.clauses)


def _count_conflicts(counts, result) -> None:
    counts["sat.conflicts"] += int(result.stats.get("conflicts", 0))


#: Set by :func:`install`: the parent process and the unwrapped task.
_main_pid = None
_original_task = None


def traced_loop_task(task):
    """The engine's per-loop task, reporting span sums from pool workers."""
    if os.getpid() == _main_pid:
        return _original_task(task)
    RECORDER.reset()
    outcome = _original_task(task)
    outcome[WORKER_KEY] = {
        "seconds": RECORDER.self_seconds(),
        "calls": dict(RECORDER.calls),
        "counts": dict(RECORDER.counts),
    }
    return outcome


def install() -> None:
    """Wrap every layer entry point the benchmark times (idempotent)."""
    global _original_task, _main_pid
    import repro.analysis.engine as engine
    import repro.backends.exact as exact
    import repro.check
    import repro.codegen
    import repro.loopir
    import repro.simulator

    if getattr(engine.compute_mii, "__wrapped__", None) is not None:
        return
    _main_pid = os.getpid()
    patches = [
        (repro.loopir, "compile_loop_full", "loopir", _count_lowered),
        (engine, "compute_mii", "mii", None),
        (engine, "modulo_schedule", "scheduler", None),
        (engine, "list_schedule_length", "list", None),
        (engine, "schedule_length_lower_bound", "bound", None),
        (engine, "cache_key", "engine.key", None),
        (engine, "evaluation_to_dict", "engine.to_dict", None),
        (engine, "evaluation_from_dict", "engine.from_dict", None),
        (repro.check, "check_schedule", "check", _count_findings),
        (repro.codegen, "emit_pipelined_code", "codegen", None),
        (repro.simulator, "check_equivalence", "simulator", None),
        (exact, "modulo_schedule", "scheduler", None),
        (exact, "check_schedule", "check", _count_findings),
        (exact, "encode_exact_ii", "encode", _count_clauses),
        (exact, "cdcl_solve", "sat", _count_conflicts),
    ]
    for module, name, layer, count in patches:
        setattr(module, name, _wrap(layer, getattr(module, name), count))
    # Whole-method spans: their self time is what the wrapped layers
    # inside them leave over (engine bookkeeping, the exact backend's
    # probe loop, the parent's wait on the pool).
    cls = engine.EvaluationEngine
    cls.evaluate = _wrap("engine", cls.evaluate)
    cls._run_pool = _wrap("pool", cls._run_pool, _collect_workers)
    exact.ExactBackend.schedule = _wrap("exact", exact.ExactBackend.schedule)
    _original_task = engine._evaluate_loop_task
    engine._evaluate_loop_task = traced_loop_task


def _collect_workers(counts, outcomes) -> None:
    """Fold the span sums pool workers returned into the parent's totals."""
    for outcome in outcomes.values():
        folded = outcome.get(WORKER_KEY)
        if not folded:
            continue
        for layer, seconds in folded["seconds"].items():
            RECORDER.worker_seconds[layer] += seconds
        for layer, calls in folded["calls"].items():
            RECORDER.calls[layer] += calls
        for name, value in folded["counts"].items():
            counts[name] += value

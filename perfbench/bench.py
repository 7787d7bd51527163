"""The measuring process of the loop-compile benchmark.

``run.py`` starts this script in a fresh interpreter for every
measurement; see README.md for the workloads and metrics.  Modes:

``setup``
    Import ``repro``, build the workload's machines and engines, print
    the moment that finished and exit (one ``setup_s`` sample).
``measure``
    The same set-up, then generate the seeded inputs (untimed), run
    whole passes over them until ``--seconds`` have elapsed, gate every
    schedule (untimed) and print one JSON document.  ``--trace 1`` runs
    the same number of passes again under the spans of ``spans.py``.
``warm``
    One warm pass of ``corpus_pool_cache`` over the inputs in
    ``--inputs`` against the cache a cold pass left in ``--cache-dir``,
    in its own process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import repro.loopir
from repro.analysis.engine import EvaluationEngine
from repro.check import check_schedule
from repro.codegen import emit_pipelined_code
from repro.core.mindist import ParametricMinDist
from repro.core.scc import nontrivial_components, strongly_connected_components
from repro.core.scheduler import modulo_schedule
from repro.core.stats import Counters
from repro.machine import (
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)
from repro.workloads import KERNELS, SyntheticConfig, build_corpus, synthetic_graph
from repro.workloads.corpus import PAPER_CORPUS_SIZE

import spans
from run import spawn

clock = time.perf_counter

#: The machines that lower all 65 kernels (``bus_conflict`` does not).
VERIFY_MACHINES = {
    "cydra5": cydra5,
    "single_alu": single_alu_machine,
    "two_alu": two_alu_machine,
    "superscalar": superscalar_machine,
}
#: Simulated iterations per loop on ``kernels``.
VERIFY_ITERATIONS = 50
#: Pool size on ``corpus_pool_cache`` (the reference host has 2 CPUs).
POOL_JOBS = 2
#: The pristine inputs the warm process of ``corpus_pool_cache`` reads,
#: in the run's work directory.
INPUTS_FILE = "inputs.pickle"
#: Wall-clock cap on one warm-pass process.
WARM_TIMEOUT_S = 150.0
#: The percentile ``loop_ms_tail`` reports: 66 loops of a corpus pass
#: and 16 of a kernels pass lie beyond it, so no single seeded graph
#: decides it.
TAIL_PERCENTILE = 95.0
#: A seeded synthetic graph is drawn again when one of its per-SCC
#: MinDist closures needs more coefficient planes than this, takes longer
#: than ``SCREEN_SECONDS`` to build, or would grow the address space by
#: more than ``SCREEN_MEMORY`` bytes (see :func:`closure_planes`).
SCREEN_PLANES = 64
SCREEN_SECONDS = 2.0
SCREEN_MEMORY = 1 << 30
#: The graph on which the MinDist closure blow-up is measured in every
#: corpus run: (generator seed, op-count stratum).  Its one 19-op SCC
#: needs a 105-plane closure; ordinary graphs need at most about 40.
WITNESS = (208_000_682, 27)


# ----------------------------------------------------------------------
# Set-up and inputs


def build_engines(workload: str, cache_dir: Optional[str]) -> Dict[str, object]:
    """The engines one workload submits to, keyed by machine name.

    ``kernels`` adds the exact backend on ``cydra5`` under the key
    ``exact``.
    """
    if workload == "kernels":
        engines = {
            name: EvaluationEngine(
                make(), jobs=1, check=True, verify_iterations=VERIFY_ITERATIONS
            )
            for name, make in VERIFY_MACHINES.items()
        }
        engines["exact"] = EvaluationEngine(cydra5(), jobs=1, backend="exact")
        return engines
    if workload == "corpus_pool_cache":
        engine = EvaluationEngine(cydra5(), jobs=POOL_JOBS, cache_dir=cache_dir)
    else:
        engine = EvaluationEngine(cydra5(), jobs=1)
    return {"cydra5": engine}


class ScreenExpired(Exception):
    """Raised from SIGALRM when a screening build outlasts its time."""


def _expire(signum, frame):
    raise ScreenExpired


def closure_planes(graph) -> float:
    """Most coefficient planes any per-SCC MinDist closure of ``graph`` has.

    These are the closures ``compute_mii`` builds for the RecMII.  A
    build that outlasts ``SCREEN_SECONDS``, or that would grow the
    address space by more than ``SCREEN_MEMORY`` bytes, counts as
    infinitely many.  The time limit is an interval timer, because the
    closure checks its own deadline too seldom to stop a blow-up.  Only
    public functions that cache nothing on the graph are used.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = address_space() + SCREEN_MEMORY
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    planes = 0
    previous = signal.signal(signal.SIGALRM, _expire)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.setitimer(signal.ITIMER_REAL, SCREEN_SECONDS)
    try:
        for component in nontrivial_components(strongly_connected_components(graph)):
            planes = max(planes, ParametricMinDist(graph, component).n_planes)
    except (ScreenExpired, MemoryError):
        return math.inf
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return planes


def address_space() -> int:
    """This process's current virtual size in bytes."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[0]) * resource.getpagesize()


def stratum(config, size: int, recurrent: bool):
    """``config`` narrowed to one op count, with or without a recurrence."""
    return replace(
        config, min_ops=size, max_ops=size, p_recurrent=1.0 if recurrent else 0.0
    )


def paper_corpus(machine, seed: int) -> list:
    """The 1327-loop corpus: 65 DSL kernels plus 1262 synthetic graphs.

    Profiles and kernels come from :func:`repro.workloads.build_corpus`.
    The first synthetic graph is the fixed :data:`WITNESS`.  The other
    1261 are seeded and stratified rather than drawn independently:
    their op counts are the 1261 quantiles of the generator's own
    log-normal size law, and a recurrence is forced into exactly the
    generator's 22.7% of them, spread evenly over the sizes.  With
    independent draws the sum of cubed op counts (the MinDist work)
    swings by +-25% from seed to seed and would drown every timing in
    input noise.  A seeded graph whose MinDist closure blows up (see
    :func:`closure_planes`) is drawn again in its stratum, for the same
    reason: one such graph costs from one second to minutes and
    gigabytes.  The blow-up stays measured, once per pass, on the
    witness.  The seed shuffles which graph gets which size, and picks
    each graph's opcodes, edges, recurrence shapes and profile.
    """
    n = PAPER_CORPUS_SIZE - len(KERNELS)
    corpus = build_corpus(machine, n_synthetic=n, seed=seed)
    config = SyntheticConfig()
    normal = statistics.NormalDist(config.log_mu, config.log_sigma)
    strata = []
    for rank in range(n - 1):
        size = round(math.exp(normal.inv_cdf((rank + 0.5) / (n - 1))))
        size = max(config.min_ops, min(config.max_ops, size))
        recurrent = math.floor((rank + 1) * config.p_recurrent) > math.floor(
            rank * config.p_recurrent
        )
        strata.append(stratum(config, size, recurrent))
    random.Random(seed).shuffle(strata)
    witness_seed, witness_size = WITNESS
    graphs = [synthetic_graph(
        machine, seed=witness_seed, config=stratum(config, witness_size, True)
    )]
    for index, drawn in enumerate(strata):
        attempt = 0
        while True:
            graph = synthetic_graph(
                machine,
                seed=seed * 1_000_003 + index + attempt * 1_000_000_007,
                config=drawn,
            )
            if closure_planes(graph) <= SCREEN_PLANES:
                break
            attempt += 1
        graphs.append(graph)
    synthetic = iter(graphs)
    loops = []
    for loop in corpus:
        if loop.lowered is None:
            graph = next(synthetic)
            loop = replace(loop, name=graph.name, graph=graph)
        loops.append(loop)
    return loops


def make_inputs(workload: str, engines, seed: int) -> Dict[str, list]:
    """Seeded inputs per engine (untimed)."""
    if workload.startswith("corpus_"):
        return {"cydra5": paper_corpus(engines["cydra5"].machine, seed)}
    return {
        name: build_corpus(engine.machine, n_synthetic=0, seed=seed)
        for name, engine in engines.items()
    }


def relower(loop, machine):
    """Compile a DSL kernel's source again, inside the timed region."""
    if loop.lowered is None:
        return loop
    lowered = repro.loopir.compile_loop_full(
        KERNELS[loop.name].source, machine, name=loop.name
    )
    return replace(loop, graph=lowered.graph, lowered=lowered)


# ----------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    """What one pass over a workload's inputs produced."""

    wall: float = 0.0
    loop_ms: List[float] = field(default_factory=list)
    #: (machine name, evaluation) per successful loop, in input order.
    evaluations: list = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    hits: int = 0
    misses: int = 0
    #: corpus_pool_cache only: cold-pass CPU of the pool workers, and the
    #: warm pass that read back what this pass cached.
    pool_cpu: float = 0.0
    workers_rss_mb: float = 0.0
    evaluate_wall: float = 0.0
    warm: Optional[dict] = None
    #: Filled in by :func:`settle`.
    digest: str = ""
    rejections: List[str] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)

    def absorb(self, machine_name: str, result) -> None:
        self.attempted += len(result.timings)
        self.hits += result.hits
        self.misses += result.misses
        self.evaluations.extend((machine_name, e) for e in result.evaluations)
        self.failures.extend(f.describe() for f in result.failures)


def serial_pass(engines, inputs) -> Pass:
    """Submit every loop on its own, timing each call."""
    out = Pass()
    results = []
    started = clock()
    for name, loops in inputs.items():
        engine = engines[name]
        for loop in loops:
            t0 = clock()
            result = engine.evaluate([relower(loop, engine.machine)])
            out.loop_ms.append((clock() - t0) * 1e3)
            results.append((name, result))
    out.wall = clock() - started
    for name, result in results:
        out.absorb(name, result)
    return out


def reap_children() -> None:
    """Wait for every pool worker the engine left shutting down."""
    deadline = time.monotonic() + 30.0
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reset_peak_rss() -> None:
    """Restart this process's peak resident set count (Linux only).

    Called once the inputs exist, so that ``peak_rss_mb`` covers the
    passes and not the input generation or its screening.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pool_pass(engine, loops, cache_dir: str, inputs_path: str, trace: bool) -> Pass:
    """Cold batch through the pool into a fresh cache, then a warm pass."""
    out = Pass()
    cpu_before = children_cpu()
    started = clock()
    batch = [relower(loop, engine.machine) for loop in loops]
    evaluate_started = clock()
    result = engine.evaluate(batch)
    out.evaluate_wall = clock() - evaluate_started
    out.wall = clock() - started
    reap_children()
    out.pool_cpu = children_cpu() - cpu_before
    # This pass's workers, and the warm processes of earlier passes.
    out.workers_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out.loop_ms = [t.seconds.get("total", 0.0) * 1e3 for t in result.timings]
    out.absorb("cydra5", result)
    out.warm = spawn(
        ["warm", "--workload", "corpus_pool_cache", "--inputs", inputs_path,
         "--cache-dir", cache_dir, "--trace", "1" if trace else "0"],
        env=None,
        deadline=time.monotonic() + WARM_TIMEOUT_S,
        own_session=False,
    )
    return out


def warm_pass(engine, loops) -> Pass:
    out = Pass()
    started = clock()
    result = engine.evaluate([relower(loop, engine.machine) for loop in loops])
    out.wall = clock() - started
    out.absorb("cydra5", result)
    return out


# ----------------------------------------------------------------------
# Correctness gate and fingerprint (outside every timed region)


def digest(run: Pass) -> str:
    """SHA-256 over every (loop, II, op time, alternative) and the counters."""
    sha = hashlib.sha256()
    totals = Counters()
    for machine_name, evaluation in run.evaluations:
        schedule = evaluation.result.schedule
        rows = [
            [op, schedule.times[op],
             getattr(schedule.alternatives.get(op), "name", None)]
            for op in sorted(schedule.times)
        ]
        sha.update(json.dumps(
            [machine_name, evaluation.loop.name, schedule.ii, rows]
        ).encode())
        totals.merge(evaluation.counters)
    sha.update(json.dumps(totals.snapshot(), sort_keys=True).encode())
    return sha.hexdigest()


def gate(workload: str, engines, run: Pass) -> List[str]:
    """Every reason to reject this pass's output; empty when it is sound."""
    rejections = list(run.failures)
    if len(run.evaluations) + len(run.failures) != run.attempted:
        rejections.append("engine lost loops")
    for machine_name, evaluation in run.evaluations:
        machine = engines[machine_name].machine
        graph = evaluation.loop.graph
        result = evaluation.result
        name = f"{machine_name}/{evaluation.loop.name}"
        diagnostics = check_schedule(graph, machine, result.schedule)
        if not diagnostics.ok:
            rejections.append(f"{name}: schedule rejected by repro.check")
        if machine_name != "exact":
            continue
        ims = modulo_schedule(graph, machine, budget_ratio=6.0)
        if result.ii > ims.ii:
            rejections.append(f"{name}: exact II {result.ii} > IMS II {ims.ii}")
        if evaluation.optimal:
            certificates = result.certificates
            proven = certificates.get(result.ii, {}).get("status") == "sat" and all(
                certificates.get(ii, {}).get("status") in ("unsat", "infeasible")
                for ii in range(evaluation.mii, result.ii)
            )
            if not proven:
                rejections.append(f"{name}: proven II without a certificate")
    return rejections


def quality(run: Pass) -> Dict[str, float]:
    """The deterministic schedule-quality metrics of one pass."""
    evaluations = [e for _, e in run.evaluations]
    executed = [e for e in evaluations if e.loop.executed]
    code_ops = 0
    for e in evaluations:
        if e.loop.lowered is not None:
            code = emit_pipelined_code(e.loop.graph, e.result.schedule)
            code_ops += code.code_size_ops(e.loop.graph.n_real_ops)
    return {
        "ii_over_mii": sum(e.ii for e in evaluations)
        / max(1, sum(e.mii for e in evaluations)),
        "exec_ratio": sum(e.exec_time for e in executed)
        / max(1, sum(e.exec_bound for e in executed)),
        "code_ops": code_ops,
        "proven_frac": sum(1 for e in evaluations if e.optimal is True)
        / max(1, run.attempted),
        "degraded_frac": sum(1 for e in evaluations if e.degraded)
        / max(1, run.attempted),
    }


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    data = sorted(values)
    rank = (len(data) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


# ----------------------------------------------------------------------
# Measurement


def run_passes(workload, engines, pristine: bytes, args, budget: float, trace: bool):
    """Whole passes while another one still fits in ``budget`` seconds.

    The first pass always runs, so a workload whose pass is longer than
    the budget measures exactly one.
    """
    passes: List[Pass] = []
    measured = 0.0
    while True:
        run = one_pass(workload, engines, pristine, args, trace, len(passes))
        if not trace:
            settle(workload, engines, run, first=not passes)
        passes.append(run)
        measured += run.wall + (run.warm["wall"] if run.warm else 0.0)
        if measured * (len(passes) + 1) / len(passes) > budget:
            return passes


def settle(workload, engines, run: Pass, first: bool) -> None:
    """Gate (first pass only) and fingerprint a pass, then drop its results.

    This runs between passes, untimed, so every pass starts from the
    same memory and ``peak_rss_mb`` depends neither on the pass count
    nor on when the cyclic collector happens to run.
    """
    if first:
        run.rejections = gate(workload, engines, run)
        run.quality = quality(run)
    run.digest = digest(run)
    run.evaluations = []
    gc.collect()


def one_pass(workload, engines, pristine: bytes, args, trace, index) -> Pass:
    """One pass over a fresh copy of the inputs.

    The copy (untimed) keeps a pass from reusing what an earlier pass
    left cached on the graph objects.
    """
    inputs = pickle.loads(pristine)
    if workload != "corpus_pool_cache":
        return serial_pass(engines, inputs)
    cache_dir = os.path.join(args.work_dir, f"cache-{'t' if trace else 'u'}{index}")
    engine = engines["cydra5"]
    if index or trace:
        engine = EvaluationEngine(engine.machine, jobs=POOL_JOBS, cache_dir=cache_dir)
    inputs_path = os.path.join(args.work_dir, INPUTS_FILE)
    return pool_pass(engine, inputs["cydra5"], cache_dir, inputs_path, trace)


def summarize(passes: List[Pass]) -> dict:
    """End-to-end metrics, gate verdict and fingerprint of a set of passes."""
    first = passes[0]
    rejections = list(first.rejections)
    fingerprint = first.digest
    for later in passes[1:]:
        if later.digest != fingerprint:
            rejections.append("a later pass produced different schedules")
    warm = [p.warm for p in passes if p.warm is not None]
    for record in warm:
        if record["digest"] != fingerprint or record["failed"]:
            rejections.append("warm pass disagrees with the cold pass")
    samples = [ms for p in passes for ms in p.loop_ms]
    metrics = {
        "loops_per_s": sum(p.attempted for p in passes)
        / sum(p.wall for p in passes),
        "loop_ms_p50": statistics.median(samples),
        "loop_ms_tail": percentile(samples, TAIL_PERCENTILE),
    }
    metrics.update(first.quality)
    if warm:
        metrics["warm_loops_per_s"] = sum(r["attempted"] for r in warm) / sum(
            r["wall"] for r in warm
        )
        metrics["pool.busy_frac"] = sum(p.pool_cpu for p in passes) / (
            POOL_JOBS * sum(p.evaluate_wall for p in passes)
        )
    return {
        "metrics": metrics,
        "digest": fingerprint,
        "attempted": first.attempted,
        "rejections": rejections,
        "passes": len(passes),
        "pass_walls": [p.wall for p in passes],
        "warm_walls": [r["wall"] for r in warm],
        "warm_setup_s": [r["setup_s"] for r in warm],
        "tail_percentile": TAIL_PERCENTILE,
        "loop_samples": len(samples),
    }


def layer_metrics(passes: List[Pass], untraced_wall: float) -> dict:
    """Per-layer metrics of the traced passes, per pass."""
    recorder = spans.RECORDER
    seconds = dict(recorder.self_seconds())
    calls = dict(recorder.calls)
    counts = dict(recorder.counts)
    wall = sum(p.wall for p in passes)
    for record in (p.warm for p in passes if p.warm is not None):
        wall += record["wall"]
        for source, target in (
            (record["layer_seconds"], seconds),
            (record["layer_calls"], calls),
            (record["layer_counts"], counts),
        ):
            for name, value in source.items():
                target[name] = target.get(name, 0) + value
    attributed = sum(seconds.values())
    for name, value in recorder.worker_seconds.items():
        seconds[name] = seconds.get(name, 0.0) + value
    totals = Counters()
    final_ops = 0
    for p in passes:
        for _, evaluation in p.evaluations:
            totals.merge(evaluation.counters)
            if not evaluation.degraded:
                final_ops += len(evaluation.result.schedule.times)
    n = len(passes)
    sat_s = seconds.get("sat", 0.0)
    conflicts = counts.get("sat.conflicts", 0)
    layers = {
        "loopir.s": seconds.get("loopir", 0.0),
        "loopir.ops_out": counts.get("loopir.ops_out", 0),
        "mii.s": seconds.get("mii", 0.0),
        "mii.resmii_steps": totals.resmii_steps,
        "mii.scc_steps": totals.scc_steps,
        "mii.mindist_closure_inner": totals.mindist_closure_inner,
        "bound.s": seconds.get("bound", 0.0),
        "bound.calls": calls.get("bound", 0),
        "list.s": seconds.get("list", 0.0),
        "scheduler.s": seconds.get("scheduler", 0.0),
        "scheduler.ii_attempts": totals.ii_attempts,
        "scheduler.ops_scheduled": totals.ops_scheduled,
        "scheduler.findtimeslot_iters": totals.findtimeslot_iters,
        "engine.key_s": seconds.get("engine.key", 0.0),
        "engine.to_dict_s": seconds.get("engine.to_dict", 0.0),
        "engine.from_dict_s": seconds.get("engine.from_dict", 0.0),
        "engine.other_s": seconds.get("engine", 0.0),
        "engine.cache_hits": sum(p.hits for p in passes)
        + sum(p.warm["hits"] for p in passes if p.warm),
        "engine.cache_misses": sum(p.misses for p in passes)
        + sum(p.warm["misses"] for p in passes if p.warm),
        "pool.wait_s": seconds.get("pool", 0.0),
        "check.s": seconds.get("check", 0.0),
        "check.findings": counts.get("check.findings", 0),
        "codegen.s": seconds.get("codegen", 0.0),
        "simulator.s": seconds.get("simulator", 0.0),
        "exact.s": seconds.get("exact", 0.0),
        "encode.s": seconds.get("encode", 0.0),
        "encode.clauses": counts.get("encode.clauses", 0),
        "sat.s": sat_s,
        "sat.calls": calls.get("sat", 0),
        "sat.conflicts": conflicts,
        "trace.wall_s": wall,
    }
    layers = {name: value / n for name, value in layers.items()}
    layers["scheduler.useful_ratio"] = final_ops / max(1, totals.ops_scheduled)
    layers["sat.conflicts_per_s"] = conflicts / sat_s if sat_s else 0.0
    layers["trace.overhead_frac"] = wall / untraced_wall - 1.0
    layers["trace.other_frac"] = seconds.get("engine", 0.0) / wall
    layers["trace.unattributed_frac"] = (wall - attributed) / wall
    return layers


# ----------------------------------------------------------------------
# Entry points


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "warm"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--inputs", default=None)
    parser.add_argument("--spawned-at", type=float, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cache_dir = args.cache_dir
    if args.mode == "measure" and args.workload == "corpus_pool_cache":
        cache_dir = os.path.join(args.work_dir, "cache-u0")
    engines = build_engines(args.workload, cache_dir)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.mode == "warm":
        with open(args.inputs, "rb") as handle:
            inputs = pickle.load(handle)
        if args.trace:
            spans.install()
        reset_peak_rss()
        run = warm_pass(engines["cydra5"], inputs["cydra5"])
        recorder = spans.RECORDER
        print(json.dumps({
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "wall": run.wall,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "hits": run.hits,
            "misses": run.misses,
            "digest": digest(run),
            "layer_seconds": recorder.self_seconds(),
            "layer_calls": dict(recorder.calls),
            "layer_counts": dict(recorder.counts),
        }))
        return 0

    inputs = make_inputs(args.workload, engines, args.seed)
    pristine = pickle.dumps(inputs)
    if args.workload == "corpus_pool_cache":
        with open(os.path.join(args.work_dir, INPUTS_FILE), "wb") as handle:
            handle.write(pristine)
    budget = args.seconds / 2 if args.trace else args.seconds
    reset_peak_rss()
    passes = run_passes(args.workload, engines, pristine, args, budget, False)
    peak_rss = max(
        [peak_rss_mb()]
        + [p.workers_rss_mb for p in passes]
        + [p.warm["peak_rss_mb"] for p in passes if p.warm]
    )
    report = summarize(passes)
    report["metrics"]["peak_rss_mb"] = peak_rss
    report["setup_s"] = setup_s
    if args.trace:
        untraced_wall = sum(
            p.wall + (p.warm["wall"] if p.warm else 0.0) for p in passes
        )
        spans.install()
        traced = [
            one_pass(args.workload, engines, pristine, args, True, index)
            for index in range(len(passes))
        ]
        fingerprints = {digest(p) for p in traced}
        fingerprints.update(p.warm["digest"] for p in traced if p.warm)
        if fingerprints != {report["digest"]}:
            report["rejections"].append("traced schedules differ from untraced")
        report["layers"] = layer_metrics(traced, untraced_wall)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scheduler hot-path microbenchmarks: bitmask MRT kernel vs dict oracle.

Three measurements, each appended as one record to ``BENCH_SCHED.json``
at the repository root — a trajectory of scheduler-kernel performance
that accumulates across runs (and that the CI perf-smoke job reads back
to assert the bitmask path stays ahead of the oracle):

* ``conflict_probe`` — raw ``conflicts()`` throughput on a realistically
  filled MRT, replaying the identical probe sequence against both
  implementations.  The paper's FindTimeSlot scans every candidate slot
  with exactly this probe, so this is the innermost loop of Figure 2.
* ``corpus_end_to_end`` — wall time to modulo-schedule a corpus slice
  under each implementation with the MII computation shared, isolating
  the scheduling phase the MRT sits in.
* ``mask_compile_cache`` — cold compile of every opcode alternative over
  a range of IIs versus warm lookups through the content-addressed
  per-(machine, II) cache.
* ``mindist_bound`` — the schedule-length bound as shipped (one
  single-source longest-path pass per loop and II) versus reading
  MinDist[START, STOP] off the per-II Floyd-Warshall matrix: bit-equal
  answers, less wall time.
* ``slot_probe_batch`` — the batched FindTimeSlot kernel
  (``first_free_slot``: one rotated bit-vector per alternative) versus
  the scalar (slot, alternative) scan, plus a scheduling-pipeline arm
  replaying the PR-3 ``corpus_end_to_end`` protocol and holding the
  batched scheduler to >= 1.5x the recorded PR-3 per-loop time.

See docs/PERFORMANCE.md for the mask encoding and the file format.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from time import perf_counter

from conftest import QUALITY_BUDGET_RATIO

from repro.core import Counters
from repro.core.mrt import DictModuloReservations, make_modulo_reservations
from repro.core.mii import compute_mii
from repro.core.scheduler import modulo_schedule

BENCH_SCHED = Path(__file__).resolve().parent.parent / "BENCH_SCHED.json"

#: II used for the probe microbenchmark (a mid-size kernel's interval).
PROBE_II = 6

#: Corpus slice for the end-to-end comparison (keeps local runs snappy;
#: REPRO_BENCH_LOOPS already shrinks the corpus itself).
E2E_LOOPS = 150


def _record(bench: str, payload: dict) -> None:
    """Append one result record to the BENCH_SCHED.json trajectory."""
    data = {"version": 1, "runs": []}
    if BENCH_SCHED.exists():
        data = json.loads(BENCH_SCHED.read_text())
    data["runs"].append(
        {"bench": bench, "unix_time": round(time.time(), 3), **payload}
    )
    BENCH_SCHED.write_text(json.dumps(data, indent=2) + "\n")


class _RecordingMRT:
    """Transparent MRT wrapper that logs every kernel call it forwards."""

    def __init__(self, inner, events):
        self._inner = inner
        self._events = events

    def conflicts(self, table, time):
        self._events.append(("probe", table, time))
        return self._inner.conflicts(table, time)

    def conflicting_ops(self, tables, time):
        tables = tuple(tables)
        self._events.append(("ops", tables, time))
        return self._inner.conflicting_ops(tables, time)

    def reserve(self, op, table, time):
        self._events.append(("reserve", (op, table), time))
        return self._inner.reserve(op, table, time)

    def release(self, op):
        self._events.append(("release", op, 0))
        return self._inner.release(op)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _record_kernel_trace(machine, corpus):
    """Every MRT kernel call the scheduler issued over a corpus slice.

    Recorded by wrapping the scheduler's MRT during real runs, because
    probe traffic is *not* uniform: wide tables (loads holding a memory
    port at issue and at data return) conflict more often and attract
    disproportionately many slot scans, and the occupancy each probe
    runs against decides how soon the oracle's scan can exit early.
    """
    import repro.core.scheduler as scheduler_module

    events = []
    original = scheduler_module.make_modulo_reservations

    def recording_make(ii, machine=None, impl=None):
        events.append(("new", ii, 0))
        return _RecordingMRT(
            original(ii, machine=machine, impl="mask"), events
        )

    scheduler_module.make_modulo_reservations = recording_make
    try:
        for loop in corpus:
            modulo_schedule(
                loop.graph, machine, budget_ratio=QUALITY_BUDGET_RATIO
            )
    finally:
        scheduler_module.make_modulo_reservations = original
    return events


def _resolve_events(events, impl):
    """Rebind the recorded tables for one implementation: the bitmask
    replay probes the CompiledAlternatives the scheduler probed, the
    oracle replay probes the raw reservation tables underneath them."""

    def resolve(table):
        return getattr(table, "table", table) if impl == "dict" else table

    codes = {"probe": 0, "new": 1, "reserve": 2, "release": 3, "ops": 4}
    resolved = []
    for kind, payload, time in events:
        if kind == "probe":
            payload = resolve(payload)
        elif kind == "reserve":
            payload = (payload[0], resolve(payload[1]))
        elif kind == "ops":
            payload = tuple(resolve(table) for table in payload)
        resolved.append((codes[kind], payload, time))
    return resolved


def _replay(events, impl, machine, repeats):
    """Replay a recorded kernel trace; returns (seconds, created MRTs)."""
    resolved = _resolve_events(events, impl)
    created = []
    mrt = None
    start = perf_counter()
    for _ in range(repeats):
        for code, payload, time_ in resolved:
            if code == 0:
                mrt.conflicts(payload, time_)
            elif code == 1:
                mrt = make_modulo_reservations(
                    payload, machine=machine, impl=impl
                )
                created.append(mrt)
            elif code == 2:
                mrt.reserve(payload[0], payload[1], time_)
            elif code == 3:
                mrt.release(payload)
            else:
                mrt.conflicting_ops(payload, time_)
    return perf_counter() - start, created


def test_conflict_probe_throughput(machine, corpus, emit):
    """The single-AND probe must be >= 3x the dict oracle's throughput.

    Both implementations replay the identical kernel trace — every
    ``conflicts`` probe, ``reserve``, ``release`` and ``conflicting_ops``
    the scheduler issued over a corpus slice, against the identical
    evolving occupancy — so the comparison covers real fill levels and
    the real mix of early-exit hits and full-scan misses.
    """
    events = _record_kernel_trace(machine, corpus[:60])
    n_probes = sum(1 for kind, _, _ in events if kind == "probe")
    repeats = 10
    mask_seconds, mask_mrts = _replay(events, "mask", machine, repeats)
    dict_seconds, dict_mrts = _replay(events, "dict", machine, repeats)

    mask_cell_probes = sum(mrt.cell_probes for mrt in mask_mrts)
    dict_cell_probes = sum(mrt.cell_probes for mrt in dict_mrts)
    total_probes = repeats * n_probes
    speedup = dict_seconds / mask_seconds
    result = {
        "events": len(events),
        "probes": total_probes,
        "mask_seconds": round(mask_seconds, 6),
        "dict_seconds": round(dict_seconds, 6),
        "mask_probes_per_second": round(total_probes / mask_seconds),
        "dict_probes_per_second": round(total_probes / dict_seconds),
        "speedup": round(speedup, 2),
        "mask_cell_probes": mask_cell_probes,
        "dict_cell_probes": dict_cell_probes,
    }
    _record("conflict_probe", result)
    emit(
        "hotpath_conflict_probe",
        f"MRT kernel replay ({len(events)} recorded calls x {repeats}, "
        f"{total_probes:,} conflict probes):\n"
        f"  bitmask {result['mask_probes_per_second']:>12,} probes/s "
        f"({mask_seconds:.3f}s)\n"
        f"  dict    {result['dict_probes_per_second']:>12,} probes/s "
        f"({dict_seconds:.3f}s)\n"
        f"  speedup {speedup:.1f}x   dict cell probes "
        f"{dict_cell_probes:,} vs mask {mask_cell_probes}",
    )
    assert mask_cell_probes == 0  # the fast path touches no cell dict
    assert dict_cell_probes > 0
    assert speedup >= 3.0, f"bitmask kernel only {speedup:.2f}x the oracle"


def test_corpus_end_to_end(machine, corpus, emit):
    """Scheduling the corpus must be measurably faster under the mask MRT."""
    loops = corpus[:E2E_LOOPS]
    mii_results = [compute_mii(loop.graph, machine) for loop in loops]

    def run(impl):
        counters = Counters()
        results = []
        start = perf_counter()
        for loop, mii_result in zip(loops, mii_results):
            results.append(
                modulo_schedule(
                    loop.graph,
                    machine,
                    budget_ratio=QUALITY_BUDGET_RATIO,
                    counters=counters,
                    mii_result=mii_result,
                    mrt_impl=impl,
                )
            )
        return perf_counter() - start, counters, results

    mask_seconds, mask_counters, mask_results = run("mask")
    dict_seconds, dict_counters, dict_results = run("dict")

    # Differential guard: identical work and identical schedules.
    assert mask_counters.snapshot() == dict_counters.snapshot()
    for left, right in zip(mask_results, dict_results):
        assert left.ii == right.ii
        assert left.schedule.times == right.schedule.times

    speedup = dict_seconds / mask_seconds
    result = {
        "loops": len(loops),
        "budget_ratio": QUALITY_BUDGET_RATIO,
        "mask_seconds": round(mask_seconds, 4),
        "dict_seconds": round(dict_seconds, 4),
        "speedup": round(speedup, 3),
        "ops_scheduled": mask_counters.ops_scheduled,
        "findtimeslot_iters": mask_counters.findtimeslot_iters,
    }
    _record("corpus_end_to_end", result)
    emit(
        "hotpath_corpus_end_to_end",
        f"End-to-end scheduling of {len(loops)} loops "
        f"(BudgetRatio {QUALITY_BUDGET_RATIO}, shared MII):\n"
        f"  bitmask {mask_seconds:.2f}s   dict {dict_seconds:.2f}s   "
        f"speedup {speedup:.2f}x",
    )
    assert mask_seconds < dict_seconds, (
        f"bitmask end-to-end ({mask_seconds:.2f}s) not faster than the "
        f"dict oracle ({dict_seconds:.2f}s)"
    )


#: IIs, from the MII up, at which the ``mindist_bound`` bench asks for
#: the schedule-length bound (the pipeline asks at the MII and at the
#: II the scheduler reaches, usually within this window).
II_WINDOW = 4


def _bound_workload(loops, mii_values, bound):
    """Every loop's bounds over the II window; returns (seconds, values)."""
    values = []
    start = perf_counter()
    for loop, mii in zip(loops, mii_values):
        for ii in range(mii, mii + II_WINDOW):
            values.append(bound(loop.graph, ii))
    return perf_counter() - start, values


def _fw_bound(graph, ii):
    """MinDist[START, STOP] read off the full Floyd-Warshall matrix."""
    from repro.core.mindist import NO_PATH, compute_mindist

    dist, index = compute_mindist(graph, ii)
    value = dist[index[graph.START], index[graph.stop]]
    return 0 if value == NO_PATH else int(value)


def test_mindist_bound(machine, corpus, emit):
    """The shipped schedule-length bound (one single-source pass from
    START) must give the Floyd-Warshall oracle's exact value on every
    loop and II of the slice, and take less wall time doing it.

    Both arms answer the identical (loop, II) set; wall time is the best
    of three alternating trials.  The gate is on wall clock, not on an
    operation ratio: an op-count gate once let a 12x cut in N³ work
    through while the pipeline got slower.
    """
    from repro.core.mindist import schedule_length_lower_bound

    mii_values = [compute_mii(loop.graph, machine).mii for loop in corpus]
    sparse_trials, fw_trials = [], []
    for _ in range(3):
        fw_trials.append(_bound_workload(corpus, mii_values, _fw_bound))
        sparse_trials.append(
            _bound_workload(corpus, mii_values, schedule_length_lower_bound)
        )
    fw_seconds, fw_values = min(fw_trials, key=lambda r: r[0])
    sparse_seconds, sparse_values = min(sparse_trials, key=lambda r: r[0])
    mismatches = sum(a != b for a, b in zip(sparse_values, fw_values))
    speedup = fw_seconds / sparse_seconds
    result = {
        "loops": len(corpus),
        "ii_window": II_WINDOW,
        "bounds": len(sparse_values),
        "mismatches": mismatches,
        "fw_seconds": round(fw_seconds, 4),
        "sparse_seconds": round(sparse_seconds, 4),
        "speedup": round(speedup, 2),
    }
    _record("mindist_bound", result)
    emit(
        "hotpath_mindist_bound",
        f"Schedule-length bound over {len(corpus)} loops x {II_WINDOW} IIs "
        f"({len(sparse_values):,} bounds, best of 3):\n"
        f"  Floyd-Warshall oracle {fw_seconds:.3f}s   "
        f"single-source {sparse_seconds:.3f}s   speedup {speedup:.1f}x   "
        f"mismatches {mismatches}",
    )
    assert mismatches == 0
    assert sparse_seconds < fw_seconds, (
        f"single-source bound {sparse_seconds:.3f}s not faster than the "
        f"Floyd-Warshall oracle {fw_seconds:.3f}s"
    )


def _pr3_per_loop_seconds() -> float:
    """Per-loop scheduling time of the first recorded ``corpus_end_to_end``
    run (the PR-3 record) — the trajectory baseline the batched scheduler
    is held against."""
    data = json.loads(BENCH_SCHED.read_text())
    for run in data["runs"]:
        if run["bench"] == "corpus_end_to_end":
            return run["mask_seconds"] / run["loops"]
    raise AssertionError(
        "BENCH_SCHED.json has no corpus_end_to_end record to compare "
        "against; run test_corpus_end_to_end first"
    )


def test_slot_probe_batch(machine, corpus, emit):
    """first_free_slot must beat the scalar scan >= 2x on the isolated
    kernel, and the batched scheduling pipeline must beat the recorded
    PR-3 ``corpus_end_to_end`` entry >= 1.5x per loop.

    The pipeline arms replicate the PR-3 record's protocol exactly —
    time ``modulo_schedule`` only, MII precomputed once and shared, the
    same budget ratio, the mask MRT — so the per-loop comparison against
    the stored record isolates what this PR changed: batched slot
    probing plus the shared SCC/preparation caches.  The same-run scalar
    arm is reported alongside to isolate the slot batching itself, and
    both arms must produce bit-identical schedules and counters (the
    batch path bills ``findtimeslot_iters`` as if it had scanned).
    """
    from repro.core.mrt import ModuloReservations

    # -- isolated kernel: replay one probe set both ways ----------------
    mask_set = machine.compiled_masks(PROBE_II)
    alternatives = [
        list(mask_set.feasible(opcode))
        for opcode in machine.opcode_names
        if mask_set.feasible(opcode)
    ]
    mrt = ModuloReservations(PROBE_II, mask_set)
    op = 0
    for alts in alternatives * 3:  # realistic fill: a few of everything
        for table in alts:
            slot, index = mrt.first_free_slot([table], op % PROBE_II)
            if slot is not None:
                mrt.reserve(op, table, slot)
                op += 1
                break
    probes = [
        (alts, min_time)
        for min_time in range(PROBE_II * 4)
        for alts in alternatives
    ]
    repeats = 400

    start = perf_counter()
    batch_answers = [
        mrt.first_free_slot(alts, min_time)
        for _ in range(repeats)
        for alts, min_time in probes
    ]
    batch_seconds = perf_counter() - start

    def scalar_scan(alts, min_time):
        for time_ in range(min_time, min_time + PROBE_II):
            for index, table in enumerate(alts):
                if not mrt.conflicts(table, time_):
                    return time_, index
        return None, None

    start = perf_counter()
    scalar_answers = [
        scalar_scan(alts, min_time)
        for _ in range(repeats)
        for alts, min_time in probes
    ]
    scalar_seconds = perf_counter() - start
    assert batch_answers == scalar_answers
    kernel_speedup = scalar_seconds / batch_seconds

    # -- full pipeline: batched scheduler vs the recorded PR-3 entry ----
    loops = corpus[:E2E_LOOPS]
    mii_results = [compute_mii(loop.graph, machine) for loop in loops]

    def run(slot_impl):
        counters = Counters()
        results = []
        start = perf_counter()
        for loop, mii_result in zip(loops, mii_results):
            results.append(
                modulo_schedule(
                    loop.graph,
                    machine,
                    budget_ratio=QUALITY_BUDGET_RATIO,
                    counters=counters,
                    mii_result=mii_result,
                    mrt_impl="mask",
                    slot_impl=slot_impl,
                )
            )
        return perf_counter() - start, counters, results

    # Best of three alternating trials: the floor compares against a
    # *stored* record, so per-run scheduler noise must not decide it.
    batch_trials, scalar_trials = [], []
    for _ in range(3):
        scalar_trials.append(run("scalar"))
        batch_trials.append(run("batch"))
    scalar_pipe_seconds, scalar_counters, scalar_results = min(
        scalar_trials, key=lambda r: r[0]
    )
    pipe_seconds, pipe_counters, pipe_results = min(
        batch_trials, key=lambda r: r[0]
    )

    # Differential guard: identical schedules, bit-identical counters
    # (the batch path's as-if accounting makes every snapshot field
    # match the scalar scan, findtimeslot_iters included).
    for left, right in zip(pipe_results, scalar_results):
        assert left.ii == right.ii
        assert left.schedule.times == right.schedule.times
    assert pipe_counters.snapshot() == scalar_counters.snapshot()

    pr3_per_loop = _pr3_per_loop_seconds()
    per_loop = pipe_seconds / len(loops)
    corpus_speedup = pr3_per_loop / per_loop
    scalar_ratio = scalar_pipe_seconds / pipe_seconds
    result = {
        "probes": repeats * len(probes),
        "batch_seconds": round(batch_seconds, 4),
        "scalar_seconds": round(scalar_seconds, 4),
        "kernel_speedup": round(kernel_speedup, 2),
        "loops": len(loops),
        "budget_ratio": QUALITY_BUDGET_RATIO,
        "pipeline_seconds": round(pipe_seconds, 4),
        "pipeline_scalar_seconds": round(scalar_pipe_seconds, 4),
        "per_loop_ms": round(per_loop * 1e3, 4),
        "pr3_per_loop_ms": round(pr3_per_loop * 1e3, 4),
        "corpus_speedup": round(corpus_speedup, 3),
        "scalar_ratio": round(scalar_ratio, 3),
        "findtimeslot_iters": pipe_counters.findtimeslot_iters,
    }
    _record("slot_probe_batch", result)
    emit(
        "hotpath_slot_probe_batch",
        f"Batched FindTimeSlot ({repeats * len(probes):,} window probes):\n"
        f"  batch  {batch_seconds:.3f}s   scalar {scalar_seconds:.3f}s   "
        f"kernel speedup {kernel_speedup:.2f}x\n"
        f"Scheduling pipeline over {len(loops)} loops "
        f"(BudgetRatio {QUALITY_BUDGET_RATIO}, shared MII, best of 3):\n"
        f"  batch {per_loop * 1e3:.3f}ms/loop   "
        f"scalar {scalar_pipe_seconds / len(loops) * 1e3:.3f}ms/loop "
        f"(x{scalar_ratio:.2f})   "
        f"PR-3 record {pr3_per_loop * 1e3:.3f}ms/loop   "
        f"speedup vs record {corpus_speedup:.2f}x",
    )
    assert kernel_speedup >= 2.0, (
        f"batched slot kernel only {kernel_speedup:.2f}x the scalar scan"
    )
    assert pipe_seconds <= scalar_pipe_seconds, (
        "batched pipeline slower than its own scalar arm"
    )
    assert corpus_speedup >= 1.5, (
        f"pipeline only {corpus_speedup:.2f}x the recorded PR-3 entry "
        f"({per_loop * 1e3:.3f}ms vs {pr3_per_loop * 1e3:.3f}ms per loop)"
    )


def test_mask_compile_cache(machine, emit):
    """Warm per-(machine, II) lookups must beat cold compiles outright."""
    from repro.machine.machine import _MASK_SET_CACHE
    from repro.machine.serialize import machine_from_dict, machine_to_dict

    iis = list(range(1, 33))
    cold_machine = machine_from_dict(machine_to_dict(machine))
    _MASK_SET_CACHE.clear()
    start = perf_counter()
    for ii in iis:
        cold_machine.compiled_masks(ii)
    cold_seconds = perf_counter() - start

    # A second equal machine: every lookup is a content-addressed hit.
    warm_machine = machine_from_dict(machine_to_dict(machine))
    start = perf_counter()
    for ii in iis:
        warm_machine.compiled_masks(ii)
    warm_seconds = perf_counter() - start
    assert warm_machine.compiled_masks(iis[0]) is cold_machine.compiled_masks(
        iis[0]
    )

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    result = {
        "iis": len(iis),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(speedup, 1),
    }
    _record("mask_compile_cache", result)
    emit(
        "hotpath_mask_compile_cache",
        f"Mask compilation over {len(iis)} IIs: cold {cold_seconds * 1e3:.1f}ms, "
        f"warm {warm_seconds * 1e3:.2f}ms ({speedup:.0f}x)",
    )
    assert warm_seconds < cold_seconds

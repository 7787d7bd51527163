"""Loop-compile benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload corpus_serial --seed 1 \\
        --seconds 30 --trace 0

Every measurement runs in a fresh interpreter (``bench.py``) with
``PYTHONPATH=src``; this script only starts them, gathers their reports
and prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  The exit status is
non-zero when any output failed the correctness gate, or when the
checkout holds no ``src/repro`` to measure.  README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

WORKLOADS = ("corpus_serial", "corpus_pool_cache", "kernels")
#: Extra fresh interpreters that only set up, for the ``setup_s`` median.
SETUP_PROBES = 5
#: Wall-clock cap on everything this script starts.
RUN_TIMEOUT_S = 170.0


def declared_metrics():
    """(end-to-end, per-layer) metric names and units from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def spawn(argv, env, deadline, own_session=True):
    """Run ``bench.py`` in a fresh interpreter; return its last JSON line.

    ``env`` None inherits this process's environment.  When ``deadline``
    (monotonic) passes the child is killed: with ``own_session`` as a
    process group, pool workers included; otherwise it stays in the
    caller's group, so killing the caller's group takes it along.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py")] + argv
        + ["--spawned-at", repr(spawned)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=own_session,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            if own_session:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py {argv[0]} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def host_probe_ms(rounds: int = 15) -> float:
    """Median wall of a fixed pure-Python slice: a reading of host speed.

    Taken before and after the measurement and printed in the report
    line, so a shift in the timings can be told apart from a shift in
    the host.  It is not a metric and corrects nothing.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 2 if args.workload == "corpus_pool_cache" else 1,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_FAULT_INJECT", None)
    probe_before = host_probe_ms()
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [
            spawn(["setup", "--workload", args.workload], env, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        report = spawn(
            ["measure", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work_dir)],
            env,
            deadline,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    probes = [probe_before, host_probe_ms()]
    setups += [report["setup_s"]] + report["warm_setup_s"]

    measured = dict(report["metrics"])
    measured["setup_s"] = statistics.median(setups)
    rejections = report["rejections"]
    measured["failed_frac"] = len(rejections) / report["attempted"]
    measured.setdefault("warm_loops_per_s", 0.0)
    measured.setdefault("pool.busy_frac", 0.0)
    measured.update(report.get("layers", {}))

    end_to_end, per_layer = declared_metrics()
    wanted = per_layer if args.trace else end_to_end
    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in wanted.items()
    }
    print(json.dumps({
        "provenance": provenance(args),
        "host_probe_ms": probes,
        "digest": report["digest"],
        "passes": report["passes"],
        "pass_walls_s": report["pass_walls"],
        "warm_walls_s": report["warm_walls"],
        "setup_samples_s": setups,
        "loop_samples": report["loop_samples"],
        "loop_ms_tail_percentile": report["tail_percentile"],
        "also": {name: measured[name] for name in (
            "failed_frac", "degraded_frac", "warm_loops_per_s", "pool.busy_frac"
        )},
        "rejections": rejections[:20],
    }))
    print(json.dumps({
        "correct": not rejections,
        "attempted": report["attempted"],
        "failed": len(rejections),
        "metrics": metrics,
    }))
    return 0 if not rejections else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)

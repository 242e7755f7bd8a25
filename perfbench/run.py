"""Benchmark entry point: one workload, one seed, one fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload bank --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer ledger instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.  See ``perfbench/NOTES.md``.
"""

import os
import time

_START = time.perf_counter()

# Steadiness: single-threaded BLAS/OpenMP, set before numpy is imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics with their units, in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "qps": "queries/s",
    "sim_qps": "queries/s",
    "accuracy": "fraction",
    "slo_attainment": "fraction",
    "peak_rss_mb": "MB",
}
#: Timed repetitions made even when ``--seconds`` runs out first.
MIN_REPS = 3
#: What :meth:`Tally.run` returns when the call raised.
FAILED = object()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(cpus: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy: the config is informational only
        pass
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Counts attempted and failed ops; a failed check fails its op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {what}: {failure}", file=sys.stderr)

    def run(self, what: str, fn, *args):
        """Call ``fn``; an exception fails the op and returns ``FAILED``."""
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc()
            return FAILED


def timed_op(workload, state):
    workload.before_op(state)
    gc.collect()
    return workload.timed_op(state)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs the sources on the path)
    import ledger  # noqa: E402
    from host import NOMINAL_REF_S, HostClock  # noqa: E402

    import_s = time.perf_counter() - _START
    clock = HostClock()
    import_s *= NOMINAL_REF_S / clock.refs[0]
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0))
    print("environment " + json.dumps(environment(cpus)))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Keep every file the program writes inside the checkout.
    tempfile.tempdir = str(workdir)
    os.environ["RAMSIS_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, cpus, clock)
        return run(args, workload, ledger, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def run(args, workload, ledger, import_s) -> int:
    tally = Tally()

    setup_walls = []
    state = None
    for _ in range(workload.setup_repeats):
        gc.collect()
        wall, state = workload.clock.timed(workload.setup)
        setup_walls.append(wall)
    setup_s = import_s + statistics.median(setup_walls)

    # One untimed warm-up; every later repetition must reproduce its result.
    reference = None
    out = tally.run("warm-up", timed_op, workload, state)
    if out is not FAILED:
        tally.record("warm-up", workload.check_op(state, out, None))
        reference = workload.fingerprint(out)
    out = None

    # Each repetition keeps only its float walls; the last keeps its
    # full output for the closing checks.
    reps, traced, last = [], [], None
    start = time.perf_counter()
    min_reps = 1 if args.trace else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() - start < args.seconds:
        last = None
        out = tally.run("op", timed_op, workload, state)
        if out is FAILED:
            break
        tally.record("op", workload.check_op(state, out, reference))
        reps.append({k: v for k, v in out.items() if isinstance(v, float)})
        last, out = out, None
        if tally.run("between", workload.between, state, last) is FAILED:
            break
        if args.trace:
            workload.before_op(state)
            gc.collect()
            result = tally.run("traced op", workload.traced_op, state)
            if result is FAILED:
                break
            tally.record("traced op", [])
            traced.append(result)
        print(f"rep {len(reps)} op_s {reps[-1]['wall']:.4f}" + (
            f" traced_s {traced[-1][0]:.4f}" if args.trace else ""))

    finished = FAILED
    if last is not None:
        finished = tally.run("closing checks", workload.finish, state, reps, last)
    if finished is not FAILED:
        values, failures = finished
        tally.record("closing checks", failures)
    correct = tally.failed == 0 and finished is not FAILED
    if not correct:
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1

    info = {k: v for k, v in values.items() if k.startswith("info.")}
    info["info.host_ref_ms"] = 1000.0 * statistics.median(workload.clock.refs)
    print("info " + json.dumps(info))
    if args.trace:
        metrics = traced_ledger(ledger, reps, traced)
        units = ledger.LEDGER_UNITS
    else:
        metrics = {name: values[name] for name in END_TO_END if name in values}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def traced_ledger(ledger, reps, traced) -> dict:
    """Per-metric medians over the traced reps, plus shares and overhead."""
    op_s = statistics.median(wall for wall, _ in traced)
    untraced_s = statistics.median(rep["raw_wall"] for rep in reps)
    names = set().union(*(row for _, row in traced))
    medians = {name: statistics.median(row[name] for _, row in traced) for name in names}
    return ledger.finish_ledger(medians, op_s, untraced_s)


if __name__ == "__main__":
    sys.exit(main())

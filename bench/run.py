"""Benchmark of the lielength library: length brackets per second.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

One process, one thread, BLAS threads pinned to 1, one client in a closed
loop: each item starts when the previous one has ended.  The seed fixes the
item list; the loop cycles through it until ``--seconds`` of item time have
been spent, then finishes the first pass if it is not complete, so the
quality figures and the digest always cover the same items.  Every executed
item is checked right after it ends, off the clock (see ``workloads.py``),
and a repeated item must reproduce its bracket values to AGREE.  Item
times are rescaled to a reference machine speed (see ``speed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
half of the item list untraced, then again with the layer wrappers of
``tracing.py`` installed, and reports per-layer calls, self time and the
tracing overhead; the traced outputs must agree with the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the report (environment, digest, tail percentile, failures).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
TRACE_SHARE = 0.5
TAIL_BEYOND = 10
RUN_CAP_S = 150.0
# Agreement asked of repeated bracket values, and their rounding in the
# digest.  Repeats are not byte-identical: scipy.linalg.logm estimates norms
# with numpy's global random generator, which moves the last bits.
AGREE = 1e-12
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
              "item_tail_ms": "ms", "upper_excess_mean": "ratio",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "function_fields", "circle_schatten"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare():
    """Pin BLAS threads before numpy loads and put the library on the path.
    Returns False when the checkout holds no library source."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "lielength" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True



def set_up(workload, seed):
    """Imports, samplers and graph building: the set-up a run pays.  The
    inputs are then frozen out of the garbage collector's scans, so that the
    collections the library's own allocations trigger do not walk them."""
    from workloads import WORKLOADS
    bench = WORKLOADS[workload]()
    items = bench.generate(seed)
    gc.freeze()
    return bench, items


def setup_seconds(args):
    """Median over fresh processes of process start to inputs generated, at
    the reference speed; and the wall-clock samples."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, check=True, timeout=60)
        finished, scale = map(float, done.stdout.split()[-2:])
        wall.append(finished - start)
        scaled.append(wall[-1] * scale)
    return statistics.median(scaled), wall


@dataclass
class Record:
    """What one executed item leaves behind: its time off the clock of the
    checks, and only the small results of checking its output."""

    index: int
    elapsed: float
    kernel_s: float
    fails: list
    values: list = field(default_factory=list)
    excess: list = field(default_factory=list)
    fingerprint: bytes = b""


def execute(bench, item, speedometer, earlier=None):
    """Read the machine's speed, run one item, then check its output off the
    clock.  With ``earlier`` (a Record of the same item), the values must
    repeat it to AGREE."""
    kernel_s = speedometer.seconds()
    start = time.perf_counter()
    try:
        out = bench.run(item)
    except Exception:  # a raising item is a failed item, not a failed run
        elapsed = time.perf_counter() - start
        trace = traceback.format_exc(limit=3).strip()
        return Record(item.index, elapsed, kernel_s,
                      [f"item {item.index} raised: {trace}"])
    elapsed = time.perf_counter() - start
    record = Record(item.index, elapsed, kernel_s, bench.check(item, out),
                    bench.values(out),
                    [(upper - ref) / ref for upper, ref in bench.brackets(item, out)],
                    bench.fingerprint(out))
    if earlier is not None and earlier.values:
        drift = max(abs(a - b) / max(1.0, abs(a))
                    for a, b in zip(earlier.values, record.values))
        if drift > AGREE:
            record.fails.append(f"item {item.index}: values moved by "
                                f"{drift:.3g} from an earlier run")
    return record


def closed_loop(bench, items, speedometer, seconds=None, earlier=None):
    """One client, one item at a time.  With ``seconds``, cycle through the
    items until that much item time has been spent; otherwise run each once.
    Repeats are compared with the first run of the item, or with
    ``earlier`` (index -> Record) when given."""
    records = []
    busy = 0.0
    while busy < seconds if seconds is not None else len(records) < len(items):
        item = items[len(records) % len(items)]
        reference = (earlier or {}).get(item.index)
        if reference is None and len(records) >= len(items):
            reference = records[len(records) % len(items)]
        record = execute(bench, item, speedometer, reference)
        busy += record.elapsed
        records.append(record)
    return records


def tail(times):
    """Highest nearest-rank percentile with TAIL_BEYOND items above it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return (ordered[len(ordered) - TAIL_BEYOND - 1],
            100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered))


def digest(records):
    text = ",".join(f"{round(v, 12) + 0.0:.12f}"
                    for r in records for v in r.values)
    return hashlib.sha256(text.encode()).hexdigest()


def byte_mismatches(records, earlier):
    """Outputs whose bytes differ from the earlier run of the same item."""
    return sum(1 for r in records if r.fingerprint and earlier[r.index].fingerprint
               and r.fingerprint != earlier[r.index].fingerprint)


def environment(seed):
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def timings(times):
    """items_per_s, p50 and tail in ms, and the tail's percentile."""
    tail_s, tail_pct = tail(times)
    return (len(times) / sum(times), 1e3 * statistics.median(times),
            1e3 * tail_s, tail_pct)


def measure(args, bench, items):
    """Untraced run: end-to-end metrics over ``args.seconds`` of item time."""
    from speed import Speedometer, rescaled
    setup, setup_wall = setup_seconds(args)
    speedometer = Speedometer()
    execute(bench, items[0], speedometer)  # warm-up: lazy imports, first calls
    records = closed_loop(bench, items, speedometer, args.seconds)
    timed = list(records)
    started = time.perf_counter()
    while len(records) < len(items) and time.perf_counter() - started < RUN_CAP_S:
        records.append(execute(bench, items[len(records)], speedometer))
    first = records[:len(items)]
    failures = [r.fails for r in records]
    if len(first) < len(items):
        failures.append([f"first pass stopped after {RUN_CAP_S} s"])
    rate, p50, tail_ms, tail_pct = timings(
        rescaled([r.elapsed for r in timed], [r.kernel_s for r in timed]))
    wall_rate, wall_p50, wall_tail, _ = timings([r.elapsed for r in timed])
    excess = [x for r in first for x in r.excess]
    metrics = {
        "setup_s": setup,
        "items_per_s": rate,
        "item_p50_ms": p50,
        "item_tail_ms": tail_ms,
        "upper_excess_mean": round(sum(excess) / len(excess), 12),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "timed_items": len(timed),
        "pass_items": len(items),
        "tail_percentile": tail_pct,
        "tail_items_beyond": min(TAIL_BEYOND, len(timed) - 1),
        "wall_clock": {"setup_s": statistics.median(setup_wall),
                       "items_per_s": wall_rate, "item_p50_ms": wall_p50,
                       "item_tail_ms": wall_tail},
        "reference_kernel_ms": 1e3 * statistics.median(r.kernel_s for r in timed),
        "digest": digest(first),
        "repeat_byte_mismatches": byte_mismatches(records[len(items):], first),
    }
    return metrics, failures, report


def measure_traced(args, bench, items):
    """Traced run: per-layer metrics over the first TRACE_SHARE of items."""
    from speed import Speedometer, rescaled
    from tracing import Tracer
    prefix = items[:max(1, round(TRACE_SHARE * len(items)))]
    speedometer = Speedometer()
    execute(bench, items[0], speedometer)
    plain = closed_loop(bench, prefix, speedometer)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(bench, prefix, speedometer,
                                earlier={r.index: r for r in plain})
    finally:
        tracer.uninstall()
    plain_s = sum(rescaled([r.elapsed for r in plain], [r.kernel_s for r in plain]))
    traced_s = sum(rescaled([r.elapsed for r in traced], [r.kernel_s for r in traced]))
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    report = {"traced_items": len(prefix), "untraced_item_s": plain_s,
              "traced_item_s": traced_s, "digest": digest(plain),
              "traced_byte_mismatches": byte_mismatches(traced, plain)}
    return metrics, [r.fails for r in plain + traced], report


def main(argv=None):
    args = parse_args(argv)
    if not prepare():
        print(f"no library source under {SRC}", file=sys.stderr)
        return 2
    bench, items = set_up(args.workload, args.seed)
    if args.setup_probe:
        finished = time.monotonic()
        from speed import REFERENCE_S, Speedometer
        print(finished, REFERENCE_S / Speedometer().seconds())
        return 0
    if args.trace:
        from tracing import metric_names
        units = dict(metric_names())
        metrics, failures, report = measure_traced(args, bench, items)
    else:
        units = END_TO_END
        metrics, failures, report = measure(args, bench, items)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    failed = sum(1 for fails in failures if fails)
    messages = [m for fails in failures for m in fails]
    report.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "failed_frac": {"value": failed / len(failures), "unit": "ratio"},
        "failures": messages[:20],
        "metrics": metrics,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

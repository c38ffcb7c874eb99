"""Benchmark of cubicthue: end-to-end and per-layer metrics of three workloads.

    python3 benchmarks/run.py --workload scan-desk --seed 1 --seconds 35 --trace 0

It measures the package in ``src/`` of the checkout that holds this file and
needs nothing else.  Workloads (see ``workloads.py``): ``scan-desk``,
``solve-deep`` and ``verify-lemmas``.  Each is a closed loop with one client
in one process: the next operation starts when the previous one ends.  The
loop stops after ``--seconds`` once at least ``MIN_OPS`` operations are done
(or when the input pool runs out).  Every output is checked against the
reference; an operation fails if it raises or its output differs.

``--trace 0`` reports the end-to-end metrics, with no wrapper installed:
``setup_s`` (median import time of cubicthue over fresh interpreters),
``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb``.  ``--trace 1``
runs every input twice, untraced and traced in alternating order, and reports
the per-layer metrics of ``tracer.LAYER_METRICS`` with
``trace.overhead_ratio``; its spans go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
report the error rate and the properties of the run's inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
MIN_OPS = 100          # so that at least ten samples lie beyond op_p90_ms
MIN_TRACED_OPS = 10

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

_IMPORT_PROBE = ("import sys, time\nsys.path.insert(0, sys.argv[1])\n"
                 "t = time.perf_counter()\nimport cubicthue\nprint(time.perf_counter() - t)\n")


def use_checkout_source():
    """Put this checkout's src/ first on sys.path; None if it holds no package."""
    if not os.path.isfile(os.path.join(SRC, "cubicthue", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    return SRC


def measure_setup():
    """Median time to import cubicthue in a fresh interpreter.

    One extra interpreter runs first and is not counted: it writes the
    bytecode cache that every later start finds.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_op(wl, entry, tracer=None, op=0):
    """(seconds, error) for one operation; error is None when the output is right.

    Only ``execute`` is timed (and traced); the check is not.
    """
    if tracer is not None:
        tracer.install(op)
    t0 = time.perf_counter()
    try:
        raw = wl.execute(entry["input"])
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - t0
    try:
        ok = wl.check(entry["expect"], wl.summarize(raw))
    except Exception as exc:  # a malformed output counts as failed
        return elapsed, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, None if ok else "output differs from the reference"


def run_plain(wl, ops, seconds, min_ops=MIN_OPS):
    """Untraced closed loop: (op times, failures, entries used)."""
    times, failures, used = [], [], []
    start = time.perf_counter()
    for entry in ops:
        if time.perf_counter() - start >= seconds and len(used) >= min_ops:
            break
        dt, err = run_op(wl, entry)
        times.append(dt)
        used.append(entry)
        if err:
            failures.append((entry["input"], err))
    return times, failures, used


def run_traced(wl, ops, seconds, tracer, min_ops=MIN_TRACED_OPS):
    """Each input untraced and traced, alternating which goes first.

    Returns (untraced seconds, traced seconds, failures, entries used).
    """
    spent = {False: 0.0, True: 0.0}
    failures, used = [], []
    start = time.perf_counter()
    for i, entry in enumerate(ops):
        if time.perf_counter() - start >= seconds and len(used) >= min_ops:
            break
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            dt, err = run_op(wl, entry, tracer if traced else None, op=i)
            spent[traced] += dt
            if err:
                failures.append((entry["input"], err))
        used.append(entry)
    return spent[False], spent[True], failures, used


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if use_checkout_source() is None:
        print(f"error: no cubicthue source tree at {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()

    import cubicthue
    import tracer as tracing
    import workloads

    if not os.path.abspath(cubicthue.__file__).startswith(SRC + os.sep):
        print(f"error: imported cubicthue from {cubicthue.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.op_sequence(workloads.load_pool(wl.name), args.seed)

    if args.trace:
        tr = tracing.Tracer()
        plain_s, traced_s, failures, used = run_traced(wl, ops, args.seconds, tr)
        values = tr.layer_metrics(len(used), wl.y_bound)
        values["trace.overhead_ratio"] = traced_s / plain_s
        metrics = {name: _metric(values[name], unit)
                   for name, unit, _, _ in tracing.LAYER_METRICS}
        attempted = 2 * len(used)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
        tr.write(spans_path)
        print(f"spans: {len(tr.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        times, failures, used = run_plain(wl, ops, args.seconds)
        ordered = sorted(times)
        p50, _ = percentile(ordered, 0.5)
        p90, beyond = percentile(ordered, 0.9)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup_s, "ops_per_s": len(times) / sum(times),
                  "op_p50_ms": p50 * 1e3, "op_p90_ms": p90 * 1e3, "peak_rss_mb": peak_mb}
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        attempted = len(used)
        print(f"op_p90_ms: {beyond} of {len(times)} samples lie beyond it")

    for inp, err in failures[:5]:
        print(f"FAILED {json.dumps(inp)}: {err}")
    print(f"error_rate: {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    print(f"input: {len(used)} ops; {wl.describe(used)}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

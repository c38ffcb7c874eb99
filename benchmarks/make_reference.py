"""Rebuild a workload's input pool and its reference outputs.

    python3 benchmarks/make_reference.py scan-desk solve-deep verify-lemmas

Draws the pool from a fixed master seed, runs every input once through the
program in this checkout, and writes ``benchmarks/reference/<workload>.json``:
the input, the output the checks compare against, and a profile of the run
(root-cache misses, distinct n, solver candidates) for the input report.
Run it only when the benchmark's inputs are meant to change: the reference
records the outputs of the commit that generated it.
"""

from __future__ import annotations

import json
import random
import sys
import time

from run import use_checkout_source

MASTER_SEED = {"scan-desk": 4951, "solve-deep": 100000, "verify-lemmas": 1064}


def build(name):
    from cubicthue.forms import build_form
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    entries = []
    t0 = time.perf_counter()
    for inp in wl.make_inputs(random.Random(MASTER_SEED[name])):
        tracer = Tracer()
        tracer.install(0)
        try:
            summary = wl.summarize(wl.execute(inp))
        finally:
            tracer.uninstall()
        profile = {"roots_misses": tracer.counts["roots.compute_roots.misses"],
                   "distinct_n": len(tracer.root_ns)}
        if name == "solve-deep":
            form = build_form(*inp)
            summary = {"A": form.A, "B": form.B, "solutions": summary}
            profile["candidates"] = tracer.counts["solver.candidates"]
        entries.append({"stratum": wl.stratum(inp, profile), "input": inp,
                        "expect": summary, "profile": profile})
    write_reference(name, entries)
    print(f"{name}: {len(entries)} entries in {time.perf_counter() - t0:.1f} s")


def write_reference(name, entries):
    from workloads import reference_path

    with open(reference_path(name), "w", encoding="utf-8") as fh:
        fh.write('{"workload": %s, "master_seed": %d, "entries": [\n'
                 % (json.dumps(name), MASTER_SEED[name]))
        fh.write(",\n".join(json.dumps(e, separators=(",", ":")) for e in entries))
        fh.write("\n]}\n")


if __name__ == "__main__":
    if use_checkout_source() is None:
        sys.exit("no cubicthue source tree (src/cubicthue) in this checkout")
    for workload in sys.argv[1:]:
        build(workload)

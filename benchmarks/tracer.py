"""Layer tracer: spans and counters around calls into the cubicthue layers.

The tracer wraps the public functions listed in ``SPANNED`` at every module
binding callers use (``solver.compute_alphas`` and
``bounds.compute_proof_quantities`` as well as ``roots.compute_roots``
itself; dict entries such as ``cli.LEMMA_RUNNERS`` too), and restores the
original bindings when it is uninstalled.  No file of the package changes.

* One span per call: name, operation id, parent span, start and end, kept in
  memory and written out by ``write``.  A span's self time is its duration
  minus the durations of its child spans.
* ``exact_field`` functions call each other; only calls that enter the layer
  from outside get a span, inner calls are counted.
* ``forms.eval_form`` is only counted, never spanned: a screen-saturated
  solve calls it millions of times.
* Cache hits and misses of ``compute_roots`` and ``compute_alphas`` come from
  ``cache_info()`` differences around each call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cubicthue"

# module -> public functions that get a span (None: every public function)
SPANNED = {
    "exact_field": None,
    "forms": ("build_form",),
    "roots": ("compute_roots", "compute_alphas"),
    "asymptotics": ("compute_proof_quantities", "true_logdiffs", "fit_error_exponent",
                    "check_error_products", "run_lapprox", "run_lpowers", "run_regulator",
                    "run_logdiff", "run_errorbound", "run_vbar", "run_ubar", "run_wbar"),
    "solver": ("solve_box", "reduce_to_type1", "decompose_unit"),
    "bounds": ("bound_report", "bg_upper_bound", "lower_bound_chain", "n0_scan"),
    "cli": ("main",),
}
COUNTED = {"forms": ("eval_form",)}   # their calls feed solver.candidates

# span name -> the layer metric its self time is reported under
GROUP = {
    "asymptotics.compute_proof_quantities": "asymptotics.proof_quantities",
    "asymptotics.fit_error_exponent": "asymptotics.fit",
    "bounds.bg_upper_bound": "bounds.upper",
    "bounds.lower_bound_chain": "bounds.chain",
    **{"asymptotics." + k: "asymptotics.harness" for k in SPANNED["asymptotics"]
       if k.startswith("run_") or k == "check_error_products"},
}

# Per-layer metrics of the traced run, normalised per operation, with the
# end-to-end metric each should move and on which workload.
LAYER_METRICS = [
    # name, unit, better, moves
    ("solver.solve_box.self_ms", "ms/op", "lower", "op_p90_ms, ops_per_s on solve-deep; a little on scan-desk; nothing on verify-lemmas"),
    ("solver.candidates", "count/op", "lower", "op_p90_ms, ops_per_s on solve-deep"),
    ("solver.candidates_per_y", "ratio", "lower", "op_p90_ms, ops_per_s on solve-deep"),
    ("solver.useful_ratio", "ratio", "higher", "op_p90_ms, ops_per_s on solve-deep"),
    ("solver.saturated_share", "ratio", "lower", "op_p90_ms on solve-deep (share of ops with candidates > y_bound)"),
    ("solver.decompose_unit.self_ms", "ms/op", "lower", "op_p50_ms on solve-deep"),
    ("solver.reduce_to_type1.self_ms", "ms/op", "lower", "op_p50_ms on solve-deep"),
    ("roots.compute_roots.hits", "count/op", "higher", "ops_per_s on scan-desk; op_p50_ms on verify-lemmas"),
    ("roots.compute_roots.misses", "count/op", "lower", "ops_per_s on scan-desk; op_p50_ms on verify-lemmas"),
    ("roots.compute_roots.self_ms", "ms/op", "lower", "ops_per_s on scan-desk; op_p50_ms on verify-lemmas"),
    ("roots.compute_alphas.hits", "count/op", "higher", "ops_per_s on scan-desk; op_p50_ms on verify-lemmas"),
    ("roots.compute_alphas.misses", "count/op", "lower", "ops_per_s on scan-desk; op_p50_ms on verify-lemmas"),
    ("roots.compute_alphas.self_ms", "ms/op", "lower", "ops_per_s on scan-desk; op_p50_ms on verify-lemmas"),
    ("roots.roots_per_n", "ratio", "lower", "ops_per_s on scan-desk; op_p50_ms on verify-lemmas (target 1.0)"),
    ("asymptotics.proof_quantities.calls", "count/op", "lower", "all of verify-lemmas; scan-desk through bound_report"),
    ("asymptotics.proof_quantities.self_ms", "ms/op", "lower", "all of verify-lemmas; scan-desk through bound_report"),
    ("asymptotics.true_logdiffs.self_ms", "ms/op", "lower", "all of verify-lemmas; scan-desk through bound_report"),
    ("asymptotics.fit.self_ms", "ms/op", "lower", "all of verify-lemmas"),
    ("asymptotics.harness.self_ms", "ms/op", "lower", "all of verify-lemmas"),
    ("bounds.bound_report.self_ms", "ms/op", "lower", "ops_per_s on scan-desk; op_p90_ms on verify-lemmas"),
    ("bounds.upper.self_ms", "ms/op", "lower", "ops_per_s on scan-desk; op_p90_ms on verify-lemmas"),
    ("bounds.chain.self_ms", "ms/op", "lower", "ops_per_s on scan-desk; op_p90_ms on verify-lemmas"),
    ("bounds.chain_failures", "count/op", "lower", "ops_per_s on scan-desk; op_p90_ms on verify-lemmas"),
    ("bounds.n0_scan.self_ms", "ms/op", "lower", "op_p90_ms on verify-lemmas"),
    ("forms.build_form.calls", "count/op", "lower", "ops_per_s on scan-desk"),
    ("forms.build_form.self_ms", "ms/op", "lower", "ops_per_s on scan-desk"),
    ("forms.eval_form.calls", "count/op", "lower", "ops_per_s on scan-desk and solve-deep"),
    ("exact_field.calls", "count/op", "lower", "ops_per_s on scan-desk"),
    ("exact_field.self_ms", "ms/op", "lower", "ops_per_s on scan-desk"),
    ("cli.main.self_ms", "ms/op", "lower", "scan-desk only (parse, dispatch and rendering)"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced time on the same inputs"),
]


def _targets(mods):
    """(name, layer, function, counted_only) for every traced public function."""
    out = []
    for table, counted_only in ((SPANNED, False), (COUNTED, True)):
        for layer, names in table.items():
            mod = mods[layer]
            if names is None:
                names = [k for k, v in vars(mod).items()
                         if inspect.isfunction(v) and v.__module__ == mod.__name__
                         and not k.startswith("_")]
            out.extend((f"{layer}.{k}", layer, getattr(mod, k), counted_only) for k in names)
    return out


def package_modules():
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".")}


def _bindings(match):
    """(namespace, key, value, label) for every package binding whose value matches.

    Module globals and the entries of module-level dicts are both searched.
    """
    found = []
    for mod in [sys.modules[PACKAGE], *package_modules().values()]:
        for key, value in vars(mod).items():
            if match(value):
                found.append((vars(mod), key, value, f"{mod.__name__}.{key}"))
            elif isinstance(value, dict) and not key.startswith("__"):
                found.extend((value, k, v, f"{mod.__name__}.{key}[{k!r}]")
                             for k, v in value.items() if match(v))
    return found


def installed_wrappers():
    """Bindings in the package that currently hold a tracer wrapper."""
    return [label for *_, label in _bindings(lambda v: getattr(v, "_bench_traced", False))]


class Tracer:
    """Installs wrappers for one operation at a time and accumulates spans."""

    def __init__(self):
        targets = _targets(package_modules())
        self.spans = []            # [name, op, parent, start_ns, end_ns]
        self.counts = Counter()
        self.op = 0
        self.root_ns = set()       # (op, n) for every compute_roots call
        self.op_candidates = defaultdict(int)
        self._stack = []           # (span index, layer) of the open spans
        self._evals = 0
        wrappers = {id(f): self._wrap(name, layer, f, counted)
                    for name, layer, f, counted in targets}
        self._patches = [(ns, key, orig, wrappers[id(orig)])
                         for ns, key, orig, _ in _bindings(lambda v: id(v) in wrappers)]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, layer, fn, counted_only):
        counts = self.counts
        if counted_only:
            def counter(*args, **kwargs):
                self._evals += 1
                return fn(*args, **kwargs)
            wrapper = counter
        else:
            spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
            info = getattr(fn, "cache_info", None)
            inner_counted = layer == "exact_field"
            is_roots = name == "roots.compute_roots"
            is_solve = name == "solver.solve_box"
            k_calls, k_raised = name + ".calls", name + ".raised"
            k_hits, k_misses = name + ".hits", name + ".misses"

            def spanned(*args, **kwargs):
                counts[k_calls] += 1
                if inner_counted and stack and stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                idx = len(spans)
                spans.append([name, self.op, stack[-1][0] if stack else -1, clock(), 0])
                stack.append((idx, layer))
                before = info() if info else None
                evals = self._evals
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[k_raised] += 1
                    raise
                finally:
                    spans[idx][4] = clock()
                    stack.pop()
                    if before is not None:
                        after = info()
                        counts[k_hits] += after.hits - before.hits
                        counts[k_misses] += after.misses - before.misses
                if is_roots:
                    self.root_ns.add((self.op, args[0] if args else kwargs["n"]))
                elif is_solve:
                    counts["solver.candidates"] += self._evals - evals
                    self.op_candidates[self.op] += self._evals - evals
                    counts["solver.y_total"] += args[3] if len(args) > 3 else kwargs["y_bound"]
                    counts["solver.solutions"] += len(result)
                return result
            wrapper = spanned
        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper._bench_traced = True
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, op):
        self.op = op
        for ns, key, _, wrapper in self._patches:
            ns[key] = wrapper

    def uninstall(self):
        for ns, key, orig, _ in self._patches:
            ns[key] = orig

    # -- results -----------------------------------------------------------

    def self_ms(self):
        """Summed self time in ms per span name."""
        child = [0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e6
        return out

    def layer_metrics(self, n_ops, y_bound=None):
        """Values of the LAYER_METRICS entries but trace.overhead_ratio, which needs
        the untraced time; counts and times are per operation."""
        c = self.counts
        by_span = self.self_ms()
        grouped = defaultdict(float)
        for name, ms in by_span.items():
            layer = name.split(".")[0]
            grouped[GROUP.get(name, "exact_field" if layer == "exact_field" else name)] += ms
        exact_calls = sum(v for k, v in c.items()
                          if k.startswith("exact_field.") and k.endswith(".calls"))
        candidates = c["solver.candidates"]
        distinct_n = len(self.root_ns)
        saturated = (sum(1 for v in self.op_candidates.values() if v > y_bound)
                     if y_bound else 0)
        raw = {
            "solver.candidates": candidates,
            "roots.compute_roots.hits": c["roots.compute_roots.hits"],
            "roots.compute_roots.misses": c["roots.compute_roots.misses"],
            "roots.compute_alphas.hits": c["roots.compute_alphas.hits"],
            "roots.compute_alphas.misses": c["roots.compute_alphas.misses"],
            "asymptotics.proof_quantities.calls": c["asymptotics.compute_proof_quantities.calls"],
            "bounds.chain_failures": c["bounds.lower_bound_chain.raised"],
            "forms.build_form.calls": c["forms.build_form.calls"],
            "forms.eval_form.calls": self._evals,
            "exact_field.calls": exact_calls,
        }
        for name, _, _, _ in LAYER_METRICS:
            if name.endswith(".self_ms"):
                raw[name] = grouped[name[:-len(".self_ms")]]
        out = {k: v / n_ops for k, v in raw.items()}
        out["solver.candidates_per_y"] = candidates / c["solver.y_total"] if c["solver.y_total"] else 0.0
        out["solver.useful_ratio"] = c["solver.solutions"] / candidates if candidates else 0.0
        out["solver.saturated_share"] = saturated / n_ops
        out["roots.roots_per_n"] = c["roots.compute_roots.misses"] / distinct_n if distinct_n else 0.0
        return out

    def write(self, path):
        """Write the spans as gzip'd JSON lines: name, op, parent, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Tests of the benchmark harness itself: inputs, checks and tracer.

    python -m pytest -q benchmarks/test_benchmark.py
"""

import json
import os
import random
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.use_checkout_source()

import make_reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cubicthue import bounds, cli, roots, solver  # noqa: E402


CHEAP = {"scan-desk": 0, "solve-deep": 0, "verify-lemmas": "lapprox"}


def _cheap_entries(name, count):
    return [e for e in workloads.load_pool(name) if e["stratum"] == CHEAP[name]][:count]


def test_pool_is_the_generator_output_without_repeats():
    for name, wl in workloads.WORKLOADS.items():
        seed = make_reference.MASTER_SEED[name]
        first = wl.make_inputs(random.Random(seed))
        assert first == wl.make_inputs(random.Random(seed))
        pool = workloads.load_pool(name)
        assert [e["input"] for e in pool] == first
        assert all(e["stratum"] == wl.stratum(e["input"], e["profile"]) for e in pool)
        keys = [json.dumps(e["input"]) for e in pool]
        assert len(keys) == len(set(keys))


def test_op_sequence_is_deterministic_and_never_repeats():
    for name in workloads.WORKLOADS:
        pool = workloads.load_pool(name)
        run_a = [json.dumps(e["input"]) for e in workloads.op_sequence(pool, 7)]
        run_b = [json.dumps(e["input"]) for e in workloads.op_sequence(pool, 7)]
        other = [json.dumps(e["input"]) for e in workloads.op_sequence(pool, 8)]
        assert run_a == run_b
        assert run_a[:50] != other[:50]
        assert len(run_a) == len(set(run_a))
        assert len(run_a) > 0.9 * len(pool)


def test_every_prefix_holds_each_stratum_at_its_pool_share():
    for name in workloads.WORKLOADS:
        pool = workloads.load_pool(name)
        share = Counter(e["stratum"] for e in pool)
        seen = Counter()
        for i, e in enumerate(workloads.op_sequence(pool, 3), start=1):
            seen[e["stratum"]] += 1
            for key, size in share.items():
                assert abs(seen[key] - i * size / len(pool)) <= 1.5, (name, i, key)


class _Corrupting:
    """Passes operations through and damages every other output."""

    def __init__(self, wl, damage):
        self.wl, self.damage, self.calls = wl, damage, 0

    def execute(self, inp):
        return self.wl.execute(inp)

    def summarize(self, raw):
        self.calls += 1
        summary = self.wl.summarize(raw)
        return self.damage(summary) if self.calls % 2 == 0 else summary

    def check(self, expect, summary):
        return self.wl.check(expect, summary)


def _drop_last_solution(rows):
    return rows[:-1]


def _shift_first_x(rows):
    return [[rows[0][0] + 1, *rows[0][1:]], *rows[1:]]


def _nudge_slope(summary):
    return {**summary, "slopes": [summary["slopes"][0] * (1 + 1e-6), *summary["slopes"][1:]]}


def _flip_csv_digest(summary):
    return {**summary, "csv_sha256": summary["csv_sha256"][::-1]}


def test_corrupted_outputs_are_counted_as_failures():
    cases = [
        ("solve-deep", _cheap_entries("solve-deep", 4), _drop_last_solution),
        ("solve-deep", _cheap_entries("solve-deep", 4), _shift_first_x),
        ("verify-lemmas", _cheap_entries("verify-lemmas", 4), _nudge_slope),
        ("scan-desk", _cheap_entries("scan-desk", 2), _flip_csv_digest),
    ]
    for name, entries, damage in cases:
        wl = workloads.WORKLOADS[name]
        times, failures, used = run.run_plain(wl, iter(entries), 0, min_ops=len(entries))
        assert failures == [] and len(used) == len(entries)
        times, failures, used = run.run_plain(_Corrupting(wl, damage), iter(entries), 0,
                                              min_ops=len(entries))
        assert len(failures) == len(entries) // 2, (name, failures)


def test_raising_operation_is_a_failure():
    class Raising(_Corrupting):
        def execute(self, inp):
            raise ArithmeticError("boom")

    wl = workloads.WORKLOADS["verify-lemmas"]
    entries = _cheap_entries("verify-lemmas", 2)
    _, failures, _ = run.run_plain(Raising(wl, None), iter(entries), 0, min_ops=2)
    assert [err for _, err in failures] == ["ArithmeticError: boom"] * 2


class _Probe:
    """Records, during each operation, which tracer wrappers are installed."""

    def __init__(self, wl):
        self.wl, self.seen = wl, []

    def execute(self, inp):
        self.seen.append(tracer.installed_wrappers())
        return self.wl.execute(inp)

    def summarize(self, raw):
        return self.wl.summarize(raw)

    def check(self, expect, summary):
        return self.wl.check(expect, summary)


def test_untraced_run_has_no_wrappers_and_traced_run_restores_them():
    originals = (solver.compute_alphas, bounds.compute_proof_quantities, cli.solver.solve_box,
                 cli.LEMMA_RUNNERS["vbar"], roots.compute_roots)
    wl = workloads.WORKLOADS["verify-lemmas"]
    entries = _cheap_entries("verify-lemmas", 2)
    probe = _Probe(wl)
    run.run_plain(probe, iter(entries), 0, min_ops=2)
    assert probe.seen == [[], []]

    probe = _Probe(wl)
    tr = tracer.Tracer()
    _, _, failures, _ = run.run_traced(probe, iter(entries), 0, tr, min_ops=2)
    assert failures == []
    untraced, traced = [probe.seen[0], probe.seen[3]], [probe.seen[1], probe.seen[2]]
    assert untraced == [[], []]
    for installed in traced:
        for binding in ("cubicthue.solver.compute_alphas", "cubicthue.bounds.compute_proof_quantities",
                        "cubicthue.solver.solve_box", "cubicthue.cli.LEMMA_RUNNERS['vbar']",
                        "cubicthue.roots.compute_roots", "cubicthue.exact_field.reduce_mul"):
            assert binding in installed
    assert tracer.installed_wrappers() == []
    assert originals == (solver.compute_alphas, bounds.compute_proof_quantities,
                         cli.solver.solve_box, cli.LEMMA_RUNNERS["vbar"], roots.compute_roots)
    assert tr.counts["asymptotics.run_lapprox.calls"] == 2
    assert tr.layer_metrics(2)["asymptotics.harness.self_ms"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in tracer.LAYER_METRICS]

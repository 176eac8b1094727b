"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run every workload at a tiny pool size, check the oracles against
analytic values, and check that a wrong answer, a wrapper that sees no
call, and counts that do not repeat each fail the run.
"""

import bisect
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from rtmix import blockip, core, gen, rta  # noqa: E402

SPECS = run.load_workloads()


def tiny(name, **changes):
    """The workload with a pool of about 200 inputs, enough for a timed run."""
    return {**SPECS[name], "pool": 200, "trace_requests": 12, **changes}


def deadline():
    return time.monotonic() + run.DEADLINE_S


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_timed_run_is_correct_and_reports_every_end_to_end_metric(name):
    result = run.measure(tiny(name), 5, 0.0, False, deadline())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_REQUESTS
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    result = run.measure(tiny(name), 5, 0.0, True, deadline())
    assert result["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_same_seed_gives_same_inputs_and_another_seed_other_inputs():
    spec = tiny("rta-general")
    assert run.build_pool(spec, 3) == run.build_pool(spec, 3)
    assert run.build_pool(spec, 3)[0] != run.build_pool(spec, 4)[0]


def test_pool_leaves_out_inputs_above_the_cap():
    spec = tiny("rta-general", size_cap=400)
    specs, _ = run.build_pool(spec, 2)
    for variant, gen_seed in specs:
        source = workloads.source_dict("rta", workloads.generate(spec["variants"][variant], gen_seed))
        assert oracle.size("rta", source) <= 400
    assert specs[-1][1] - specs[0][1] >= len(specs)   # some draws were skipped


@pytest.mark.parametrize("name", ["rta-general", "blockip-rtc"])
def test_every_seed_gives_the_same_size_profile_in_every_prefix(name):
    spec = tiny(name)
    bounds, _ = run.size_strata(spec)

    def profile(specs):
        strata = Counter()
        for variant, gen_seed in specs:
            source = workloads.source_dict(spec["kind"], workloads.generate(spec["variants"][variant], gen_seed))
            strata[variant, bisect.bisect_left(bounds[variant], oracle.size(spec["kind"], source))] += 1
        return strata

    pools = [run.build_pool(spec, seed)[0] for seed in (3, 4)]
    assert profile(pools[0]) == profile(pools[1])
    half = [profile(pool[: len(pool) // 2]) for pool in pools]
    for key in half[0] | half[1]:
        assert abs(half[0][key] - half[1][key]) <= 1


def test_a_timed_run_answers_each_input_once_and_ends_with_the_pool():
    spec = tiny("rta-harmonic")
    specs, expected = run.build_pool(spec, 5)
    assert len({gen_seed for _, gen_seed in specs}) == len(specs)
    payload = {"kind": spec["kind"], "variants": spec["variants"], "specs": specs,
               "expected": expected, "seconds": 60.0}
    report = run.run_worker("timed", payload, deadline())
    assert report["pool_used_up"]
    assert report["attempted"] == len(specs)


def test_a_pool_too_small_for_a_run_fails_it():
    with pytest.raises(run.BenchError, match="too small"):
        run.measure(tiny("rta-harmonic", pool=50), 5, 0.0, False, deadline())


def test_mixing_oracle_finds_the_tight_family_optimum():
    for n in range(2, 7):
        inst = workloads.mix_dict(gen.tight_mixing_instance(n))
        assert oracle.mix_optimum(inst) == n * 2**n - 1


def test_response_oracle_attains_the_extreme_family_bound():
    for cs in ([1], [1, 2], [2, 1, 1], [3, 1]):
        system = workloads.system_dict(gen.construct_extreme(cs, cs[0] + 1, "p"))
        tasks = [(t["c"], t["p"], t["jitter"]) for t in system["tasks"]]
        head, (c_n, _, _) = tasks[:-1], tasks[-1]
        slack = 1 - sum(Fraction(c, p) for c, p, _ in head)
        ell = (c_n + sum(Fraction(j * c, p) for c, p, j in head)) / slack
        assert ell.denominator == 1
        assert oracle.response(head, c_n) == ell


def test_response_oracle_matches_a_direct_scan():
    system = workloads.system_dict(gen.random_system(9, 4, 32))
    tasks = [(t["c"], t["p"], t["jitter"]) for t in system["tasks"]]
    for j in range(len(tasks)):
        head, gamma = tasks[:j], tasks[j][0]
        t = gamma
        while t < gamma + sum(c * -(-(t + jit) // p) for c, p, jit in head):
            t += 1
        assert oracle.response(head, gamma) == t


def test_blockip_oracle_is_the_lowest_priority_response():
    ts = gen.random_system(4, 3, 16, jitter_mode="zero")
    prog = blockip.encode_rtc_as_4block(ts)
    expected = oracle.blockip_expected(workloads.system_dict(ts))
    assert blockip.solve_simple_4block(prog) == expected["objective"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_wrong_answer_counts_as_a_failure(name):
    spec = tiny(name)
    specs, expected = run.build_pool(spec, 5)
    wrong = json.loads(json.dumps(expected))
    last = worker.WARMUP_REQUESTS + worker.MIN_REQUESTS - 1   # the loop stops there at 0 s
    for i in (0, last):   # a warm-up input and the last input of the loop
        if spec["kind"] == "rta":
            wrong[i]["responses"][-1] += 1
        else:
            wrong[i]["objective"] += 1
    payload = {"kind": spec["kind"], "variants": spec["variants"], "specs": specs}
    _, attempted, failed = run.end_to_end(payload, wrong, 0.0, deadline())
    assert (attempted, failed) == (last + 1, 2)


def test_check_rejects_a_wrong_or_infeasible_mixing_answer():
    inst = workloads.mix_dict(gen.random_mix_instance(3, 4, 16, harmonic=False))
    expected = oracle.mix_expected(inst)
    terms = expected["terms"]
    period = math.lcm(*(a for _, a, _ in terms))
    s = min(range(period), key=lambda s: oracle.mix_objective(1, terms, s))
    x = [-(-(b - s) // a) for _, a, b in terms]
    good = {"s": s, "x": x, "objective": expected["objective"]}
    assert oracle.check("mix", json.dumps({"result": good}), expected)
    infeasible = {**good, "x": [x[0] - 1] + x[1:]}
    assert not oracle.check("mix", json.dumps({"result": infeasible}), expected)
    worse = {**good, "objective": expected["objective"] + 1}
    assert not oracle.check("mix", json.dumps({"result": worse}), expected)
    assert not oracle.check("mix", "not json", expected)


def test_zero_calls_guard_trips_in_a_traced_run():
    spec = tiny("blockip-rtc", uses=SPECS["blockip-rtc"]["uses"] + ["mixing.solve_harmonic"])
    with pytest.raises(run.BenchError, match="mixing.solve_harmonic"):
        run.measure(spec, 5, 0.0, True, deadline())


def test_zero_calls_guard_distinguishes_binding_sites():
    report = {"setup_calls": {"core.bounds_from_parts@blockip": 1},
              "binding_calls": {"core.validate@jsonio": 3}}
    run.check_uses(["core.bounds_from_parts@blockip", "core.validate"], report)
    with pytest.raises(run.BenchError, match="core.bounds_from_parts@rta"):
        run.check_uses(["core.bounds_from_parts@rta"], report)


def test_counts_that_differ_between_traced_runs_fail():
    report = {k: {} for k in run.COUNT_KEYS}
    report.update(failed=0, fixpoint_iters=7)
    run.check_counts_repeat([report, json.loads(json.dumps(report))])
    other = {**report, "counters": {"mixing_ops": 1}}
    with pytest.raises(run.BenchError, match="counters"):
        run.check_counts_repeat([report, other])


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (core.bounds_from_parts, core.validate)
    tracer = spans.Tracer(
        [(core, "bounds_from_parts", "core"), (core, "validate", "core")],
        [m for k, m in sys.modules.items() if k == "rtmix" or k.startswith("rtmix.")],
    )
    tracer.install()
    try:
        for module in (core, rta, blockip):
            assert module.bounds_from_parts is not originals[0]
        ts = gen.random_system(4, 3, 16, jitter_mode="zero")
        blockip.encode_rtc_as_4block(ts)
        rta.analyze_system(ts)
    finally:
        tracer.uninstall()
    assert tracer.binding_calls["core.bounds_from_parts@blockip"] == 1
    assert tracer.binding_calls["core.bounds_from_parts@rta"] >= 1
    assert tracer.binding_calls["core.validate@blockip"] == 1
    assert tracer.binding_calls["core.validate@rta"] == 1
    assert (core.bounds_from_parts, core.validate) == originals
    assert (rta.bounds_from_parts, blockip.validate) == originals


def test_self_time_excludes_child_spans():
    import types

    mod = types.ModuleType("fake")

    def child():
        time.sleep(0.02)

    def parent():
        mod.child()

    mod.child, mod.parent = child, parent
    tracer = spans.Tracer([(mod, "child", "b"), (mod, "parent", "a")], [mod])
    tracer.install()
    mod.parent()
    tracer.uninstall()
    assert tracer.self_ns["b.child"] >= 20_000_000
    assert tracer.self_ns["a.parent"] < tracer.self_ns["b.child"] / 4
    assert tracer.edges == {"client>a.parent": 1, "a>b.child": 1}


def test_without_sources_it_fails_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rta-harmonic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""

#!/usr/bin/env python3
"""The rtmix benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload rta-harmonic --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports rtmix from `src/`.
The workloads, their generator parameters and seeds are in workloads.json.

The seed picks the inputs: they are drawn from `rtmix.gen` with generator
seeds derived from it.  Inputs whose oracle size (summed response times, the
first-stage range of a 4-block program, or lcm of the capacities) exceeds
the workload's `size_cap` are left out, and the pool takes a fixed share from
each size stratum (see build_pool), so that every seed's pool, and every run,
has the same size profile.  The pool holds more inputs than one run answers
at the speed measured when the benchmark was defined, and no run answers an
input twice: the timed loop ends when the pool is used up, even before
`--seconds`.

`--trace 0` prints the end-to-end metrics: it sets up in fresh processes
several times and reports the median set-up time, then answers requests for
`--seconds` seconds in a fresh worker.  Times are scaled by the speed of a
fixed reference loop timed in the same processes (see worker.REFERENCE_NS).
`--trace 1` prints the per-layer metrics: two fresh workers each answer the
first `trace_requests` inputs of the pool with every layer wrapped; their
counts must agree exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every answer was right, 1 when one was wrong or a traced-run check failed,
and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS_FILE = os.path.join(HERE, "workloads.json")

SEED_STRIDE = 1_000_000   # generator seeds of one run: seed * SEED_STRIDE + candidate index
SETUP_RUNS = 5            # fresh processes whose set-up time gives the median setup_s
TRACE_RUNS = 2            # traced workers whose counts must agree
DEADLINE_S = 175.0        # every run ends within 180 seconds
STRATA = 50               # size strata of a pool, over all generator variants
CALIBRATION_DRAWS = 5000  # draws whose sizes set the strata

LAYERS = ("cli", "jsonio", "core", "rta", "mixing", "reverse", "blockip", "gen")


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def load_workloads() -> dict:
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def size_strata(spec: dict) -> tuple[list[list[int]], list[list[int]]]:
    """Per generator variant, the upper size bounds of its strata and the
    number of calibration draws in each.

    The bounds cut the sizes drawn on generator seeds 0 .. CALIBRATION_DRAWS-1,
    within the size cap, into groups of about equal count; equal sizes stay in
    one group.  Every run uses the same strata."""
    import oracle
    import workloads

    kind, variants, cap = spec["kind"], spec["variants"], spec["size_cap"]
    sizes = [[] for _ in variants]
    for gen_seed in range(CALIBRATION_DRAWS):
        variant = gen_seed % len(variants)
        size = oracle.size(kind, workloads.source_dict(kind, workloads.generate(variants[variant], gen_seed)))
        if cap is None or size <= cap:
            sizes[variant].append(size)
    groups = STRATA // len(variants)
    bounds, counts = [], []
    for drawn in map(sorted, sizes):
        cuts = sorted({drawn[len(drawn) * k // groups - 1] for k in range(1, groups)})
        row = [0] * (len(cuts) + 1)
        for size in drawn:
            row[bisect.bisect_left(cuts, size)] += 1
        bounds.append(cuts)
        counts.append(row)
    return bounds, counts


def build_pool(spec: dict, seed: int) -> tuple[list, list]:
    """(variant, generator seed) pairs and expected answers of the run's inputs.

    Inputs are drawn in generator-seed order from seed * SEED_STRIDE on.  One
    whose oracle size exceeds the workload's size_cap is skipped, and one whose
    stratum (its variant and size range, see size_strata) holds its quota is
    passed over.  A stratum's quota is its share of the calibration draws
    times `pool`, so every seed's pool has the same size profile.  The pool is
    ordered so that every prefix of it, and thus every run, keeps that profile."""
    import oracle
    import workloads

    kind, variants, cap = spec["kind"], spec["variants"], spec["size_cap"]
    bounds, counts = size_strata(spec)
    kept = sum(map(sum, counts))
    quotas = [[round(spec["pool"] * c / kept) for c in row] for row in counts]
    taken = [[[] for _ in row] for row in quotas]
    open_strata = sum(q > 0 for row in quotas for q in row)
    for gen_seed in range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE):
        if not open_strata:
            break
        variant = gen_seed % len(variants)
        source = workloads.source_dict(kind, workloads.generate(variants[variant], gen_seed))
        size = oracle.size(kind, source)
        if cap is not None and size > cap:
            continue
        j = bisect.bisect_left(bounds[variant], size)
        stratum, quota = taken[variant][j], quotas[variant][j]
        if len(stratum) < quota:
            stratum.append((gen_seed, source))
            open_strata -= len(stratum) == quota
    if open_strata:
        raise BenchError(f"{SEED_STRIDE} draws did not fill the size strata")
    # the k-th input of a stratum with quota q goes to position (k + 1/2) / q
    order = sorted(
        ((k + 0.5) / quotas[v][j], j, v, k)
        for v, row in enumerate(taken) for j, stratum in enumerate(row) for k in range(len(stratum))
    )
    chosen = [(v, *taken[v][j][k]) for _, j, v, k in order]
    return ([[v, gen_seed] for v, gen_seed, _ in chosen],
            [oracle.EXPECTED[kind](source) for _, _, source in chosen])


def run_worker(mode: str, payload: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), mode],
            input=json.dumps(payload).encode(),
            capture_output=True,
            timeout=remaining,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(
            f"the {mode} worker exited with {proc.returncode}: {proc.stderr.decode()[-2000:]}"
        )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(payload, expected, seconds, deadline) -> tuple[dict, int, int]:
    runs = [run_worker("setup", payload, deadline) for _ in range(SETUP_RUNS - 1)]
    run = run_worker("timed", {**payload, "expected": expected, "seconds": seconds}, deadline)
    runs.append(run)
    if run["errors"]:
        print(f"perfbench: requests raised {run['errors']}", file=sys.stderr)
    if run["pool_used_up"]:
        print(f"perfbench: the pool ran out before --seconds; raise `pool` in "
              f"workloads.json", file=sys.stderr)
    setups = [r["setup_s"] * worker.REFERENCE_NS / r["reference_ns"] for r in runs]
    raw = run["unscaled"]
    print(f"perfbench: reference loop {run['reference_ns'] / 1e6:.3f} ms; unscaled "
          f"throughput {run['requests'] / raw['busy_s']:.2f} req/s, "
          f"p50 {raw['latency_p50_ms']:.3f} ms, p90 {raw['latency_p90_ms']:.3f} ms, "
          f"setup {statistics.median(r['setup_s'] for r in runs):.4f} s", file=sys.stderr)
    metrics = {
        "throughput_rps": metric(run["requests"] / run["busy_s"], "req/s"),
        "latency_p50_ms": metric(run["latency_p50_ms"], "ms"),
        "latency_p90_ms": metric(run["latency_p90_ms"], "ms"),
        "success_ratio": metric((run["attempted"] - run["failed"]) / run["attempted"], "ratio"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    return metrics, run["attempted"], run["failed"]


# Parts of a traced worker's report that depend only on the program and its inputs.
COUNT_KEYS = ("failed", "calls", "binding_calls", "setup_calls", "edges", "layer_errors",
              "counters", "fixpoint_iters")


def check_counts_repeat(reports: list[dict]) -> None:
    first = reports[0]
    for other in reports[1:]:
        differ = [k for k in COUNT_KEYS if first[k] != other[k]]
        if differ:
            raise BenchError(f"two traced runs of one seed disagree on {differ}")


def check_uses(uses: list[str], report: dict) -> None:
    """Fail when a wrapper that the workload relies on saw no call."""
    calls = dict(report["setup_calls"])
    for key, value in report["binding_calls"].items():
        calls[key] = calls.get(key, 0) + value
    idle = [
        use for use in uses
        if not sum(v for k, v in calls.items() if k == use or k.startswith(use + "@"))
    ]
    if idle:
        raise BenchError(f"wrappers recorded zero calls on a used path: {idle}")


def per_layer(reports: list[dict]) -> dict:
    """Per-request values from traced workers: counts from the first, times averaged."""
    first = reports[0]
    n = first["requests"]
    calls = first["calls"]
    counters = first["counters"]

    def count(*spans):
        return sum(calls.get(s, 0) for s in spans)

    def mean_ms(key):
        return statistics.mean(r[key] for r in reports) / n / 1e6

    def self_ms_where(predicate):
        total = statistics.mean(
            sum(v for k, v in r["self_ns"].items() if predicate(k)) for r in reports
        )
        return metric(total / n / 1e6, "ms/req")

    def self_ms(*spans):
        return self_ms_where(lambda k: k in spans)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_req(value):
        return metric(value / n, "count/req")

    def edge_count(pred):
        return sum(v for k, v in first["edges"].items() if pred(*k.split(">", 1)))

    decode = [k for k in calls if k == "jsonio.loads" or k.endswith("_from_dict")]
    encode = [k for k in calls if k == "jsonio.dumps" or k.endswith("_to_dict")]
    queries = count(*(k for k in calls if k.startswith("rta.response_")))
    probes = counters.get("decision_probes", 0)
    solves = counters.get("mixing_calls", 0)
    reverse_solves = edge_count(lambda parent, span: parent != "reverse" and span.startswith("reverse."))
    rtc_probes = edge_count(lambda parent, span: parent == "reverse" and span.startswith("rta.response_"))
    stage2 = count("blockip.solve_2stage_desk")

    out = {
        "cli.parser_ms": metric(statistics.mean(r["parser_ms"] for r in reports), "ms"),
        "gen.ms": metric(statistics.mean(r["gen_ms"] for r in reports), "ms"),
        "jsonio.decode_ms": self_ms(*decode),
        "jsonio.encode_ms": self_ms(*encode),
        "core.validate.calls": per_req(count("core.validate")),
        "core.bounds.calls": per_req(count("core.bounds_from_parts")),
        "core.bounds_ms": self_ms("core.bounds_from_parts"),
        "rta.queries": per_req(queries),
        "rta.decision_probes": per_req(probes),
        "rta.probes_per_query": metric(ratio(probes, queries), "ratio"),
        "rta.decide_ms": self_ms("rta.decide_large_k"),
        "rta.auto_ms": metric(mean_ms("auto_ns"), "ms/req"),
        "rta.fixpoint_iters": per_req(first["fixpoint_iters"]),
        "rta.fixpoint_ms": metric(mean_ms("fixpoint_ns"), "ms/req"),
        "mixing.solves": per_req(solves),
        "mixing.ops": per_req(counters.get("mixing_ops", 0)),
        "mixing.harmonic_ms": self_ms("mixing.solve_harmonic"),
        "mixing.bruteforce_ms": self_ms("mixing.solve_bruteforce"),
        "mixing.bound_ms": self_ms("mixing.certified_s_bound", "mixing.s_search_bound"),
        "mixing.validate.calls": per_req(count("mixing.validate")),
        "mixing.validate_per_solve": metric(ratio(count("mixing.validate"), solves), "ratio"),
        "reverse.solves": per_req(reverse_solves),
        "reverse.rtc_probes": per_req(rtc_probes),
        "reverse.probes_per_solve": metric(ratio(rtc_probes, reverse_solves), "ratio"),
        "reverse.rtc_probe_ms": self_ms("reverse.mix_leq_via_rtc"),
        "blockip.stage2_calls": per_req(stage2),
        "blockip.stage2_per_solve": metric(ratio(stage2, count("blockip.solve_simple_4block")), "ratio"),
        "blockip.stage2_ms": self_ms("blockip.solve_2stage_desk"),
    }
    for layer in LAYERS:
        if layer != "gen":
            out[f"{layer}.self_ms"] = self_ms_where(lambda k, l=layer: k.startswith(l + "."))
    for layer in LAYERS:
        out[f"{layer}.errors"] = metric(first["layer_errors"].get(layer, 0), "count")
    out["trace.request_ms"] = metric(mean_ms("untraced_ns"), "ms/req")
    out["trace.overhead_ratio"] = metric(mean_ms("traced_ns") / mean_ms("untraced_ns"), "ratio")
    return out


def layer_run(spec, payload, expected, deadline) -> tuple[dict, int, int]:
    payload = {**payload, "expected": expected, "trace_requests": spec["trace_requests"]}
    reports = [run_worker("trace", payload, deadline) for _ in range(TRACE_RUNS)]
    check_counts_repeat(reports)
    check_uses(spec["uses"], reports[0])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return per_layer(reports), attempted, failed


def measure(spec: dict, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One run of one workload: the object that run.py prints.  Raises BenchError."""
    specs, expected = build_pool(spec, seed)
    payload = {"kind": spec["kind"], "variants": spec["variants"], "specs": specs}
    if trace:
        metrics, attempted, failed = layer_run(spec, payload, expected, deadline)
    else:
        metrics, attempted, failed = end_to_end(payload, expected, seconds, deadline)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    specs = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default_seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rtmix", "__init__.py")):
        print(f"perfbench: no rtmix sources under {SRC}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    spec = specs[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    try:
        result = measure(spec, seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

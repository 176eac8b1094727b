"""One workload process of the rtmix benchmark.

    python3 perfbench/worker.py setup|timed|trace  < payload.json

run.py starts it and writes a JSON payload to its stdin: the request kind,
the generator variants, the (variant, seed) pair of every input, and for
`timed` and `trace` the expected answers, the run length and the traced
request count.  The worker prints one JSON object with its measurements.

Every mode first sets up as a fresh `rtmix` run does: import the package
and its CLI, build the CLI parser, and generate the inputs through
`rtmix.gen`.  `setup` stops there.  `timed` answers requests in a closed
loop, one at a time, each input once, for the given number of seconds.
`trace` answers the first requests of the pool with every layer wrapped, then
once more untraced to time the tracing overhead, then answers the captured
response-time queries again untraced, both with the function the program
chose and with its fixed-point iteration.  Only the traced pass sees inputs
fresh, so a cache in the program cannot hide calls from the per-layer counts.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

WARMUP_REQUESTS = 5
MIN_REQUESTS = 100    # so that at least ten samples lie beyond the 90th percentile
HARD_STOP_S = 120.0   # ends the timed loop of a pathologically slow program in time
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 5  # reference samples on each side whose median gives the local speed
# Median time of reference_work() on the machine the benchmark was defined on
# (Python 3.11.7, x86-64 virtual machine, 2 vCPUs).  Request times are scaled
# by this over the reference time measured around them, so that a machine
# that is slower or busier for a while does not read as a slower program.
REFERENCE_NS = 3_300_000
# A fixed task system whose responses the reference loop recomputes.
REFERENCE_SYSTEM = {"tasks": [
    {"c": 3, "d": 40, "p": 40, "jitter": 7}, {"c": 5, "d": 66, "p": 66, "jitter": 0},
    {"c": 9, "d": 97, "p": 97, "jitter": 30}, {"c": 11, "d": 150, "p": 150, "jitter": 2},
    {"c": 23, "d": 233, "p": 233, "jitter": 91}, {"c": 6, "d": 500, "p": 500, "jitter": 0},
]}


def reference_work() -> str:
    """Fixed pure-Python work like a request's (exact fractions, integer
    fixed points, JSON), timed between requests to track machine speed."""
    import json

    import oracle

    return json.dumps([oracle.rta_expected(REFERENCE_SYSTEM) for _ in range(40)])


def time_reference() -> int:
    t0 = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - t0


# (module, layer, functions) wrapped in the traced run.
TARGETS = [
    ("rtmix.cli", "cli", ["build_parser"]),
    ("workloads", "cli", ["rta_request", "mix_request", "blockip_request"]),
    ("json", "jsonio", ["loads", "dumps"]),
    ("rtmix.jsonio", "jsonio", [
        "task_system_from_dict", "mix_instance_from_dict", "four_block_from_dict",
        "task_system_to_dict", "mix_instance_to_dict", "mix_solution_to_dict",
        "four_block_to_dict",
    ]),
    ("rtmix.core", "core", ["validate", "bounds_from_parts"]),
    ("rtmix.rta", "rta", [
        "analyze_system", "compute_response", "response_harmonic", "response_turing",
        "response_jitter_free", "response_lcm_scan", "response_bruteforce",
        "narrow", "catch", "decide_large_k", "build_mix_for_k",
    ]),
    ("rtmix.mixing", "mixing", [
        "validate", "solve_harmonic", "solve_bruteforce", "solve_breakpoints",
        "certified_s_bound", "s_search_bound", "is_unbounded", "complete",
    ]),
    ("rtmix.reverse", "reverse", [
        "solve_general_via_shift", "solve_crowded", "solve_constant_beta",
        "mix_leq_via_rtc", "shift_record",
    ]),
    ("rtmix.blockip", "blockip", [
        "solve_simple_4block", "solve_2stage_desk", "transform_to_2stage",
        "encode_rtc_as_4block",
    ]),
    ("rtmix.gen", "gen", [
        "random_system", "random_mix_instance", "construct_extreme", "tight_mixing_instance",
    ]),
]

QUERY_SPANS = (
    "rta.response_harmonic", "rta.response_turing", "rta.response_jitter_free",
    "rta.response_lcm_scan", "rta.response_bruteforce",
)


def make_tracer():
    import spans

    targets = [
        (sys.modules[module], attr, layer)
        for module, layer, attrs in TARGETS
        for attr in attrs
    ]
    scan = [m for name, m in sys.modules.items() if name == "rtmix" or name.startswith("rtmix.")]
    scan.append(sys.modules["workloads"])
    return spans.Tracer(targets, scan, capture=QUERY_SPANS)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def answer(handler, text):
    """(report text, rtmix counters or None, exception name or None)."""
    try:
        out, ops = handler(text)
    except Exception as exc:  # a request that raises is a failed request, not a crash
        return None, None, type(exc).__name__
    return out, ops, None


def timed(payload, texts, handler, check):
    """Warm up on the first inputs, then answer each later input once, in
    order, until `seconds` have passed or the pool is used up."""
    from collections import Counter
    import statistics

    expected = payload["expected"]
    seconds = payload["seconds"]
    clock = time.perf_counter_ns
    errors = Counter()
    failed = 0
    warm = min(WARMUP_REQUESTS, len(texts))
    for i in range(warm):
        out, _, err = answer(handler, texts[i])
        if err:
            errors[err] += 1
        failed += out is None or not check(out, expected[i])
    latencies = []
    slots = []       # per request: the last reference sample taken before it
    reference = []
    start = time.perf_counter()
    next_reference = start
    for idx in range(warm, len(texts)):
        if time.perf_counter() >= next_reference:
            reference.append(time_reference())
            next_reference += REFERENCE_EVERY_S
        t0 = clock()
        out, _, err = answer(handler, texts[idx])
        latencies.append(clock() - t0)
        slots.append(len(reference) - 1)
        if err:
            errors[err] += 1
        failed += out is None or not check(out, expected[idx])
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_REQUESTS) or elapsed >= HARD_STOP_S:
            break
    if len(latencies) < MIN_REQUESTS:
        raise SystemExit(f"the pool of {len(texts)} inputs is too small: "
                         f"a run needs {MIN_REQUESTS} requests after the warm-up")
    # The machine's speed changes within a run too, so each request is scaled
    # by the reference times measured within about half a second of it.
    local = [
        statistics.median(reference[max(0, j - REFERENCE_WINDOW):j + REFERENCE_WINDOW + 1])
        for j in range(len(reference))
    ]
    scaled = [ns * REFERENCE_NS / local[j] for ns, j in zip(latencies, slots)]
    return {
        "attempted": warm + len(latencies),
        "failed": failed,
        "errors": dict(errors),
        "requests": len(latencies),
        "pool_used_up": warm + len(latencies) == len(texts),
        "busy_s": sum(scaled) / 1e9,
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "latency_p90_ms": statistics.quantiles(scaled, n=10)[8] / 1e6,
        "unscaled": {
            "busy_s": sum(latencies) / 1e9,
            "latency_p50_ms": statistics.median(latencies) / 1e6,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] / 1e6,
        },
        "peak_rss_mb": peak_rss_mb(),
        "reference_ns": statistics.median(reference),
    }


def traced(payload, texts, handler, check, tracer):
    from collections import Counter

    from rtmix import counters, rta

    expected = payload["expected"]
    n = payload["trace_requests"]
    if len(texts) < n + WARMUP_REQUESTS:
        raise SystemExit(f"the pool of {len(texts)} inputs is too small for {n} traced requests")
    clock = time.perf_counter_ns
    failed = 0

    for i in range(n, n + WARMUP_REQUESTS):
        answer(handler, texts[i])

    program_counters = Counter()
    queries = []
    traced_ns = 0
    tracer.install()
    try:
        for i in range(n):
            mark = len(tracer.captured)
            with counters.collect() as outer:
                t0 = clock()
                out, inner, _ = answer(handler, texts[i])
                traced_ns += clock() - t0
            program_counters.update(outer.as_dict())
            if inner is not None:
                program_counters.update(inner.as_dict())
            failed += out is None or not check(out, expected[i])
            queries.append(tracer.captured[mark:])
    finally:
        tracer.uninstall()

    untraced_ns = 0
    for i in range(n):
        t0 = clock()
        out, _, _ = answer(handler, texts[i])
        untraced_ns += clock() - t0
        failed += out is None or not check(out, expected[i])

    auto_ns = fixpoint_ns = 0
    with counters.collect() as fixpoint:
        for request_queries in queries:
            for fn, q in request_queries:
                t0 = clock()
                rta.response_bruteforce(q)
                fixpoint_ns += clock() - t0
    for request_queries in queries:
        for fn, q in request_queries:
            t0 = clock()
            fn(q)
            auto_ns += clock() - t0

    return {
        "attempted": 2 * n,
        "failed": failed,
        "requests": n,
        "calls": dict(tracer.calls),
        "binding_calls": dict(tracer.binding_calls),
        "edges": dict(tracer.edges),
        "self_ns": dict(tracer.self_ns),
        "incl_ns": dict(tracer.incl_ns),
        "layer_errors": dict(tracer.errors),
        "counters": {k: v for k, v in program_counters.items() if v},
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
        "auto_ns": auto_ns,
        "fixpoint_ns": fixpoint_ns,
        "fixpoint_iters": fixpoint.fixpoint_iters,
    }


def main(mode: str) -> int:
    if mode not in ("setup", "timed", "trace"):
        print(f"usage: {sys.argv[0]} setup|timed|trace < payload.json", file=sys.stderr)
        return 2
    raw = sys.stdin.buffer.read()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import rtmix.cli
    t1 = time.perf_counter()

    if not os.path.abspath(rtmix.__file__).startswith(SRC + os.sep):
        print(f"rtmix was imported from {rtmix.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import json

    import oracle
    import workloads

    tracer = None
    if mode == "trace":
        tracer = make_tracer()
        tracer.install()
    t2 = time.perf_counter()
    rtmix.cli.build_parser()
    t3 = time.perf_counter()
    payload = json.loads(raw)
    kind = payload["kind"]
    t4 = time.perf_counter()
    texts = workloads.make_requests(kind, payload["variants"], payload["specs"])
    t5 = time.perf_counter()
    # the benchmark's own imports and payload decoding are left out
    setup = {"setup_s": (t1 - t0) + (t3 - t2) + (t5 - t4)}

    if tracer is not None:
        tracer.uninstall()
        setup_spans = {
            "setup_calls": dict(tracer.binding_calls),
            "parser_ms": tracer.incl_ns["cli.build_parser"] / 1e6,
            "gen_ms": sum(v for k, v in tracer.incl_ns.items() if k.startswith("gen.")) / 1e6,
        }
        tracer.reset()

    def handler(text):
        # looked up per call, so that the traced pass goes through the wrapper
        return getattr(workloads, f"{kind}_request")(text)

    def check(out, exp):
        return oracle.check(kind, out, exp)

    if mode == "setup":
        result = {**setup, "reference_ns": sorted(time_reference() for _ in range(5))[2]}
    elif mode == "timed":
        result = {**setup, **timed(payload, texts, handler, check)}
    else:
        result = {**setup_spans, **traced(payload, texts, handler, check, tracer)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))

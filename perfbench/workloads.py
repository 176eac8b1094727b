"""Inputs and requests of the rtmix benchmark.

A request does what the matching CLI handler (`rtmix rta compute`,
`rtmix mix solve --algorithm shift`, `rtmix blockip solve`) does, through
rtmix's public functions: decode the JSON text, solve, and encode the
report.  Printing the report is left out.  Inputs come from `rtmix.gen`.
The oracle reads the generated task system or mixing set, encoded to JSON by
the benchmark's own code, so its view of an input never passes through
`rtmix.jsonio`.  A 4-block request is the encoding of its source system, made
as `rtmix blockip encode-rtc` makes it.
"""

from __future__ import annotations

import time
# Bound by name so that the traced run can wrap them as the jsonio layer.
from json import dumps, loads

from rtmix import blockip, counters, gen, jsonio, reverse, rta


def generate(variant: dict, gen_seed: int):
    """One input from `rtmix.gen`: variant names the generator and its keyword arguments."""
    params = dict(variant)
    return getattr(gen, params.pop("generator"))(gen_seed, **params)


def system_dict(ts) -> dict:
    return {
        "tasks": [{"c": t.c, "d": t.d, "p": t.p, "jitter": t.jitter} for t in ts.tasks]
    }


def mix_dict(inst) -> dict:
    return {"w0": inst.w0, "terms": [{"w": t.w, "a": t.a, "b": t.b} for t in inst.terms]}


def source_dict(kind: str, obj) -> dict:
    """The generated input as the oracle sees it."""
    return mix_dict(obj) if kind == "mix" else system_dict(obj)


def request_text(kind: str, obj) -> str:
    """The JSON a user would pass with --input; 4-block programs are encoded
    as `rtmix blockip encode-rtc` does."""
    if kind == "blockip":
        return dumps(jsonio.four_block_to_dict(blockip.encode_rtc_as_4block(obj)))
    return dumps(source_dict(kind, obj))


def make_requests(kind: str, variants: list[dict], specs: list[list[int]]) -> list[str]:
    """Request texts for (variant index, generator seed) pairs."""
    return [request_text(kind, generate(variants[v], seed)) for v, seed in specs]


def rta_request(text: str):
    ts = jsonio.task_system_from_dict(loads(text))
    with counters.collect() as ops:
        start = time.perf_counter()
        verdicts = rta.analyze_system(ts, "auto")
        seconds = time.perf_counter() - start
    report = {
        "result": {
            "responses": list(verdicts.responses()),
            "schedulable": verdicts.schedulable,
            "tasks": [
                {
                    "index": tv.index,
                    "response": tv.response,
                    "deadline_budget": tv.deadline_budget,
                    "schedulable": tv.schedulable,
                }
                for tv in verdicts.tasks
            ],
        },
        "algorithm": "auto",
        "certificates": {"verified_against_bruteforce": False},
        "timings": {"seconds": seconds},
        "counters": ops.as_dict(),
        "instance": jsonio.task_system_to_dict(ts),
    }
    return dumps(report, indent=2), ops


def mix_request(text: str):
    inst = jsonio.mix_instance_from_dict(loads(text))
    with counters.collect() as ops:
        start = time.perf_counter()
        sol = reverse.solve_general_via_shift(inst)
        seconds = time.perf_counter() - start
    report = {
        "result": jsonio.mix_solution_to_dict(sol),
        "algorithm": "shift",
        "certificates": {"feasible": True, "verified_against_bruteforce": False},
        "timings": {"seconds": seconds},
        "counters": ops.as_dict(),
        "instance": jsonio.mix_instance_to_dict(inst),
    }
    return dumps(report, indent=2), ops


def blockip_request(text: str):
    prog = jsonio.four_block_from_dict(loads(text))
    start = time.perf_counter()
    value = blockip.solve_simple_4block(prog, None)
    seconds = time.perf_counter() - start
    report = {
        "result": {"objective": value},
        "algorithm": "dualized-binary-search",
        "certificates": {},
        "timings": {"seconds": seconds},
        "instance": jsonio.four_block_to_dict(prog),
    }
    return dumps(report, indent=2), None

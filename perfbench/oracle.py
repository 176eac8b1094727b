"""Independent answer checks for the rtmix benchmark.

Nothing here imports rtmix: every expected answer is computed from plain
JSON-shaped data with integer arithmetic, so a defect in the program cannot
also hide in its own check.

* Response times: the least t >= gamma + sum c*ceil((t + jitter)/p), by the
  monotone fixed-point iteration started at gamma.
* Mixing sets: the optimum of w0*s + sum w*ceil((b - s)/a) by enumerating
  every s in [0, lcm(a) - 1].  For a bounded instance (sum w/a <= w0)
  shifting s by the lcm never lowers the objective, so this range holds an
  optimum.
* 4-block programs encoding jitter-free response-time computation: the
  response time of the source system's lowest-priority task.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def response(interferers: list[tuple[int, int, int]], gamma: int) -> int:
    """Least fixed point of t -> gamma + sum c*ceil((t + jitter)/p).

    `interferers` holds (c, p, jitter) triples whose utilization is below 1,
    which bounds the iteration."""
    if sum(Fraction(c, p) for c, p, _ in interferers) >= 1:
        raise ValueError("interfering utilization >= 1: no finite response time")
    t = gamma
    while True:
        nxt = gamma + sum(c * _ceil_div(t + jit, p) for c, p, jit in interferers)
        if nxt == t:
            return t
        t = nxt


def system_responses(system: dict) -> list[int]:
    """Response time of every task of {"tasks": [{"c","p","jitter",...}]}."""
    tasks = [(t["c"], t["p"], t["jitter"]) for t in system["tasks"]]
    return [response(tasks[:j], tasks[j][0]) for j in range(len(tasks))]


def rta_expected(system: dict) -> dict:
    responses = system_responses(system)
    budgets = [t["d"] - t["jitter"] for t in system["tasks"]]
    return {
        "responses": responses,
        "schedulable": [r <= b for r, b in zip(responses, budgets)],
    }


def mix_objective(w0: int, terms: list[list[int]], s: int) -> int:
    return w0 * s + sum(w * _ceil_div(b - s, a) for w, a, b in terms)


def mix_optimum(instance: dict) -> int:
    """Optimal objective of {"w0": int, "terms": [{"w","a","b"}]} by enumeration."""
    w0 = instance["w0"]
    terms = [(t["w"], t["a"], t["b"]) for t in instance["terms"]]
    if sum(Fraction(w, a) for w, a, _ in terms) > w0:
        raise ValueError("unbounded mixing instance: sum w/a exceeds w0")
    period = math.lcm(*(a for _, a, _ in terms)) if terms else 1
    return min(mix_objective(w0, terms, s) for s in range(period))


def mix_expected(instance: dict) -> dict:
    return {
        "objective": mix_optimum(instance),
        "w0": instance["w0"],
        "terms": [[t["w"], t["a"], t["b"]] for t in instance["terms"]],
    }


def blockip_expected(system: dict) -> dict:
    """Optimum of the 4-block encoding of a jitter-free system: the lowest-priority response."""
    if any(t["jitter"] != 0 for t in system["tasks"]):
        raise ValueError("the 4-block encoding needs a jitter-free system")
    return {"objective": system_responses(system)[-1]}


EXPECTED = {"rta": rta_expected, "mix": mix_expected, "blockip": blockip_expected}


def first_stage_range(system: dict) -> int:
    """Certified upper bound u on the lowest-priority response of a jitter-free
    system: the box of t in its 4-block encoding, min(ceil(u1), u2) with
    u1 = (c_n + sum c)/(1 - U) and u2 the next multiple of lcm(p) above
    (c_n + sum c)/(1 - U) / lcm(p) periods."""
    *head, last = [(t["c"], t["p"]) for t in system["tasks"]]
    slack = 1 - sum(Fraction(c, p) for c, p in head)
    total = Fraction(last[0] + sum(c for c, _ in head))
    period = math.lcm(*(p for _, p in head)) if head else 1
    return min(math.ceil(total / slack), math.ceil(total / (slack * period)) * period)


def size(kind: str, source: dict) -> int:
    """How large an input is, for the size cap and the size strata of a pool:
    the enumeration length lcm(a) of a mixing set, the first-stage range of a
    4-block program, and the summed response times of a task system."""
    if kind == "mix":
        return math.lcm(*(t["a"] for t in source["terms"])) if source["terms"] else 1
    if kind == "blockip":
        return first_stage_range(source)
    return sum(system_responses(source))


def _rta_ok(result: dict, expected: dict) -> bool:
    tasks = result["tasks"]
    return (
        result["responses"] == expected["responses"]
        and [t["response"] for t in tasks] == expected["responses"]
        and [t["schedulable"] for t in tasks] == expected["schedulable"]
        and result["schedulable"] == all(expected["schedulable"])
    )


def _mix_ok(result: dict, expected: dict) -> bool:
    s, x, objective = result["s"], result["x"], result["objective"]
    terms = expected["terms"]
    return (
        objective == expected["objective"]
        and isinstance(s, int)
        and s >= 0
        and len(x) == len(terms)
        and all(s + a * xi >= b for (_, a, b), xi in zip(terms, x))
        and expected["w0"] * s + sum(w * xi for (w, _, _), xi in zip(terms, x)) == objective
    )


def _blockip_ok(result: dict, expected: dict) -> bool:
    return result["objective"] == expected["objective"]


_CHECKS = {"rta": _rta_ok, "mix": _mix_ok, "blockip": _blockip_ok}


def check(kind: str, report_text: str, expected: dict) -> bool:
    """True iff the JSON report's result matches the expected answer."""
    try:
        return bool(_CHECKS[kind](json.loads(report_text)["result"], expected))
    except (KeyError, TypeError, ValueError):
        return False

#!/usr/bin/env python3
"""Print the result and the operation counters of `rtmix` on a seeded suite,
and check that the algorithms agree.

Runs `rtmix rta compute` under both algorithms, `auto` with `--verify`
(each level's response checked against a fixed-point query built from the
level's interferers; the line keeps the label `rta compute auto`, and a
mismatch exits 1 with no result, so the algorithms disagree), `rtmix
mix solve` under all three algorithms, raw invalid documents included, and
`rtmix blockip encode-rtc` followed by `rtmix blockip solve` on the encoded
program and, for the small programs, on its mirrored form and on both forms
with the objective weight (1, 0) on brick 1, through `rtmix.cli.main`, and
prints one JSON line per run: the input, the command, the exit code, and the
report's `result` and `counters` (the encoded program for `encode-rtc`, the
error object for a failed run).  Timings are left out, so two checkouts that
compute the same thing print the same lines:

    PYTHONPATH=src python3 scripts/result_digest.py > new.jsonl
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/result_digest.py > old.jsonl
    diff old.jsonl new.jsonl

At the end it prints, on stderr, the counter totals of each command and of
all runs, so two checkouts can be compared by their totals alone.

It exits 1, naming each fault on stderr, when `rta compute auto` and
`bruteforce` give different results on one input, when two successful
`mix solve` algorithms give different objectives on one input, when
`blockip solve` gives different results on a program and its mirrored form,
or when any run exits 4 (an internal error).  A weighted program's objective
counts x_1, so it is compared with its own mirrored form only.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter, defaultdict

from rtmix import MixInstance, Task, TaskSystem, gen
from rtmix.cli import EXIT_INTERNAL, main as cli_main

# seeded `gen random` systems, besides 10 `gen extreme` ones, one large-S one,
# 12 larger harmonic ones, 5 geometric ones, 3 jittered geometric ones, 3
# larger general ones, 8 non-harmonic geometric ones, 3 whose utilization gate
# trips at a middle level and 10 whose interferer lcm passes 2**63; one more
# system's search bound S passes the magnitude cap at a middle level
SYSTEMS = 240
# seeded `random_mix_instance` inputs, besides `gen tight-mix` n = 2..6, a
# deep chain of L = 8, 12 and 16 levels, 7 crowded ones at the ends of the
# reverse search's window and 5 whose lcm passes 2**63
MIX = 120
# seeded `gen random` systems, n = 2 or 3 and p_max = 8 or 16, jitter-free and
# then with jitter, each also solved in mirrored form, and with weight 1 on the
# multiplier x_1 of brick 1 in both forms; besides jitter-free n = 4 ones with
# p_max = 128 and 1024 (seeds 1-5), whose first-stage ranges run to 2179, and
# 5 jitter-free n = 6 ones whose interferer lcm passes 2**63
BLOCKIP = 60
# raw mixing documents that no `MixInstance` can hold, since an instance
# checks itself when it is built: each run exits 2 under every algorithm
INVALID_MIX = {
    "invalid capacity 0": {"w0": 1, "terms": [{"w": 1, "a": 2, "b": 3}, {"w": 1, "a": 0, "b": 3}]},
    "invalid negative weight": {"w0": 1, "terms": [{"w": -1, "a": 2, "b": 3}]},
    "invalid boolean b": {"w0": 1, "terms": [{"w": 1, "a": 2, "b": True}]},
    "invalid float w0": {"w0": 1.0, "terms": [{"w": 1, "a": 2, "b": 3}]},
}
# the lcm past which the large-lcm families draw: the magnitude cap plus
# one, which bounds S and not the lcm
BIG_LCM = 2**63


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    report = json.loads(out.getvalue())
    if "error" in report:
        return {"code": code, "error": report}
    if "result" not in report:  # an encoder prints the program it made
        return {"code": code, "program": report}
    return {"code": code, "result": report["result"], "counters": report.get("counters")}


def systems(count: int):
    for seed in range(count):
        harmonic = seed % 2 == 0
        jitter_mode = "zero" if seed % 4 in (1, 2) else "upto-p"
        n = 2 + seed % 5
        p_max = (16, 64)[seed // 5 % 2]
        ts = gen.random_system(seed, n, p_max, harmonic=harmonic, jitter_mode=jitter_mode)
        yield f"random seed={seed} n={n} p_max={p_max} harmonic={harmonic} {jitter_mode}", ts
    for cs, p1 in (([1], 2), ([1, 1], 3), ([2, 1], 5), ([1, 2, 1], 4), ([3, 1, 1, 1], 7)):
        for jitters in ("p", "zero"):
            ts = gen.construct_extreme(cs, p1, jitters, deadlines="p")
            yield f"extreme cs={cs} p1={p1} jitter={jitters}", ts
    # general periods with jitter whose certified S (about 1.1e15) lies far
    # above the response of task 2 (1073740801): a search that walks s or t
    # up to S does not finish
    yield "large-S", TaskSystem([
        Task(2**29, 2**30, 5, 2**30),
        Task(2**29 - 2**10, 2**30 + 1, 7, 2**30 + 1),
        Task(1, 2**31, 0, 2**31),
    ])
    # larger harmonic systems, short and long periods, whose harmonic search
    # decides on the chain of their compiled mixing form
    for n in (8, 10, 12):
        for p_max in (1024, 2**24):
            for jitter_mode in ("upto-p", "zero"):
                seed = 1000 * n + p_max.bit_length()
                ts = gen.random_system(seed, n, p_max, harmonic=True, jitter_mode=jitter_mode)
                yield f"random seed={seed} n={n} p_max={p_max} harmonic=True {jitter_mode}", ts
    # geometric: c_i = 1, p_i = 2^i for i = 1..k, then c = 2^(k-1); the fixed
    # point from gamma takes about 25k iterations at k = 12, while every
    # search's climb from ceil(ell) settles in one
    for k in (10, 11, 12, 13, 14):
        tasks = [Task(1, 2**i, 0, 2**i) for i in range(1, k + 1)]
        yield f"geometric k={k}", TaskSystem(tasks + [Task(2 ** (k - 1), 2**k, 0, 2**k)])
    # the harmonic geometric family with jitter 2^(i-1) on task i for
    # i = 1..k-1, then c = 2^(k-1) at period 2^k: the last level's climb from
    # ceil(ell) does not settle within its budget, so it hands off to the
    # bracketed search
    for k in (10, 12, 14):
        tasks = [Task(1, 2**i, 2 ** (i - 1), 2**i) for i in range(1, k)]
        ts = TaskSystem(tasks + [Task(2 ** (k - 1), 2**k, 0, 2**k)])
        yield f"geometric k={k} jitter=True", ts
    # larger general systems with zero jitter, where turing, jitter-free and
    # the fixed point all apply
    for n in (8, 10, 12):
        seed = 7000 * n
        ts = gen.random_system(seed, n, 256, jitter_mode="zero")
        yield f"random seed={seed} n={n} p_max=256 harmonic=False zero", ts
    # the geometric family with last period 3*2^(k-2), so not harmonic, with
    # zero jitter and with jitter 2^(i-1) on task i; with jitter the climb
    # passes S unsettled and hands over to the bracketed search
    for k in (10, 11, 12, 13):
        periods = [2**i for i in range(1, k)] + [3 * 2 ** (k - 2)]
        for jitter in (False, True):
            tasks = [Task(1, p, 2 ** (i - 1) if jitter else 0, p)
                     for i, p in enumerate(periods, start=1)]
            ts = TaskSystem(tasks + [Task(2 ** (k - 1), 2**k, 0, 2**k)])
            yield f"geometric k={k} non-harmonic jitter={jitter}", ts
    # the interferers' utilization reaches 1 at level 3 of 5: levels 0-2 are
    # answered and level 3 raises UtilizationExceeded, naming its utilization
    for name, pairs in (("harmonic 5/4", ((1, 2), (1, 4), (2, 4), (1, 8), (1, 16))),
                        ("general 7/6", ((1, 3), (1, 2), (2, 6), (1, 7), (1, 9))),
                        ("general 1", ((1, 3), (1, 2), (1, 6), (1, 7), (1, 9)))):
        yield f"utilization {name} at level 3", TaskSystem([Task(c, p, 0, p) for c, p in pairs])
    # six tasks with periods up to 2**16 and deadlines at the periods, whose
    # interferer lcm passes 2**63 while S stays small: every query answers
    for jitter_mode in ("upto-p", "zero"):
        for seed, ts in big_lcm(lambda seed: gen.random_system(
                seed, 6, 2**16, jitter_mode=jitter_mode), lambda ts: ts.periods()[:-1]):
            ts = TaskSystem([Task(t.c, t.p, t.jitter, t.p) for t in ts.tasks])
            yield f"random seed={seed} n=6 p_max=65536 harmonic=False {jitter_mode} d=p", ts


def big_lcm(draw, periods, count: int = 5):
    """The first `count` (seed, draw(seed)) whose periods' lcm passes BIG_LCM."""
    found = 0
    for seed in range(1000):
        case = draw(seed)
        if math.lcm(*periods(case)) > BIG_LCM:
            yield seed, case
            found += 1
            if found == count:
                return


def blockip_systems(count: int):
    """(name, system, small): a small system's program is also solved in
    mirrored and weighted forms."""
    def small(jitter_mode):
        for seed in range(count):
            n = 2 + seed % 2
            p_max = (8, 16)[seed // 2 % 2]
            harmonic = seed // 4 % 2 == 0
            ts = gen.random_system(seed, n, p_max, harmonic=harmonic, jitter_mode=jitter_mode)
            yield f"random seed={seed} n={n} p_max={p_max} harmonic={harmonic} {jitter_mode}", \
                ts, True

    yield from small("zero")
    for p_max in (128, 1024):
        for seed in range(1, 6):
            yield f"random seed={seed} n=4 p_max={p_max} harmonic=False zero", \
                gen.random_system(seed, 4, p_max, jitter_mode="zero"), False
    for seed, ts in big_lcm(lambda seed: gen.random_system(seed, 6, 2**16, jitter_mode="zero"),
                            lambda ts: ts.periods()[:-1]):
        yield f"random seed={seed} n=6 p_max=65536 harmonic=False zero", ts, False
    yield from small("upto-p")


def mix_instances(count: int):
    for seed in range(count):
        harmonic = seed % 2 == 0
        n = 1 + seed % 6
        a_max = (16, 64)[seed // 6 % 2]
        yield f"random seed={seed} n={n} a_max={a_max} harmonic={harmonic}", \
            gen.random_mix_instance(seed, n, a_max, harmonic=harmonic)
    for n in range(2, 7):
        yield f"tight-mix n={n}", gen.tight_mixing_instance(n)
    # a deep divisibility chain, w = 1, a = 2^i, b = 2^(i-1) + 12345 for
    # i = 1..L, on which the harmonic search's cost still grows exponentially in L
    for levels in (8, 12, 16):
        yield f"chain L={levels}", MixInstance(1, [(1, 2**i, 2 ** (i - 1) + 12345)
                                                   for i in range(1, levels + 1)])
    # crowded instances at the ends of the window that the dual query's bounds
    # leave for the least k, [beta - top, beta - max(1, top - C)] with C = sum w_i.
    # No positive weight: no interferer, C = 0, and the window is {0}, its
    # lower end 0 (top = beta only then); the witness's response is the one probe
    # after the first
    yield "crowded all weights zero", MixInstance(1, [(0, 4, 12), (0, 6, 15)])
    yield "crowded all weights zero one term", MixInstance(1, [(0, 5, 7)])
    # top = 1: the window is {beta - 1}, decided by the first probe, whose
    # response the witness computes again
    yield "crowded window width 1", MixInstance(1, [(1, 2, 4), (1, 4, 4)])
    yield "crowded window width 1 jitter", MixInstance(1, [(3, 4, 4), (0, 2, 5)])
    # one unit of weight: the window [1, 2] starts at 1, the least lower end
    # that a positive weight leaves
    yield "crowded window from 1", MixInstance(1, [(1, 16, 16), (0, 8, 20)])
    # beta past sys.maxsize, general and harmonic capacities
    for caps in ((3, 5), (2, 4)):
        yield f"crowded beta 2**70 capacities={caps}", \
            MixInstance(1, [(1, caps[0], 2**70), (1, caps[1], 2**70 + caps[1] - 1)])
    # capacities up to 2**16 whose lcm passes 2**63 while S stays small
    for seed, inst in big_lcm(lambda seed: gen.random_mix_instance(
            seed, 6, 2**16, harmonic=False), lambda inst: inst.capacities()):
        yield f"random seed={seed} n=6 a_max=65536 harmonic=False", inst


def crowded(inst):
    """The instance with each b_i raised by a multiple of a_i into [m, m + a_i],
    m = lcm(a): a crowded input, which the shift normalization moves by
    offsets of 0 or -1."""
    m = math.lcm(*inst.capacities()) if inst.terms else 1
    terms = [(t.w, t.a, t.b - (t.b - m) // t.a * t.a) for t in inst.terms]
    return MixInstance(inst.w0, terms)


def mirrored(program: dict) -> dict:
    """The 4-block program with every brick row negated: the same feasible
    set, but no brick is unit-slack, so `blockip solve` bisects on k with the
    first-stage enumeration and a depth-first search per brick instead of
    sweeping the pieces of t."""
    def neg(rows):
        return [[-v for v in row] for row in rows]

    return {**program, "A": [neg(a) for a in program["A"]],
            "B": [neg(b) for b in program["B"]], "rhs": neg(program["rhs"])}


def system_dict(ts) -> dict:
    return {"tasks": [{"c": t.c, "d": t.d, "p": t.p, "jitter": t.jitter} for t in ts.tasks]}


def write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main() -> int:
    lines = 0
    faults = []
    totals: defaultdict[str, Counter] = defaultdict(Counter)

    def record(name: str, cmd: str, out: dict) -> None:
        nonlocal lines
        print(json.dumps({"input": name, "cmd": cmd, **out}))
        lines += 1
        totals[cmd].update(out.get("counters") or {})
        if out["code"] == EXIT_INTERNAL:
            faults.append(f"{name}: {cmd} exited {EXIT_INTERNAL}")

    def agree(name: str, what: str, values: dict) -> None:
        if len({json.dumps(v, sort_keys=True) for v in values.values()}) > 1:
            faults.append(f"{name}: {what} differ across algorithms: {values}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        program = os.path.join(tmp, "program.json")
        for name, ts in systems(SYSTEMS):
            write(path, system_dict(ts))
            outs = {}
            for algorithm in ("auto", "bruteforce"):
                argv = ["rta", "compute", "--input", path, "--algorithm", algorithm]
                outs[algorithm] = run(argv + ["--verify"] * (algorithm == "auto"))
                record(name, f"rta compute {algorithm}", outs[algorithm])
            agree(name, "rta compute results", {a: out.get("result") for a, out in outs.items()})
        # two interferers on one period P = 2**63 + 1 leave level 2 slack 1/P
        # and S = P - 1, past the magnitude cap 2**63 - 1: level 2 raises
        # OverflowLimit
        big = BIG_LCM + 1
        write(path, system_dict(TaskSystem([Task(1, big, 0, big), Task(big - 2, big, 0, big),
                                            Task(1, 4, 0, 4), Task(1, 8, 0, 8)])))
        out = run(["rta", "compute", "--input", path, "--algorithm", "auto"])
        record("S past the magnitude cap at level 2", "rta compute auto", out)
        for name, inst in mix_instances(MIX):
            for label, case in (("", inst), (" crowded", crowded(inst))):
                terms = [{"w": t.w, "a": t.a, "b": t.b} for t in case.terms]
                write(path, {"w0": case.w0, "terms": terms})
                objectives = {}
                for algorithm in ("bruteforce", "harmonic", "shift"):
                    out = run(["mix", "solve", "--input", path, "--algorithm", algorithm])
                    record(name + label, f"mix solve {algorithm}", out)
                    if out["code"] == 0:
                        objectives[algorithm] = out["result"]["objective"]
                agree(name + label, "mix solve objectives", objectives)
        for name, doc in INVALID_MIX.items():
            write(path, doc)
            for algorithm in ("bruteforce", "harmonic", "shift"):
                out = run(["mix", "solve", "--input", path, "--algorithm", algorithm])
                record(name, f"mix solve {algorithm}", out)
        for name, ts, small in blockip_systems(BLOCKIP):
            write(path, system_dict(ts))
            out = run(["blockip", "encode-rtc", "--input", path])
            record(name, "blockip encode-rtc", out)
            if "program" not in out:
                continue
            encoded = out["program"]
            groups = [{"": encoded}]
            if small:
                weighted = {**encoded, "wj": [1, 0]}
                groups = [{"": encoded, " mirrored": mirrored(encoded)},
                          {" wj=(1,0)": weighted, " wj=(1,0) mirrored": mirrored(weighted)}]
            for forms in groups:
                results = {}
                for label, form in forms.items():
                    write(program, form)
                    solved = run(["blockip", "solve", "--input", program])
                    record(name + label, "blockip solve", solved)
                    results[label.strip() or "encoded"] = solved.get("result")
                agree(name, "blockip solve results", results)
    print(f"{lines} runs", file=sys.stderr)
    for cmd, total in [*totals.items(), ("all", sum(totals.values(), Counter()))]:
        print(f"counters {cmd}: {json.dumps(dict(sorted(total.items())))}", file=sys.stderr)
    for fault in faults:
        print(f"FAULT {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

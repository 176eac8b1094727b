"""Command-line frontend.

Subcommands: `rta compute`, `mix solve`, `gen extreme|tight-mix|random`,
`sim run`, `blockip solve|encode-rtc`.  Solvers emit a JSON report
{result, algorithm, certificates, timings, instance}; `--verify` re-checks the
result against the brute-force oracle and fails the run on mismatch.

Every `RTMixError` leaves as a JSON error object {error, message} and the exit
code that `EXIT_CODES` gives its class: 0 success, 1 infeasible / unbounded /
not schedulable / verify mismatch, 2 invalid input (usage errors included:
the parser raises InvalidInstance, and until `--format` is parsed the object
is JSON), 3 overflow (the search bound S past the fixed magnitude cap
2**63 - 1, or a report integer too long to print), budget or generation
attempt cap exhausted, 4 internal error (a certified invariant failed).  A reader that closes stdout early
(`rtmix ... | head`) cuts the output short, with no traceback, and the
command keeps its own exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time

from . import blockip, counters, gen, jsonio, mixing, reverse, rta, sim
from .errors import (
    BudgetExceeded,
    GenerationFailed,
    HorizonTooSmall,
    Infeasible,
    InternalInvariantViolated,
    InvalidInstance,
    OverflowLimit,
    PreconditionViolated,
    RTMixError,
    Unbounded,
    UtilizationExceeded,
    VerifyMismatch,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1      # infeasible / unbounded / not schedulable / verify mismatch
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


# Exit code of each error class; an error takes the entry of its nearest listed class.
EXIT_CODES = {
    **dict.fromkeys((Unbounded, Infeasible, UtilizationExceeded, VerifyMismatch), EXIT_NEGATIVE),
    **dict.fromkeys((InvalidInstance, PreconditionViolated, HorizonTooSmall), EXIT_INVALID),
    **dict.fromkeys((OverflowLimit, BudgetExceeded, GenerationFailed), EXIT_RESOURCE),
    **dict.fromkeys((InternalInvariantViolated, RTMixError), EXIT_INTERNAL),
}


def _render(report: dict, fmt: str) -> str:
    """The report as text: each key on a `key:` line and each array item on a
    `-` line, a scalar after it and an object's or array's contents two spaces
    deeper.  An integer past the interpreter's int/str digit limit
    (`sys.get_int_max_str_digits`) raises OverflowLimit."""
    def walk(obj, pad=""):
        if isinstance(obj, dict):
            items = ((f"{pad}{key}:", val) for key, val in obj.items())
        else:
            items = ((f"{pad}-", val) for val in obj)
        for head, val in items:
            if isinstance(val, (dict, list, tuple)):
                yield head
                yield from walk(val, pad + "  ")
            else:
                yield f"{head} {val}"
    try:
        return json.dumps(report, indent=2) if fmt == "json" else "\n".join(walk(report))
    except ValueError as exc:
        raise OverflowLimit(f"the report holds an integer too long to print: {exc}") from None


def _print(text: str) -> None:
    """Print text; once the reader has closed stdout, drop it instead."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, {"seconds": time.perf_counter() - start}


def _cmd_rta_compute(args) -> tuple[int, dict]:
    ts = jsonio.task_system_from_dict(jsonio.load_json(args.input))
    with counters.collect() as ops:
        verdicts, timing = _timed(lambda: rta.analyze_system(ts, args.algorithm))
    if args.verify:
        for tv in verdicts.tasks:
            q = rta.ResponseQuery(ts.tasks[:tv.index], ts.tasks[tv.index].c)
            if rta.response_bruteforce(q) != tv.response:
                raise VerifyMismatch(
                    f"task {tv.index}: {tv.response} disagrees with the brute-force oracle"
                )
    report = {
        "result": {
            "responses": list(verdicts.responses()),
            "schedulable": verdicts.schedulable,
            "tasks": [dataclasses.asdict(tv) for tv in verdicts.tasks],
        },
        "algorithm": args.algorithm,
        "certificates": {"verified_against_bruteforce": bool(args.verify)},
        "timings": timing,
        "counters": ops.as_dict(),
        "instance": jsonio.task_system_to_dict(ts),
    }
    code = EXIT_OK
    if args.require_schedulable and not verdicts.schedulable:
        code = EXIT_NEGATIVE
    return code, report


_MIX_SOLVERS = {
    "bruteforce": lambda inst: mixing.solve_bruteforce(inst),
    "harmonic": lambda inst: mixing.solve_harmonic(inst),
    "shift": lambda inst: reverse.solve_general_via_shift(inst),
}


def _cmd_mix_solve(args) -> tuple[int, dict]:
    inst = jsonio.mix_instance_from_dict(jsonio.load_json(args.input))
    solver = _MIX_SOLVERS[args.algorithm]
    with counters.collect() as ops:
        sol, timing = _timed(lambda: solver(inst))
    if args.verify:
        # apart from every solver: the least completion over s = 0 and each
        # weighted term's drop points s = b_i (mod a_i) in [1, S]
        S = mixing.certified_s_bound(inst)
        drops = (range((t.b - 1) % t.a + 1, S + 1, t.a) for t in inst.terms if t.w > 0)
        oracle = min(mixing.complete(s, inst).objective for s in itertools.chain([0], *drops))
        if oracle != sol.objective:
            raise VerifyMismatch(f"objective {sol.objective} disagrees with brute force {oracle}")
    report = {
        "result": jsonio.mix_solution_to_dict(sol),
        "algorithm": args.algorithm,
        "certificates": {
            "feasible": True,
            "verified_against_bruteforce": bool(args.verify),
        },
        "timings": timing,
        "counters": ops.as_dict(),
        "instance": jsonio.mix_instance_to_dict(inst),
    }
    return EXIT_OK, report


def _write_instance(payload: dict, args) -> tuple[int, dict]:
    text = _render(payload, "json")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InvalidInstance(f"cannot write {args.output}: {exc}") from None
        return EXIT_OK, {"written": args.output}
    _print(text)
    return EXIT_OK, {}


def _integers(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidInstance(f"{flag} takes comma-separated integers, got {text!r}") from None


def _cmd_gen_extreme(args) -> tuple[int, dict]:
    cs = _integers(args.c, "--c") if args.c else []
    if args.n != len(cs) + 2:
        raise InvalidInstance(
            f"--n {args.n} is inconsistent with {len(cs)} leading costs "
            f"(need n - 2 = {args.n - 2})"
        )
    jitters = args.jitter if args.jitter in ("p", "zero") else _integers(args.jitter, "--jitter")
    ts = gen.construct_extreme(cs, args.p1, jitters, deadlines=args.deadline)
    return _write_instance(jsonio.task_system_to_dict(ts), args)


def _cmd_gen_tight_mix(args) -> tuple[int, dict]:
    inst = gen.tight_mixing_instance(args.n)
    return _write_instance(jsonio.mix_instance_to_dict(inst), args)


def _cmd_gen_random(args) -> tuple[int, dict]:
    ts = gen.random_system(
        args.seed,
        args.n,
        args.p_max,
        harmonic=args.harmonic,
        jitter_mode=args.jitter_mode,
        require_schedulable=args.require_schedulable,
    )
    return _write_instance(jsonio.task_system_to_dict(ts), args)


def _cmd_sim_run(args) -> tuple[int, dict]:
    ts = jsonio.task_system_from_dict(jsonio.load_json(args.input))
    rp = jsonio.release_pattern_from_dict(jsonio.load_json(args.releases))
    trace, timing = _timed(lambda: sim.simulate(ts, rp, args.horizon))
    if args.gantt:
        _print(sim.render_gantt(trace, ts))
    report = {
        "result": jsonio.trace_to_dict(trace),
        "algorithm": "event-loop",
        "certificates": {
            "responses_from_release": sim.observed_responses(trace, "release"),
            "responses_from_arrival": sim.observed_responses(trace, "arrival"),
        },
        "timings": timing,
        "instance": jsonio.task_system_to_dict(ts),
    }
    return EXIT_OK, report


def _cmd_blockip_solve(args) -> tuple[int, dict]:
    prog = jsonio.four_block_from_dict(jsonio.load_json(args.input))
    with counters.collect() as ops:
        value, timing = _timed(lambda: blockip.solve_simple_4block(prog, args.H))
    report = {
        "result": {"objective": value},
        "algorithm": "piece-sweep" if blockip.on_piece_path(prog) else "dualized-binary-search",
        "certificates": {},
        "timings": timing,
        "counters": ops.as_dict(),
        "instance": jsonio.four_block_to_dict(prog),
    }
    return EXIT_OK, report


def _cmd_blockip_encode(args) -> tuple[int, dict]:
    ts = jsonio.task_system_from_dict(jsonio.load_json(args.input))
    prog = blockip.encode_rtc_as_4block(ts)
    return _write_instance(jsonio.four_block_to_dict(prog), args)


class _Parser(argparse.ArgumentParser):
    """A parser, and through `add_subparsers` each of its subparsers, whose
    usage errors raise InvalidInstance instead of printing usage and exiting."""

    def error(self, message):
        raise InvalidInstance(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rtmix",
        description="Exact response-time analysis and mixing set solvers "
        "(magnitude cap 2**63 - 1 on the search bound S)",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rta = sub.add_parser("rta", help="response-time analysis")
    rta_sub = p_rta.add_subparsers(dest="subcommand", required=True)
    p_compute = rta_sub.add_parser("compute", help="per-task responses and verdicts")
    p_compute.add_argument("--input", required=True)
    p_compute.add_argument("--algorithm", choices=rta.ALGORITHMS, default="auto")
    p_compute.add_argument("--verify", action="store_true")
    p_compute.add_argument("--require-schedulable", action="store_true")
    p_compute.set_defaults(handler=_cmd_rta_compute)

    p_mix = sub.add_parser("mix", help="mixing set solvers")
    mix_sub = p_mix.add_subparsers(dest="subcommand", required=True)
    p_solve = mix_sub.add_parser("solve")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument(
        "--algorithm", choices=sorted(_MIX_SOLVERS), default="bruteforce"
    )
    p_solve.add_argument("--verify", action="store_true")
    p_solve.set_defaults(handler=_cmd_mix_solve)

    p_gen = sub.add_parser("gen", help="instance generators")
    gen_sub = p_gen.add_subparsers(dest="subcommand", required=True)
    p_ext = gen_sub.add_parser("extreme", help="full-utilization harmonic family")
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--p1", type=int, required=True)
    p_ext.add_argument("--c", default="", help="comma-separated leading costs (n-2 of them)")
    p_ext.add_argument("--jitter", default="p", help="'p', 'zero', or comma-separated values")
    p_ext.add_argument("--deadline", choices=("none", "p"), default="none")
    p_ext.add_argument("--output")
    p_ext.set_defaults(handler=_cmd_gen_extreme)
    p_tight = gen_sub.add_parser("tight-mix", help="tight mixing family")
    p_tight.add_argument("--n", type=int, required=True)
    p_tight.add_argument("--output")
    p_tight.set_defaults(handler=_cmd_gen_tight_mix)
    p_rand = gen_sub.add_parser("random", help="seeded random task system")
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--p-max", type=int, required=True)
    p_rand.add_argument("--harmonic", action="store_true")
    p_rand.add_argument("--jitter-mode", choices=("zero", "upto-p"), default="upto-p")
    p_rand.add_argument("--require-schedulable", action="store_true")
    p_rand.add_argument("--output")
    p_rand.set_defaults(handler=_cmd_gen_random)

    p_sim = sub.add_parser("sim", help="schedule simulator")
    sim_sub = p_sim.add_subparsers(dest="subcommand", required=True)
    p_run = sim_sub.add_parser("run")
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--releases", required=True)
    p_run.add_argument("--horizon", type=int, required=True)
    p_run.add_argument("--gantt", action="store_true")
    p_run.set_defaults(handler=_cmd_sim_run)

    p_blk = sub.add_parser("blockip", help="simple 4-block programs")
    blk_sub = p_blk.add_subparsers(dest="subcommand", required=True)
    p_bsolve = blk_sub.add_parser("solve")
    p_bsolve.add_argument("--input", required=True)
    p_bsolve.add_argument("--H", type=int, default=None)
    p_bsolve.set_defaults(handler=_cmd_blockip_solve)
    p_benc = blk_sub.add_parser("encode-rtc")
    p_benc.add_argument("--input", required=True)
    p_benc.add_argument("--output")
    p_benc.set_defaults(handler=_cmd_blockip_encode)

    return parser


def main(argv: list[str] | None = None) -> int:
    fmt = "json"
    try:
        args = build_parser().parse_args(argv)
        fmt = args.format
        code, report = args.handler(args)
        text = _render(report, fmt) if report else None
    except RTMixError as exc:
        _print(_render({"error": type(exc).__name__, "message": str(exc)}, fmt))
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    if text is not None:
        _print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

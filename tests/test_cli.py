"""CLI behavior: reports, verification, exit codes, JSON round trips."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rtmix
from rtmix import blockip, mixing, reverse, rta
from rtmix.cli import EXIT_CODES, build_parser, main
from rtmix.core import Task, TaskSystem
from rtmix.errors import OverflowLimit
from rtmix.mixing import MixInstance


@pytest.fixture
def demo_file(tmp_path, demo_system):
    from rtmix.jsonio import task_system_to_dict

    path = tmp_path / "demo.json"
    path.write_text(json.dumps(task_system_to_dict(demo_system)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out: str) -> dict:
    return json.loads(out[out.index("{") :])


class TestRtaCompute:
    def test_demo_report(self, capsys, demo_file):
        code, out = run_cli(capsys, "rta", "compute", "--input", demo_file, "--verify")
        assert code == 0
        rep = last_json(out)
        assert rep["result"]["responses"] == [15, 22, 42]
        assert rep["result"]["schedulable"] is False
        assert rep["certificates"]["verified_against_bruteforce"] is True
        assert {"result", "algorithm", "certificates", "timings", "instance"} <= rep.keys()

    def test_verify_mismatch_exits_1(self, capsys, demo_file, monkeypatch):
        # an oracle that disagrees with every response: the first task's
        # mismatch leaves as the JSON error object with exit code 1
        oracle = rta.response_bruteforce
        monkeypatch.setattr(rta, "response_bruteforce", lambda q: oracle(q) + 1)
        code, out = run_cli(capsys, "rta", "compute", "--input", demo_file, "--verify")
        assert code == 1
        assert json.loads(out) == {
            "error": "VerifyMismatch",
            "message": "task 0: 15 disagrees with the brute-force oracle",
        }

    def test_require_schedulable_exit_code(self, capsys, demo_file):
        code, _ = run_cli(
            capsys, "rta", "compute", "--input", demo_file, "--require-schedulable"
        )
        assert code == 1

    def test_algorithm_choices(self, demo_file):
        assert rta.ALGORITHMS == ("auto", "bruteforce", "harmonic", "turing", "jitter-free")
        with pytest.raises(SystemExit) as exc:
            main(["rta", "compute", "--input", demo_file, "--algorithm", "lcm-scan"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("algorithm", ["bruteforce", "turing"])
    def test_algorithm_selection(self, capsys, demo_file, algorithm):
        code, out = run_cli(
            capsys, "rta", "compute", "--input", demo_file, "--algorithm", algorithm
        )
        assert code == 0
        assert last_json(out)["result"]["responses"] == [15, 22, 42]

    def test_report_round_trip(self, capsys, demo_file, tmp_path):
        # re-running on the echoed instance reproduces the result exactly
        _, out = run_cli(capsys, "rta", "compute", "--input", demo_file)
        rep = last_json(out)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(rep["instance"]))
        _, out2 = run_cli(capsys, "rta", "compute", "--input", str(echo))
        assert last_json(out2)["result"] == rep["result"]

    def test_invalid_input_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tasks": [{"c": 0, "p": 3, "jitter": 0, "d": None}]}))
        code, _ = run_cli(capsys, "rta", "compute", "--input", str(bad))
        assert code == 2

    def test_utilization_overflow_exit_code(self, capsys, tmp_path):
        sat = tmp_path / "sat.json"
        sat.write_text(
            json.dumps(
                {
                    "tasks": [
                        {"c": 1, "p": 1, "jitter": 0, "d": 1},
                        {"c": 1, "p": 4, "jitter": 0, "d": 4},
                    ]
                }
            )
        )
        code, _ = run_cli(capsys, "rta", "compute", "--input", str(sat))
        assert code == 1


class TestMixSolve:
    def test_tight_family_bruteforce(self, capsys, tmp_path):
        tight = tmp_path / "tight.json"
        run_cli(capsys, "gen", "tight-mix", "--n", "2", "--output", str(tight))
        code, out = run_cli(
            capsys, "mix", "solve", "--input", str(tight), "--algorithm", "bruteforce"
        )
        assert code == 0
        assert last_json(out)["result"] == {"s": 7, "x": [0, 0], "objective": 7}

    @pytest.mark.parametrize("algorithm", ["harmonic", "shift"])
    def test_solver_variants_verify(self, capsys, tmp_path, algorithm):
        tight = tmp_path / "tight.json"
        run_cli(capsys, "gen", "tight-mix", "--n", "3", "--output", str(tight))
        code, out = run_cli(
            capsys,
            "mix",
            "solve",
            "--input",
            str(tight),
            "--algorithm",
            algorithm,
            "--verify",
        )
        assert code == 0
        assert last_json(out)["result"]["objective"] == 23

    def test_verify_mismatch_exits_1(self, capsys, tmp_path, monkeypatch):
        # a solver under check that overshoots the optimum by one
        tight = tmp_path / "tight.json"
        run_cli(capsys, "gen", "tight-mix", "--n", "3", "--output", str(tight))
        solver = mixing.solve_harmonic
        monkeypatch.setattr(mixing, "solve_harmonic",
                            lambda inst: dataclasses.replace(solver(inst), objective=24))
        code, out = run_cli(capsys, "mix", "solve", "--input", str(tight),
                            "--algorithm", "harmonic", "--verify")
        assert code == 1
        assert json.loads(out) == {
            "error": "VerifyMismatch",
            "message": "objective 24 disagrees with brute force 23",
        }

    def test_verify_checks_the_bruteforce_solver_too(self, capsys, tmp_path, monkeypatch):
        # the oracle is not `mixing.solve_bruteforce`, so a wrong brute force
        # under --algorithm bruteforce --verify is caught
        tight = tmp_path / "tight.json"
        run_cli(capsys, "gen", "tight-mix", "--n", "3", "--output", str(tight))
        solver = mixing.solve_bruteforce
        monkeypatch.setattr(mixing, "solve_bruteforce",
                            lambda inst: dataclasses.replace(solver(inst), objective=22))
        code, out = run_cli(capsys, "mix", "solve", "--input", str(tight),
                            "--algorithm", "bruteforce", "--verify")
        assert code == 1
        assert json.loads(out) == {
            "error": "VerifyMismatch",
            "message": "objective 22 disagrees with brute force 23",
        }

    def test_via_rtc_on_crowded_instance(self, capsys, tmp_path):
        # `shift` is the one solver through response times (rtc)
        inst = tmp_path / "crowded.json"
        inst.write_text(
            json.dumps(
                {"w0": 1, "terms": [{"w": 1, "a": 2, "b": 4}, {"w": 1, "a": 4, "b": 5}]}
            )
        )
        code, out = run_cli(
            capsys, "mix", "solve", "--input", str(inst), "--algorithm", "shift", "--verify"
        )
        assert code == 0
        assert last_json(out)["result"]["objective"] == 4

    def test_via_rtc_bisects_past_sys_maxsize(self, capsys, tmp_path):
        # four capacities near 2**16 whose lcm m passes 2**63: the shift lands
        # every right-hand side in [m, m + a_i], so the crowded search's
        # beta = b_min lies past sys.maxsize, which no range holds
        caps = (65521, 65519, 65497, 65479)
        assert math.lcm(*caps) > sys.maxsize
        inst = tmp_path / "huge.json"
        terms = [{"w": 1, "a": a, "b": b} for a, b in zip(caps, (0, 3, 7, 11))]
        inst.write_text(json.dumps({"w0": 1, "terms": terms}))
        objectives = {}
        for algorithm in ("shift", "bruteforce"):
            code, out = run_cli(
                capsys, "mix", "solve", "--input", str(inst), "--algorithm", algorithm
            )
            assert code == 0, out
            objectives[algorithm] = last_json(out)["result"]["objective"]
        assert objectives["shift"] == objectives["bruteforce"]

    def test_shift_takes_the_chain_search_on_a_deep_chain(self, capsys, tmp_path):
        # the result digest's chain L = 16, w = 1, a = 2^i, b = 2^(i-1) + 12345:
        # the reverse search falls back at once, and its fallback,
        # `mixing.solve`, searches the chain as `--algorithm harmonic` does
        # (27,729 mixing ops), not by the scan (65,551)
        inst = tmp_path / "chain.json"
        terms = [{"w": 1, "a": 2**i, "b": 2 ** (i - 1) + 12345} for i in range(1, 17)]
        inst.write_text(json.dumps({"w0": 1, "terms": terms}))
        reports = {}
        for algorithm in ("bruteforce", "harmonic", "shift"):
            code, out = run_cli(
                capsys, "mix", "solve", "--input", str(inst), "--algorithm", algorithm
            )
            assert code == 0, out
            reports[algorithm] = last_json(out)
        shift, harmonic, bruteforce = (reports[a] for a in ("shift", "harmonic", "bruteforce"))
        assert shift["result"] == harmonic["result"] == bruteforce["result"]
        assert shift["counters"] == harmonic["counters"]
        assert shift["counters"]["mixing_ops"] < bruteforce["counters"]["mixing_ops"]

    @pytest.mark.parametrize("algorithm", ["bruteforce", "harmonic", "shift"])
    def test_unbounded_exit_code(self, capsys, tmp_path, algorithm):
        inputs = [{"w0": 1, "terms": [{"w": 2, "a": 1, "b": 0}]}]
        if algorithm == "shift":
            # one capacity P = 2**63 + 1, so S = m - 1 would pass the cap
            # 2**63 - 1: the reverse reduction decides unboundedness before
            # anything meets the cap (exit 1, not 3)
            big = 2**63 + 1
            inputs.append({"w0": 1, "terms": [{"w": 1, "a": big, "b": 0},
                                              {"w": big, "a": big, "b": 3}]})
        for data in inputs:
            inst = tmp_path / "unbounded.json"
            inst.write_text(json.dumps(data))
            code, out = run_cli(
                capsys, "mix", "solve", "--input", str(inst), "--algorithm", algorithm
            )
            assert code == 1
            assert last_json(out)["error"] == "Unbounded"


class TestGen:
    def test_extreme_matches_construction(self, capsys, tmp_path):
        out_file = tmp_path / "ext.json"
        code, _ = run_cli(
            capsys,
            "gen",
            "extreme",
            "--n",
            "3",
            "--p1",
            "2",
            "--c",
            "1",
            "--jitter",
            "p",
            "--output",
            str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data == {
            "tasks": [
                {"c": 1, "d": None, "p": 2, "jitter": 2},
                {"c": 1, "d": None, "p": 4, "jitter": 4},
                {"c": 1, "d": None, "p": 4, "jitter": 4},
            ]
        }

    def test_extreme_inconsistent_n_rejected(self, capsys):
        code, _ = run_cli(
            capsys, "gen", "extreme", "--n", "4", "--p1", "2", "--c", "1", "--jitter", "p"
        )
        assert code == 2

    def test_random_is_seed_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "gen", "random", "--seed", "9", "--n", "3", "--p-max", "12")
        _, out2 = run_cli(capsys, "gen", "random", "--seed", "9", "--n", "3", "--p-max", "12")
        assert out1 == out2


class TestSimRun:
    def test_demo_scenario(self, capsys, demo_file, tmp_path):
        releases = tmp_path / "rel.json"
        releases.write_text(
            json.dumps(
                {
                    "releases": [
                        [
                            {"arrival": 0, "release": 8},
                            {"arrival": 65, "release": 73},
                        ],
                        [
                            {"arrival": 0, "release": 5},
                            {"arrival": 30, "release": 35},
                        ],
                        [{"arrival": 0, "release": 25}],
                    ]
                }
            )
        )
        code, out = run_cli(
            capsys,
            "sim",
            "run",
            "--input",
            demo_file,
            "--releases",
            str(releases),
            "--horizon",
            "65",
            "--gantt",
        )
        assert code == 0
        assert "task0" in out  # gantt strip rendered
        rep = last_json(out)
        tau3 = next(j for j in rep["result"]["jobs"] if j["task"] == 2)
        assert tau3["completion"] == 47
        assert 22 in rep["certificates"]["responses_from_release"]


class TestBlockip:
    def test_encode_and_solve(self, capsys, tmp_path):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(
            json.dumps(
                {
                    "tasks": [
                        {"c": 1, "p": 2, "jitter": 0, "d": None},
                        {"c": 1, "p": 1, "jitter": 0, "d": None},
                    ]
                }
            )
        )
        enc = tmp_path / "enc.json"
        code, _ = run_cli(
            capsys, "blockip", "encode-rtc", "--input", str(sysfile), "--output", str(enc)
        )
        assert code == 0
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(enc))
        assert code == 0
        assert last_json(out)["result"]["objective"] == 2

    def test_solve_reports_the_nodes_it_spent(self, capsys, tmp_path):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({"tasks": [{"c": 1, "p": 2, "jitter": 0, "d": None},
                                                 {"c": 1, "p": 4, "jitter": 0, "d": None}]}))
        enc = tmp_path / "enc.json"
        run_cli(capsys, "blockip", "encode-rtc", "--input", str(sysfile), "--output", str(enc))
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(enc))
        assert code == 0
        assert last_json(out)["counters"]["blockip_nodes"] > 0

    def test_budget_exit_code(self, capsys, tmp_path, demo_file, monkeypatch):
        import rtmix.blockip as blockip_mod

        sysfile = tmp_path / "sys0.json"
        sysfile.write_text(
            json.dumps(
                {
                    "tasks": [
                        {"c": 15, "p": 65, "jitter": 0, "d": None},
                        {"c": 7, "p": 30, "jitter": 0, "d": None},
                        {"c": 13, "p": 50, "jitter": 0, "d": None},
                    ]
                }
            )
        )
        enc = tmp_path / "enc.json"
        run_cli(capsys, "blockip", "encode-rtc", "--input", str(sysfile), "--output", str(enc))
        # the piece sweep spends 9 nodes to t* = 42 (three pieces of three
        # units each), so a budget of 5 runs out inside the sweep
        monkeypatch.setattr(blockip_mod, "DEFAULT_NODE_BUDGET", 5)
        monkeypatch.setattr("rtmix.cli.blockip.DEFAULT_NODE_BUDGET", 5)
        code, _ = run_cli(capsys, "blockip", "solve", "--input", str(enc))
        assert code == 3

    def test_weighted_brick_solves_within_budget(self, capsys, tmp_path, monkeypatch):
        # one brick variable x in [0, 1000] with weight 1 and coupling value
        # x >= 3: the least objective is 3
        prog = tmp_path / "prog.json"
        prog.write_text(json.dumps({
            "n": 1, "r": 1, "s": 1, "t": 1, "D": [[0]], "C": [[[1]]], "B": [[[0]]],
            "A": [[[0]]], "b0": 3, "rhs": [[0]], "w0": [0], "j": 1, "wj": [1], "u": [5, 1000],
        }))
        monkeypatch.setattr(blockip, "DEFAULT_NODE_BUDGET", 100_000)
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(prog))
        assert code == 0
        assert last_json(out)["result"]["objective"] == 3

    @pytest.mark.parametrize(
        "mirror, label", [(False, "piece-sweep"), (True, "dualized-binary-search")]
    )
    def test_names_the_search_that_ran(self, capsys, tmp_path, mirror, label):
        # the encoding of (c, p) = (1, 4), (2, 6), (1, 12), least k 4, with a
        # search bound past sys.maxsize; with every brick row negated no brick
        # is unit-slack, so the solver bisects on k
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({"tasks": [
            {"c": c, "p": p, "jitter": 0, "d": None} for c, p in ((1, 4), (2, 6), (1, 12))
        ]}))
        enc = tmp_path / "enc.json"
        run_cli(capsys, "blockip", "encode-rtc", "--input", str(sysfile), "--output", str(enc))
        if mirror:
            prog = json.loads(enc.read_text())
            for key in ("A", "B"):
                prog[key] = [[[-v for v in row] for row in block] for block in prog[key]]
            prog["rhs"] = [[-v for v in row] for row in prog["rhs"]]
            enc.write_text(json.dumps(prog))
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(enc), "--H", str(10**20))
        assert code == 0
        report = last_json(out)
        assert report["algorithm"] == label
        assert report["result"]["objective"] == 4

    @pytest.mark.parametrize("q", [True, 1.0], ids=["bool", "float"])
    def test_coupling_count_must_be_the_integer_1(self, capsys, tmp_path, q):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({"tasks": [{"c": 1, "p": 2, "jitter": 0, "d": None},
                                                 {"c": 1, "p": 4, "jitter": 0, "d": None}]}))
        enc = tmp_path / "enc.json"
        run_cli(capsys, "blockip", "encode-rtc", "--input", str(sysfile), "--output", str(enc))
        enc.write_text(json.dumps({**json.loads(enc.read_text()), "q": q}))
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(enc))
        assert code == 2
        assert last_json(out)["error"] == "InvalidInstance"

    def test_negative_search_bound_exits_2(self, capsys, tmp_path):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({"tasks": [{"c": 1, "p": 2, "jitter": 0, "d": None}]}))
        enc = tmp_path / "enc.json"
        run_cli(capsys, "blockip", "encode-rtc", "--input", str(sysfile), "--output", str(enc))
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(enc), "--H", "-1")
        assert code == 2
        assert last_json(out)["error"] == "InvalidInstance"


class TestVerifyOnSeededSuite:
    def test_verify_passes_across_random_systems(self, capsys, tmp_path):
        for seed in range(8):
            path = tmp_path / f"sys{seed}.json"
            code, _ = run_cli(
                capsys,
                "gen",
                "random",
                "--seed",
                str(seed),
                "--n",
                "4",
                "--p-max",
                "16",
                "--output",
                str(path),
            )
            assert code == 0
            code, _ = run_cli(capsys, "rta", "compute", "--input", str(path), "--verify")
            assert code == 0


def search_bound(pairs):
    """S = min(m - 1, ceil(sum c_i * m / (m - L))) of (c, p) interferers at
    utilization below 1, computed here from its definition."""
    m = math.lcm(*(p for _, p in pairs))
    load = sum(c * (m // p) for c, p in pairs)
    return min(m - 1, -(-sum(c for c, _ in pairs) * m // (m - load)))


@st.composite
def s_just_over_the_cap(draw):
    """Interferers (c, p) with cap = 2**63 - 1 < S <= 2 * cap.  Either both
    on one period P = S + 1, leaving slack 1/P (S = m - 1), or on the
    coprime periods q and q + 1 with costs q - 2 and 1, where
    S = ceil((q - 1)q(q + 1)/(q + 2)), about q^2 - 2q + 3, stays below
    m - 1 = q^2 + q - 1."""
    cap = 2**63 - 1
    if draw(st.booleans()):
        p = draw(st.integers(cap + 2, 2 * cap + 1))
        pairs = [(1, p), (p - 2, p)]
    else:
        def s_at(q):
            return search_bound([(q - 2, q), (1, q + 1)])

        lo, hi = math.isqrt(cap), math.isqrt(2 * cap) + 1
        while s_at(lo) <= cap:
            lo += 1
        while s_at(hi) > 2 * cap:
            hi -= 1
        q = draw(st.integers(lo, hi))
        pairs = [(q - 2, q), (1, q + 1)]
    assert cap < search_bound(pairs) <= 2 * cap
    return pairs


class TestCapSweep:
    """A search bound S just over the magnitude cap raises OverflowLimit at
    once, never a long search; each case runs within Hypothesis's default
    deadline."""

    @staticmethod
    def system(pairs):
        return TaskSystem([Task(c, p, 0, p) for c, p in pairs] + [Task(1, 4, 0, 4)])

    @given(s_just_over_the_cap())
    def test_analyze_system(self, pairs):
        with pytest.raises(OverflowLimit):
            rta.analyze_system(self.system(pairs))

    @given(s_just_over_the_cap())
    def test_solve_general_via_shift(self, pairs):
        (c1, p1), (c2, p2) = pairs
        with pytest.raises(OverflowLimit):
            reverse.solve_general_via_shift(MixInstance(1, [(c1, p1, 0), (c2, p2, 3)]))

    @given(s_just_over_the_cap())
    def test_encode_rtc_as_4block(self, pairs):
        with pytest.raises(OverflowLimit):
            blockip.encode_rtc_as_4block(self.system(pairs))

    @given(s_just_over_the_cap())
    def test_rta_compute_exits_3(self, pairs):
        tasks = [{"c": t.c, "p": t.p, "jitter": t.jitter, "d": t.d}
                 for t in self.system(pairs).tasks]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sys.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"tasks": tasks}, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["rta", "compute", "--input", path])
        assert code == 3
        assert json.loads(out.getvalue())["error"] == "OverflowLimit"
        assert "Traceback" not in out.getvalue() + err.getvalue()


# `rtmix blockip encode-rtc` of the system [(c=1, p=2), (c=1, p=4)], jitter 0
FOUR_BLOCK = {"n": 1, "r": 1, "s": 1, "t": 2, "q": 1, "D": [[1]], "C": [[[-1, 0]]],
              "B": [[[-1]]], "A": [[[2, -1]]], "b0": 1, "rhs": [[0]], "w0": [1], "j": 1,
              "wj": [0, 0], "u": [4, 3, 1]}


class TestErrorExitCodes:
    """Every RTMixError leaves as a JSON error object with its documented exit code."""

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (["sim", "run", "--input", "{demo}", "--releases", "{releases}", "--horizon", "3"], 2,
             "HorizonTooSmall"),
            (["gen", "random", "--seed", "1", "--n", "40", "--p-max", "2"], 3, "GenerationFailed"),
            (["gen", "random", "--seed", "1", "--n", "3", "--p-max", "0"], 2, "InvalidInstance"),
            (["gen", "random", "--seed", "1", "--n", "3", "--p-max", "-4"], 2, "InvalidInstance"),
            (["rta", "compute", "--input", "{demo}"], 4, "InternalInvariantViolated"),
            (["gen", "extreme", "--n", "3", "--p1", "2", "--c", "x"], 2, "InvalidInstance"),
            (["gen", "extreme", "--n", "3", "--p1", "2", "--c", "1", "--jitter", "1,x,2"], 2,
             "InvalidInstance"),
            # integers past the interpreter's 4300-digit int/str limit, which stays as it is
            (["rta", "compute", "--input", "{huge_p}"], 2, "InvalidInstance"),
            # JSON nested past the interpreter's recursion limit
            (["rta", "compute", "--input", "{deep}"], 2, "InvalidInstance"),
            (["rta", "compute", "--input", "{long_response}"], 3, "OverflowLimit"),
            (["gen", "tight-mix", "--n", "15000"], 3, "OverflowLimit"),
        ],
        ids=["horizon-too-small", "generation-failed", "p-max-zero", "p-max-negative",
             "internal-error", "extreme-cost-not-a-number",
             "extreme-jitter-not-a-number", "period-too-long-to-parse", "input-nested-too-deep",
             "response-too-long-to-print", "generated-instance-too-long-to-print"],
    )
    def test_error_maps_to_exit_code(
        self, capsys, tmp_path, monkeypatch, demo_file, argv, code, error
    ):
        from rtmix.errors import InternalInvariantViolated

        releases = tmp_path / "releases.json"
        releases.write_text(json.dumps({"releases": [[{"arrival": 0, "release": 0}], [], []]}))
        # a 5001-digit period; and a 4300-digit cost 9e4299 over the
        # interferer (1, 2), whose response 1.8e4300 has 4301 digits while
        # its S is 1
        huge_p = tmp_path / "huge_p.json"
        huge_p.write_text('{"tasks": [{"c": 1, "d": null, "p": 1%s, "jitter": 0}]}' % ("0" * 5000))
        p = "9" * 4300
        long_response = tmp_path / "long_response.json"
        long_response.write_text(
            '{"tasks": [{"c": 1, "d": 2, "p": 2, "jitter": 0}, '
            '{"c": 9%s, "d": %s, "p": %s, "jitter": 0}]}' % ("0" * 4299, p, p))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        argv = [a.format(demo=demo_file, releases=releases, huge_p=huge_p,
                         long_response=long_response, deep=deep) for a in argv]
        if error == "InternalInvariantViolated":
            def broken(*args, **kwargs):
                raise InternalInvariantViolated("certified identity failed")

            monkeypatch.setattr("rtmix.cli.rta.analyze_system", broken)
        assert main(argv) == code
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report.keys() == {"error", "message"} and report["error"] == error
        assert "Traceback" not in captured.out + captured.err
        if error == "OverflowLimit":  # both rows meet the report's digit guard, not the cap
            assert "too long to print" in report["message"]

    @pytest.mark.parametrize(
        "releases",
        [
            {"releases": [[{"arrival": 0}], [], []]},
            {"releases": 5},
            {"releases": [[5]]},
            {"releases": [[{"arrival": 0.5, "release": True}], [], []]},
            {"releases": [[{"arrival": 0, "release": 0, "x": 1}], [], []]},
        ],
        ids=["release-missing", "releases-not-a-list", "release-not-an-object",
             "release-not-integers", "release-unknown-field"],
    )
    def test_malformed_releases_exit_2(self, capsys, tmp_path, demo_file, releases):
        path = tmp_path / "releases.json"
        path.write_text(json.dumps(releases))
        argv = ["sim", "run", "--input", demo_file, "--releases", str(path), "--horizon", "200"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == "InvalidInstance"
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("release", [{"arrival": 0}, {"arrival": 0.5, "release": 1}])
    def test_release_integers_are_checked_by_the_simulator(self, capsys, tmp_path, demo_file,
                                                             release):
        # the decoder passes each field as read; `sim.validate_pattern` owns the rule
        path = tmp_path / "releases.json"
        path.write_text(json.dumps({"releases": [[], [release], []]}))
        argv = ["sim", "run", "--input", demo_file, "--releases", str(path), "--horizon", "200"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "InvalidInstance",
            "message": "task 1: arrival and release must be integers",
        }


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["rta compute", "mix solve", "blockip solve"])
    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read {path}: "), ('{"tasks": [', "{path} is not valid JSON: ")],
        ids=["missing-file", "invalid-json"],
    )
    def test_exits_2(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        assert main([*command.split(), "--input", str(path)]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["error"] == "InvalidInstance"
        assert report["message"].startswith(message.format(path=path))
        assert "Traceback" not in captured.out + captured.err

    def test_input_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        # bytes ff fe open a UTF-16 byte-order mark, which UTF-8 cannot decode
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["rta", "compute", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["error"] == "InvalidInstance"
        assert report["message"].startswith(f"{path} is not UTF-8 text: ")
        assert "Traceback" not in captured.out + captured.err


class TestOutput:
    """Where the output goes: a file that cannot be written, a pipe closed early."""

    @pytest.mark.parametrize("command", ["gen tight-mix --n 3", "blockip encode-rtc"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, demo_file, command):
        target = tmp_path / "missing_dir" / "out.json"
        argv = [*command.split(), "--output", str(target)]
        if command == "blockip encode-rtc":
            argv += ["--input", demo_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["error"] == "InvalidInstance"
        assert report["message"].startswith(f"cannot write {target}: ")
        assert "Traceback" not in captured.out + captured.err
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv, taken, code", [
        (["gen", "tight-mix", "--n", "3000"], 10, 0),  # a 5.6 MB instance, cut by `head -c 10`
        (["gen", "tight-mix", "--n", "15000"], 0, 3),  # its error object, to a closed pipe
    ])
    def test_reader_closing_the_pipe_leaves_no_traceback(self, argv, taken, code):
        # the reader takes `taken` bytes and closes the pipe, so the command's
        # next write fails; the rest of the output is dropped, nothing reaches
        # stderr, and the exit code is the command's own
        src = str(Path(rtmix.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from rtmix.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        head = proc.stdout.read(taken)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
        assert head == b"{\n  \"w0\": "[:taken] and err == ""


class TestIntegerFieldsOnly:
    def test_unchanged_program_solves(self, capsys, tmp_path):
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(FOUR_BLOCK))
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(path))
        assert code == 0 and last_json(out)["result"]["objective"] == 2

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("rta", {"tasks": [{"c": True, "d": None, "p": 4, "jitter": 0}]}),
            ("rta", {"tasks": [{"c": 1, "d": None, "p": 4.0, "jitter": 0}]}),
            ("mix", {"w0": 1, "terms": [{"w": 1, "a": 2, "b": 2.5}]}),
            ("mix", {"w0": True, "terms": [{"w": 1, "a": 2, "b": 3}]}),
            ("blockip", {**FOUR_BLOCK, "D": [[1.5]]}),
            ("blockip", {**FOUR_BLOCK, "u": [2.5, 3, 1]}),
            ("blockip", {**FOUR_BLOCK, "A": [[["x", -1]]]}),
            ("blockip", {**FOUR_BLOCK, "b0": True}),
            ("blockip", {**FOUR_BLOCK, "D": 1}),
        ],
        ids=["bool-cost", "float-period", "float-rhs", "bool-w0", "float-D", "float-u",
             "str-A", "bool-b0", "D-not-a-matrix"],
    )
    def test_rejected_with_exit_2(self, capsys, tmp_path, command, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        sub = {"rta": "compute", "mix": "solve", "blockip": "solve"}[command]
        code, out = run_cli(capsys, command, sub, "--input", str(path))
        assert code == 2
        assert last_json(out)["error"] == "InvalidInstance"


class TestUnknownDocumentFields:
    @pytest.mark.parametrize("argv, payload", [
        (["rta", "compute"], {"tasks": [{"c": 1, "d": 4, "p": 4, "jitter": 0}], "extra": 1}),
        (["mix", "solve"], {"w0": 1, "terms": [{"w": 1, "a": 2, "b": 3}], "extra": 1}),
        (["blockip", "solve"], {**FOUR_BLOCK, "extra": 1}),
        (["blockip", "encode-rtc"], {"tasks": [{"c": 1, "p": 4}], "extra": 1}),
    ], ids=["rta", "mix", "blockip", "encode-rtc"])
    def test_rejected_with_exit_2(self, capsys, tmp_path, argv, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, *argv, "--input", str(path))
        assert code == 2
        assert last_json(out)["message"].endswith("fields: ['extra']")

    def test_sim_run_rejects_them_in_the_releases(self, capsys, tmp_path, demo_file):
        path = tmp_path / "releases.json"
        path.write_text(json.dumps({"releases": [[], [], []], "extra": 1}))
        code, out = run_cli(capsys, "sim", "run", "--input", demo_file, "--releases", str(path),
                            "--horizon", "10")
        assert code == 2
        assert last_json(out) == {"error": "InvalidInstance",
                                  "message": "unknown release pattern fields: ['extra']"}


class TestTextFormat:
    def test_text_output(self, capsys, demo_file):
        code, out = run_cli(
            capsys, "--format", "text", "rta", "compute", "--input", demo_file
        )
        assert code == 0
        assert "responses" in out and "{" not in out.splitlines()[0]

    def test_blockip_instance_is_listed_as_nested_arrays(self, capsys, tmp_path):
        from rtmix.jsonio import four_block_to_dict

        prog = blockip.encode_rtc_as_4block(TaskSystem([Task(1, 2, 0), Task(1, 4, 0)]))
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(four_block_to_dict(prog)))
        code, out = run_cli(capsys, "--format", "text", "blockip", "solve", "--input", str(path))
        assert code == 0
        assert not any(bracket in out for bracket in "()[]")
        lines = out.splitlines()
        # one item per brick, holding one item per row, holding one `- value`
        # line per entry, each level two spaces deeper
        listed = lines[lines.index("  C:") + 1:lines.index("  B:")]
        assert listed == [
            line
            for block in prog.C
            for line in ["    -", "      -", *(f"        - {v}" for v in block[0])]
        ]
        assert lines[lines.index("  u:") + 1:] == [f"    - {v}" for v in prog.u]

    def test_rta_tasks_are_listed_as_items(self, capsys, demo_file, demo_system):
        code, out = run_cli(capsys, "--format", "text", "rta", "compute", "--input", demo_file)
        assert code == 0
        lines = out.splitlines()
        tasks = lines[lines.index("  tasks:") + 1:lines.index("algorithm: auto")]
        assert [line for line in tasks if line.startswith("    -")] == ["    -"] * 3
        assert [line for line in tasks if "index" in line] == [
            f"      index: {i}" for i in range(len(demo_system.tasks))
        ]


def parser_algorithms(command: str) -> tuple[str, ...]:
    """The --algorithm choices that the parser accepts for `rtmix <command>`."""
    parser = build_parser()
    for name in command.split():
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return tuple(next(a for a in parser._actions if a.dest == "algorithm").choices)


def readme_lines() -> list[str]:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8").splitlines()


def readme_algorithms(command: str) -> tuple[str, ...]:
    """The algorithms that the README's command-line section lists for
    `rtmix <command>`: the first parenthesized list, up to a semicolon, in the
    comment block above the command's example."""
    lines = readme_lines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"rtmix {command} "))
    start = at
    while lines[start - 1].startswith("#"):
        start -= 1
    comment = " ".join(line.lstrip("# ") for line in lines[start:at])
    listed = comment[comment.index("(") + 1:].split(")")[0].split(";")[0]
    return tuple(name.strip() for name in listed.split("|"))


class TestReadmeAlgorithms:
    """The README lists exactly the algorithms that the parser accepts."""

    def test_rta_compute(self):
        listed = readme_algorithms("rta compute")
        assert listed == rta.ALGORITHMS == parser_algorithms("rta compute")

    def test_mix_solve(self):
        assert readme_algorithms("mix solve") == parser_algorithms("mix solve")
        assert parser_algorithms("mix solve") == ("bruteforce", "harmonic", "shift")


class TestReadmeFourBlock:
    """The README's worked 4-block example is the program `FOUR_BLOCK`, and
    `rtmix blockip solve` returns the objective the README states for it."""

    def test_the_example_solves_to_its_stated_objective(self, capsys, tmp_path):
        text = "\n".join(readme_lines())
        section = text[text.index("4-block program:"):]
        stated = int(re.search(r"`rtmix blockip solve` returns the objective (\d+)", section)[1])
        block = section[section.index("```json") + len("```json"):]
        example = json.loads(block[:block.index("```")])
        assert example == FOUR_BLOCK
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(example))
        code, out = run_cli(capsys, "blockip", "solve", "--input", str(path))
        assert code == 0 and last_json(out)["result"]["objective"] == stated


class TestReadmeCommandLine:
    """The README's "Command line" block runs as written, top to bottom, in a
    directory that holds the "File formats" examples under the names it
    reads: every `rtmix` line exits 0."""

    NAMES = {"tasks": "system.json", "terms": "instance.json", "releases": "releases.json",
             "A": "prog.json"}

    def test_every_line_exits_0(self, capsys, tmp_path, monkeypatch):
        text = "\n".join(readme_lines())
        block = text[text.index("## Command line"):]
        block = block[block.index("```sh\n"):]
        commands = [line for line in block[:block.index("\n```")].splitlines()
                    if line.startswith("rtmix ")]
        formats = text[text.index("### File formats"):text.index("## Scripts")]
        for example in re.findall(r"```json\n(.*?)```", formats, re.S):
            [name] = [self.NAMES[key] for key in json.loads(example) if key in self.NAMES]
            (tmp_path / name).write_text(example)
        assert sorted(os.listdir(tmp_path)) == sorted(self.NAMES.values())
        monkeypatch.chdir(tmp_path)
        assert {line.split()[1] for line in commands} == {"rta", "mix", "gen", "sim",
                                                            "blockip"}
        for line in commands:
            code, out = run_cli(capsys, *shlex.split(line)[1:])
            assert code == 0, (line, out)


class TestReadmeExitCodes:
    """The README's exit-code table lists each public error class of
    `cli.EXIT_CODES` under its code, and under no other."""

    def test_every_public_class_under_its_code(self):
        rows = {}  # code -> the row's errors cell
        for line in readme_lines():
            row = re.fullmatch(r"\| `(\d+)` \| [^|]* \|(.*)\|", line)
            if row:
                rows[int(row[1])] = row[2]
        assert sorted(rows) == sorted({0, *EXIT_CODES.values()})
        for cls in (cls for cls in EXIT_CODES if not cls.__name__.startswith("_")):
            listed = [code for code, cell in rows.items() if f"`{cls.__name__}`" in cell]
            assert listed == [EXIT_CODES[cls]], cls.__name__

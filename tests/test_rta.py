"""Response-time algorithms: the fixed-point oracle, the dualized decision,
the harmonic walk, and the bounded searches."""

import contextlib
import dataclasses
import json
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dual_max_oracle,
    exceeds_w0,
    recorded_core_brackets,
    response_scan_oracle,
    small_task_systems,
)
from conftest import workload as conftest_workload
from rtmix.core import (
    Task,
    TaskSystem,
    bounds_from_parts,
    ceil_div,
    is_harmonic,
    utilization,
    validate,
    workload,
)
from rtmix import core, counters, mixing, rta
from rtmix.cli import main as cli_main
from rtmix.errors import (
    InternalInvariantViolated,
    InvalidInstance,
    OverflowLimit,
    PreconditionViolated,
    Unbounded,
    UtilizationExceeded,
)
from rtmix.gen import construct_extreme, random_system
from rtmix.mixing import MixInstance, certified_s_bound, solve_bruteforce
from rtmix.rta import (
    ALGORITHMS,
    ResponseQuery,
    analyze_system,
    compute_response,
    decide_large_k,
    response_bruteforce,
    response_harmonic,
    response_jitter_free,
    response_turing,
)


@pytest.fixture
def extreme3():
    return construct_extreme([1], 2, "p")


def full_query(ts, gamma=None):
    return ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c if gamma is None else gamma)


def query_fields(q):
    return {f.name: getattr(q, f.name) for f in dataclasses.fields(q)}


def oracle_responses(ts):
    """r_j of every level j by the linear scan, independent of the searches."""
    return [
        response_scan_oracle(ts.tasks[:j], t.c, bounds_from_parts(t.c, ts.tasks[:j]).u)
        for j, t in enumerate(ts.tasks)
    ]


def applicable(q):
    """The algorithms that accept query q."""
    algorithms = ["auto", "bruteforce", "turing"]
    if is_harmonic([t.p for t in q.tasks]):
        algorithms.append("harmonic")
    if all(t.jitter == 0 for t in q.tasks):
        algorithms.append("jitter-free")
    return algorithms


def geometric(k, harmonic=True, jitter=False):
    """c_i = 1 and p_i = 2^i for i = 1..k; the non-harmonic variant has last
    period 3*2^(k-2), and with jitter task i has jitter 2^(i-1)."""
    periods = [2**i for i in range(1, k)] + [2**k if harmonic else 3 * 2 ** (k - 2)]
    return TaskSystem([Task(1, p, 2 ** (i - 1) if jitter else 0)
                       for i, p in enumerate(periods, start=1)])


@contextlib.contextmanager
def recorded_decisions():
    """Yield a list that collects (q, k, lo, (verdict, witness)) of every
    `rta.decide_large_k` call that returns."""
    decided, real = [], rta.decide_large_k

    def spy(q, k, lo):
        answer = real(q, k, lo)
        decided.append((q, k, lo, answer))
        return answer

    with mock.patch.object(rta, "decide_large_k", spy):
        yield decided


FAMILIES = pytest.mark.parametrize(
    "harmonic, zero_jitter", [(True, False), (True, True), (False, False), (False, True)]
)


def climb_budget(q):
    """The general-period search's climb budget B, the W evaluations (n units
    each) that cost about one decision, n + 1 + sum_i (S // p_i + 1) units:
    max(1, ceil(that / max(1, n))), with S from `mixing.certified_s_bound`."""
    s_cert = certified_s_bound(MixInstance(1, [(t.c, t.p, 0) for t in q.tasks]))
    n = len(q.tasks)
    decision = n + 1 + sum(s_cert // t.p + 1 for t in q.tasks)
    return max(1, math.ceil(Fraction(decision, max(1, n))))


def climb(q):
    """The general-period search's climb, t <- W(t) from
    t0 = max(lower, ceil(ell)) until W(t) <= t, at most `climb_budget(q)`
    W evaluations: (the evaluations, the last iterate, whether it settled)."""
    t = max(q.lower, math.ceil(q.bounds.ell))
    budget = climb_budget(q)
    for step in range(1, budget + 1):
        w = conftest_workload(q.tasks, q.gamma, t)
        if w <= t:
            return step, t, True
        t = w
    return budget, t, False


class TestCompiledQuery:
    def test_holds_interferers_utilization_bounds_and_s(self, demo_system):
        q = ResponseQuery(iter(demo_system.tasks[:2]), 13)
        assert q.tasks == demo_system.tasks[:2]
        assert q.bounds.utilization == Fraction(15, 65) + Fraction(7, 30)
        assert q.bounds == bounds_from_parts(13, q.tasks)
        s_bound = certified_s_bound(MixInstance(1, [(t.c, t.p, 0) for t in q.tasks]))
        assert q.bounds.s == s_bound == 42

    def test_unknown_algorithm_rejected(self, demo_system):
        with pytest.raises(InvalidInstance) as exc:
            compute_response(ResponseQuery(demo_system.tasks[:2], 13), "lcm-scan")
        assert str(exc.value) == "unknown algorithm 'lcm-scan'"

    @pytest.mark.parametrize("gamma", [0, True, 2.0, "3"])
    def test_gamma_must_be_a_positive_integer(self, demo_system, gamma):
        with pytest.raises(InvalidInstance):
            ResponseQuery(demo_system.tasks[:1], gamma)

    @pytest.mark.parametrize("lower", [-1, True, 2.0, 391])
    def test_lower_bound_must_be_an_integer_within_the_bounds(self, demo_system, lower):
        # the certified upper bound of this query is 390
        with pytest.raises(InvalidInstance):
            ResponseQuery(demo_system.tasks[:2], 13, lower)

    @pytest.mark.parametrize(
        "bad", [Task(1, 2, 3), Task(1.5, 4), Task(0, 4), Task(2, 4, 0, 1)],
        ids=["jitter-above-period", "float-cost", "zero-cost", "deadline-below-cost"])
    def test_rejects_interferers_that_validate_rejects(self, bad):
        ts = TaskSystem([Task(1, 8), bad, Task(1, 16, 20)])
        with pytest.raises(InvalidInstance, match="task 1:"):
            validate(ts)
        # a build names a bad interferer by its position in the query
        for interferers, position in ((ts.tasks[:2], 1), (ts.tasks[1:], 0)):
            with pytest.raises(InvalidInstance, match=f"task {position}:"):
                ResponseQuery(interferers, 3)

    def test_a_repeated_interferer_interferes_once_per_copy(self):
        # a query is its interferer tuple, so the same task twice is two
        # interferers, where an index set collapsed the copies into one
        task = Task(3, 16, 5)
        q = ResponseQuery((task, task), 9)
        assert q.tasks == (task, task) and q == ResponseQuery((task,), 9).plus(task, 9)
        want = response_scan_oracle(q.tasks, 9, q.bounds.u)
        assert want == 21 != response_bruteforce(ResponseQuery((task,), 9))
        for algorithm in applicable(q):
            assert compute_response(q, algorithm) == want, algorithm
        for lo in (0, want):
            for k in range(max(1, lo), q.bounds.u + 1):
                assert decide_large_k(q, k, lo)[0] == (want <= k), (k, lo)
        # the walk decides on a query holding both copies
        with recorded_decisions() as decided:
            assert response_harmonic(q) == want
        assert decided and all(d[0].tasks == (task, task) for d in decided), decided

    def test_building_a_query_calls_nothing_in_mixing(self, monkeypatch, demo_system):
        def refuse(*args, **kwargs):
            raise AssertionError("a query build called into mixing")

        for name, value in list(vars(mixing).items()):
            if callable(value) and getattr(value, "__module__", None) == mixing.__name__:
                monkeypatch.setattr(mixing, name, refuse)
        systems = [demo_system] + [random_system(seed, 6, 256, harmonic=seed % 2 == 0)
                                   for seed in range(1, 11)]
        queries = [ResponseQuery(ts.tasks[:j], t.c) for ts in systems
                   for j, t in enumerate(ts.tasks)]
        derived = [q.at(q.gamma + 1, q.gamma + 1) for q in queries]
        monkeypatch.undo()
        # the form is compiled on first need, and shared with the derived query
        assert queries[2].bounds.s == 42 and derived[2].form is queries[2].form

    def test_each_query_checks_its_mixing_form_once(self, monkeypatch):
        # a query's form is checked when it is compiled, on the query's first
        # probe - validity, then boundedness and S in one pass at the lcm -
        # and no probe checks it again; S comes with the bounds, so a query
        # that no probe reaches compiles no form.  Over seeds 1-40 the climb
        # leaves four queries unsettled, one of them (seed 21) with two probes
        calls = Counter()
        for name in ("validate", "certified_s_bound"):
            def counted(*args, _real=getattr(mixing, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(mixing, name, counted)
        compiling = probes = 0
        real = rta.compute_response

        def spy(q, algorithm="auto"):
            nonlocal compiling, probes
            with counters.collect() as ops:
                r = real(q, algorithm)
            probes += ops.decision_probes
            compiling += bool(ops.decision_probes)
            return r

        monkeypatch.setattr(rta, "compute_response", spy)
        for seed in range(1, 41):
            analyze_system(random_system(seed, 6, 256), "auto")
        assert calls["validate"] == calls["certified_s_bound"] == compiling < probes

    def test_walk_compiles_no_chain_when_no_probe_reaches_a_solve(self, monkeypatch):
        calls = Counter()
        real = mixing.validate
        monkeypatch.setattr(mixing, "validate", lambda inst: calls.update(["validate"]) or real(inst))
        # the response 3 lies below the only period, so every residual is empty
        q = ResponseQuery([Task(1, 8, 2)], 2)
        with counters.collect() as ops:
            assert response_harmonic(q) == 3
        assert ops.mixing_calls == 0 and not calls

    def test_walk_bounds_once_and_validates_once_per_walk(self, monkeypatch):
        calls = Counter()
        for module, name in ((rta, "bounds_from_parts"), (mixing, "certified_s_bound"),
                             (mixing, "validate")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        q = full_query(random_system(3, 6, 256, harmonic=True))
        with counters.collect() as ops:
            response_harmonic(q)
        # the query is bounded once and the walk compiles and checks its
        # chain once; every probe searches a prefix of that chain
        assert ops.decision_probes == ops.mixing_calls > 1
        assert calls == {"bounds_from_parts": 1, "certified_s_bound": 1, "validate": 1}

    @given(st.lists(st.integers(1, 12).flatmap(
        lambda p: st.tuples(st.integers(1, p), st.just(p), st.integers(0, p))), max_size=4))
    @settings(max_examples=150)
    def test_one_utilization_gate_and_the_compiled_flags(self, triples):
        tasks = [Task(c, p, j) for c, p, j in triples]
        util = utilization(tasks)
        assert util == sum((Fraction(t.c, t.p) for t in tasks), Fraction(0))
        inst = mixing.MixInstance(1, [(t.c, t.p, 0) for t in tasks])
        assert exceeds_w0(inst) == (util > 1)
        if util > 1:
            with pytest.raises(Unbounded):
                mixing.certified_s_bound(inst)
        else:
            mixing.certified_s_bound(inst)
        try:
            q = ResponseQuery(tasks, 1)
        except UtilizationExceeded:
            assert util >= 1
            return
        assert util < 1
        assert q.harmonic == is_harmonic([t.p for t in tasks])
        assert q.jittered == any(t.jitter for t in tasks)

    @given(data=st.data(), harmonic=st.booleans(), zero_jitter=st.booleans(),
           gamma=st.integers(1, 40))
    @settings(max_examples=80)
    def test_derived_query_equals_a_built_one(self, data, harmonic, zero_jitter, gamma):
        ts = data.draw(small_task_systems(4, 12, zero_jitter, harmonic))
        q = full_query(ts)
        before = query_fields(q)
        cold = ResponseQuery(q.tasks, gamma)
        lower = data.draw(st.integers(0, response_bruteforce(cold)))
        built = ResponseQuery(q.tasks, gamma, lower)
        derived = q.at(gamma, lower)
        assert query_fields(derived) == query_fields(built)
        for algorithm in applicable(built):
            assert compute_response(derived, algorithm) == compute_response(built, algorithm)
        for bad_gamma, bad_lower in ((0, 0), (True, 0), (2.0, 0),
                                     (gamma, -1), (gamma, True), (gamma, built.bounds.u + 1)):
            with pytest.raises(InvalidInstance):
                q.at(bad_gamma, bad_lower)
        assert query_fields(q) == before

    def test_probes_read_the_compiled_flags(self, monkeypatch):
        # harmonicity is decided once, when the query is built; no probe
        # sorts the periods again.  The jittered non-harmonic geometric query
        # leaves the climb unsettled, so the general-period search probes.
        calls = []
        real = rta.is_chain
        monkeypatch.setattr(rta, "is_chain", lambda v: calls.append(v) or real(v))
        for build, algorithm in (
                (lambda: ResponseQuery(geometric(10, False, True).tasks, 2**9), "turing"),
                (lambda: full_query(random_system(3, 6, 256, harmonic=True)), "harmonic")):
            calls.clear()
            q = build()
            with counters.collect() as ops:
                compute_response(q, algorithm)
            assert ops.decision_probes > 1 and len(calls) == 1

    @given(st.lists(st.integers(1, 12).flatmap(
        lambda p: st.tuples(st.integers(1, p), st.just(p), st.integers(0, p))),
        min_size=1, max_size=4), st.integers(1, 200))
    @settings(max_examples=150)
    def test_bounds_carry_the_certified_s(self, triples, k):
        # the S that the bounds' integer pass computes is the mixing module's
        # S of every Mix(I, k), with no form compiled to read it
        tasks = [Task(c, p, j) for c, p, j in triples]
        try:
            q = ResponseQuery(tasks, 1)
        except UtilizationExceeded:
            return
        inst = MixInstance(1, [(t.c, t.p, k + t.jitter) for t in tasks])
        assert q.bounds.s == certified_s_bound(inst)
        assert not q._form

    def test_a_query_the_climb_settles_checks_no_mixing_form(self, monkeypatch):
        def refuse(inst):
            raise AssertionError("the climb compiled a mixing form")

        monkeypatch.setattr(mixing, "validate", refuse)
        for q in (full_query(random_system(2, 6, 256)),
                  ResponseQuery(geometric(10, False).tasks, 2**9)):
            with counters.collect() as ops:
                assert response_turing(q) == response_bruteforce(q)
            assert ops.decision_probes == ops.mixing_calls == 0 < ops.fixpoint_iters


class TestCompiledWorkload:
    """W compiled once per query, ceil(ell) in integers, the magnitude cap
    read once per bounds pass, and one counter bump per climb."""

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=80)
    def test_compiled_w_equals_the_definition(self, harmonic, zero_jitter, data):
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        gammas = st.integers(1, 40)
        built = [ResponseQuery(ts.tasks[:j], data.draw(gammas)) for j in range(len(ts.tasks))]
        derived = [built[0]]
        for j in range(1, len(ts.tasks)):
            derived.append(derived[-1].plus(ts.tasks[j - 1], data.draw(gammas)))
        moved = [q.at(data.draw(gammas)) for q in built + derived]
        for q in built + derived + moved:
            for t in [*range(100), q.bounds.u, q.bounds.m]:
                assert q.workload(t) == conftest_workload(q.tasks, q.gamma, t), (q.tasks, t)
            assert q.bounds.ceil_ell == math.ceil(q.bounds.ell)

    @pytest.mark.parametrize("cut", range(1, 6))
    def test_the_climb_counts_every_evaluation_also_when_it_raises(self, cut):
        # iterates 32, 69, 105, 141, 176, 211, ...: a ceiling u just below
        # iterate `cut` makes evaluation `cut` escape it
        q = ResponseQuery(geometric(6, True, True).tasks, 32)
        path = [32]
        for _ in range(cut):
            path.append(conftest_workload(q.tasks, q.gamma, path[-1]))
        broken = q._copy(bounds=q.bounds._replace(u=path[cut] - 1))
        with counters.collect() as ops:
            with pytest.raises(InternalInvariantViolated, match="escaped"):
                rta._iterate(broken, 32, 10)
        assert ops.fixpoint_iters == cut
        with counters.collect() as ops:
            assert rta._iterate(q, 32, cut) == (path[cut], False)
        assert ops.fixpoint_iters == cut
        if cut == 3:
            with counters.collect() as ops:
                with pytest.raises(InternalInvariantViolated):
                    compute_response(broken, "auto")
            assert ops.fixpoint_iters == 3


class TestBruteforce:
    def test_demo_query(self, demo_system):
        q = ResponseQuery(demo_system.tasks[:2], 13)
        assert response_bruteforce(q) == 42
        assert response_scan_oracle(q.tasks, 13, 390) == 42

    def test_empty_interference(self, demo_system):
        assert response_bruteforce(ResponseQuery((), 5)) == 5

    def test_extreme_system_attains_upper_bound(self, extreme3):
        q = ResponseQuery(extreme3.tasks[:2], 1)
        b = bounds_from_parts(1, q.tasks)
        assert response_bruteforce(q) == 12 == b.ell == b.u2

    def test_rejects_saturated_utilization(self):
        ts = TaskSystem([Task(1, 1, 0), Task(1, 1, 0)])
        with pytest.raises(UtilizationExceeded):
            ResponseQuery(ts.tasks[:1], 1)

    @given(small_task_systems())
    @settings(max_examples=80)
    def test_matches_linear_scan(self, ts):
        q = full_query(ts)
        b = bounds_from_parts(q.gamma, q.tasks)
        assert response_bruteforce(q) == response_scan_oracle(q.tasks, q.gamma, b.u)


def mix_terms(q, k):
    """The (w, a, b) terms of Mix(I, k) as the query's compiled form holds them."""
    form = q.form.at(k, 0)
    return sorted((w, a, form.base + off) for a, group in zip(form.levels, form.groups)
                  for w, off in group)


class TestBuildMix:
    """Mix(I, k) is the query's mixing form at base k: one term
    (w=c_i, a=p_i, b=k+jitter_i) per interferer."""

    def test_direct_substitution(self, demo_system):
        q = ResponseQuery(demo_system.tasks[:2], 13)
        assert mix_terms(q, 100) == [(7, 30, 105), (15, 65, 108)]
        assert q.form.chain is False and q.form.s_bound == 42

    def test_empty_interference(self, demo_system):
        assert mix_terms(ResponseQuery((), 5), 3) == []

    def test_extreme_substitution(self, extreme3):
        assert mix_terms(ResponseQuery(extreme3.tasks[:2], 1), 12) == [(1, 2, 14), (1, 4, 16)]


class TestDecideLargeK:
    def test_demo_at_certified_bound(self, demo_system):
        q = ResponseQuery(demo_system.tasks[:2], 13)
        assert decide_large_k(q, 390, 0)[0]

    def test_extreme_bracketing(self, extreme3):
        q = ResponseQuery(extreme3.tasks[:2], 1)
        assert not decide_large_k(q, 11, 0)[0]
        assert decide_large_k(q, 12, 0)[0]

    def test_empty_interference(self, demo_system):
        assert decide_large_k(ResponseQuery((), 5), 5, 0)[0]

    def test_empty_interference_takes_the_ordinary_path(self):
        # no interferer: S = 0 and u = ceil(ell) = gamma, so every search
        # returns gamma after one W evaluation, and the decision runs on the
        # empty mixing form
        q = ResponseQuery((), 7)
        assert (q.bounds.s, q.bounds.u, q.bounds.ceil_ell) == (0, 7, 7)
        assert [decide_large_k(q, k, 0)[0] for k in range(1, 10)] == [k >= 7 for k in range(1, 10)]
        assert q.form.levels == ()
        for algorithm in ALGORITHMS:
            with counters.collect() as ops:
                assert compute_response(q, algorithm) == 7
                assert compute_response(q.at(7, 7), algorithm) == 7
            assert ops.fixpoint_iters == (0 if algorithm == "harmonic" else 2), algorithm

    @pytest.mark.parametrize("k", [0, -3])
    def test_refuses_k_below_1(self, demo_system, k):
        with pytest.raises(PreconditionViolated) as exc:
            decide_large_k(ResponseQuery(demo_system.tasks[:2], 13), k, 0)
        assert str(exc.value) == f"decision probes need k >= 1, got {k}"

    @pytest.mark.parametrize("k, lo", [(5, -1), (5, 6), (1, 2)])
    def test_refuses_a_lower_end_outside_0_to_k(self, demo_system, k, lo):
        with pytest.raises(PreconditionViolated) as exc:
            decide_large_k(ResponseQuery(demo_system.tasks[:2], 13), k, lo)
        assert str(exc.value) == f"a decision needs 0 <= lo <= k, got lo={lo}, k={k}"

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=40)
    def test_the_window_decides_every_k_from_its_lower_end(self, harmonic, zero_jitter, data):
        # from each certified lower end lo in {0, ceil(ell), r}, the decision
        # at every k in [lo, lo + 60], below S too, is exactly r <= k, and
        # its witness lies in [lo, k]; a yes's witness is feasible
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        q = full_query(ts)
        r = response_bruteforce(q)
        for lo in {0, q.bounds.ceil_ell, r}:
            for k in range(max(1, lo), lo + 61):
                feasible, t = decide_large_k(q, k, lo)
                assert feasible == (r <= k), (lo, k, r, q.bounds.s)
                assert lo <= t <= k, (lo, k, t)
                if feasible:
                    assert r <= workload(q.tasks, q.gamma, t) <= t, (lo, k, t, r)

    @staticmethod
    def built_query_decisions(ts):
        """The (q, k, lo, (verdict, witness)) of every decision that turing
        and jitter-free, where applicable, make while analysing `ts`."""
        algorithms = set(applicable(full_query(ts))) & {"turing", "jitter-free"}
        with recorded_decisions() as decided:
            for algorithm in algorithms:
                analyze_system(ts, algorithm)
        return decided

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=40)
    def test_every_decision_on_a_built_query_is_at_or_above_s(self, harmonic, zero_jitter, data):
        # the general-period search decides below S as well as above it, and
        # exactly: within a certified window [lo, k], its witness at or above
        # k - S, since the form searches s only up to S
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        for q, k, lo, (feasible, t) in self.built_query_decisions(ts):
            r = response_bruteforce(q)
            assert lo <= min(k, r) and max(lo, k - q.bounds.s) <= t <= k, (q.bounds.s, lo, k, r, t)
            assert feasible == (r <= k) and (t < k or not feasible), (k, r, t)

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=40)
    def test_every_decision_on_a_built_query_follows_its_whole_climb(
            self, harmonic, zero_jitter, data):
        # the general-period search decides only once its climb has spent its
        # whole budget unsettled, from a lower end at or above the climb's
        # last iterate
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        for q, k, lo, _ in self.built_query_decisions(ts):
            evaluations, last, settled = climb(q)
            assert not settled and evaluations == climb_budget(q), (evaluations, last)
            assert last <= lo, (last, lo, k)

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=40)
    def test_every_decision_lies_in_a_certified_window(self, harmonic, zero_jitter, data):
        # every search, `auto` and the harmonic walk included, decides "r <= k"
        # only over a window [lo, k] with lo <= r; a yes names a witness in
        # [lo, k), since W(k) > k wherever a decision runs
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        with recorded_decisions() as decided:
            for algorithm in applicable(full_query(ts)):
                analyze_system(ts, algorithm)
        for q, k, lo, (feasible, t) in decided:
            r = response_bruteforce(q)
            assert lo <= min(k, r) and lo <= t <= k, (lo, k, r, t)
            assert feasible == (r <= k) and (t < k or not feasible), (k, r, t)

    def test_the_spy_sees_decisions_above_s(self):
        # the geometric queries with jitter leave the climb unsettled, so
        # the general-period search decides, every time above S and from a
        # certified lower end
        with recorded_decisions() as decided:
            for harmonic in (True, False):
                q = ResponseQuery(geometric(10, harmonic, True).tasks, 2**9)
                assert response_turing(q) == response_bruteforce(q)
        assert decided
        for q, k, lo, (_, t) in decided:
            r = response_bruteforce(q)
            assert q.bounds.s < lo <= min(k, r) and lo <= t <= k, (q.bounds.s, lo, k, r, t)

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=40)
    def test_a_yes_names_a_witness_that_bounds_the_response(self, harmonic, zero_jitter, data):
        # over [lo, k] the optimum's s* names t* = k - s*: a yes has
        # r <= W(t*) <= t* <= k, and a no has r > k
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        q = full_query(ts)
        r = response_bruteforce(q)
        lo = data.draw(st.sampled_from([0, q.bounds.ceil_ell, r]))
        start = max(1, lo)
        drawn = data.draw(st.lists(st.integers(start, max(start, q.bounds.u)), max_size=4))
        for k in {start, r, r + 1, q.bounds.u, *drawn}:
            if k < start:
                continue
            feasible, t = decide_large_k(q, k, lo)
            if feasible:
                assert r <= workload(q.tasks, q.gamma, t) <= t <= k, (k, t, r)
            else:
                assert r > k, (k, r)

    def test_verdict_monotone_in_k(self, extreme3):
        q = ResponseQuery(extreme3.tasks[:2], 1)
        verdicts = [decide_large_k(q, k, 0)[0] for k in range(4, 30)]
        assert verdicts == sorted(verdicts)

    @given(small_task_systems(max_n=3, p_max=8))
    @settings(max_examples=50)
    def test_duality_identity_at_certified_bound(self, ts):
        # k - Mix(I, k) equals the dual maximum, for every k at or past S
        q = full_query(ts)
        s_cert = certified_s_bound(MixInstance(1, [(t.c, t.p, 0) for t in q.tasks]))
        for k in range(max(1, s_cert), max(1, s_cert) + 3):
            inst = MixInstance(1, [(t.c, t.p, k + t.jitter) for t in q.tasks])
            mix_opt = solve_bruteforce(inst).objective
            assert k - mix_opt == dual_max_oracle(q.tasks, k)


class TestTwoValues:
    """The two-value lemma behind the paper's forced multipliers: for
    0 < t <= p, ceil((t + jitter)/p) is 1 while t <= p - jitter, else 2."""

    @pytest.mark.parametrize("t, expected", [(20, 1), (25, 1), (26, 2), (30, 2), (50, 2)])
    def test_threshold(self, demo_system, t, expected):
        task = demo_system.tasks[2]  # p = 50, jitter = 25
        assert ceil_div(t + task.jitter, task.p) == expected

    def test_full_jitter_forces_two(self, extreme3):
        task = extreme3.tasks[1]  # jitter = p = 4
        assert ceil_div(1 + task.jitter, task.p) == 2

    @given(small_task_systems(max_n=3, p_max=10))
    @settings(max_examples=60)
    def test_law_at_the_optimum(self, ts):
        q = full_query(ts)
        t_star = response_bruteforce(q)
        for task in q.tasks:
            if 0 < t_star <= task.p:
                forced = 1 if t_star <= task.p - task.jitter else 2
                assert forced == ceil_div(t_star + task.jitter, task.p)


class TestHarmonicWalk:
    def test_extreme_all_differences_zero(self, extreme3):
        # jitter = period makes every difference zero, so the walk goes
        # straight to the bracketed search
        q = ResponseQuery(extreme3.tasks[:2], 1)
        assert response_harmonic(q) == 12

    def test_simple_chain(self):
        ts = TaskSystem([Task(1, 2, 1), Task(1, 4, 0), Task(1, 4, 2)])
        q = full_query(ts)
        assert response_harmonic(q) == response_bruteforce(q)

    def test_empty_interference(self, demo_system):
        assert response_harmonic(ResponseQuery((), 9)) == 9

    def test_degenerate_interval_at_the_lower_bound(self, extreme3):
        # the certified lower bound is the response itself
        q = ResponseQuery(extreme3.tasks[:2], 1, lower=12)
        assert response_harmonic(q) == 12

    def test_harmonized_demo_variant(self):
        ts = TaskSystem([Task(7, 30, 5), Task(15, 60, 8), Task(13, 60, 25)])
        q = ResponseQuery(ts.tasks[:2], 13)
        assert response_harmonic(q) == response_bruteforce(q)

    def test_the_recurrence_settles_a_difference_with_no_probe(self):
        # differences 3 and 6 from lo = 3: the probe at 3 says no and raises
        # lo to W(4) = 5; at d = 6, W(6) = 5 <= 6 proves r <= 5 with no probe
        q = ResponseQuery([Task(1, 3, 0), Task(2, 6, 0)], 1)
        assert q.bounds.ceil_ell <= 6 < q.bounds.u and q.workload(6) <= 6
        with recorded_decisions() as decided, counters.collect() as ops:
            assert response_harmonic(q) == response_bruteforce(q) == 5
        probed = [k for _, k, _, _ in decided]
        assert probed == [3] and ops.recurrence_verdicts >= 1, (probed, ops)

    def test_rejects_non_harmonic_periods(self, demo_system):
        with pytest.raises(PreconditionViolated):
            response_harmonic(ResponseQuery(demo_system.tasks[:2], 13))

    def test_zero_jitter_chain(self):
        ts = TaskSystem([Task(1, 2, 0), Task(1, 4, 0), Task(1, 4, 0)])
        assert response_harmonic(full_query(ts)) == 4

    def test_seeded_agreement_with_oracle(self):
        for seed in range(120):
            ts = random_system(seed, random.Random(seed).randint(1, 6), 32, harmonic=True)
            q = full_query(ts)
            assert response_harmonic(q) == response_bruteforce(q)


def _audit_walk(q):
    """The walk's answer equals the fixed point's, every decision's verdict is
    exactly "response <= k", and each decides over a window [lo, k] whose
    lower end lies between the walk's start, the larger of the query's lower
    bound and ceil(ell), and the response, with its witness in [lo, k];
    returns the response."""
    t_star = response_bruteforce(q)
    with recorded_decisions() as decided:
        assert response_harmonic(q) == t_star
    start = max(q.lower, math.ceil(q.bounds.ell))
    for _, k, lo, (feasible, t) in decided:
        assert feasible == (t_star <= k), (t_star, k)
        assert start <= lo <= min(k, t_star) and lo <= t <= k, (start, lo, k, t)
    return t_star


class TestWalkAtScale:
    """Differential checks beyond the small random suites: larger systems,
    long periods, and the extreme and geometric families."""

    @pytest.mark.parametrize("jitter_mode", ["upto-p", "zero"])
    @pytest.mark.parametrize("n", range(8, 13))
    def test_random_harmonic_systems_with_long_periods(self, n, jitter_mode):
        # every level, cold and warm-started from r_{j-1} + c_j
        for seed in range(4):
            ts = random_system(1000 * n + seed, n, 2**24, harmonic=True, jitter_mode=jitter_mode)
            prev = ts.tasks[0].c
            for j in range(1, n):
                c = ts.tasks[j].c
                r = _audit_walk(ResponseQuery(ts.tasks[:j], c))
                assert _audit_walk(ResponseQuery(ts.tasks[:j], c, prev + c)) == r
                prev = r

    @pytest.mark.parametrize("cs", [[1] * 4, [1] * 8, [2, 1, 3, 1], [1, 2, 1, 2, 1, 2],
                                    [3, 1, 1, 1, 1, 1, 1], [1, 1, 2, 2, 3, 3]])
    def test_extreme_family(self, cs):
        for p1 in (cs[0] + 1, 7, 16):
            for jitters in ("p", "zero"):
                _audit_walk(full_query(construct_extreme(cs, p1, jitters)))

    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_geometric_family(self, k):
        # c_i = 1, p_i = 2^i for i = 1..k, gamma = 2^(k-1): the fixed point
        # needs many iterations, the walk a few dozen probes; warm-started
        # as the level after task k, and at the response itself
        ts = geometric(k)
        r = _audit_walk(ResponseQuery(ts.tasks, 2 ** (k - 1)))
        lower = response_bruteforce(ResponseQuery(ts.tasks[:k - 1], 1)) + 2 ** (k - 1)
        for bound in (lower, r):
            assert _audit_walk(ResponseQuery(ts.tasks, 2 ** (k - 1), bound)) == r

    def test_the_jittered_geometric_query_is_pruned(self):
        # c_i = 1, p_i = 2^i and jitter 2^(i-1) for i = 1..11, gamma = 2^11:
        # `auto` hands off to the walk, whose chain searches skip each window
        # whose lower bound reaches the best objective found (31,266 mixing
        # ops without that)
        q = ResponseQuery(geometric(12, jitter=True).tasks[:-1], 2**11)
        r = response_bruteforce(q)
        with counters.collect() as ops:
            assert compute_response(q) == r
        assert ops.auto_handoffs == 1 and ops.mixing_ops <= 20_000, ops

    def test_the_window_bounds_the_jittered_geometric_query(self):
        # the same family at k = 14: each decision searches s only over
        # [0, k - lo], the window above the walk's certified lower end lo
        q = ResponseQuery(geometric(14, jitter=True).tasks[:-1], 2**13)
        r = response_bruteforce(q)
        with counters.collect() as ops:
            assert compute_response(q) == r
        assert ops.auto_handoffs == 1 and ops.mixing_ops <= 30_000, ops


class TestWitness:
    """A yes decision names t* = k - s*, and `_search` lowers its upper end
    to W(t*) once W(t*) <= t* is checked."""

    def test_a_witness_that_fails_the_check_bounds_nothing(self, monkeypatch):
        # a yes over [lo, k] names a feasible t* in [lo, k): the verdict gives
        # W(t*) <= t*, and W(k) > k, where every decision runs, rules out
        # t* = k.  A decision that names its window's lower end lo instead
        # passes only when lo is feasible, and is caught everywhere else:
        # no answer moves
        real = rta.decide_large_k
        monkeypatch.setattr(rta, "decide_large_k", lambda q, k, lo: (real(q, k, lo)[0], lo))
        caught = 0
        for seed in range(40):
            ts = random_system(seed + 900, random.Random(seed).randint(2, 7), 256, harmonic=True)
            q = full_query(ts)
            try:
                assert response_harmonic(q) == response_bruteforce(q), seed
            except InternalInvariantViolated as exc:
                assert "not a feasible t in [" in str(exc), seed
                caught += 1
        assert caught, "no decision named an infeasible lower end"

    def test_the_witness_saves_decisions(self):
        # general jittered systems: every answer stays, with fewer decisions
        # than a bracket that keeps hi = k after each yes, replayed here on
        # each search's window with the fixed point's verdicts
        systems = [random_system(seed, 6, 256) for seed in range(1, 21)]
        responses = [analyze_system(ts, "bruteforce").responses() for ts in systems]
        windows, real = [], rta._search

        def spy(q, lo, hi, *args):
            windows.append((q, lo, hi))
            return real(q, lo, hi, *args)

        with mock.patch.object(rta, "_search", spy), counters.collect() as ops:
            assert [analyze_system(ts).responses() for ts in systems] == responses
        without_witness = 0
        for q, lo, hi in windows:
            r = response_bruteforce(q)

            def narrow(k, lo, hi, q=q, r=r):
                nonlocal without_witness
                if q.workload(k) <= k:
                    return lo, q.workload(k)
                without_witness += 1
                return (lo, k) if r <= k else (max(k + 1, q.workload(k + 1)), hi)

            assert core.bracket(lo, hi, narrow) == r
        assert windows and ops.decision_probes < without_witness, \
            (ops.decision_probes, without_witness)


class TestWarmStart:
    """`analyze_system` starts level j at r_{j-1} + c_j, and every search
    narrows its bracket through the recurrence; no answer may move."""

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=60)
    def test_levels_rise_by_at_least_the_cost(self, harmonic, zero_jitter, data):
        ts = data.draw(small_task_systems(5, 12, zero_jitter, harmonic))
        responses = oracle_responses(ts)
        for j in range(1, len(ts.tasks)):
            assert responses[j] >= responses[j - 1] + ts.tasks[j].c
        for algorithm in ("auto", "bruteforce", "turing"):
            assert analyze_system(ts, algorithm).responses() == tuple(responses)

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=60)
    def test_lower_bound_changes_no_answer(self, harmonic, zero_jitter, data):
        ts = data.draw(small_task_systems(5, 12, zero_jitter, harmonic))
        responses = oracle_responses(ts)
        for j, task in enumerate(ts.tasks):
            cold = ResponseQuery(ts.tasks[:j], task.c)
            for lower in {responses[j - 1] + task.c if j else 0, responses[j]}:
                warm = ResponseQuery(ts.tasks[:j], task.c, lower)
                for algorithm in applicable(cold):
                    assert compute_response(warm, algorithm) == responses[j], (algorithm, lower)
                    assert compute_response(cold, algorithm) == responses[j], algorithm
                if "harmonic" in applicable(cold):
                    _audit_walk(warm)

    @staticmethod
    @contextlib.contextmanager
    def recorded_searches():
        """Yield the `core.bracket` searches (see `recorded_core_brackets`)
        and the decisions (see `recorded_decisions`), the walk's difference
        scan included."""
        with recorded_core_brackets() as searches, recorded_decisions() as decided:
            yield searches, decided

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=60)
    def test_bracketed_searches_stay_within_log2(self, harmonic, zero_jitter, data):
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        with self.recorded_searches() as (searches, decided):
            for algorithm in applicable(full_query(ts)):
                analyze_system(ts, algorithm)
                compute_response(full_query(ts), algorithm)
        for _, lo, hi, probes in searches:
            # at most ceil(log2(hi - lo + 1)) probes
            assert len(probes) <= (hi - lo).bit_length(), (lo, hi, probes)
        # a k with W(k) <= k is settled by the recurrence, never decided
        for q, k, *_ in decided:
            assert workload(q.tasks, q.gamma, k) > k, (q.tasks, q.gamma, k)

    def test_bracket_bound_on_the_geometric_walk(self):
        # the walk's bracketed search on this query spans a wide interval
        q = ResponseQuery(geometric(10).tasks, 2**9)
        with self.recorded_searches() as (searches, decided):
            assert response_harmonic(q) == response_bruteforce(q)
        assert any(probes for *_, probes in searches)
        assert all(len(probes) <= (hi - lo).bit_length() for _, lo, hi, probes in searches)
        assert decided and all(q.workload(k) > k for _, k, *_ in decided)


class TestSearchesAtScale:
    """`turing`, `jitter-free` and the fixed point agree beyond the small
    random suites: general zero-jitter systems with n = 8..12, and the
    non-harmonic geometric family, cold and warm-started."""

    @pytest.mark.parametrize("n", range(8, 13))
    def test_general_zero_jitter_systems(self, n):
        # the first four systems, lcm past the magnitude cap or not
        for ts in (random_system(7000 * n + seed, n, 256, jitter_mode="zero") for seed in range(4)):
            want = analyze_system(ts, "bruteforce").responses()
            for algorithm in ("auto", "turing", "jitter-free"):
                assert analyze_system(ts, algorithm).responses() == want, algorithm
            q = full_query(ts)
            assert response_turing(q) == response_jitter_free(q) == want[-1]

    @pytest.mark.parametrize("jitter_mode", ["upto-p", "zero"])
    def test_interferer_lcm_past_the_default_cap(self, jitter_mode):
        # six tasks with periods up to 2**16: the interferers' lcm passes
        # 2**63 on most draws, while S stays small, so every query answers
        draws = (random_system(seed, 6, 2**16, jitter_mode=jitter_mode) for seed in range(12))
        big = [ts for ts in draws if math.lcm(*ts.periods()[:-1]) > 2**63][:6]
        assert len(big) == 6
        algorithms = ["auto", "turing"] + (["jitter-free"] if jitter_mode == "zero" else [])
        for ts in big:
            want = analyze_system(ts, "bruteforce").responses()
            for algorithm in algorithms:
                assert analyze_system(ts, algorithm).responses() == want, algorithm

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_non_harmonic_geometric_family(self, k, jitter):
        ts = geometric(k, harmonic=False, jitter=jitter)
        algorithms = [response_turing] + ([] if jitter else [response_jitter_free])
        cold = ResponseQuery(ts.tasks, 2 ** (k - 1))
        want = response_bruteforce(cold)
        lower = response_bruteforce(ResponseQuery(ts.tasks[:k - 1], 1)) + 2 ** (k - 1)
        warm = ResponseQuery(ts.tasks, 2 ** (k - 1), lower)
        for algorithm in algorithms:
            assert algorithm(cold) == algorithm(warm) == want, algorithm.__name__


class TestTuring:
    def test_demo_query_resolved_by_scan(self, demo_system):
        # the utilization bound certifies S = 42, and the fixed point lands exactly there
        q = ResponseQuery(demo_system.tasks[:2], 13)
        assert q.bounds.s == 42
        assert response_turing(q) == 42

    def test_extreme_system(self, extreme3):
        assert response_turing(ResponseQuery(extreme3.tasks[:2], 1)) == 12

    def test_empty_interference(self, demo_system):
        assert response_turing(ResponseQuery((), 3)) == 3

    @given(small_task_systems(max_n=4, p_max=12))
    @settings(max_examples=60)
    def test_matches_bruteforce(self, ts):
        q = full_query(ts)
        assert response_turing(q) == response_bruteforce(q)

    @staticmethod
    def check_against_the_scan(ts):
        # turing, jitter-free and auto against the linear scan of the defining
        # inequality, at every level: cold, from r_{j-1} + c_j and from r_j
        responses = oracle_responses(ts)
        for j, task in enumerate(ts.tasks):
            cold = ResponseQuery(ts.tasks[:j], task.c)
            algorithms = ["turing", "auto"] + ([] if cold.jittered else ["jitter-free"])
            for lower in {0, responses[j - 1] + task.c if j else 0, responses[j]}:
                for algorithm in algorithms:
                    got = compute_response(cold.at(task.c, lower), algorithm)
                    assert got == responses[j], (algorithm, lower)
        return responses

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=60)
    def test_general_search_matches_the_scan_cold_and_warm(self, harmonic, zero_jitter, data):
        self.check_against_the_scan(data.draw(small_task_systems(5, 24, zero_jitter, harmonic)))

    def test_general_search_matches_the_scan_on_a_deep_response(self):
        # a draw of the strategy above whose last level responds at 149,246,
        # where a scan of one W evaluation per t exceeded the 200 ms deadline
        ts = TaskSystem([Task(c, p, jitter, p) for c, p, jitter in
                         [(1, 7, 1), (7, 20, 14), (4, 9, 1), (1, 16, 16), (23, 24, 9)]])
        assert self.check_against_the_scan(ts)[-1] == 149246

    def test_auto_on_a_certified_s_far_above_the_response(self):
        # general periods with jitter, the slot turing holds in auto; S is
        # about 1e6 times the response, which the search must not walk
        # through: the climb from ceil(ell) settles at the response, far
        # below S, with no decision and no bracket
        ts = TaskSystem([
            Task(2**29, 2**30, 5, 2**30),
            Task(2**29 - 2**10, 2**30 + 1, 7, 2**30 + 1),
            Task(1, 2**31, 0, 2**31),
        ])
        q = full_query(ts)
        assert q.bounds.s == 1125349347163456
        with counters.collect() as ops:
            r = response_turing(q)
        assert r == response_bruteforce(q) == 1073740801
        assert ops.mixing_ops == ops.decision_probes == ops.recurrence_verdicts == 0
        assert ops.fixpoint_iters == climb(q)[0]
        # auto runs turing on general periods with jitter: the same climb
        # and no hand-off
        with counters.collect() as auto_ops:
            assert compute_response(q, "auto") == r
        assert auto_ops == ops

    @given(data=st.data())
    @settings(max_examples=80)
    def test_the_climb_spends_at_most_one_decision(self, data):
        # general periods with jitter, each level from r_{j-1} + c_j as
        # `analyze_system` sets it: turing, and jitter-free on the query with
        # its jitter cleared, answer the fixed point, and the climb makes at
        # most B W evaluations (n units each), about one decision's scan
        # (n + 1 + sum_i (S // p_i + 1) units), before any decision runs
        ts = data.draw(small_task_systems(6, 64))
        cleared = TaskSystem([dataclasses.replace(t, jitter=0) for t in ts.tasks])
        for system, algorithm in ((ts, "turing"), (cleared, "jitter-free")):
            r = 0
            for j, task in enumerate(system.tasks):
                q = ResponseQuery(system.tasks[:j], task.c, r + task.c if j else 0)
                with counters.collect() as ops:
                    got = compute_response(q, algorithm)
                r = response_bruteforce(q)
                assert got == r, (algorithm, j)
                assert ops.fixpoint_iters <= climb_budget(q), (algorithm, j)
                assert ops.decision_probes == 0 or ops.fixpoint_iters == climb_budget(q)

    @pytest.mark.parametrize("jitter_mode, most", [("upto-p", 20), ("zero", 12)])
    def test_random_general_systems_settle_in_the_climb(self, jitter_mode, most):
        # over random general n = 6, p_max = 256 systems, seeds 1-100, a climb
        # that spends about one decision's work leaves few queries to decide:
        # 10 and 6 decision probes, where a climb of max(1, S - t0 + 1) steps
        # left 130 and 23
        systems = [random_system(seed, 6, 256, jitter_mode=jitter_mode) for seed in range(1, 101)]
        with counters.collect() as ops:
            verdicts = [analyze_system(ts) for ts in systems]
        assert verdicts == [analyze_system(ts, "bruteforce") for ts in systems]
        assert ops.decision_probes <= most

    def test_climb_starts_at_the_larger_of_lower_and_ceil_ell(self, demo_system):
        # r = S = 42 and ceil(ell) = 30: from 30 or from r_1 + c_2 = 35 the
        # climb reaches 42 in one step and settles there (two W evaluations);
        # a lower bound below ceil(ell) changes nothing, one at r settles at once
        cold = ResponseQuery(demo_system.tasks[:2], 13)
        assert cold.bounds.s == 42 and math.ceil(cold.bounds.ell) == 30
        for lower, evaluations in ((0, 2), (20, 2), (22 + 13, 2), (42, 1)):
            q = cold.at(13, lower)
            with counters.collect() as ops:
                assert response_turing(q) == 42
            assert ops.fixpoint_iters == evaluations == climb(q)[0], lower
            assert ops.decision_probes == ops.recurrence_verdicts == 0


class TestAutoHybrid:
    """`auto` on harmonic periods iterates the recurrence first, for at most
    (u - t0 + 1).bit_length() steps from t0 = max(gamma, lower), and hands
    the last iterate to the walk as the query's `lower`; on other periods it
    runs `jitter-free` or `turing` alone."""

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_the_fixed_point_cold_and_warm(self, harmonic, zero_jitter, data):
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        for j, task in enumerate(ts.tasks):
            q = ResponseQuery(ts.tasks[:j], task.c)
            assert compute_response(q, "auto") == response_bruteforce(q)
        # warm: analyze_system passes r_{j-1} + c_j as each level's lower bound
        assert analyze_system(ts, "auto") == analyze_system(ts, "bruteforce")

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_harmonic_geometric_family_hands_off_once(self, k, jitter):
        q = ResponseQuery(geometric(k, True, jitter).tasks, 2 ** (k - 1))
        with counters.collect() as ops:
            r = compute_response(q, "auto")
        assert r == response_bruteforce(q)
        assert ops.auto_handoffs == 1
        assert ops.fixpoint_iters <= (q.bounds.u - q.gamma + 1).bit_length()
        # an explicit algorithm runs its search alone, with no hand-off: the
        # walk with no iteration before it, the general-period search with
        # its own climb from ceil(ell)
        for algorithm in set(applicable(q)) - {"auto", "bruteforce"}:
            with counters.collect() as ops:
                assert compute_response(q, algorithm) == r
            evaluations = 0 if algorithm == "harmonic" else climb(q)[0]
            assert ops.fixpoint_iters == evaluations and ops.auto_handoffs == 0, algorithm

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_general_periods_run_the_search_alone(self, k, jitter):
        q = ResponseQuery(geometric(k, False, jitter).tasks, 2 ** (k - 1))
        with counters.collect() as auto_ops:
            r = compute_response(q, "auto")
        with counters.collect() as search_ops:
            assert compute_response(q, "turing" if jitter else "jitter-free") == r
        assert r == response_bruteforce(q)
        assert auto_ops == search_ops
        assert auto_ops.fixpoint_iters == climb(q)[0]
        assert auto_ops.auto_handoffs == 0

    @pytest.mark.parametrize("harmonic", [True, False])
    @pytest.mark.parametrize("k", range(10, 15))
    def test_zero_jitter_geometric_families_settle_in_the_climb(self, k, harmonic):
        # ceil(ell) is the response itself: one W evaluation, no decision
        q = ResponseQuery(geometric(k, harmonic).tasks, 2 ** (k - 1))
        for algorithm in ("turing", "jitter-free"):
            with counters.collect() as ops:
                r = compute_response(q, algorithm)
            # ceil(ell) is a certified lower bound, so a feasible t there is the least
            assert r == math.ceil(q.bounds.ell) and conftest_workload(q.tasks, q.gamma, r) <= r
            assert ops.decision_probes == ops.recurrence_verdicts == 0
            assert ops.fixpoint_iters == 1


class TestJitterFree:
    def test_single_interferer(self):
        ts = TaskSystem([Task(1, 2, 0), Task(1, 4, 0)])
        assert response_jitter_free(ResponseQuery(ts.tasks[:1], 1)) == 2

    def test_harmonic_three_tasks(self):
        ts = TaskSystem([Task(1, 2, 0), Task(1, 4, 0), Task(1, 4, 0)])
        assert response_jitter_free(full_query(ts)) == 4

    def test_demo_variant_with_jitter_cleared(self):
        ts = TaskSystem([Task(15, 65, 0), Task(7, 30, 0), Task(13, 50, 0)])
        q = full_query(ts)
        r = response_jitter_free(q)
        assert r == response_bruteforce(q)
        assert r == response_scan_oracle(q.tasks, 13, 390)

    def test_rejects_jitter(self, demo_system):
        with pytest.raises(PreconditionViolated):
            response_jitter_free(ResponseQuery(demo_system.tasks[:2], 13))

    @given(small_task_systems(max_n=4, p_max=12, zero_jitter=True))
    @settings(max_examples=60)
    def test_matches_bruteforce(self, ts):
        q = full_query(ts)
        assert response_jitter_free(q) == response_bruteforce(q)


class TestBoundsSandwich:
    @given(small_task_systems(max_n=4, p_max=12))
    @settings(max_examples=80)
    def test_response_between_certified_bounds(self, ts):
        q = full_query(ts)
        b = bounds_from_parts(q.gamma, q.tasks)
        r = response_bruteforce(q)
        assert b.ell <= r <= b.u


class TestAnalyzeSystem:
    def test_demo_report(self, demo_system):
        verdicts = analyze_system(demo_system)
        assert verdicts.responses() == (15, 22, 42)
        assert [v.schedulable for v in verdicts.tasks] == [True, True, False]
        assert verdicts.tasks[2].deadline_budget == 25
        assert not verdicts.schedulable

    def test_single_task(self):
        verdicts = analyze_system(TaskSystem([Task(2, 9, 3, 7)]))
        assert verdicts.responses() == (2,)
        assert verdicts.schedulable  # 2 <= 7 - 3

    def test_extreme_with_deadline_equal_period(self):
        ts = construct_extreme([1], 2, "p", deadlines="p")
        verdicts = analyze_system(ts)
        assert verdicts.responses()[-1] == 12
        assert not verdicts.schedulable  # budget d - jitter = 0

    def test_requires_deadlines(self, extreme3):
        with pytest.raises(PreconditionViolated):
            analyze_system(extreme3)

    def test_utilization_gate_raised_at_first_bad_task(self):
        ts = TaskSystem([Task(1, 1, 0, 1), Task(1, 4, 0, 4)])
        with pytest.raises(UtilizationExceeded):
            analyze_system(ts)

    @pytest.mark.parametrize("algorithm", ["bruteforce", "turing"])
    def test_algorithm_selectors_agree(self, demo_system, algorithm):
        assert analyze_system(demo_system, algorithm).responses() == (15, 22, 42)

    def test_auto_on_harmonic_system(self):
        ts = TaskSystem([Task(1, 2, 1, 2), Task(1, 4, 2, 4), Task(1, 8, 0, 8)])
        assert analyze_system(ts, "auto") == analyze_system(ts, "bruteforce")


class TestDerivedLevels:
    """`analyze_system` builds level 0 and derives level j + 1 from level j
    by adding task j (`ResponseQuery.plus`); `at` derives a query at another
    gamma from the carried load aggregate."""

    @staticmethod
    def levels(ts):
        """The queries that `analyze_system` answers, in level order."""
        seen, real = [], rta.compute_response
        with mock.patch.object(rta, "compute_response",
                               lambda q, a="auto": seen.append(q) or real(q, a)):
            analyze_system(ts)
        return seen

    @given(data=st.data(), harmonic=st.booleans(), zero_jitter=st.booleans())
    @settings(max_examples=120)
    def test_every_level_equals_a_built_query(self, data, harmonic, zero_jitter):
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        levels = self.levels(ts)
        assert len(levels) == len(ts.tasks)
        for j, (q, task) in enumerate(zip(levels, ts.tasks)):
            built = ResponseQuery(ts.tasks[:j], task.c, q.lower)
            assert query_fields(q) == query_fields(built)
            assert (q.tasks, q.harmonic, q.jittered) == (
                ts.tasks[:j], built.harmonic, built.jittered)
            for name in ("ell", "u1", "u2", "u", "utilization", "s"):
                assert getattr(q.bounds, name) == getattr(built.bounds, name), name
            assert q.bounds == bounds_from_parts(task.c, ts.tasks[:j])
            if q.tasks:
                assert q.form == built.form
        assert [q.lower for q in levels[1:]] == [
            r + t.c for r, t in zip(analyze_system(ts).responses(), ts.tasks[1:])]

    @given(data=st.data(), harmonic=st.booleans(), zero_jitter=st.booleans(),
           gamma=st.integers(1, 60))
    @settings(max_examples=120)
    def test_at_bounds_equal_the_one_pass(self, data, harmonic, zero_jitter, gamma):
        ts = data.draw(small_task_systems(4, 24, zero_jitter, harmonic))
        q = full_query(ts)
        lower = data.draw(st.integers(0, bounds_from_parts(gamma, q.tasks).u))
        assert q.at(gamma, lower).bounds == bounds_from_parts(gamma, q.tasks)

    def test_at_keeps_the_bounds_at_an_unchanged_gamma(self, demo_system):
        q = ResponseQuery(demo_system.tasks[:2], 13)
        with mock.patch.object(rta, "bounds_from_parts", side_effect=AssertionError):
            same = q.at(13, 40)
            moved = q.at(14)
        assert same.bounds is q.bounds and same.lower == 40
        assert moved.bounds == bounds_from_parts(14, q.tasks)
        for gamma, lower in ((True, 0), (13, q.bounds.u + 1)):
            with pytest.raises(InvalidInstance):
                q.at(gamma, lower)

    @given(data=st.data(), harmonic=st.booleans(), gamma=st.integers(1, 30))
    @settings(max_examples=80)
    def test_plus_equals_a_build(self, data, harmonic, gamma):
        # any interferer tuple, in any order and with repeats
        ts = data.draw(small_task_systems(5, 24, False, harmonic))
        tasks = data.draw(st.lists(st.sampled_from(ts.tasks), min_size=1, max_size=5))
        try:
            q = ResponseQuery(tasks[:-1], gamma)
        except UtilizationExceeded:
            return  # the drawn systems keep only their last task's interferers below 1
        try:
            built = ResponseQuery(tasks, gamma)
        except UtilizationExceeded:
            with pytest.raises(UtilizationExceeded):
                q.plus(tasks[-1], gamma)
            return
        assert query_fields(q.plus(tasks[-1], gamma)) == query_fields(built)

    def test_plus_checks_gamma_and_lower(self):
        # the added task is not checked again: `analyze_system`, the one
        # caller, has validated its system
        ts = TaskSystem([Task(1, 8), Task(1, 16)])
        q = ResponseQuery(ts.tasks[:1], 2)
        for gamma, lower in ((0, 0), (2, -1), (2, q.plus(ts.tasks[1], 2).bounds.u + 1)):
            with pytest.raises(InvalidInstance):
                q.plus(ts.tasks[1], gamma, lower)

    def test_utilization_gate_trips_at_the_middle_level(self, capsys, tmp_path):
        # the prefix load reaches 1 at level 3 (1/2 + 1/4 + 1/4), so levels
        # 0-2 are answered and level 3 raises, as a fresh build does
        tasks = [Task(1, 2, 0, 2), Task(1, 4, 0, 4), Task(1, 4, 0, 4), Task(1, 8, 0, 8)]
        ts = TaskSystem(tasks)
        with pytest.raises(UtilizationExceeded) as fresh:
            ResponseQuery(ts.tasks[:3], 1)
        seen, real = [], rta.compute_response
        with mock.patch.object(rta, "compute_response",
                               lambda q, a="auto": seen.append(q) or real(q, a)):
            with pytest.raises(UtilizationExceeded) as derived:
                analyze_system(ts)
        assert len(seen) == 3 and str(derived.value) == str(fresh.value)
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"tasks": [
            {"c": t.c, "d": t.d, "p": t.p, "jitter": t.jitter} for t in tasks]}))
        assert cli_main(["rta", "compute", "--input", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "UtilizationExceeded"

    def test_overflow_at_the_level_whose_s_passes_the_cap(self, monkeypatch):
        # two interferers on one period P = 2**63 + 1 leave slack 1/P at
        # level 2, whose S = P - 1 = 2**63 passes the cap 2**63 - 1; S is 0
        # and 2 at levels 0 and 1, and utilization is below 1 at every level
        big = 2**63 + 1
        ts = TaskSystem([Task(1, big, 0, big), Task(big - 2, big, 0, big), Task(1, 4, 0, 4),
                         Task(1, 8, 0, 8)])
        seen, real = [], rta.compute_response
        monkeypatch.setattr(rta, "compute_response",
                            lambda q, a="auto": seen.append(q) or real(q, a))
        with pytest.raises(OverflowLimit):
            analyze_system(ts)
        assert [(q.bounds.m, q.bounds.s) for q in seen] == [(1, 0), (big, 2)]
        with pytest.raises(OverflowLimit):
            ResponseQuery(ts.tasks[:2], 1)

    def test_one_bounds_pass_and_linear_task_checks(self, monkeypatch):
        calls = Counter()
        for module, name in ((core, "validate_task"), (rta, "validate_task"), (rta, "validate"),
                             (core, "bounds_from_parts"), (rta, "bounds_from_parts")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        for seed, n in ((1, 8), (2, 12)):
            ts = random_system(seed, n, 1024, harmonic=True)
            calls.clear()
            analyze_system(ts)
            # one system check, n task checks in it, and none by the queries
            assert calls == {"validate": 1, "validate_task": n, "bounds_from_parts": 1}


class TestCrossAlgorithmAgreement:
    def test_seeded_harmonic_suite(self):
        for seed in range(80):
            ts = random_system(seed, random.Random(seed).randint(1, 7), 64, harmonic=True)
            q = full_query(ts)
            r = response_bruteforce(q)
            assert response_harmonic(q) == r
            assert response_turing(q) == r

    def test_compute_response_dispatch(self, demo_system):
        q = ResponseQuery(demo_system.tasks[:2], 13)
        for algorithm in ("auto", "bruteforce", "turing"):
            assert compute_response(q, algorithm) == 42


class TestInvariantGuards:
    """Each internal guard raises, with its message, once the fault it
    watches for is injected just before it."""

    def test_the_fixed_point_may_not_escape_u(self, monkeypatch):
        q = ResponseQuery([Task(3, 9, 0)], 3)
        monkeypatch.setattr(rta, "workload", lambda tasks, gamma, t: q.bounds.u + 1)
        with pytest.raises(InternalInvariantViolated) as exc:
            response_bruteforce(q)
        assert str(exc.value) == f"fixed-point iteration escaped the certified bound {q.bounds.u}"

    @pytest.mark.parametrize(
        "answer, tasks, gamma, lower, message",
        [(lambda k: True, [Task(3, 9, 0)], 3, 0,
          "harmonic walk: a yes at k=5 names the witness t=5, not a feasible t in [5, 5)"),
         (None, [Task(1, 4, 1), Task(2, 4, 0)], 1, 8,
          "harmonic walk returned t=8, but t - 1 is feasible"),
         (None, [Task(3, 6, 0)], 1, 6, "the verdicts emptied the bracket [6, 4]")],
        ids=["infeasible", "non-minimal", "empty-bracket"],
    )
    def test_a_lying_walk_probe_is_caught(self, monkeypatch, answer, tasks, gamma, lower, message):
        # a fake decision answers answer(k) with the witness k, which no yes
        # may name, since W(k) > k wherever a decision runs: the witness guard
        # catches a yes at an infeasible k.  No decision can trip the other
        # guards, as a no keeps the lower end at most the feasible upper end
        # and a yes lowers that to a feasible W(t*).  A start above the
        # response, a `lower` that lies, reaches them (answer None: the real
        # decision): the search ends on t = 8 although r = 7, or the free
        # verdict W(6) = 4 < 6 empties the window
        real = rta.decide_large_k
        monkeypatch.setattr(rta, "decide_large_k",
                            lambda q, k, lo: real(q, k, lo) if answer is None else (answer(k), k))
        with pytest.raises(InternalInvariantViolated) as exc:
            response_harmonic(ResponseQuery(tasks, gamma, lower))
        assert str(exc.value) == message

    def test_an_upper_end_below_the_response_is_caught(self):
        # r = 6: a certified bound u = 5 from a faulty bounds pass, with the
        # lower bound 5 at it, leaves the window [5, 5], which the search
        # returns without a decision
        q = ResponseQuery([Task(3, 9, 0)], 3, 5)
        object.__setattr__(q, "bounds", q.bounds._replace(u=5))
        with pytest.raises(InternalInvariantViolated) as exc:
            response_harmonic(q)
        assert str(exc.value) == "harmonic walk returned infeasible t=5"

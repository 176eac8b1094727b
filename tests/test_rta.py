"""Response-time algorithms: the fixed-point oracle, the dualized decision,
the harmonic walk, and the bounded searches."""

import contextlib
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dual_max_oracle, response_scan_oracle, small_task_systems
from rtmix.core import (
    Task,
    TaskSystem,
    bounds_from_parts,
    ceil_div,
    is_harmonic,
    magnitude_cap,
    utilization,
    workload,
)
from rtmix import counters, mixing, rta
from rtmix.errors import (
    InvalidInstance,
    PreconditionKTooSmall,
    PreconditionViolated,
    UtilizationExceeded,
)
from rtmix.gen import construct_extreme, random_system
from rtmix.mixing import certified_s_bound, solve_bruteforce
from rtmix.rta import (
    ProbeRecord,
    ResponseQuery,
    analyze_system,
    build_mix_for_k,
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
    n = len(ts.tasks)
    return ResponseQuery(ts, range(n - 1), ts.tasks[-1].c if gamma is None else gamma)


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


class TestCompiledQuery:
    def test_holds_interferers_utilization_bounds_and_s(self, demo_system):
        q = ResponseQuery(demo_system, (1, 0, 1), 13)
        assert q.indices == (0, 1)
        assert q.tasks == demo_system.tasks[:2]
        assert q.bounds.utilization == Fraction(15, 65) + Fraction(7, 30)
        assert q.bounds == bounds_from_parts(13, q.tasks)
        assert q.s_bound == certified_s_bound(build_mix_for_k(q, 1)) == 42

    @pytest.mark.parametrize("gamma", [0, True, 2.0, "3"])
    def test_gamma_must_be_a_positive_integer(self, demo_system, gamma):
        with pytest.raises(InvalidInstance):
            ResponseQuery(demo_system, (0,), gamma)

    @pytest.mark.parametrize("lower", [-1, True, 2.0, 391])
    def test_lower_bound_must_be_an_integer_within_the_bounds(self, demo_system, lower):
        # the certified upper bound of this query is 390
        with pytest.raises(InvalidInstance):
            ResponseQuery(demo_system, (0, 1), 13, lower)

    def test_walk_compiles_no_chain_when_no_probe_reaches_a_solve(self, monkeypatch):
        calls = Counter()
        real = mixing.validate
        monkeypatch.setattr(mixing, "validate", lambda inst: calls.update(["validate"]) or real(inst))
        # the response 3 lies below the only period, so every residual is empty
        q = ResponseQuery(TaskSystem([Task(1, 8, 2), Task(2, 16, 0)]), (0,), 2)
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
        unbounded = mixing.is_unbounded(mixing.MixInstance(1, [(t.c, t.p, 0) for t in tasks]))
        assert unbounded == (util > 1)
        try:
            q = ResponseQuery(TaskSystem(tasks), range(len(tasks)), 1)
        except UtilizationExceeded:
            assert util >= 1
            return
        assert util < 1
        assert q.harmonic == is_harmonic([t.p for t in tasks])
        assert q.jittered == any(t.jitter for t in tasks)

    def test_probes_read_the_compiled_flags(self, monkeypatch):
        # harmonicity is decided once, when the query is built; no probe
        # sorts the periods again
        calls = []
        real = rta.is_harmonic
        monkeypatch.setattr(rta, "is_harmonic", lambda v: calls.append(v) or real(v))
        for ts, algorithm in ((random_system(2, 6, 256), "turing"),
                              (random_system(3, 6, 256, harmonic=True), "harmonic")):
            calls.clear()
            q = full_query(ts)
            with counters.collect() as ops:
                compute_response(q, algorithm)
            assert ops.decision_probes > 1 and len(calls) == 1


class TestBruteforce:
    def test_demo_query(self, demo_system):
        q = ResponseQuery(demo_system, (0, 1), 13)
        assert response_bruteforce(q) == 42
        assert response_scan_oracle(q.tasks, 13, 390) == 42

    def test_empty_interference(self, demo_system):
        assert response_bruteforce(ResponseQuery(demo_system, (), 5)) == 5

    def test_extreme_system_attains_upper_bound(self, extreme3):
        q = ResponseQuery(extreme3, (0, 1), 1)
        b = bounds_from_parts(1, q.tasks)
        assert response_bruteforce(q) == 12 == b.ell == b.u2

    def test_rejects_saturated_utilization(self):
        ts = TaskSystem([Task(1, 1, 0), Task(1, 1, 0)])
        with pytest.raises(UtilizationExceeded):
            ResponseQuery(ts, (0,), 1)

    @given(small_task_systems())
    @settings(max_examples=80)
    def test_matches_linear_scan(self, ts):
        q = full_query(ts)
        b = bounds_from_parts(q.gamma, q.tasks)
        assert response_bruteforce(q) == response_scan_oracle(q.tasks, q.gamma, b.u)


class TestBuildMix:
    def test_direct_substitution(self, demo_system):
        inst = build_mix_for_k(ResponseQuery(demo_system, (0, 1), 13), 100)
        assert [(t.w, t.a, t.b) for t in inst.terms] == [(15, 65, 108), (7, 30, 105)]

    def test_empty_interference(self, demo_system):
        assert build_mix_for_k(ResponseQuery(demo_system, (), 5), 3).terms == ()

    def test_extreme_substitution(self, extreme3):
        inst = build_mix_for_k(ResponseQuery(extreme3, (0, 1), 1), 12)
        assert [(t.w, t.a, t.b) for t in inst.terms] == [(1, 2, 14), (1, 4, 16)]


class TestDecideLargeK:
    def test_demo_at_certified_bound(self, demo_system):
        q = ResponseQuery(demo_system, (0, 1), 13)
        assert decide_large_k(q, 390)

    def test_extreme_bracketing(self, extreme3):
        q = ResponseQuery(extreme3, (0, 1), 1)
        assert not decide_large_k(q, 11)
        assert decide_large_k(q, 12)

    def test_empty_interference(self, demo_system):
        assert decide_large_k(ResponseQuery(demo_system, (), 5), 5)

    def test_gate_refuses_small_k(self, demo_system):
        q = ResponseQuery(demo_system, (0, 1), 13)
        with pytest.raises(PreconditionKTooSmall):
            decide_large_k(q, 1)

    @given(small_task_systems(max_n=4, p_max=12, zero_jitter=True))
    @settings(max_examples=60)
    def test_zero_jitter_decides_every_k(self, ts):
        # no gate without jitter: the verdict is exact below S as well
        q = full_query(ts)
        r = response_bruteforce(q)
        for k in range(1, q.bounds.u + 1):
            assert decide_large_k(q, k) == (r <= k), (k, r, q.s_bound)

    def test_verdict_monotone_in_k(self, extreme3):
        q = ResponseQuery(extreme3, (0, 1), 1)
        verdicts = [decide_large_k(q, k) for k in range(4, 30)]
        assert verdicts == sorted(verdicts)

    @given(small_task_systems(max_n=3, p_max=8))
    @settings(max_examples=50)
    def test_duality_identity_at_certified_bound(self, ts):
        # k - Mix(I, k) equals the dual maximum, for every k at or past S
        q = full_query(ts)
        inst = build_mix_for_k(q, 1)
        s_cert = certified_s_bound(inst)
        for k in range(max(1, s_cert), max(1, s_cert) + 3):
            mix_opt = solve_bruteforce(build_mix_for_k(q, k)).objective
            assert k - mix_opt == dual_max_oracle(q.tasks, k)


class TestTwoValues:
    """The two-value lemma behind the harmonic walk's forced multipliers: for
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
        for i in q.indices:
            task = ts.tasks[i]
            if 0 < t_star <= task.p:
                forced = 1 if t_star <= task.p - task.jitter else 2
                assert forced == ceil_div(t_star + task.jitter, task.p)


class TestHarmonicWalk:
    def test_extreme_all_differences_zero(self, extreme3):
        # jitter = period makes every difference zero, so the walk goes
        # straight to the bracketed search
        q = ResponseQuery(extreme3, (0, 1), 1)
        assert response_harmonic(q) == 12

    def test_simple_chain(self):
        ts = TaskSystem([Task(1, 2, 1), Task(1, 4, 0), Task(1, 4, 2)])
        q = full_query(ts)
        assert response_harmonic(q) == response_bruteforce(q)

    def test_empty_interference(self, demo_system):
        assert response_harmonic(ResponseQuery(demo_system, (), 9)) == 9

    def test_degenerate_interval_at_the_lower_bound(self, extreme3):
        # the certified lower bound is the response itself
        q = ResponseQuery(extreme3, (0, 1), 1, lower=12)
        assert response_harmonic(q) == 12

    def test_harmonized_demo_variant(self):
        ts = TaskSystem([Task(7, 30, 5), Task(15, 60, 8), Task(13, 60, 25)])
        q = ResponseQuery(ts, (0, 1), 13)
        assert response_harmonic(q) == response_bruteforce(q)

    def test_rejects_non_harmonic_periods(self, demo_system):
        with pytest.raises(PreconditionViolated):
            response_harmonic(ResponseQuery(demo_system, (0, 1), 13))

    def test_zero_jitter_chain(self):
        ts = TaskSystem([Task(1, 2, 0), Task(1, 4, 0), Task(1, 4, 0)])
        assert response_harmonic(full_query(ts)) == 4

    def test_seeded_agreement_with_oracle(self):
        for seed in range(120):
            ts = random_system(seed, random.Random(seed).randint(1, 6), 32, harmonic=True)
            q = full_query(ts)
            assert response_harmonic(q) == response_bruteforce(q)

    def test_forced_multipliers_match_the_optimum(self):
        # audit the walk's instrumentation on feasible probes
        for seed in range(60):
            ts = random_system(seed + 400, random.Random(seed).randint(2, 6), 32, harmonic=True)
            q = full_query(ts)
            t_star = response_bruteforce(q)
            trace: list[ProbeRecord] = []
            assert response_harmonic(q, trace=trace) == t_star
            for rec in trace:
                if not rec.feasible:
                    continue
                assert rec.k >= t_star
                for j, forced in rec.forced.items():
                    task = ts.tasks[j]
                    if rec.k <= task.p:
                        assert forced == ceil_div(t_star + task.jitter, task.p), (
                            seed,
                            rec,
                            t_star,
                        )


def _audit_walk(q):
    """The walk's answer equals the fixed point's, every probe's verdict is
    exactly "response <= k", and no probe lies below the walk's start, the
    larger of the query's lower bound and ceil(ell); returns the response."""
    t_star = response_bruteforce(q)
    trace: list[ProbeRecord] = []
    assert response_harmonic(q, trace=trace) == t_star
    start = max(q.lower, math.ceil(q.bounds.ell))
    for rec in trace:
        assert rec.feasible == (t_star <= rec.k), (t_star, rec)
        assert rec.k >= start, (start, rec)
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
                r = _audit_walk(ResponseQuery(ts, range(j), c))
                assert _audit_walk(ResponseQuery(ts, range(j), c, prev + c)) == r
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
        r = _audit_walk(ResponseQuery(ts, range(k), 2 ** (k - 1)))
        lower = response_bruteforce(ResponseQuery(ts, range(k - 1), 1)) + 2 ** (k - 1)
        for bound in (lower, r):
            assert _audit_walk(ResponseQuery(ts, range(k), 2 ** (k - 1), bound)) == r


FAMILIES = pytest.mark.parametrize(
    "harmonic, zero_jitter", [(True, False), (True, True), (False, False), (False, True)]
)


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
            cold = ResponseQuery(ts, range(j), task.c)
            for lower in {responses[j - 1] + task.c if j else 0, responses[j]}:
                warm = ResponseQuery(ts, range(j), task.c, lower)
                for algorithm in applicable(cold):
                    assert compute_response(warm, algorithm) == responses[j], (algorithm, lower)
                    assert compute_response(cold, algorithm) == responses[j], algorithm
                if "harmonic" in applicable(cold):
                    _audit_walk(warm)

    @staticmethod
    @contextlib.contextmanager
    def recorded_brackets():
        """Yield a list that collects (q, lo, hi, probed k) of every bracketed search."""
        searches = []
        real = rta._bracket

        def spy(q, lo, hi, decide):
            probes = []
            t = real(q, lo, hi, lambda k: probes.append(k) or decide(k))
            searches.append((q, lo, hi, probes))
            return t

        with mock.patch.object(rta, "_bracket", spy):
            yield searches

    @FAMILIES
    @given(data=st.data())
    @settings(max_examples=60)
    def test_bracketed_searches_stay_within_log2(self, harmonic, zero_jitter, data):
        ts = data.draw(small_task_systems(5, 24, zero_jitter, harmonic))
        with self.recorded_brackets() as searches:
            for algorithm in applicable(full_query(ts)):
                analyze_system(ts, algorithm)
                compute_response(full_query(ts), algorithm)
        for q, lo, hi, probes in searches:
            # at most ceil(log2(hi - lo + 1)) probes
            assert len(probes) <= (hi - lo).bit_length(), (lo, hi, probes)
            # a k with W(k) <= k is settled by the recurrence, never decided
            for k in probes:
                assert workload(q.tasks, q.gamma, k) > k, (q.tasks, q.gamma, k)

    def test_bracket_bound_on_the_geometric_walk(self):
        # the walk's bracketed search on this query spans a wide interval
        q = ResponseQuery(geometric(10), range(10), 2**9)
        with self.recorded_brackets() as searches:
            assert response_harmonic(q) == response_bruteforce(q)
        assert any(probes for *_, probes in searches)
        assert all(len(probes) <= (hi - lo).bit_length() for _, lo, hi, probes in searches)


class TestSearchesAtScale:
    """`turing`, `jitter-free` and the fixed point agree beyond the small
    random suites: general zero-jitter systems with n = 8..12, and the
    non-harmonic geometric family, cold and warm-started."""

    @pytest.mark.parametrize("n", range(8, 13))
    def test_general_zero_jitter_systems(self, n):
        # the first four systems whose lcm stays within the magnitude cap;
        # past it every query raises OverflowLimit
        systems = (random_system(7000 * n + seed, n, 256, jitter_mode="zero") for seed in range(40))
        fitting = [ts for ts in systems if math.lcm(*ts.periods()) <= magnitude_cap()]
        for ts in fitting[:4]:
            want = analyze_system(ts, "bruteforce").responses()
            for algorithm in ("auto", "turing", "jitter-free"):
                assert analyze_system(ts, algorithm).responses() == want, algorithm
            q = full_query(ts)
            assert response_turing(q) == response_jitter_free(q) == want[-1]

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_non_harmonic_geometric_family(self, k, jitter):
        ts = geometric(k, harmonic=False, jitter=jitter)
        algorithms = [response_turing] + ([] if jitter else [response_jitter_free])
        cold = ResponseQuery(ts, range(k), 2 ** (k - 1))
        want = response_bruteforce(cold)
        lower = response_bruteforce(ResponseQuery(ts, range(k - 1), 1)) + 2 ** (k - 1)
        warm = ResponseQuery(ts, range(k), 2 ** (k - 1), lower)
        for algorithm in algorithms:
            assert algorithm(cold) == algorithm(warm) == want, algorithm.__name__


class TestTuring:
    def test_demo_query_resolved_by_scan(self, demo_system):
        # the utilization bound certifies S = 42, and the fixed point lands exactly there
        q = ResponseQuery(demo_system, (0, 1), 13)
        inst = build_mix_for_k(q, 1)
        assert certified_s_bound(inst) == 42
        assert response_turing(q) == 42

    def test_extreme_system(self, extreme3):
        assert response_turing(ResponseQuery(extreme3, (0, 1), 1)) == 12

    def test_empty_interference(self, demo_system):
        assert response_turing(ResponseQuery(demo_system, (), 3)) == 3

    @given(small_task_systems(max_n=4, p_max=12))
    @settings(max_examples=60)
    def test_matches_bruteforce(self, ts):
        q = full_query(ts)
        assert response_turing(q) == response_bruteforce(q)

    def test_auto_on_a_certified_s_far_above_the_response(self):
        # general periods with jitter, the slot turing holds in auto; S is
        # about 1e6 times the response, which the search must not walk through
        ts = TaskSystem([
            Task(2**29, 2**30, 5, 2**30),
            Task(2**29 - 2**10, 2**30 + 1, 7, 2**30 + 1),
            Task(1, 2**31, 0, 2**31),
        ])
        q = full_query(ts)
        assert q.s_bound == 1125349347163456
        with counters.collect() as ops:
            r = response_turing(q)
        assert r == response_bruteforce(q) == 1073740801
        # W(S) <= S, so the recurrence settles the decision at S: no mixing solve
        assert ops.mixing_ops == ops.decision_probes == 0
        assert ops.recurrence_verdicts == 1
        # auto holds no fixed-point leg on general periods: it runs turing
        # alone, with the same free verdict and no hand-off
        with counters.collect() as ops:
            assert compute_response(q, "auto") == r
        assert ops.mixing_ops == ops.auto_handoffs == 0
        assert ops.recurrence_verdicts == 1

    def test_yes_at_s_iterates_from_the_lower_bound(self, demo_system):
        # r = S = 42: the yes at S is free, then the iteration runs from
        # max(gamma, lower), here from r_1 + c_2 = 35 instead of gamma = 13
        cold = ResponseQuery(demo_system, (0, 1), 13)
        warm = ResponseQuery(demo_system, (0, 1), 13, 22 + 13)
        assert cold.s_bound == 42
        with counters.collect() as cold_ops:
            assert response_turing(cold) == 42
        with counters.collect() as warm_ops:
            assert response_turing(warm) == 42
        assert warm_ops.fixpoint_iters < cold_ops.fixpoint_iters


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
            q = ResponseQuery(ts, range(j), task.c)
            assert compute_response(q, "auto") == response_bruteforce(q)
        # warm: analyze_system passes r_{j-1} + c_j as each level's lower bound
        assert analyze_system(ts, "auto") == analyze_system(ts, "bruteforce")

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_harmonic_geometric_family_hands_off_once(self, k, jitter):
        q = ResponseQuery(geometric(k, True, jitter), range(k), 2 ** (k - 1))
        with counters.collect() as ops:
            r = compute_response(q, "auto")
        assert r == response_bruteforce(q)
        assert ops.auto_handoffs == 1
        assert ops.fixpoint_iters <= (q.bounds.u - q.gamma + 1).bit_length()
        # an explicit algorithm runs its search alone: no iteration before it
        # (r > S here, so `turing` never iterates below S) and no hand-off
        for algorithm in set(applicable(q)) - {"auto", "bruteforce"}:
            with counters.collect() as ops:
                assert compute_response(q, algorithm) == r
            assert ops.fixpoint_iters == ops.auto_handoffs == 0, algorithm

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_general_periods_run_the_search_alone(self, k, jitter):
        q = ResponseQuery(geometric(k, False, jitter), range(k), 2 ** (k - 1))
        with counters.collect() as auto_ops:
            r = compute_response(q, "auto")
        with counters.collect() as search_ops:
            assert compute_response(q, "turing" if jitter else "jitter-free") == r
        assert r == response_bruteforce(q)
        assert auto_ops == search_ops
        assert auto_ops.fixpoint_iters == auto_ops.auto_handoffs == 0


class TestJitterFree:
    def test_single_interferer(self):
        ts = TaskSystem([Task(1, 2, 0), Task(1, 4, 0)])
        assert response_jitter_free(ResponseQuery(ts, (0,), 1)) == 2

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
            response_jitter_free(ResponseQuery(demo_system, (0, 1), 13))

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


class TestCrossAlgorithmAgreement:
    def test_seeded_harmonic_suite(self):
        for seed in range(80):
            ts = random_system(seed, random.Random(seed).randint(1, 7), 64, harmonic=True)
            q = full_query(ts)
            r = response_bruteforce(q)
            assert response_harmonic(q) == r
            assert response_turing(q) == r

    def test_compute_response_dispatch(self, demo_system):
        q = ResponseQuery(demo_system, (0, 1), 13)
        for algorithm in ("auto", "bruteforce", "turing"):
            assert compute_response(q, algorithm) == 42

"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either a documented analytic constant or computed by
an independent oracle inside the test (linear scans and plain enumerations);
the stated runtime budgets are asserted.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction
from unittest import mock

from conftest import dual_max_oracle
from rtmix import blockip, counters, gen, mixing, reverse, rta, sim
from rtmix.core import (
    Task,
    TaskSystem,
    bounds_from_parts,
    ceil_div,
    is_harmonic,
    utilization,
)

def _report(criterion: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} PASS {label}{suffix}")


def test_criterion_01_schedule_trace_reproduction():
    start = time.perf_counter()
    ts = TaskSystem([Task(15, 65, 8, 65), Task(7, 30, 5, 30), Task(13, 50, 25, 50)])
    pattern = sim.ReleasePattern(
        [
            [(0, 8), (65, 73)],
            [(0, 5), (30, 35)],
            [(0, 25)],
        ]
    )
    trace = sim.simulate(ts, pattern, 65)
    busy = [(s.start, s.end, s.task) for s in trace.segments if s.task is not None]
    assert busy == [
        (5, 8, 1),       # mid-priority burst
        (8, 23, 0),      # top-priority job
        (23, 27, 1),     # mid-priority remainder
        (27, 35, 2),     # lowest task starts
        (35, 42, 1),     # second mid-priority job preempts
        (42, 47, 2),     # lowest task finishes at 47
    ]
    tau3 = next(j for j in trace.jobs if j.task == 2)
    assert tau3.completion == 47
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "schedule strip reproduced", f"{elapsed:.3f}s")


def test_criterion_02_tight_mixing_family():
    start = time.perf_counter()
    for n in range(2, 7):
        inst = gen.tight_mixing_instance(n)
        target = n * 2**n - 1
        sol = mixing.solve_bruteforce(inst)
        assert (sol.s, sol.objective) == (target, target)
        for s in range(target):
            assert mixing.complete(s, inst).objective >= n * 2**n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "tight family optimal at lcm-1 for n=2..6", f"{elapsed:.3f}s")


def test_criterion_03_extreme_systems_attain_the_bound():
    start = time.perf_counter()
    shapes = {3: [1], 4: [1, 2], 5: [2, 1, 1]}
    for n, cs in shapes.items():
        ts = gen.construct_extreme(cs, cs[0] + 1, "p")
        assert len(ts.tasks) == n
        q = rta.ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        r = rta.response_bruteforce(q)
        b = bounds_from_parts(q.gamma, q.tasks)
        assert Fraction(r) == b.ell == Fraction(b.u2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "extreme systems hit ell = u2 exactly for n=3..5", f"{elapsed:.3f}s")


def test_criterion_04_bounds_sandwich():
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        rng = random.Random(seed)
        ts = gen.random_system(
            seed,
            rng.randint(1, 5),
            16,
            harmonic=rng.random() < 0.5,
            jitter_mode="zero" if rng.random() < 0.3 else "upto-p",
        )
        q = rta.ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        b = bounds_from_parts(q.gamma, q.tasks)
        r = rta.response_bruteforce(q)
        assert b.ell <= r <= min(math.ceil(b.u1), b.u2), (seed, ts)
        # the width lemma: u1 - ell <= p_max**n, and under the
        # schedulability bound also u1 - ell <= p_max**2 and u1 <= 2*p_max**2
        p_max = max(ts.periods())
        assert b.u1 - b.ell <= p_max ** len(ts.tasks), (seed, ts)
        if utilization(ts) <= 1:
            assert b.u1 - b.ell <= p_max**2, (seed, ts)
            assert b.u1 <= 2 * p_max**2, (seed, ts)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"bounds sandwich on {checked} systems, zero violations", f"{elapsed:.1f}s")


def _harmonic_suite(count: int = 500):
    suite = []
    seed = 0
    while len(suite) < count:
        seed += 1
        rng = random.Random(seed * 31)
        ts = gen.random_system(seed * 31, rng.randint(1, 7), 64, harmonic=True)
        suite.append(ts)
    return suite


def test_criterion_05_harmonic_rtc_oracle_equivalence():
    start = time.perf_counter()
    suite = _harmonic_suite(500)
    for ts in suite:
        q = rta.ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        r = rta.response_bruteforce(q)
        assert rta.response_harmonic(q) == r, ts
        assert rta.response_turing(q) == r, ts
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"three algorithms agree on {len(suite)} harmonic systems", f"{elapsed:.1f}s")


def test_criterion_06_mixing_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(500):
        inst = gen.random_mix_instance(
            seed, n=random.Random(seed).randint(0, 8), a_max=256
        )
        b = mixing.solve_bruteforce(inst)
        h = mixing.solve_harmonic(inst)
        assert (h.objective, h.s) == (b.objective, b.s), inst

    shift_checked = crowded_checked = beta_checked = 0
    seed = 0
    while shift_checked < 300:
        seed += 1
        rng = random.Random(seed * 7 + 3)
        inst = gen.random_mix_instance(
            seed * 7 + 3,
            n=rng.randint(1, 5),
            a_max=24,
            b_lo=-80,
            b_hi=120,
            w_max=8,
            harmonic=rng.random() < 0.4,
        )
        want = mixing.solve_bruteforce(inst).objective
        assert reverse.solve_general_via_shift(inst).objective == want, inst
        shift_checked += 1
        caps = inst.capacities()
        if caps:
            m = math.lcm(*caps)
            b_min = min(t.b for t in inst.terms)
            if all(m <= t.b <= b_min + t.a for t in inst.terms):
                # already crowded: the crowded search takes it without a shift
                rhs = [t.b for t in inst.terms]
                assert reverse._solve_crowded(inst.terms, rhs)[1] == want, inst
                crowded_checked += 1
            beta = (max(caps) if is_harmonic(caps) else m) + rng.randint(0, 12)
            const = mixing.MixInstance(1, [(t.w, t.a, beta) for t in inst.terms])
            assert (
                reverse.solve_general_via_shift(const).objective
                == mixing.solve_bruteforce(const).objective
            ), const
            beta_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        6,
        "mixing solvers agree with brute force",
        f"500 harmonic, {shift_checked} shift, {crowded_checked} crowded, "
        f"{beta_checked} constant-beta, {elapsed:.1f}s",
    )


def test_criterion_07_duality_identity():
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        rng = random.Random(seed * 13)
        ts = gen.random_system(seed * 13, rng.randint(1, 4), 12, harmonic=rng.random() < 0.5)
        q = rta.ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        probe = mixing.MixInstance(1, [(t.c, t.p, 0) for t in q.tasks])
        s_cert = mixing.certified_s_bound(probe)
        if s_cert > 400:
            continue  # keep the enumeration oracle affordable
        for k in range(max(1, s_cert), max(1, s_cert) + 3):
            inst = mixing.MixInstance(1, [(t.c, t.p, k + t.jitter) for t in q.tasks])
            mix_opt = mixing.solve_bruteforce(inst).objective
            assert k - mix_opt == dual_max_oracle(q.tasks, k), (ts, k)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, f"k - Mix(I,k) equals the dual maximum on {checked} instances", f"{elapsed:.1f}s")


def test_criterion_08_forced_value_invariants():
    start = time.perf_counter()
    suite = _harmonic_suite(500)
    two_value_checks = probe_checks = 0
    real = rta.decide_large_k
    for ts in suite:
        q = rta.ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        t_star = rta.response_bruteforce(q)
        # forced-multiplier law at the optimum: 1 while t* <= p - jitter, else 2
        for i, task in enumerate(q.tasks):
            if 0 < t_star <= task.p:
                forced = 1 if t_star <= task.p - task.jitter else 2
                assert forced == ceil_div(t_star + task.jitter, task.p), (ts, i)
                two_value_checks += 1
        # the walk's decisions: each is exactly "response <= k", over a window
        # [lo, k] with lo <= t*, and a yes names a feasible witness in [lo, k)
        decided = []
        with mock.patch.object(rta, "decide_large_k",
                               lambda q, k, lo: decided.append((k, lo, real(q, k, lo)))
                               or decided[-1][2]):
            assert rta.response_harmonic(q) == t_star
        for k, lo, (feasible, t) in decided:
            assert feasible == (t_star <= k) and lo <= min(k, t_star) and lo <= t <= k, (ts, k, lo)
            if feasible:
                assert t < k and q.workload(t) <= t, (ts, k, t)
            probe_checks += 1
    assert two_value_checks > 100 and probe_checks > 100
    elapsed = time.perf_counter() - start
    _report(
        8,
        "zero invariant violations",
        f"{two_value_checks} two-value checks, {probe_checks} probe checks, {elapsed:.1f}s",
    )


def test_criterion_09_four_block_round_trip():
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        rng = random.Random(seed * 5)
        ts = gen.random_system(
            seed * 5,
            rng.randint(1, 3),
            12,
            harmonic=rng.random() < 0.5,
            jitter_mode="zero",
            require_schedulable=True,
        )
        q = rta.ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        want = rta.response_jitter_free(q)
        u = bounds_from_parts(q.gamma, q.tasks).u
        got = blockip.solve_simple_4block(blockip.encode_rtc_as_4block(ts), H=u)
        assert got == want, (ts, got, want)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(9, f"4-block round trip exact on {checked} systems", f"{elapsed:.1f}s")


def _full_jitter(ts: TaskSystem) -> TaskSystem:
    return TaskSystem([Task(t.c, t.p, t.p, None) for t in ts.tasks])


def _walk_ops(n: int, p_max: int, seeds) -> int:
    total = 0
    for seed in seeds:
        ts = _full_jitter(
            gen.random_system(seed * 37 + n * 5 + p_max, n, p_max, harmonic=True)
        )
        q = rta.ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        with counters.collect() as c:  # the walk alone: a climb budget of 0
            r = rta._climb_then_search(q, q.lower, 0, "harmonic walk")
        assert r == rta.response_bruteforce(q)
        total += c.mixing_ops
    return total


def test_criterion_10_complexity_smoke():
    # Full-jitter systems pin the difference count q to zero, isolating the
    # |I|^2 log p_max term of the walk's operation bound; trends are asserted
    # over 3-point grids, not as absolute constants.
    seeds = range(24)
    p_grid = [(_walk_ops(4, p_max, seeds), p_max) for p_max in (16, 64, 256)]
    ops = [v for v, _ in p_grid]
    # the chain search prunes windows by a lower bound, so a walk need not
    # get dearer from one larger p_max to the next
    assert ops[0] <= min(ops[1], ops[2]), p_grid
    assert ops[2] / ops[0] < (256 / 16) ** 2 / 8, p_grid  # far below quadratic

    n_grid = [(_walk_ops(n, 64, seeds), n) for n in (3, 5, 7)]
    ops = [v for v, _ in n_grid]
    assert ops[0] <= ops[1] <= ops[2], n_grid
    assert ops[2] / ops[0] <= (7 / 3) ** 2 * 1.25, n_grid  # at most quadratic
    _report(
        10,
        "walk cost subquadratic in p_max, at most quadratic in n",
        f"p-grid {[v for v, _ in p_grid]}, n-grid {[v for v, _ in n_grid]}",
    )

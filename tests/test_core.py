"""Task model validation, exact utilization arithmetic, and response bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtmix import blockip, mixing, reverse, rta
from rtmix.core import (
    MAGNITUDE_CAP,
    Task,
    TaskSystem,
    bounds_from_parts,
    bracket,
    ceil_div,
    certified_s,
    is_harmonic,
    is_integer,
    response_bounds,
    utilization,
    validate,
)
from rtmix.errors import (
    InternalInvariantViolated,
    InvalidInstance,
    OverflowLimit,
    UtilizationExceeded,
)
from rtmix.mixing import MixInstance
from rtmix.rta import ResponseQuery, response_bruteforce


def _pair_program():
    return blockip.encode_rtc_as_4block(TaskSystem([Task(1, 2, 0), Task(1, 1, 0)]))


class TestValidate:
    def test_demo_system_is_valid(self, demo_system):
        validate(demo_system)

    def test_minimal_task(self):
        validate(TaskSystem([Task(1, 1, 0, 1)]))

    def test_jitter_above_period_rejected(self):
        with pytest.raises(InvalidInstance, match="jitter"):
            validate(TaskSystem([Task(1, 5, 6)]))

    def test_empty_system_rejected(self):
        with pytest.raises(InvalidInstance, match="at least one"):
            validate(TaskSystem([]))

    @pytest.mark.parametrize(
        "task, fragment",
        [
            (Task(0, 5, 0), "execution time"),
            (Task(1, 0, 0), "period"),
            (Task(2, 5, 0, 1), "deadline"),
            (Task(2, 5, 0, 6), "deadline"),
        ],
    )
    def test_first_violation_is_named(self, task, fragment):
        with pytest.raises(InvalidInstance, match=fragment):
            validate(TaskSystem([task]))

    @pytest.mark.parametrize(
        "task, field",
        [(Task(1.0, 5, 0), "c"), (Task(1, True, 0), "p"), (Task(1, 5, "0"), "jitter"),
         (Task(1, 5.0, None), "p")],
    )
    def test_the_first_non_integer_field_is_named(self, task, field):
        with pytest.raises(InvalidInstance) as exc:
            validate(TaskSystem([task]))
        assert str(exc.value) == f"task 0: field {field} must be an integer"

    def test_rejects_what_is_not_a_task_system(self):
        with pytest.raises(InvalidInstance) as exc:
            validate([Task(1, 5, 0)])
        assert str(exc.value) == "expected a TaskSystem"

    @pytest.mark.parametrize(
        "entry, idx",
        [(lambda: ResponseQuery([5], 1), 0), (lambda: ResponseQuery([Task(1, 4, 0), 5], 1), 1),
         (lambda: rta.analyze_system(TaskSystem([5])), 0)],
        ids=["query", "query-second", "analyze_system"],
    )
    def test_an_entry_that_is_not_a_task_is_named(self, entry, idx):
        with pytest.raises(InvalidInstance) as exc:
            entry()
        assert str(exc.value) == f"task {idx}: expected a Task, got 5"

    def test_rejects_a_non_integer_deadline(self):
        with pytest.raises(InvalidInstance) as exc:
            validate(TaskSystem([Task(2, 5, 0, 3.0)]))
        assert str(exc.value) == "task 0: deadline must be an integer or None"

    def test_is_integer_takes_int_and_its_subclasses_but_bool(self):
        class Count(int):
            pass

        assert is_integer(3) and is_integer(-2**80) and is_integer(Count(4))
        assert not any(is_integer(v) for v in (True, False, 3.0, "3", None))

    @pytest.mark.parametrize(
        "entry, name",
        [
            (lambda: rta.decide_large_k(ResponseQuery([Task(1, 4, 0)], 3), 50.5, 0), "k"),
            (lambda: blockip.solve_2stage_desk(_pair_program(), 5.5), "k"),
            (lambda: blockip.solve_simple_4block(_pair_program(), 5.5), "H"),
            (lambda: blockip.solve_simple_4block(_pair_program(), True), "H"),
            (lambda: reverse.mix_leq_via_rtc(MixInstance(1, [(1, 2, 8)]), 8, "3"), "k"),
            (lambda: reverse.mix_leq_via_rtc(MixInstance(1, [(1, 2, 8)]), 8.5, 3), "beta"),
            (lambda: mixing.complete(1.5, MixInstance(1, [(1, 2, 3)])), "s"),
        ],
        ids=["decide_large_k", "solve_2stage_desk", "solve_simple_4block-float",
             "solve_simple_4block-bool", "mix_leq_via_rtc-k", "mix_leq_via_rtc-beta",
             "complete"],
    )
    def test_solver_entries_name_a_non_integer_argument(self, entry, name):
        with pytest.raises(InvalidInstance, match=f"^{name} must be an integer, got "):
            entry()


class TestUtilization:
    def test_demo_higher_priority(self, demo_system):
        assert utilization(demo_system.tasks[:-1]) == Fraction(181, 390)

    def test_single_task_excluded_sum_is_zero(self):
        assert utilization(TaskSystem([Task(1, 2, 0)]).tasks[:-1]) == 0

    def test_extreme_three_task_system_has_full_utilization(self):
        ts = TaskSystem([Task(1, 2, 2), Task(1, 4, 4), Task(1, 4, 4)])
        assert utilization(ts) == 1

    def test_gate_passes_on_demo(self, demo_system):
        assert response_bounds(demo_system).utilization == Fraction(181, 390)
        assert utilization(demo_system) <= 1

    def test_gate_rejects_full_prefix(self):
        ts = TaskSystem([Task(1, 1, 0), Task(1, 1, 0)])
        with pytest.raises(UtilizationExceeded):
            response_bounds(ts)

    def test_equality_case_of_refined_bound(self):
        # prefix utilization 3/4 equals 1 - 1/lcm(2,4) and still passes the gate
        ts = TaskSystem([Task(1, 2, 2), Task(1, 4, 4), Task(1, 4, 4)])
        m = math.lcm(2, 4)
        assert response_bounds(ts).utilization == 1 - Fraction(1, m)

    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=2, max_size=5))
    def test_strict_bound_equals_refined_bound(self, pairs):
        # integrality: sum c/p < 1 over the prefix iff sum <= 1 - 1/lcm(prefix periods)
        tasks = [Task(min(c, p), p, 0) for c, p in pairs]
        ts = TaskSystem(tasks)
        prefix = ts.tasks[:-1]
        hp = sum(Fraction(t.c, t.p) for t in prefix)
        m = math.lcm(*[t.p for t in prefix])
        assert (hp < 1) == (hp <= 1 - Fraction(1, m))

    @pytest.mark.parametrize("p", [0, -3, 2.0])
    def test_a_period_that_is_not_a_positive_integer_is_refused(self, p):
        with pytest.raises(InvalidInstance) as exc:
            utilization([Task(1, p)])
        assert str(exc.value) == f"denominators must be integers >= 1, got {p!r}"


class TestHarmonic:
    def test_divisor_chain(self):
        assert is_harmonic([2, 4, 4])

    def test_demo_periods_are_not_harmonic(self, demo_system):
        assert not is_harmonic(demo_system)

    def test_singleton(self):
        assert is_harmonic([7])

    @pytest.mark.parametrize("values", [[1.5, 3], [3, 1.5], ["2", 4], [2, True]])
    def test_refuses_what_is_not_a_positive_integer(self, values):
        with pytest.raises(InvalidInstance) as exc:
            is_harmonic(values)
        assert str(exc.value) == "harmonicity is defined for positive integers only"

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    def test_harmonic_iff_lcm_is_max(self, values):
        if is_harmonic(values):
            assert math.lcm(*values) == max(values)

    @given(st.integers(1, 8), st.lists(st.sampled_from([1, 2, 3, 4]), min_size=0, max_size=5))
    def test_built_chains_are_harmonic(self, start, factors):
        chain = [start]
        for f in factors:
            chain.append(chain[-1] * f)
        assert is_harmonic(chain)
        assert math.lcm(*chain) == max(chain)


class TestRationalArithmetic:
    @given(
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    def test_field_identities_are_exact(self, a, b, c):
        assert (a + b) - b == a
        assert a * (b + c) == a * b + a * c
        if b != 0:
            assert (a / b) * b == a

    @given(st.integers(-200, 200), st.integers(1, 50))
    def test_ceil_div_matches_fraction_ceiling(self, num, den):
        assert ceil_div(num, den) == math.ceil(Fraction(num, den))

    @pytest.mark.parametrize("den", [0, -3])
    def test_ceil_div_refuses_a_denominator_below_1(self, den):
        with pytest.raises(ValueError) as exc:
            ceil_div(7, den)
        assert str(exc.value) == f"ceil_div needs a positive denominator, got {den}"


class TestBounds:
    def test_demo_values(self, demo_system):
        b = response_bounds(demo_system)
        assert b.ell == Fraction(6245, 209)
        assert b.u1 - b.ell == Fraction(8580, 209)
        assert b.u2 == 390
        assert b.u == min(math.ceil(b.u1), b.u2)

    def test_extreme_system_is_tight(self):
        ts = TaskSystem([Task(1, 2, 2), Task(1, 4, 4), Task(1, 4, 4)])
        b = response_bounds(ts)
        assert b.ell == 12 == b.u2

    def test_single_higher_task_zero_jitter(self):
        ts = TaskSystem([Task(1, 2, 0), Task(1, 4, 0)])
        b = response_bounds(ts)
        assert b.ell == 2

    def test_u2_is_multiple_of_prefix_lcm(self, demo_system):
        b = response_bounds(demo_system)
        assert b.u2 % math.lcm(65, 30) == 0

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 12)), min_size=1, max_size=5))
    def test_u2_multiple_of_lcm_and_ell_below_u1(self, pairs):
        from hypothesis import assume

        tasks = [Task(min(c, p), p, 0) for c, p in pairs]
        ts = TaskSystem(tasks)
        assume(utilization(ts.tasks[:-1]) < 1)
        b = response_bounds(ts)
        prefix = [t.p for t in ts.tasks[:-1]]
        assert b.u2 % (math.lcm(*prefix) if prefix else 1) == 0
        assert b.ell <= b.u1

    def test_empty_interference(self):
        b = bounds_from_parts(9, [])
        assert (b.ell, b.u1, b.u2, b.u) == (9, 9, 9, 9)

    @given(st.integers(1, 50), st.lists(st.tuples(st.integers(1, 9), st.integers(1, 40),
                                                  st.integers(0, 40)), max_size=5))
    def test_integer_pass_matches_the_fraction_formulas(self, gamma, triples):
        tasks = [Task(min(c, p), p, min(j, p)) for c, p, j in triples]
        util = sum((Fraction(t.c, t.p) for t in tasks), Fraction(0))
        if util >= 1:
            with pytest.raises(UtilizationExceeded):
                bounds_from_parts(gamma, tasks)
            return
        slack = 1 - util
        ell = (gamma + sum((Fraction(t.jitter * t.c, t.p) for t in tasks), Fraction(0))) / slack
        u1 = ell + sum(t.c for t in tasks) / slack
        m = math.lcm(*(t.p for t in tasks))
        u2 = math.ceil((gamma + sum(t.c for t in tasks)) / (slack * m)) * m
        b = bounds_from_parts(gamma, tasks)
        assert (b.ell, b.u1, b.u2, b.u, b.utilization) == (ell, u1, u2, min(math.ceil(u1), u2), util)
        assert b.ceil_ell == math.ceil(ell) and type(b.ceil_ell) is int
        assert all(type(v) is Fraction for v in (b.ell, b.u1, b.utilization))

    @given(st.integers(1, 50), st.integers(1, 50), st.lists(st.tuples(
        st.integers(1, 9), st.integers(1, 40), st.integers(0, 40)), min_size=1, max_size=5))
    def test_derived_bounds_equal_the_one_pass(self, gamma, other, triples):
        # each interferer added to the load aggregate in turn, and the
        # bounds moved to another gamma, match the one integer pass
        tasks = [Task(min(c, p), p, min(j, p)) for c, p, j in triples]
        b = bounds_from_parts(other, [])
        for i, t in enumerate(tasks, start=1):
            try:
                b = b.plus(t, gamma if i == len(tasks) else other)
            except UtilizationExceeded:
                assert utilization(tasks[:i]) >= 1
                return
        assert b == bounds_from_parts(gamma, tasks)
        assert b.at(other) == bounds_from_parts(other, tasks)
        assert b.ceil_ell == math.ceil(b.ell) and b.at(other).ceil_ell == math.ceil(b.at(other).ell)
        assert b.m == math.lcm(*(t.p for t in tasks))
        assert b.load == sum(t.c * (b.m // t.p) for t in tasks)

    @pytest.mark.parametrize("p", [0, -3])
    def test_rejects_a_period_below_one(self, p):
        with pytest.raises(InvalidInstance):
            bounds_from_parts(1, [Task(1, 4), Task(1, p)])

    def test_utilization_gate_before_the_cap(self):
        # two interferers on one period P = 2**63 + 1: costs (1, P - 1) fill
        # it (utilization 1, and S = m - 1 = 2**63 would pass the cap), while
        # costs (1, P - 2) leave slack 1/P and S = P - 1 = 2**63
        big = 2**63 + 1
        with pytest.raises(UtilizationExceeded):
            bounds_from_parts(1, [Task(1, big), Task(big - 1, big)])
        with pytest.raises(OverflowLimit):
            bounds_from_parts(1, [Task(1, big), Task(big - 2, big)])
        with pytest.raises(UtilizationExceeded):
            bounds_from_parts(1, [Task(1, big)]).plus(Task(big - 1, big), 1)
        with pytest.raises(OverflowLimit):
            bounds_from_parts(1, [Task(1, big)]).plus(Task(big - 2, big), 1)

    def test_overflow_limit_past_the_cap(self):
        big = 2**63 + 1  # interferers (1, big), (big - 2, big): S = 2**63
        ts = TaskSystem([Task(1, big, 0, big), Task(big - 2, big, 0, big), Task(1, 4, 0, 4)])
        with pytest.raises(OverflowLimit):
            response_bounds(ts)

    def test_the_cap_bounds_s_not_the_lcm(self):
        # the coprime periods 2**32 + 1 and 2**32 + 3 have an lcm past the
        # cap, while their utilization bound keeps S at 3
        b = bounds_from_parts(1, [Task(1, 2**32 + 1), Task(1, 2**32 + 3)])
        assert b.m > MAGNITUDE_CAP and b.s == 3
        # no slack leaves S = m - 1, which meets the cap 2**63 - 1 at m = 2**63
        assert MAGNITUDE_CAP == 2**63 - 1
        assert certified_s(1, 2**63, 0) == 2**63 - 1
        with pytest.raises(OverflowLimit, match=r"the magnitude cap 2\*\*63 - 1"):
            certified_s(1, 2**63 + 1, 0)


class TestJitterFreeBounds:
    """With zero jitter, c_n/(1-U) <= r_n <= lcm of all periods: the lower end
    is `response_bounds`' ell."""

    @staticmethod
    def bounds_and_response(ts):
        q = ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
        return response_bounds(ts).ell, response_bruteforce(q), math.lcm(*ts.periods())

    def test_two_equal_periods(self):
        ell, r, period = self.bounds_and_response(TaskSystem([Task(1, 2, 0), Task(1, 2, 0)]))
        assert ell == 2 and ell <= r <= period == 2

    def test_single_task(self):
        ell, r, period = self.bounds_and_response(TaskSystem([Task(3, 7, 0)]))
        assert ell == 3 and ell <= r <= period == 7

    def test_harmonic_three_tasks(self):
        ts = TaskSystem([Task(1, 2, 0), Task(1, 4, 0), Task(1, 4, 0)])
        ell, r, period = self.bounds_and_response(ts)
        assert ell == 4 and ell <= r <= period == 4


class TestWidthCertificates:
    """The bound interval's pseudo-polynomial width: u1 - ell <= p_max**n
    always, and under total utilization <= 1 also u1 - ell <= p_max**2 and
    u1 <= 2*p_max**2."""

    def test_demo_all_hold(self, demo_system):
        b = response_bounds(demo_system)
        assert utilization(demo_system) <= 1
        assert b.u1 - b.ell <= 65**2 and b.u1 <= 2 * 65**2

    def test_extreme_system(self):
        ts = TaskSystem([Task(1, 2, 2), Task(1, 4, 4), Task(1, 4, 4)])
        b = response_bounds(ts)
        assert utilization(ts) <= 1
        assert b.u1 - b.ell <= 4**2 and b.u1 <= 2 * 4**2

    def test_single_task(self):
        b = response_bounds(TaskSystem([Task(2, 5, 1)]))
        assert b.u1 - b.ell <= 5 and b.u1 <= 2 * 5**2


class TestBracket:
    """`core.bracket`, the one bisection: the least k that a monotone
    decision accepts, at most (hi - lo).bit_length() probes."""

    @staticmethod
    def threshold(least, probes):
        """The plain rule for the decision "k >= least", recording each probe."""
        def narrow(k, lo, hi):
            probes.append(k)
            return (lo, k) if k >= least else (k + 1, hi)
        return narrow

    def test_no_probe_on_a_settled_window(self):
        probes = []
        assert bracket(7, 7, self.threshold(0, probes)) == 7
        assert probes == []

    def test_every_monotone_decision_on_a_grid_of_windows(self):
        for lo in range(-3, 9):
            for hi in range(lo, lo + 34):
                for least in range(lo, hi + 1):
                    probes = []
                    assert bracket(lo, hi, self.threshold(least, probes)) == least
                    assert len(probes) <= (hi - lo).bit_length(), (lo, hi, least, probes)
                    assert len(set(probes)) == len(probes)

    def test_verdicts_that_empty_the_window_raise(self):
        # the no at k = 2 proves [3, 2]
        with pytest.raises(InternalInvariantViolated) as exc:
            bracket(0, 4, lambda k, lo, hi: (k + 1, k))
        assert str(exc.value) == "the verdicts emptied the bracket [3, 2]"

    def test_a_probe_that_keeps_its_midpoint_raises(self):
        # a window that still holds k below its upper end would probe k forever
        with pytest.raises(InternalInvariantViolated) as exc:
            bracket(0, 8, lambda k, lo, hi: (lo, hi))
        assert str(exc.value) == "the probe kept its midpoint 4 inside [0, 8]"

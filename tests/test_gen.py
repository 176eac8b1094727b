"""Generators: extreme family, tight mixing family, seeded random instances."""

import math
from fractions import Fraction

import pytest

from rtmix import gen
from rtmix.core import is_harmonic, utilization, validate
from rtmix.errors import InternalInvariantViolated, InvalidInstance, PreconditionViolated
from rtmix.gen import (
    construct_extreme,
    random_mix_instance,
    random_release_pattern,
    random_system,
    tight_mixing_instance,
)
from rtmix.mixing import complete, solve_bruteforce


class TestConstructExtreme:
    def test_three_task_seed_case(self):
        ts = construct_extreme([1], 2, "p")
        assert [t.c for t in ts.tasks] == [1, 1, 1]
        assert [t.p for t in ts.tasks] == [2, 4, 4]
        assert [t.jitter for t in ts.tasks] == [2, 4, 4]

    def test_four_task_case(self):
        ts = construct_extreme([1, 1], 2, "p")
        assert [t.p for t in ts.tasks] == [2, 4, 8, 8]
        assert utilization(ts) == 1

    @pytest.mark.parametrize("cs, p1", [([1], 2), ([1, 1], 2), ([2, 1, 3], 4), ([5], 7)])
    def test_conclusions_hold(self, cs, p1):
        ts = construct_extreme(cs, p1, "p")
        validate(ts)
        assert utilization(ts) == 1
        assert is_harmonic(ts)
        assert ts.tasks[-1].c == 1
        assert ts.tasks[-1].p == max(ts.periods())
        assert ts.tasks[-1].p == ts.tasks[-2].p

    def test_missed_full_utilization_is_an_internal_fault(self, monkeypatch):
        # the construction guarantees utilization 1; a miss is the program's
        # fault (exit 4), not the caller's, and `python -O` keeps the check
        monkeypatch.setattr(gen, "utilization", lambda ts: Fraction(1, 2))
        with pytest.raises(InternalInvariantViolated):
            construct_extreme([1], 2, "p")

    def test_zero_jitter_preset(self):
        ts = construct_extreme([1], 2, "zero")
        assert all(t.jitter == 0 for t in ts.tasks)

    def test_explicit_jitter_vector(self):
        ts = construct_extreme([1], 3, [0, 1, 2])
        assert [t.jitter for t in ts.tasks] == [0, 1, 2]

    def test_rejects_p1_not_exceeding_c1(self):
        with pytest.raises(PreconditionViolated):
            construct_extreme([2], 2, "p")

    @pytest.mark.parametrize(
        "cs, jitters, message",
        [
            ([], "p", "need at least one leading cost (n >= 3)"),
            ([1, 0], "p", "leading costs must be >= 1"),
            ([1], [0, 1], "jitter vector must have length 3"),
        ],
        ids=["no-leading-cost", "zero-cost", "short-jitter-vector"],
    )
    def test_rejects_unmet_preconditions(self, cs, jitters, message):
        with pytest.raises(PreconditionViolated) as exc:
            construct_extreme(cs, 3, jitters)
        assert str(exc.value) == message


class TestTightMixing:
    @pytest.mark.parametrize("n", [1, 0])
    def test_needs_two_terms(self, n):
        with pytest.raises(PreconditionViolated) as exc:
            tight_mixing_instance(n)
        assert str(exc.value) == f"tight family needs n >= 2, got {n}"

    def test_n2_values(self):
        inst = tight_mixing_instance(2)
        assert inst.w0 == 1
        assert [t.w for t in inst.terms] == [2, 4]
        assert [t.a for t in inst.terms] == [4, 8]
        assert [t.b for t in inst.terms] == [7, 7]

    def test_n3_values(self):
        inst = tight_mixing_instance(3)
        assert [t.a for t in inst.terms] == [6, 12, 24]
        assert all(t.b == 23 for t in inst.terms)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_weight_utilization_is_exactly_one(self, n):
        inst = tight_mixing_instance(n)
        assert sum(Fraction(t.w, t.a) for t in inst.terms) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_optimum_at_lcm_minus_one(self, n):
        inst = tight_mixing_instance(n)
        target = n * 2**n - 1
        sol = solve_bruteforce(inst)
        assert (sol.s, sol.objective) == (target, target)
        # every smaller s pays at least one more unit
        assert all(
            complete(s, inst).objective >= n * 2**n for s in range(target)
        )


class TestRandomSystem:
    def test_unknown_jitter_mode_rejected(self):
        with pytest.raises(InvalidInstance) as exc:
            random_system(1, 3, 8, jitter_mode="half")
        assert str(exc.value) == "unknown jitter_mode 'half'"

    def test_deterministic_in_seed(self):
        a = random_system(5, 4, 16, harmonic=True)
        b = random_system(5, 4, 16, harmonic=True)
        assert a == b

    def test_harmonic_flag(self):
        for seed in range(25):
            assert is_harmonic(random_system(seed, 4, 16, harmonic=True))

    def test_zero_jitter_mode(self):
        ts = random_system(1, 3, 16, jitter_mode="zero")
        assert all(t.jitter == 0 for t in ts.tasks)

    def test_gate_always_passes(self):
        for seed in range(40):
            ts = random_system(seed, 5, 24)
            assert utilization(ts.tasks[:-1]) < 1

    def test_require_schedulable_bounds_total(self):
        for seed in range(25):
            ts = random_system(seed, 3, 12, require_schedulable=True)
            assert utilization(ts) <= 1


class TestRandomMixInstance:
    def test_bounded_and_deterministic(self):
        a = random_mix_instance(3, 5, 64)
        assert a == random_mix_instance(3, 5, 64)
        assert sum(Fraction(t.w, t.a) for t in a.terms) <= 1

    def test_harmonic_capacities(self):
        for seed in range(20):
            inst = random_mix_instance(seed, 6, 128)
            assert is_harmonic(inst.capacities())

    @pytest.mark.parametrize("harmonic", [True, False])
    @pytest.mark.parametrize("a_max", [0, -4])
    def test_nonpositive_capacity_bound_rejected(self, a_max, harmonic):
        with pytest.raises(InvalidInstance, match="a_max"):
            random_mix_instance(1, 3, a_max, harmonic=harmonic)


class TestRandomReleasePattern:
    def test_patterns_are_legal(self):
        from rtmix.sim import ReleasePattern, validate_pattern

        for seed in range(20):
            ts = random_system(seed, 3, 8)
            pattern = random_release_pattern(seed, ts, horizon=3 * math.lcm(*ts.periods()))
            validate_pattern(ts, ReleasePattern(pattern))

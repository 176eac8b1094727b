"""Mixing set: canonical completion, bounds on s, and the two exact solvers."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bounded_mix_instances, exceeds_w0, mix_enum_oracle
from rtmix.core import is_harmonic
from rtmix.gen import random_mix_instance, tight_mixing_instance
from rtmix.mixing import (
    MixInstance,
    certified_s_bound,
    compile_mix,
    complete,
    solve_bruteforce,
    solve_harmonic,
)
from rtmix.errors import InvalidInstance, OverflowLimit, PreconditionViolated, Unbounded
from rtmix.reverse import solve_general_via_shift


TIGHT2 = MixInstance(1, [(2, 4, 7), (4, 8, 7)])


class TestComplete:
    def test_hand_computed_ceilings(self):
        sol = complete(0, TIGHT2)
        assert sol.x == (2, 1)
        assert sol.objective == 8

    def test_large_s_gives_nonpositive_multipliers(self):
        sol = complete(10, TIGHT2)
        assert all(x <= 0 for x in sol.x)

    def test_tight_family_objective_at_lcm_minus_one(self):
        sol = complete(7, TIGHT2)
        assert sol.objective == 7

    def test_negative_s_rejected(self):
        with pytest.raises(PreconditionViolated):
            complete(-1, TIGHT2)

    @given(bounded_mix_instances(), st.integers(0, 60))
    def test_completion_is_pointwise_minimal_and_feasible(self, inst, s):
        sol = complete(s, inst)
        for t, x in zip(inst.terms, sol.x):
            assert s + t.a * x >= t.b          # feasible
            assert s + t.a * (x - 1) < t.b     # minimal

    @given(bounded_mix_instances(), st.integers(0, 40))
    def test_multipliers_nonincreasing_and_step_law(self, inst, s):
        a = complete(s, inst)
        b = complete(s + 1, inst)
        assert all(xb <= xa for xa, xb in zip(a.x, b.x))
        dropped = sum(
            t.w for t, xa, xb in zip(inst.terms, a.x, b.x) if xb == xa - 1
        )
        assert b.objective - a.objective == inst.w0 - dropped


class TestUnbounded:
    """`certified_s_bound` decides boundedness, and every entry that needs
    S meets that one decision."""

    def test_single_heavy_term(self):
        with pytest.raises(Unbounded):
            certified_s_bound(MixInstance(1, [(2, 1, 0)]))

    def test_tight_family_sits_on_the_boundary(self):
        assert certified_s_bound(TIGHT2) == 7
        assert sum(Fraction(t.w, t.a) for t in TIGHT2.terms) == 1

    def test_empty_instance(self):
        assert certified_s_bound(MixInstance(0, [])) == 0

    @given(st.integers(0, 3),
           st.lists(st.tuples(st.integers(0, 6), st.integers(1, 24), st.integers(-20, 20)),
                    max_size=5))
    @example(1, [(2, 1, 0)])
    @example(1, [(2, 4, 7), (4, 8, 7)])  # sum w_i/a_i = w0 exactly
    @settings(max_examples=150)
    def test_integer_test_matches_the_exact_utilization(self, w0, terms):
        # compile, both solvers, S and the reverse solver raise Unbounded
        # exactly when sum w_i/a_i > w0 in exact fractions
        inst = MixInstance(w0, terms)
        entries = [certified_s_bound, compile_mix, solve_bruteforce]
        if is_harmonic(inst.capacities()):
            entries.append(solve_harmonic)
        if w0 == 1:
            entries.append(solve_general_via_shift)
        for entry in entries:
            if exceeds_w0(inst):
                with pytest.raises(Unbounded):
                    entry(inst)
            else:
                entry(inst)

    def test_unbounded_precedes_the_magnitude_cap(self, monkeypatch):
        # lcm 77, so S = 76 would pass the cap 15; the slack's sign comes first
        inst = MixInstance(1, [(5, 7, 0), (5, 11, 3)])
        monkeypatch.setenv("RTMIX_LIMIT_BITS", "4")
        for entry in (certified_s_bound, compile_mix, solve_bruteforce, solve_general_via_shift):
            with pytest.raises(Unbounded):
                entry(inst)

    def test_solvers_raise(self):
        bad = MixInstance(1, [(2, 1, 0)])
        for solver in (solve_bruteforce, solve_harmonic):
            with pytest.raises(Unbounded):
                solver(bad)


class TestSearchBound:
    def test_tight_family_attains_lcm_minus_one(self):
        assert certified_s_bound(TIGHT2) == 7
        assert solve_bruteforce(TIGHT2).s == 7

    def test_strict_utilization_intersection(self):
        # lcm(2,4)-1 = 3 beats the utilization bound ceil(2/(1-3/4)) = 8
        inst = MixInstance(1, [(1, 2, 5), (1, 4, 5)])
        assert certified_s_bound(inst) == 3

    def test_zero_weights_pin_s_to_zero(self):
        inst = MixInstance(1, [(0, 5, 3)])
        assert certified_s_bound(inst) == 0
        assert solve_bruteforce(inst).s == 0

    def test_over_cap_lcm_needs_a_utilization_bound_within_the_cap(self, monkeypatch):
        inst = MixInstance(1, [(1, 4, 7), (1, 5, 7)])  # lcm 20; ceil(2 / (1 - 9/20)) = 4
        uncapped = solve_bruteforce(inst)
        monkeypatch.setenv("RTMIX_LIMIT_BITS", "3")  # cap 7
        assert certified_s_bound(inst) == 4
        assert solve_bruteforce(inst) == uncapped
        monkeypatch.setenv("RTMIX_LIMIT_BITS", "2")  # cap 3
        with pytest.raises(OverflowLimit):
            certified_s_bound(inst)
        with pytest.raises(OverflowLimit):
            certified_s_bound(TIGHT2)  # weight utilization 1: no second bound

    @given(bounded_mix_instances(), st.integers(0, 3))
    def test_integer_pass_matches_the_fraction_formula(self, inst, w0):
        # S where sum w_i/a_i <= w0; Unbounded, and no S, where it exceeds w0
        inst = MixInstance(w0, inst.terms)
        util = sum((Fraction(t.w, t.a) for t in inst.terms), Fraction(0))
        if util > w0:
            with pytest.raises(Unbounded):
                certified_s_bound(inst)
            return
        want = math.lcm(*inst.capacities()) - 1
        if w0 >= 1 and util < w0:
            want = min(want, math.ceil(sum(t.w for t in inst.terms) / (w0 - util)))
        assert certified_s_bound(inst) == want

    @given(bounded_mix_instances())
    def test_bound_is_sound(self, inst):
        # the smallest optimal s (found by scanning a full lcm period) never
        # escapes the certified bound
        bound = certified_s_bound(inst)
        m = math.lcm(*inst.capacities()) if inst.terms else 1
        _, s = mix_enum_oracle(inst, max(bound, m))
        assert s <= bound


class TestBruteforce:
    def test_tight_two_term_instance(self):
        sol = solve_bruteforce(TIGHT2)
        assert (sol.s, sol.objective) == (7, 7)

    def test_small_instance_full_enumeration(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        sol = solve_bruteforce(inst)
        assert (sol.s, sol.x, sol.objective) == (0, (2, 1), 3)

    def test_empty_instance(self):
        sol = solve_bruteforce(MixInstance(1, []))
        assert (sol.s, sol.objective) == (0, 0)

    def test_negative_rhs_gives_negative_multipliers(self):
        inst = MixInstance(1, [(1, 2, -3), (2, 4, 1)])
        sol = solve_bruteforce(inst)
        assert min(sol.x) < 0

    @given(bounded_mix_instances())
    @settings(max_examples=60)
    def test_agrees_with_plain_enumeration(self, inst):
        m = math.lcm(*inst.capacities()) if inst.terms else 1
        obj, s = mix_enum_oracle(inst, m)
        sol = solve_bruteforce(inst)
        assert (sol.objective, sol.s) == (obj, s)

    @given(st.data())
    @settings(max_examples=300)
    def test_any_w0(self, data):
        # weights up to a_i and w0 between the weight utilization and 3, so
        # optima off s = 0 and ties are common, and the certified S often
        # falls below lcm - 1
        caps = data.draw(st.lists(st.one_of(st.just(1), st.integers(2, 16)), max_size=4))
        terms = [(data.draw(st.integers(0, a)), a, data.draw(st.integers(-40, 40))) for a in caps]
        util = sum(Fraction(w, a) for w, a, _ in terms)
        assume(util <= 3)
        inst = MixInstance(data.draw(st.integers(math.ceil(util), 3), label="w0"), terms)
        sol = solve_bruteforce(inst)
        assert (sol.objective, sol.s) == mix_enum_oracle(inst, certified_s_bound(inst))

    @given(bounded_mix_instances())
    def test_strict_utilization_localizes_optimum(self, inst):
        if not inst.terms:
            return
        util = sum(Fraction(t.w, t.a) for t in inst.terms)
        if util < 1:
            m = math.lcm(*inst.capacities())
            assert solve_bruteforce(inst).s < m


class TestHarmonicSolver:
    def test_tight_three_term_instance(self):
        inst = tight_mixing_instance(3)
        sol = solve_harmonic(inst)
        assert (sol.s, sol.objective) == (23, 23)

    def test_single_term_matches_enumeration(self):
        inst = MixInstance(1, [(3, 5, 13)])
        obj, s = mix_enum_oracle(inst, 4)
        sol = solve_harmonic(inst)
        assert (sol.objective, sol.s) == (obj, s)

    def test_nonpositive_rhs_keeps_s_zero(self):
        inst = MixInstance(1, [(1, 2, -4), (1, 4, 0)])
        sol = solve_harmonic(inst)
        assert sol.s == 0
        assert sol.objective == sum(
            t.w * math.ceil(Fraction(t.b, t.a)) for t in inst.terms
        )

    def test_rejects_non_harmonic_capacities(self):
        with pytest.raises(PreconditionViolated):
            solve_harmonic(MixInstance(1, [(1, 4, 3), (1, 6, 3)]))

    @given(bounded_mix_instances(harmonic=True))
    @settings(max_examples=80)
    def test_matches_bruteforce_including_tie_break(self, inst):
        b = solve_bruteforce(inst)
        h = solve_harmonic(inst)
        assert (h.objective, h.s) == (b.objective, b.s)

    def test_seeded_oracle_equivalence(self):
        import random

        for seed in range(150):
            inst = random_mix_instance(seed, n=random.Random(seed).randint(0, 8), a_max=256)
            b = solve_bruteforce(inst)
            h = solve_harmonic(inst)
            assert (h.objective, h.s) == (b.objective, b.s)


class TestShiftIdentity:
    """x_i(s +- m) = x_i(s) -+ m/a_i for m = lcm of the capacities."""

    def test_hand_example(self):
        inst = MixInstance(1, [(2, 4, 7), (4, 8, 7)])
        assert complete(9, inst).x == tuple(
            x - 8 // t.a for t, x in zip(inst.terms, complete(1, inst).x)
        )

    def test_backward_direction_at_large_s(self):
        assert complete(7, TIGHT2).x == tuple(
            x + 8 // t.a for t, x in zip(TIGHT2.terms, complete(15, TIGHT2).x)
        )

    @given(bounded_mix_instances(), st.integers(0, 30))
    def test_identity_holds_everywhere(self, inst, s):
        if inst.terms:
            m = math.lcm(*inst.capacities())
            base = complete(s, inst).x
            assert complete(s + m, inst).x == tuple(
                x - m // t.a for t, x in zip(inst.terms, base)
            )
            if s >= m:
                assert complete(s - m, inst).x == tuple(
                    x + m // t.a for t, x in zip(inst.terms, base)
                )


class TestValidation:
    @pytest.mark.parametrize(
        "w0, terms",
        [
            (-1, []),
            (1, [(1, 0, 3)]),
            (1, [(-1, 2, 3)]),
        ],
    )
    def test_bad_instances_rejected(self, w0, terms):
        with pytest.raises(InvalidInstance):
            solve_bruteforce(MixInstance(w0, terms))

"""Mixing set: canonical completion, bounds on s, the two exact solvers and
the selector between them."""

import dataclasses
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bounded_mix_instances, exceeds_w0, mix_enum_oracle
from rtmix import counters, mixing, rta
from rtmix.core import Task, is_harmonic
from rtmix.gen import random_mix_instance, tight_mixing_instance
from rtmix.mixing import (
    MixForm,
    MixInstance,
    MixSolution,
    certified_s_bound,
    compile_mix,
    complete,
    solve,
    solve_bruteforce,
    solve_harmonic,
)
from rtmix.errors import (
    InternalInvariantViolated,
    InvalidInstance,
    OverflowLimit,
    PreconditionViolated,
    Unbounded,
)
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
        # compile, both solvers, the selector, S and the reverse solver raise
        # Unbounded exactly when sum w_i/a_i > w0 in exact fractions
        inst = MixInstance(w0, terms)
        entries = [certified_s_bound, compile_mix, solve_bruteforce, solve]
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

    def test_unbounded_precedes_the_cap(self):
        # one capacity P = 2**63 + 1: weights (1, P - 2) leave slack 1 and
        # S = P - 1, past the cap; weights (1, P) push sum w_i/a_i past w0,
        # where S = m - 1 would pass the cap too, and the slack's sign comes
        # first; a zero-weight term, which the reverse solver's dual query
        # drops, changes neither
        big = 2**63 + 1
        for zero in ([], [(0, 7, 1)]):
            over_cap = MixInstance(1, [(1, big, 0), (big - 2, big, 3), *zero])
            unbounded = MixInstance(1, [(1, big, 0), (big, big, 3), *zero])
            for entry in (certified_s_bound, compile_mix, solve_bruteforce, solve,
                          solve_general_via_shift):
                with pytest.raises(OverflowLimit):
                    entry(over_cap)
                with pytest.raises(Unbounded):
                    entry(unbounded)

    def test_solvers_raise(self):
        bad = MixInstance(1, [(2, 1, 0)])
        for solver in (solve_bruteforce, solve_harmonic, solve):
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

    def test_over_cap_lcm_needs_a_utilization_bound_within_the_cap(self):
        # the coprime capacities 2**32 + 1 and 2**32 + 3 have an lcm past the
        # cap 2**63 - 1, while ceil(2 / (1 - sum 1/a_i)) = 3 is within it
        inst = MixInstance(1, [(1, 2**32 + 1, 7), (1, 2**32 + 3, 7)])
        assert math.lcm(*inst.capacities()) > 2**63 - 1
        assert certified_s_bound(inst) == 3
        best_obj, best_s = mix_enum_oracle(inst, 3)
        assert (solve_bruteforce(inst).s, solve_bruteforce(inst).objective) == (best_s, best_obj)
        # one capacity P = 2**63 + 1 with weights (1, P - 2): the utilization
        # bound (P - 1) * P / 1 leaves S = P - 1, past the cap
        big = 2**63 + 1
        with pytest.raises(OverflowLimit):
            certified_s_bound(MixInstance(1, [(1, big, 7), (big - 2, big, 7)]))
        with pytest.raises(OverflowLimit):  # weight utilization 1: no second bound
            certified_s_bound(MixInstance(1, [(1, big, 7), (big - 1, big, 7)]))

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
        for solver in (solve_bruteforce, solve):
            sol = solver(inst)
            assert (sol.objective, sol.s) == (obj, s), solver

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
        for solver in (solve_harmonic, solve):
            h = solver(inst)
            assert (h.objective, h.s) == (b.objective, b.s), solver

    @given(st.data())
    @settings(max_examples=80)
    def test_pruned_search_matches_bruteforce_on_deep_chains(self, data):
        # chains of up to 10 levels with repeated capacities, w0 up to 3 and
        # right-hand sides of either sign, where the bound prunes most windows
        w0 = data.draw(st.integers(1, 3))
        caps, cur = [], data.draw(st.integers(1, 3))
        for _ in range(data.draw(st.integers(1, 10))):
            caps.append(cur)
            cur *= data.draw(st.sampled_from([1, 2, 3]))
        terms, budget = [], Fraction(w0)
        for a in caps:
            w = data.draw(st.integers(0, min(6, math.floor(budget * a))))
            budget -= Fraction(w, a)
            terms.append((w, a, data.draw(st.integers(-300, 600))))
        inst = MixInstance(w0, terms)
        b = solve_bruteforce(inst)
        for solver in (solve_harmonic, solve):
            h = solver(inst)
            assert (h.objective, h.s) == (b.objective, b.s), solver

    def test_the_deep_chain_is_pruned(self):
        # w = 1, a = 2^i, b = 2^(i-1) + 12345 for i = 1..12: the search skips
        # each window whose lower bound reaches the best objective found
        # (11,293 mixing ops without that)
        inst = MixInstance(1, [(1, 2**i, 2 ** (i - 1) + 12345) for i in range(1, 13)])
        with counters.collect() as ops:
            h = solve_harmonic(inst)
        b = solve_bruteforce(inst)
        assert (h.objective, h.s) == (b.objective, b.s)
        assert ops.mixing_ops <= 3000, ops

    def test_seeded_oracle_equivalence(self):
        import random

        for seed in range(150):
            inst = random_mix_instance(seed, n=random.Random(seed).randint(0, 8), a_max=256)
            b = solve_bruteforce(inst)
            for solver in (solve_harmonic, solve):
                h = solver(inst)
                assert (h.objective, h.s) == (b.objective, b.s), (seed, solver)


@pytest.fixture
def solver_calls(monkeypatch):
    """Spies on `mixing.solve` and both named solvers: each call appends
    (name, whether a `mixing.solve` call is under way, whether it got a
    compiled form)."""
    calls, depth = [], [0]

    def spy(name, real):
        def call(inst):
            calls.append((name, depth[0] > 0, isinstance(inst, MixForm)))
            depth[0] += name == "solve"
            try:
                return real(inst)
            finally:
                depth[0] -= name == "solve"
        return call

    for name in ("solve", "solve_harmonic", "solve_bruteforce"):
        monkeypatch.setattr(mixing, name, spy(name, getattr(mixing, name)))
    return calls


class TestSelector:
    """`mixing.solve` picks the chain search or the scan, and is the one
    mixing call that `rta`'s decisions and `reverse`'s fallback make."""

    CHAIN = MixInstance(1, [(1, 2, 5), (1, 4, 3), (0, 8, 9)])
    GENERAL = MixInstance(1, [(1, 4, 3), (1, 6, 3)])

    @pytest.mark.parametrize("compiled", [False, True], ids=["instance", "form"])
    def test_a_chain_takes_the_chain_search_and_anything_else_the_scan(
            self, solver_calls, compiled):
        for inst, named in ((self.CHAIN, "solve_harmonic"), (self.GENERAL, "solve_bruteforce")):
            solver_calls.clear()
            sol = mixing.solve(compile_mix(inst) if compiled else inst)
            assert solver_calls == [("solve", False, compiled), (named, True, compiled)]
            want = solve_bruteforce(inst)
            assert (sol.s, sol.objective) == (want.s, want.objective)
            assert sol.x == (() if compiled else want.x)

    @pytest.mark.parametrize("algorithm, named", [
        ("harmonic", "solve_harmonic"),
        ("turing", "solve_harmonic"),
        ("turing", "solve_bruteforce"),
    ])
    def test_a_decision_makes_one_mixing_call(self, solver_calls, algorithm, named):
        # the walk's decisions and the general search's, on a chain and off
        # it: one `mixing.solve` per decision probe, and each named solver is
        # called only by it; both queries leave the general search's climb
        # unsettled, so it decides
        if named == "solve_harmonic":
            tasks = [Task(1, 4, 0), Task(2, 8, 2), Task(3, 16, 7)]
        else:
            tasks = [Task(1, 4, 1), Task(2, 6, 0), Task(3, 8, 3)]
        q = rta.ResponseQuery(tasks, 5)
        with counters.collect() as ops:
            got = getattr(rta, f"response_{algorithm}")(q)
        assert got == rta.response_bruteforce(q)
        assert ops.decision_probes >= 1
        assert [c for c in solver_calls if c[0] == "solve"] == [("solve", False, True)] \
            * ops.decision_probes
        assert [c for c in solver_calls if c[0] != "solve"] == [(named, True, True)] \
            * ops.decision_probes

    @pytest.mark.parametrize("inst, named", [
        (MixInstance(1, [(1, 1, 0)]), "solve_harmonic"),
        (MixInstance(1, [(1, 2, 3), (1, 3, 1), (1, 6, 4)]), "solve_bruteforce"),
    ], ids=["chain", "general"])
    def test_the_reverse_fallback_makes_one_mixing_call(self, solver_calls, inst, named):
        # dual load 1: the crowded search falls back at once, and solves the
        # crowded instance, not a compiled form as a decision probe does
        sol = solve_general_via_shift(inst)
        assert solver_calls == [("solve", False, False), (named, True, False)]
        assert sol == solve_bruteforce(inst)

    def test_a_chain_deeper_than_the_recursion_limit(self):
        # w0 = 2, w = 1, a = 2^i, b = 1000 for i = 1..1100: the chain search
        # descends one level per capacity on its explicit stack, past the
        # depth that recursion would reach; the optimum is s = 1000
        inst = MixInstance(2, [(1, 2**i, 1000) for i in range(1, 1101)])
        assert len(inst.terms) > sys.getrecursionlimit()
        want = solve_bruteforce(inst)
        assert (want.s, want.objective) == (1000, 2000)
        for solver in (solve_harmonic, solve):
            assert solver(inst) == want, solver


class TestWindow:
    """`MixForm.at(base, width)` moves every right-hand side to base + b and
    searches s over [0, width] only, cut at S when S is smaller."""

    @pytest.mark.parametrize("harmonic", [True, False], ids=["chain", "general"])
    @given(data=st.data(), base=st.integers(-30, 60))
    @settings(max_examples=150)
    def test_a_window_is_the_enumerated_minimum_over_it(self, harmonic, data, base):
        # the least objective over s in [0, width], smallest s on ties, for
        # widths below the top capacity, below S and above S
        inst = data.draw(bounded_mix_instances(max_n=4, a_max=12, harmonic=harmonic))
        form = compile_mix(inst)
        top, s_cert = max(form.levels, default=1), form.s_bound
        edges = sorted({0, top - 1, top, max(0, s_cert - 1), s_cert, s_cert + 1, s_cert + top})
        width = data.draw(st.sampled_from(edges) | st.integers(0, s_cert + top), label="width")
        moved = MixInstance(inst.w0, [(t.w, t.a, t.b + base) for t in inst.terms])
        sol = solve(form.at(base, width))
        assert (sol.objective, sol.s) == mix_enum_oracle(moved, width), (form.chain, width)


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
    """An instance checks itself when it is built, through
    `dataclasses.replace` too, and names the term at fault by its index."""

    CASES = [
        (-1, [], "w0 must be a nonnegative integer, got -1"),
        (True, [], "w0 must be a nonnegative integer, got True"),
        (1.0, [(1, 2, 3)], "w0 must be a nonnegative integer, got 1.0"),
        (1, [(1, 2, 3), (1, 0, 3)], "term 1: capacity must satisfy a >= 1, got 0"),
        (1, [(-1, 2, 3)], "term 0: weight must be nonnegative, got -1"),
        (1, [(1, 2, 3), (1, 2, True)], "term 1: w, a, b must be integers"),
    ]
    IDS = ["negative-w0", "bool-w0", "float-w0", "zero-capacity", "negative-weight", "bool-b"]

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
            MixInstance(w0, terms)

    @pytest.mark.parametrize("w0, terms, message", CASES, ids=IDS)
    def test_built_directly_or_by_replace_with_its_message(self, w0, terms, message):
        for build in (MixInstance, lambda w0, terms: dataclasses.replace(TIGHT2, w0=w0,
                                                                         terms=terms)):
            with pytest.raises(InvalidInstance) as exc:
                build(w0, terms)
            assert str(exc.value) == message


class TestInvariantGuards:
    """A searched instance's completion is checked against the search."""

    # Mix = min s + ceil((5 - s)/2): 3, first at s = 0
    INST = MixInstance(1, [(1, 2, 5)])

    def test_an_infeasible_completion_is_caught(self, monkeypatch):
        monkeypatch.setattr(mixing, "complete", lambda s, inst: MixSolution(s, (0,), 0))
        with pytest.raises(InternalInvariantViolated) as exc:
            solve_bruteforce(self.INST)
        assert str(exc.value) == "solver produced an infeasible completion at s=0"

    def test_a_completion_off_the_searched_objective_is_caught(self, monkeypatch):
        monkeypatch.setattr(mixing, "complete", lambda s, inst: MixSolution(s, (3,), 4))
        with pytest.raises(InternalInvariantViolated) as exc:
            solve_bruteforce(self.INST)
        assert str(exc.value) == "the search carried objective 3 to s=0, completion gives 4"

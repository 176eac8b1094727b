"""Reverse direction: mixing set instances solved through response times."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bounded_mix_instances, mix_enum_oracle
from rtmix import counters, mixing
from rtmix.errors import PreconditionViolated
from rtmix.gen import random_mix_instance, tight_mixing_instance
from rtmix.mixing import MixInstance, is_unbounded, solve_bruteforce
from rtmix.reverse import (
    mix_leq_via_rtc,
    shift_record,
    solve_constant_beta,
    solve_crowded,
    solve_general_via_shift,
)


class TestMixLeqViaRtc:
    def test_bracketing_the_optimum(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        assert solve_bruteforce(inst).objective == 3
        assert mix_leq_via_rtc(inst, 4, 3) is True
        assert mix_leq_via_rtc(inst, 4, 2) is False

    def test_empty_instance(self):
        assert mix_leq_via_rtc(MixInstance(1, []), 2, 1) is True

    def test_rejects_bad_jitter_encoding(self):
        inst = MixInstance(1, [(1, 2, 9)])  # b - beta > a
        with pytest.raises(PreconditionViolated):
            mix_leq_via_rtc(inst, 4, 2)

    def test_rejects_nonunit_s_weight(self):
        inst = MixInstance(2, [(1, 2, 4)])
        with pytest.raises(PreconditionViolated):
            mix_leq_via_rtc(inst, 4, 2)

    def test_rejects_nonpositive_dual_constant(self):
        inst = MixInstance(1, [(1, 2, 4)])
        with pytest.raises(PreconditionViolated):
            mix_leq_via_rtc(inst, 4, 4)

    def test_monotone_in_k(self):
        inst = MixInstance(1, [(1, 2, 5), (2, 4, 6)])
        beta = 4
        verdicts = [mix_leq_via_rtc(inst, beta, k) for k in range(0, beta)]
        assert verdicts == sorted(verdicts)


class TestSolveCrowded:
    def test_two_term_example(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 5)])
        assert solve_crowded(inst).objective == solve_bruteforce(inst).objective

    def test_all_rhs_equal_lcm(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        assert solve_crowded(inst).objective == solve_bruteforce(inst).objective == 3

    def test_weighted_example(self):
        inst = MixInstance(1, [(2, 3, 9), (1, 9, 11)])
        assert solve_crowded(inst).objective == solve_bruteforce(inst).objective

    def test_heavy_weights_push_optimum_to_beta(self):
        # optimal objective reaches b_min itself, exercising the dual-maximum
        # tail behind the k <= beta - 1 probe range
        inst = MixInstance(1, [(2, 2, 5)])
        got = solve_crowded(inst)
        assert got.objective == solve_bruteforce(inst).objective == 5

    def test_unbounded_instances_rejected(self):
        from rtmix.errors import Unbounded

        with pytest.raises(Unbounded):
            solve_crowded(MixInstance(1, [(100, 2, 4)]))

    def test_rejects_uncrowded_rhs(self):
        with pytest.raises(PreconditionViolated):
            solve_crowded(MixInstance(1, [(1, 2, 1)]))

    def test_instance_checked_once_per_public_entry(self, monkeypatch):
        # solve_crowded validates its instance at its entry and again in its
        # first probe, the public mix_leq_via_rtc, which also certifies the
        # instance's S; the binary search's later probes repeat neither.
        inst = MixInstance(1, [(1, 3, 12), (1, 4, 13), (1, 6, 12)])
        expected = solve_bruteforce(inst).objective
        validated, certified = [], []
        validate, certify = mixing.validate, mixing.certified_s_bound
        monkeypatch.setattr(mixing, "validate", lambda i: validated.append(i) or validate(i))
        monkeypatch.setattr(
            mixing, "certified_s_bound", lambda i: certified.append(i) or certify(i)
        )
        with counters.collect() as ops:
            assert solve_crowded(inst).objective == expected
        solves = ops.as_dict()["mixing_calls"]
        assert solves > 2  # several probes, each solving mixing instances of its own
        assert sum(v is inst for v in validated) == 2
        assert len(validated) == 2 + solves
        assert sum(c is inst for c in certified) == 1

    def test_seeded_equivalence(self):
        for seed in range(120):
            rng = random.Random(seed)
            base = random_mix_instance(seed, rng.randint(1, 5), 16, harmonic=rng.random() < 0.5)
            if not base.terms:
                continue
            m = math.lcm(*base.capacities())
            floor_b = m + rng.randint(0, 8)
            terms = []
            for t in base.terms:
                b = floor_b + rng.randint(0, t.a)
                terms.append((t.w, t.a, b))
            b_min = min(b for _, _, b in terms)
            terms = [(w, a, min(b, b_min + a)) for w, a, b in terms]
            inst = MixInstance(1, terms)
            assert solve_crowded(inst).objective == solve_bruteforce(inst).objective


class TestShift:
    def test_negative_rhs_example(self):
        inst = MixInstance(1, [(1, 2, -3), (2, 4, 1)])
        got = solve_general_via_shift(inst)
        want = solve_bruteforce(inst)
        assert got.objective == want.objective == -1

    def test_offsets_land_in_the_crowded_window(self):
        inst = MixInstance(1, [(1, 2, -3), (2, 4, 1), (1, 8, 21)])
        rec = shift_record(inst)
        assert rec.m == 8
        for t, off in zip(inst.terms, rec.offsets):
            assert rec.m <= t.b + off * t.a <= rec.m + t.a

    def test_already_crowded_instance_gets_nonpositive_offsets(self):
        inst = MixInstance(1, [(1, 2, 5), (1, 4, 6)])
        rec = shift_record(inst)
        assert all(off <= 0 for off in rec.offsets)
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective

    def test_single_term(self):
        inst = MixInstance(1, [(1, 5, 0)])
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective

    @given(bounded_mix_instances())
    @example(MixInstance(1, [(0, 15, 0), (3, 16, 0), (0, 1, 0), (6, 11, 0), (4, 15, 0)]))  # lcm 2640
    @settings(max_examples=60)
    def test_objective_matches_bruteforce(self, inst):
        if is_unbounded(inst):
            return
        got = solve_general_via_shift(inst)
        m = math.lcm(*inst.capacities()) if inst.terms else 1
        obj, _ = mix_enum_oracle(inst, m)
        assert got.objective == obj


@st.composite
def utilization_one_instances(draw, max_n: int = 4, a_max: int = 16):
    """Instances whose weights fill the capacities exactly: a last term at
    capacity m = lcm of the others takes the weight that is left."""
    caps = [draw(st.integers(1, a_max)) for _ in range(draw(st.integers(0, max_n)))]
    m = math.lcm(*caps)
    terms = [(draw(st.integers(0, 8)), a, draw(st.integers(-40, 40))) for a in caps]
    filled = sum(w * (m // a) for w, a, _ in terms)
    assume(filled < m)
    terms.append((m - filled, m, draw(st.integers(-40, 40))))
    return MixInstance(1, terms)


def hits_crowded_fallback(inst) -> bool:
    """Whether the crowded solve inside solve_general_via_shift(inst) ends in
    its fallback: the shifted instance's optimum is at least its b_min."""
    rec = shift_record(inst)
    crowded = MixInstance(1, [(t.w, t.a, t.b + off * t.a) for t, off in zip(inst.terms, rec.offsets)])
    return solve_bruteforce(crowded).objective >= min(t.b for t in crowded.terms)


class TestUtilizationOne:
    """At weight utilization 1 no dual response exists (the workload exceeds
    every t), so the crowded solve always ends in its fallback, which
    minimizes over one capacity period at the drop points."""

    @given(utilization_one_instances(), st.data())
    @settings(max_examples=60)
    def test_mix_leq_via_rtc_is_false(self, base, data):
        # the query's own gate answers every probe: Mix(I, beta) >= beta > k
        beta = math.lcm(*base.capacities())  # above the certified S <= lcm - 1
        inst = MixInstance(1, [(t.w, t.a, beta + data.draw(st.integers(0, t.a)))
                               for t in base.terms])
        assert mix_leq_via_rtc(inst, beta, data.draw(st.integers(0, beta - 1))) is False

    @given(utilization_one_instances())
    @settings(max_examples=80)
    def test_objective_matches_bruteforce(self, inst):
        assert sum(Fraction(t.w, t.a) for t in inst.terms) == 1
        assert hits_crowded_fallback(inst)
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective

    def test_seeded_fallbacks_below_utilization_one(self):
        # as utilization_one_instances, but the last term leaves some weight unused
        hits = 0
        for seed in range(150):
            rng = random.Random(seed)
            caps = [rng.randint(1, 16) for _ in range(rng.randint(1, 4))]
            m = math.lcm(*caps)
            terms = [(rng.randint(0, 8), a, rng.randint(-40, 40)) for a in caps]
            filled = sum(w * (m // a) for w, a, _ in terms)
            if filled >= m - 1:
                continue
            slack = rng.randint(1, m - filled - 1)
            inst = MixInstance(1, terms + [(m - filled - slack, m, rng.randint(-40, 40))])
            hits += hits_crowded_fallback(inst)
            assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective
        assert hits >= 10

    def test_large_lcm_without_a_scan(self):
        # lcm = 13 * 2^13 = 106496: the scans over one capacity period that the
        # utilization-1 decision and the fallback once ran took about a second
        inst = tight_mixing_instance(13)
        assert math.lcm(*inst.capacities()) >= 2**16
        assert hits_crowded_fallback(inst)
        assert solve_general_via_shift(inst).objective == 13 * 2**13 - 1
        assert solve_bruteforce(inst).objective == 13 * 2**13 - 1


class TestConstantBeta:
    def test_harmonic_pair(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        assert solve_constant_beta(inst, 4).objective == 3

    def test_zero_weight_single_term(self):
        inst = MixInstance(1, [(0, 5, 5)])
        sol = solve_constant_beta(inst, 5)
        assert sol.objective == 0

    def test_empty_instance(self):
        assert solve_constant_beta(MixInstance(1, []), 10).objective == 0

    def test_rejects_small_beta_on_harmonic_path(self):
        inst = MixInstance(1, [(1, 2, 3), (1, 4, 3)])
        with pytest.raises(PreconditionViolated):
            solve_constant_beta(inst, 3)

    def test_rejects_small_beta_on_general_path(self):
        inst = MixInstance(1, [(1, 4, 8), (1, 6, 8)])  # lcm = 12
        with pytest.raises(PreconditionViolated):
            solve_constant_beta(inst, 8)

    def test_rejects_mismatched_rhs(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 5)])
        with pytest.raises(PreconditionViolated):
            solve_constant_beta(inst, 4)

    @given(utilization_one_instances(), st.integers(0, 8))
    @example(MixInstance(1, [(2, 2, 0)]), 2)  # MixInstance(1, [(2, 2, 4)]) at beta = 4
    @settings(max_examples=60)
    def test_optimum_at_beta_comes_from_the_crowded_fallback(self, base, extra):
        # weight utilization 1 with every b = beta >= lcm: the optimum is beta
        # and no dual response exists, so the crowded solve's fallback gives it
        beta = math.lcm(*base.capacities()) + extra
        inst = MixInstance(1, [(t.w, t.a, beta) for t in base.terms])
        sol = solve_constant_beta(inst, beta)
        assert sol.objective == solve_bruteforce(inst).objective == beta
        assert mixing.complete(sol.s, inst) == sol

    def test_seeded_equivalence(self):
        for seed in range(120):
            rng = random.Random(seed ^ 0x5)
            harmonic = rng.random() < 0.5
            base = random_mix_instance(seed, rng.randint(1, 5), 20, harmonic=harmonic)
            caps = base.capacities()
            if not caps:
                continue
            floor_b = max(caps) if harmonic else math.lcm(*caps)
            beta = floor_b + rng.randint(0, 15)
            inst = MixInstance(1, [(t.w, t.a, beta) for t in base.terms])
            assert solve_constant_beta(inst, beta).objective == solve_bruteforce(inst).objective

"""Reverse direction: mixing set instances solved through response times."""

import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bounded_mix_instances, exceeds_w0, mix_enum_oracle, recorded_core_brackets
from rtmix import counters, mixing, reverse, rta
from rtmix.core import ceil_div
from rtmix.errors import InternalInvariantViolated, PreconditionViolated, Unbounded
from rtmix.gen import random_mix_instance, tight_mixing_instance
from rtmix.mixing import MixInstance, solve_bruteforce
from rtmix.reverse import mix_leq_via_rtc, shift_record, solve_general_via_shift


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

    def test_rejects_beta_below_the_certified_s(self):
        # S = min(lcm - 1, ceil(C / (1 - U))) = min(3, 8) = 3
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        assert mixing.certified_s_bound(inst) == 3
        with pytest.raises(PreconditionViolated) as exc:
            mix_leq_via_rtc(inst, 2, 1)
        assert str(exc.value) == "beta=2 is below the certified bound on optimal s"

    def test_unbounded_instance_raises(self):
        # sum w_i/a_i = 2 > w0: the objective has no lower bound, so no
        # verdict on Mix <= k is right but Unbounded
        with pytest.raises(Unbounded):
            mix_leq_via_rtc(MixInstance(1, [(2, 1, 0)]), 0, -1)

    def test_monotone_in_k(self):
        inst = MixInstance(1, [(1, 2, 5), (2, 4, 6)])
        beta = 4
        verdicts = [mix_leq_via_rtc(inst, beta, k) for k in range(0, beta)]
        assert verdicts == sorted(verdicts)


class TestSolveCrowded:
    """Crowded instances, lcm(a) <= b_i <= b_min + a_i, through the shift path."""

    def test_two_term_example(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 5)])
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective

    def test_all_rhs_equal_lcm(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective == 3

    def test_weighted_example(self):
        inst = MixInstance(1, [(2, 3, 9), (1, 9, 11)])
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective

    def test_heavy_weights_push_optimum_to_beta(self):
        # optimal objective reaches b_min itself, exercising the dual-maximum
        # tail behind the k <= beta - 1 probe range
        inst = MixInstance(1, [(2, 2, 5)])
        got = solve_general_via_shift(inst)
        assert got.objective == solve_bruteforce(inst).objective == 5

    def test_unbounded_instances_rejected(self):
        with pytest.raises(Unbounded):
            solve_general_via_shift(MixInstance(1, [(100, 2, 4)]))

    def test_instance_checked_once_per_public_entry(self, monkeypatch):
        # the shift leaves this crowded instance as it is, and the dual query's
        # bounds decide the first probe (top - C = 11 - 4 >= 1), so the solve
        # certifies the instance once, at its entry, and never calls the
        # checked mix_leq_via_rtc.  An instance validates itself when it is
        # built, so the solve validates nothing at its entry.
        # It builds one response query; every probe derives its query from it
        # and shares its mixing form, whose instance is validated once, when
        # it is built, and certified once, when it is compiled, not once per
        # mixing solve that searches it.  The bounds leave a window of
        # C + 1 = 5 values of k (C = sum w_i), so the search makes at most
        # ceil(log2(C + 1)) probes and at most one more for the witness.
        inst = MixInstance(1, [(1, 3, 105), (2, 5, 108), (1, 7, 107)])
        expected = solve_bruteforce(inst).objective
        made, validated, certified, built, probed, decided = [], [], [], [], [], []
        make, validate, certify = MixInstance.__init__, mixing.validate, mixing.certified_s_bound
        init, compute = rta.ResponseQuery.__init__, rta.compute_response
        monkeypatch.setattr(MixInstance, "__init__",
                            lambda i, *args: made.append(i) or make(i, *args))
        monkeypatch.setattr(mixing, "validate", lambda i: validated.append(i) or validate(i))
        monkeypatch.setattr(
            mixing, "certified_s_bound", lambda i: certified.append(i) or certify(i)
        )
        monkeypatch.setattr(rta.ResponseQuery, "__init__",
                            lambda q, *args: built.append(args) or init(q, *args))
        monkeypatch.setattr(rta, "compute_response", lambda q: probed.append(q) or compute(q))
        monkeypatch.setattr(reverse, "mix_leq_via_rtc", lambda *args: decided.append(args))
        with counters.collect() as ops:
            assert solve_general_via_shift(inst).objective == expected
        # one validation per instance built, each of them, and none of inst
        assert list(map(id, validated)) == list(map(id, made)) and inst not in made
        assert list(map(id, certified)) == list(map(id, [inst, *made]))
        assert len(made) == len(built) == 1 < ops.mixing_calls  # one form serves several solves
        assert decided == [] and 1 < len(probed)
        cost_sum = sum(t.w for t in inst.terms)
        assert len(probed) <= 1 + math.ceil(math.log2(cost_sum + 1))

    @pytest.mark.parametrize("terms, verdict", [
        ([(1, 2, 6), (1, 3, 6)], True),   # top = 1 < C = 2; the search runs
        ([(1, 2, 5), (1, 4, 6)], False),  # top = 1 < C = 2; the optimum is beta
    ])
    def test_undecided_first_probe_goes_through_mix_leq_via_rtc(self, monkeypatch, terms,
                                                                verdict):
        # 1 <= top <= C: the bounds leave k = beta - 1 open, so the checked
        # public decision computes it on the crowded instance, once
        inst = MixInstance(1, terms)
        beta = min(t.b for t in inst.terms)
        b = reverse._dual_query(inst.terms, rhs(inst), beta, 1).bounds
        assert 1 <= (beta * (b.m - b.load) - b.jitter_load) // b.m <= b.cost_sum
        decided, real = [], reverse.mix_leq_via_rtc
        monkeypatch.setattr(reverse, "mix_leq_via_rtc",
                            lambda *args: decided.append(real(*args)) or decided[-1])
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective
        assert decided == [verdict]

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
            assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective


@st.composite
def crowded_instances(draw):
    """Bounded instances, harmonic or general capacities, with crowded
    right-hand sides: all equal to one beta >= lcm(a), or each drawn in
    [floor, floor + a_i] for a floor >= lcm(a) and clipped to b_min + a_i."""
    base = draw(bounded_mix_instances(harmonic=draw(st.booleans())))
    assume(base.terms)
    floor = math.lcm(*base.capacities()) + draw(st.integers(0, 12))
    if draw(st.booleans()):
        return MixInstance(1, [(t.w, t.a, floor) for t in base.terms])
    terms = [(t.w, t.a, floor + draw(st.integers(0, t.a))) for t in base.terms]
    b_min = min(b for _, _, b in terms)
    return MixInstance(1, [(w, a, min(b, b_min + a)) for w, a, b in terms])


def shifted(inst):
    """The crowded instance that solve_general_via_shift(inst) searches."""
    bs, _ = shift_record(inst)
    return MixInstance(1, [(t.w, t.a, b) for t, b in zip(inst.terms, bs)])


def rhs(inst):
    """The right-hand sides of an instance, as the crowded search takes them."""
    return [t.b for t in inst.terms]


class TestBoundsWindow:
    """The dual query's load aggregate (D = m - L, jitter load J, cost sum C)
    pins the least k of a crowded solve below beta to
    [beta - top, beta - top + C], top = floor((beta*D - J)/m), and each probe
    starts from a certified lower bound on its response."""

    @given(crowded_instances())
    @example(MixInstance(1, [(1, 3, 105), (2, 5, 108), (1, 7, 107)]))
    @example(MixInstance(1, [(0, 4, 12), (0, 6, 15)]))  # no interferer: C = 0
    @settings(max_examples=150)
    def test_optimum_lies_in_the_window(self, inst):
        beta = min(t.b for t in inst.terms)
        opt = solve_bruteforce(inst).objective
        if opt >= beta:  # the crowded fallback, which no window serves
            return
        b = reverse._dual_query(inst.terms, rhs(inst), beta, 1).bounds
        top = (beta * (b.m - b.load) - b.jitter_load) // b.m
        assert b.cost_sum == sum(t.w for t in inst.terms)
        assert beta - top <= opt <= beta - top + b.cost_sum

    @given(st.one_of(crowded_instances(), bounded_mix_instances(harmonic=True),
                     bounded_mix_instances()))
    @example(MixInstance(1, [(1, 3, 105), (2, 5, 108), (1, 7, 107)]))
    @example(MixInstance(1, [(1, 2, 6), (1, 3, 6)]))  # the bounds leave k = beta - 1 open
    @settings(max_examples=150)
    def test_every_probe_starts_at_or_below_its_response(self, inst):
        # at most ceil(log2(C + 1)) bisection probes and one for the witness,
        # besides the checked first probe where the bounds leave it open
        if exceeds_w0(inst):
            return
        probes, decided = [], []
        compute, decide = rta.compute_response, reverse.mix_leq_via_rtc

        def spy(q):
            probes.append((q.lower, compute(q)))
            return probes[-1][1]

        cost_sum = sum(t.w for t in inst.terms)
        for case in (shifted(inst), inst):
            probes.clear()
            decided.clear()
            with mock.patch.object(rta, "compute_response", spy), \
                 mock.patch.object(reverse, "mix_leq_via_rtc",
                                   lambda *args: decided.append(args) or decide(*args)):
                solve_general_via_shift(case)
            assert all(lower <= response for lower, response in probes)
            assert len(decided) <= 1
            assert len(probes) <= len(decided) + 1 + math.ceil(math.log2(cost_sum + 1))

    @given(crowded_instances())
    @example(MixInstance(1, [(1, 3, 105), (2, 5, 108), (1, 7, 107)]))
    @example(MixInstance(1, [(1, 2, 6), (1, 3, 6)]))  # the bounds leave k = beta - 1 open
    @settings(max_examples=150)
    def test_every_search_probes_at_most_log2_of_its_window(self, inst):
        # the crowded search's `core.bracket`, and those of the responses it
        # asks for, each probe at most ceil(log2(hi - lo + 1)) times
        with recorded_core_brackets() as searches:
            _, objective = reverse._solve_crowded(inst.terms, rhs(inst))
        assert objective == solve_bruteforce(inst).objective
        for name, lo, hi, probes in searches:
            assert len(probes) <= (hi - lo).bit_length(), (name, lo, hi, probes)
        if objective < min(t.b for t in inst.terms):  # no crowded fallback
            assert any(name.startswith("_solve_crowded.") for name, *_ in searches)

    def test_the_search_is_one_core_bracket(self):
        # the window [94, 98] of `test_warm_starts_are_taken`, bisected
        inst = MixInstance(1, [(1, 3, 105), (2, 5, 108), (1, 7, 107)])
        with recorded_core_brackets() as searches:
            solve_general_via_shift(inst)
        crowded = [search[1:] for search in searches if search[0].startswith("_solve_crowded.")]
        assert crowded == [(94, 98, [96, 95, 94])]

    @given(crowded_instances())
    @example(MixInstance(1, [(1, 3, 105), (2, 5, 108), (1, 7, 107)]))
    @example(MixInstance(1, [(1, 2, 6), (1, 3, 6)]))  # the bounds leave k = beta - 1 open
    @example(MixInstance(1, [(1, 2, 5), (1, 4, 6)]))  # ... and it is a no
    @settings(max_examples=200)
    def test_each_response_brackets_the_least_k_from_both_sides(self, inst):
        # at dual constant g = beta - k with response r, f(r) = g and
        # f(t) = t - sum w_i*ceil((t + jitter_i)/a_i) rises by at most 1 per
        # unit of t, so a yes (r <= beta) puts the least k in
        # [k - (beta - r), k] and a no in [k + 1, k + (r - beta)]; every probe
        # of a solve is checked, the first probe at k = beta - 1 included
        beta = min(t.b for t in inst.terms)
        opt = solve_bruteforce(inst).objective
        probes = []
        compute = rta.compute_response

        def spy(q):
            probes.append((beta - q.gamma, compute(q)))
            return probes[-1][1]

        with mock.patch.object(rta, "compute_response", spy):
            assert reverse._solve_crowded(inst.terms, rhs(inst))[1] == opt
        assert probes or opt >= beta
        for k, r in probes:
            if r <= beta:
                assert k - (beta - r) <= opt <= k
            else:
                assert k + 1 <= opt <= k + (r - beta)

    @pytest.mark.parametrize("terms, probes", [
        # beta = 14, window [9, 12]: a yes at k = 10 with r = beta puts the
        # least k at 10 - (14 - 14) = 10 or above, so that one probe settles it
        ([(1, 6, 17), (1, 4, 14), (1, 6, 15)], [(10, 14)]),
        # beta = 33, window [27, 32] after the checked first probe at k = 32,
        # which the bounds leave open: the no at k = 29 (r = 34) caps the
        # window at 29 + (34 - 33) = 30, so k = 30 ends the search, where
        # bisection alone would probe k = 31 first
        ([(3, 10, 38), (3, 10, 33), (1, 6, 34)], [(32, 20), (29, 34), (30, 29)]),
    ])
    def test_responses_narrow_the_window_from_both_sides(self, terms, probes):
        inst = MixInstance(1, terms)
        beta = min(t.b for t in inst.terms)
        seen = []
        compute = rta.compute_response
        with mock.patch.object(rta, "compute_response",
                               lambda q: seen.append((beta - q.gamma, compute(q))) or seen[-1][1]):
            _, objective = reverse._solve_crowded(inst.terms, rhs(inst))
        assert objective == solve_bruteforce(inst).objective == probes[-1][0]
        assert seen == probes

    def test_warm_starts_are_taken(self):
        # window [94, 98] of k: only the search's first probe, at k = 96,
        # starts from nothing; each later one starts from the response at the
        # least k known to hold, one up per unit of k.  Every probe answers
        # yes, down to the window's lower end, and the last one's response
        # gives the witness s = 105 - 102 = 3
        inst = MixInstance(1, [(1, 3, 105), (2, 5, 108), (1, 7, 107)])
        probes = []
        compute = rta.compute_response
        with mock.patch.object(rta, "compute_response",
                               lambda q: probes.append((105 - q.gamma, q.lower)) or compute(q)):
            sol = solve_general_via_shift(inst)
        assert sol.objective == solve_bruteforce(inst).objective == 94 and sol.s == 3
        assert probes == [(96, 0), (95, 88), (94, 97)]

    @given(crowded_instances())
    @settings(max_examples=150)
    def test_crowded_solution_matches_bruteforce(self, inst):
        # the objective is brute force's; s is the witness of the least k,
        # beta minus the least fixed point at dual constant beta - k (brute
        # force takes the smallest optimal s, which can differ on ties), and
        # its canonical completion attains the objective; the crowded search
        # takes the instance as it is, without a shift
        s, objective = reverse._solve_crowded(inst.terms, rhs(inst))
        want = solve_bruteforce(inst)
        assert objective == want.objective == mixing.complete(s, inst).objective
        beta = min(t.b for t in inst.terms)
        if want.objective < beta:
            q = reverse._dual_query(inst.terms, rhs(inst), beta, beta - want.objective)
            assert s == beta - rta.response_bruteforce(q)
        else:
            assert s == want.s

    @given(st.one_of(bounded_mix_instances(harmonic=True), bounded_mix_instances()))
    @settings(max_examples=150)
    def test_shift_solution_matches_bruteforce(self, inst):
        if exceeds_w0(inst):
            return
        sol = solve_general_via_shift(inst)
        assert sol.objective == solve_bruteforce(inst).objective
        s = reverse._solve_crowded(inst.terms, rhs(shifted(inst)))[0] if inst.terms else 0
        assert sol == mixing.complete(s, inst)


class TestShift:
    def test_negative_rhs_example(self):
        inst = MixInstance(1, [(1, 2, -3), (2, 4, 1)])
        got = solve_general_via_shift(inst)
        want = solve_bruteforce(inst)
        assert got.objective == want.objective == -1

    def test_offsets_land_in_the_crowded_window(self):
        inst = MixInstance(1, [(1, 2, -3), (2, 4, 1), (1, 8, 21)])
        bs, correction = shift_record(inst)
        m = math.lcm(*inst.capacities())
        assert m == 8
        offsets = [(b - t.b) // t.a for t, b in zip(inst.terms, bs)]
        for t, b, off in zip(inst.terms, bs, offsets):
            assert m <= b == t.b + off * t.a <= m + t.a
        assert correction == sum(t.w * off for t, off in zip(inst.terms, offsets)) == 9

    def test_already_crowded_instance_gets_nonpositive_offsets(self):
        inst = MixInstance(1, [(1, 2, 5), (1, 4, 6)])
        bs, correction = shift_record(inst)
        assert all(b <= t.b for t, b in zip(inst.terms, bs)) and correction <= 0
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective

    def test_single_term(self):
        inst = MixInstance(1, [(1, 5, 0)])
        assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective

    def test_lcm_past_the_default_cap(self):
        # capacities up to 2**16: the lcm passes 2**63 while S stays small,
        # so the shift lands right-hand sides near the lcm and still solves
        draws = (random_mix_instance(seed, 6, 2**16, harmonic=False) for seed in range(12))
        big = [inst for inst in draws if math.lcm(*inst.capacities()) > 2**63]
        assert len(big) >= 10
        for inst in big:
            bs, _ = shift_record(inst)
            m = math.lcm(*inst.capacities())
            assert all(m <= b <= m + t.a for t, b in zip(inst.terms, bs))
            assert solve_general_via_shift(inst) == solve_bruteforce(inst)

    def test_validates_once_per_compiled_query_not_per_probe(self, monkeypatch):
        # an instance validates itself once, when it is built, and nothing
        # validates it again: the solves of instances built beforehand
        # validate only the instances they build (each query's mixing form,
        # each crowded fallback), each inside its own constructor, so none at
        # a public entry, none when a form is compiled and none per probe
        # that searches it
        insts = [random_mix_instance(seed, n, a_max, harmonic=harmonic)
                 for seed in range(1, 101)
                 for n, a_max, harmonic in ((6, 256, True), (4, 16, False))]
        calls, building = Counter(), []
        make, validate, compile_mix = MixInstance.__init__, mixing.validate, mixing.compile_mix

        def built(inst, *args):
            calls["built"] += 1
            building.append(inst)
            make(inst, *args)
            building.pop()

        def validated(inst):
            assert building and building[-1] is inst
            calls["validate"] += 1
            validate(inst)

        monkeypatch.setattr(MixInstance, "__init__", built)
        monkeypatch.setattr(mixing, "validate", validated)
        monkeypatch.setattr(mixing, "compile_mix", lambda i: calls.update(["compile_mix"])
                            or compile_mix(i))
        with counters.collect() as ops:
            for inst in insts:
                solve_general_via_shift(inst)
        assert calls["validate"] == calls["built"] > 0
        assert calls["compile_mix"] < ops.decision_probes

    @given(bounded_mix_instances())
    @example(MixInstance(1, [(0, 15, 0), (3, 16, 0), (0, 1, 0), (6, 11, 0), (4, 15, 0)]))  # lcm 2640
    @settings(max_examples=60)
    def test_objective_matches_bruteforce(self, inst):
        if exceeds_w0(inst):
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
    crowded = shifted(inst)
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
    """All right-hand sides equal to beta >= lcm(a): a crowded instance with
    zero jitter, which the shift moves by offsets of 0 or less."""

    def test_harmonic_pair(self):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        assert solve_general_via_shift(inst).objective == 3

    def test_zero_weight_single_term(self):
        inst = MixInstance(1, [(0, 5, 5)])
        sol = solve_general_via_shift(inst)
        assert sol.objective == 0

    def test_empty_instance(self):
        assert solve_general_via_shift(MixInstance(1, [])).objective == 0

    @given(utilization_one_instances(), st.integers(0, 8))
    @example(MixInstance(1, [(2, 2, 0)]), 2)  # MixInstance(1, [(2, 2, 4)]) at beta = 4
    @settings(max_examples=60)
    def test_optimum_at_beta_comes_from_the_crowded_fallback(self, base, extra):
        # weight utilization 1 with every b = beta >= lcm: the optimum is beta
        # and no dual response exists, so the crowded solve's fallback gives it
        beta = math.lcm(*base.capacities()) + extra
        inst = MixInstance(1, [(t.w, t.a, beta) for t in base.terms])
        sol = solve_general_via_shift(inst)
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
            assert solve_general_via_shift(inst).objective == solve_bruteforce(inst).objective


class TestInvariantGuards:
    """Each internal guard raises, with its message, once the fault it
    watches for is injected just before it."""

    def test_a_witness_off_the_crowded_objective_is_caught(self, monkeypatch):
        inst = MixInstance(1, [(1, 2, 4), (1, 4, 4)])
        sol = solve_general_via_shift(inst)
        crowded = reverse._solve_crowded

        def lying(terms, bs):
            s, objective = crowded(terms, bs)
            return s, objective + 1

        monkeypatch.setattr(reverse, "_solve_crowded", lying)
        with pytest.raises(InternalInvariantViolated) as exc:
            solve_general_via_shift(inst)
        assert str(exc.value) == (f"witness at s={sol.s} has objective {sol.objective}, "
                                  f"expected {sol.objective + 1}")

    def test_a_fallback_optimum_outside_the_window_is_caught(self, monkeypatch):
        # capacity 1 and weight 1: the dual load is 1, so the search falls back at once
        monkeypatch.setattr(mixing, "solve_bruteforce", lambda inst: mixing.MixSolution(0, (), 0))
        with pytest.raises(InternalInvariantViolated) as exc:
            solve_general_via_shift(MixInstance(1, [(1, 1, 0)]))
        assert str(exc.value) == "crowded fallback produced optimum 0 outside [beta, b_max]"

    def test_responses_that_empty_the_bracket_are_caught(self, monkeypatch):
        monkeypatch.setattr(rta, "compute_response", lambda q: 10**9)
        with pytest.raises(InternalInvariantViolated) as exc:
            solve_general_via_shift(MixInstance(1, [(1, 3, 5), (2, 5, 7)]))
        assert str(exc.value) == "the verdicts emptied the bracket [17, 16]"

    def test_a_shift_outside_the_crowded_window_is_caught(self, monkeypatch):
        # m = 4: b = 4 needs offset 0, and one less puts it at 2
        monkeypatch.setattr(reverse, "ceil_div", lambda num, den: ceil_div(num, den) - 1)
        with pytest.raises(InternalInvariantViolated) as exc:
            shift_record(MixInstance(1, [(1, 2, 4), (1, 4, 4)]))
        assert str(exc.value) == "shifted right-hand side 2 escaped [m, m + a]"

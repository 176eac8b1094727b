"""Shared fixtures, seeded test inputs, hypothesis strategies, and independent oracles.

The oracles here deliberately avoid the code paths they check: responses are
verified by a linear scan of the defining inequality, mixing optima by full
enumeration of s, mixing boundedness by summing exact fractions, and the
dual maximum by enumerating its own program.
"""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import strategies as st

from rtmix import core
from rtmix.core import Task, TaskSystem, ceil_div
from rtmix.mixing import MixInstance
from rtmix.sim import ReleasePattern


@pytest.fixture
def demo_system() -> TaskSystem:
    """Three-task reference system used throughout the docs."""
    return TaskSystem(
        [
            Task(15, 65, 8, 65),
            Task(7, 30, 5, 30),
            Task(13, 50, 25, 50),
        ]
    )


def workload(tasks, gamma: int, t: int) -> int:
    return gamma + sum(task.c * ceil_div(t + task.jitter, task.p) for task in tasks)


def response_scan_oracle(tasks, gamma: int, hi: int) -> int | None:
    """Least t in [0, hi] satisfying t >= gamma + sum c*ceil((t+jitter)/p).

    A linear scan of t, one block of t at a time.  From t to t + 1 task i's
    ceiling ceil((t + jitter_i)/p_i) rises by one exactly when
    (t + jitter_i) % p_i == 0, so the steps of the workload over a block are
    accumulated per t first, as `mix_enum_oracle` accumulates its drops:
    O(hi + sum hi/p_i), not O(hi * n).
    """
    w = workload(tasks, gamma, 0)
    block = 4096
    for start in range(0, hi + 1, block):
        steps = [0] * min(block, hi + 1 - start)
        for task in tasks:
            # the offsets i in the block with (start + i + jitter) % p == 0
            for i in range(-(start + task.jitter) % task.p, len(steps), task.p):
                steps[i] += task.c
        for t, step in enumerate(steps, start):
            if w <= t:
                return t
            w += step
    return None


def mix_enum_oracle(inst: MixInstance, s_hi: int):
    """(best objective, smallest optimal s) by enumeration of every s in [0, s_hi].

    From s - 1 to s the objective rises by w0 and term i's ceiling
    ceil((b_i - s)/a_i) drops by one exactly when s = b_i (mod a_i), so the
    drops are accumulated per s first: O(s_hi + sum s_hi/a_i), not O(s_hi * n).
    """
    drops = [0] * (s_hi + 1)
    for t in inst.terms:
        for s in range((t.b - 1) % t.a + 1, s_hi + 1, t.a):  # least s >= 1 with s = b (mod a)
            drops[s] += t.w
    obj = sum(t.w * ceil_div(t.b, t.a) for t in inst.terms)
    best_s, best_obj = 0, obj
    for s in range(1, s_hi + 1):
        obj += inst.w0 - drops[s]
        if obj < best_obj:
            best_s, best_obj = s, obj
    return best_obj, best_s


def exceeds_w0(inst: MixInstance) -> bool:
    """Whether sum w_i/a_i > w0, in exact fractions: the instance is
    unbounded, since pushing s up one lcm of the capacities then lowers
    the objective."""
    return sum((Fraction(t.w, t.a) for t in inst.terms), Fraction(0)) > inst.w0


def dual_max_oracle(tasks, k: int) -> int:
    """max of t - sum c_i*x_i over t <= k with p_i*x_i >= t + jitter_i, t >= 0.

    For fixed t the best multipliers are the minimal ones, so this is a plain
    scan over t."""
    best = None
    for t in range(k + 1):
        val = t - sum(task.c * ceil_div(t + task.jitter, task.p) for task in tasks)
        if best is None or val > best:
            best = val
    return best


@contextlib.contextmanager
def recorded_core_brackets():
    """Yield a list that collects (narrowing rule's qualified name, lo, hi,
    probed k) of every `core.bracket` search that returns."""
    searches = []
    real = core.bracket

    def spy(lo, hi, narrow):
        probes = []
        k = real(lo, hi, lambda k, *window: probes.append(k) or narrow(k, *window))
        searches.append((narrow.__qualname__, lo, hi, probes))
        return k

    with mock.patch.object(core, "bracket", spy):
        yield searches


def random_release_pattern(seed: int, ts: TaskSystem, horizon: int) -> list[list[tuple[int, int]]]:
    """Legal (arrival, release) pairs per task: arrivals >= p_i apart,
    releases delayed by at most the task's jitter, all releases < horizon."""
    rng = random.Random(seed)
    pattern: list[list[tuple[int, int]]] = []
    for t in ts.tasks:
        jobs = []
        arrival = rng.randint(0, t.p)
        while True:
            release = arrival + rng.randint(0, t.jitter)
            if release >= horizon:
                break
            jobs.append((arrival, release))
            arrival += t.p + rng.randint(0, t.p)
        pattern.append(jobs)
    return pattern


def release_pattern_to_dict(rp: ReleasePattern) -> dict:
    """The JSON form that `jsonio.release_pattern_from_dict` reads."""
    return {
        "releases": [
            [{"arrival": j.arrival, "release": j.release} for j in per_task]
            for per_task in rp.jobs
        ]
    }


# -- hypothesis strategies ---------------------------------------------------

@st.composite
def small_task_systems(draw, max_n: int = 4, p_max: int = 12, zero_jitter: bool = False,
                       harmonic: bool = False, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    periods = range(1, p_max + 1)
    if harmonic:  # periods from one divisibility chain
        chain = [draw(st.integers(1, 4))]
        while chain[-1] * 2 <= p_max:
            factors = [2, 3] if chain[-1] * 3 <= p_max else [2]
            chain.append(chain[-1] * draw(st.sampled_from(factors)))
        periods = chain
    # Each interferer is drawn within the utilization budget the earlier ones
    # leave (c/p below it), as `bounded_mix_instances` draws weights, so every
    # system whose interferers' utilization is below 1 can be drawn and none
    # is rejected after drawing.  Once no period leaves room for c = 1, the
    # last task, which is not an interferer, ends the system.
    tasks, budget = [], Fraction(1)
    for i in range(n):
        last = i == n - 1 or budget * max(periods) <= 1
        p = draw(st.sampled_from([p for p in periods if last or budget * p > 1]))
        c = draw(st.integers(1, p if last else math.ceil(budget * p) - 1))
        budget -= Fraction(c, p)
        jitter = 0 if zero_jitter else draw(st.integers(0, p))
        tasks.append(Task(c, p, jitter, p))
        if last:
            return TaskSystem(tasks)


@st.composite
def bounded_mix_instances(draw, max_n: int = 5, a_max: int = 16, harmonic: bool = False):
    n = draw(st.integers(0, max_n))
    if harmonic:
        caps = []
        cur = draw(st.integers(1, 4))
        for _ in range(n):
            caps.append(cur)
            cur *= draw(st.sampled_from([1, 2, 3]))
            if cur > a_max:
                cur = caps[-1]
    else:
        caps = [draw(st.integers(1, a_max)) for _ in range(n)]
    # Each weight is drawn within the utilization budget the earlier terms
    # leave, so every instance with sum w/a <= 1 and w <= 8 can be drawn
    # and none is rejected after drawing.
    terms, budget = [], Fraction(1)
    for a in caps:
        w = draw(st.integers(0, min(8, math.floor(budget * a))))
        budget -= Fraction(w, a)
        terms.append((w, a, draw(st.integers(-40, 40))))
    return MixInstance(1, terms)

"""Shared fixtures, hypothesis strategies, and independent oracles.

The oracles here deliberately avoid the code paths they check: responses are
verified by a linear scan of the defining inequality, mixing optima by full
enumeration of s, mixing boundedness by summing exact fractions, and the
dual maximum by enumerating its own program.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from rtmix.core import Task, TaskSystem, ceil_div
from rtmix.mixing import MixInstance


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
    """Least t in [0, hi] satisfying t >= gamma + sum c*ceil((t+jitter)/p)."""
    for t in range(hi + 1):
        if workload(tasks, gamma, t) <= t:
            return t
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


# -- hypothesis strategies ---------------------------------------------------

@st.composite
def small_task_systems(draw, max_n: int = 4, p_max: int = 12, zero_jitter: bool = False,
                       harmonic: bool = False):
    n = draw(st.integers(1, max_n))
    periods = st.integers(1, p_max)
    if harmonic:  # periods from one divisibility chain
        chain = [draw(st.integers(1, 4))]
        while chain[-1] * 2 <= p_max:
            factors = [2, 3] if chain[-1] * 3 <= p_max else [2]
            chain.append(chain[-1] * draw(st.sampled_from(factors)))
        periods = st.sampled_from(chain)
    tasks = []
    for _ in range(n):
        p = draw(periods)
        c = draw(st.integers(1, p))
        jitter = 0 if zero_jitter else draw(st.integers(0, p))
        tasks.append(Task(c, p, jitter, p))
    # keep only instances passing the utilization gate, decided exactly
    assume(sum(Fraction(t.c, t.p) for t in tasks[:-1]) < 1)
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

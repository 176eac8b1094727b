"""Sporadic task-system model and exact response-time bounds.

Tasks are quadruples (c, d, p, jitter) of integers: worst-case execution
time, relative deadline (optional for pure response-time computation),
minimum inter-arrival separation, and release jitter.  Priority is list
order, index 0 highest.

All utilization and bound arithmetic is exact: sums of ratios are taken in
integers at the lcm of their denominators (`load_at_lcm`, `bounds_from_parts`)
and returned as `fractions.Fraction`, never floats.
Feasibility decisions in the solver modules rely on the integrality
arguments behind these bounds, which a rounding error would silently break.
Every integer field must be a Python `int`: `bool`, float and str values
are rejected (`is_integer`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidInstance, OverflowLimit, UtilizationExceeded

ENV_LIMIT_BITS = "RTMIX_LIMIT_BITS"
DEFAULT_LIMIT_BITS = 63


def magnitude_cap() -> int:
    """Cap on lcm-style quantities; exceeding it raises OverflowLimit.

    Defaults to 2**63 - 1; override with the RTMIX_LIMIT_BITS environment
    variable.  lcm is exponential in the number of distinct periods, so a
    hard cap beats silent astronomically-large searches.
    """
    raw = os.environ.get(ENV_LIMIT_BITS, DEFAULT_LIMIT_BITS)
    try:
        bits = int(raw)
    except ValueError:
        bits = 0
    if bits < 1:
        raise InvalidInstance(f"{ENV_LIMIT_BITS} must be a positive bit count, got {raw!r}")
    return (1 << bits) - 1


def is_integer(value) -> bool:
    """True for a Python int; `bool` is an int subclass but not an integer field."""
    return isinstance(value, int) and not isinstance(value, bool)


def ceil_div(num: int, den: int) -> int:
    """Exact ceil(num / den) for integer num and positive integer den."""
    if den <= 0:
        raise ValueError(f"ceil_div needs a positive denominator, got {den}")
    return -((-num) // den)


def lcm_capped(values: Iterable[int]) -> int:
    """lcm of positive integers, raising OverflowLimit past the magnitude cap,
    which each call reads from RTMIX_LIMIT_BITS afresh (`magnitude_cap`).

    `bounds_from_parts`, `load_at_lcm` (behind `utilization` and
    `mixing.is_unbounded`) and `mixing.certified_s_bound` take their own lcm:
    a utilization test must be decided before the cap, and S may be valid
    past an lcm beyond the cap.
    """
    limit = magnitude_cap()
    acc = 1
    for v in values:
        if v < 1:
            raise InvalidInstance(f"lcm argument must be >= 1, got {v}")
        acc = math.lcm(acc, v)
        if acc > limit:
            raise OverflowLimit(f"lcm exceeds the magnitude cap {limit}")
    return acc


@dataclass(frozen=True)
class Task:
    """One sporadic task: cost c, period p, release jitter, optional deadline."""

    c: int
    p: int
    jitter: int = 0
    d: int | None = None


@dataclass(frozen=True)
class TaskSystem:
    """Priority-ordered task list; index 0 is the highest priority."""

    tasks: tuple[Task, ...]

    def __init__(self, tasks: Iterable[Task]):
        object.__setattr__(self, "tasks", tuple(tasks))

    def __len__(self) -> int:
        return len(self.tasks)

    def periods(self) -> tuple[int, ...]:
        return tuple(t.p for t in self.tasks)


def validate(ts: TaskSystem) -> None:
    """Check every structural invariant; raise InvalidInstance naming the first violation."""
    if not isinstance(ts, TaskSystem):
        raise InvalidInstance("expected a TaskSystem")
    if len(ts.tasks) < 1:
        raise InvalidInstance("task system must contain at least one task")
    for idx, t in enumerate(ts.tasks):
        for name in ("c", "p", "jitter"):
            if not is_integer(getattr(t, name)):
                raise InvalidInstance(f"task {idx}: field {name} must be an integer")
        if t.c < 1:
            raise InvalidInstance(f"task {idx}: execution time must satisfy c >= 1, got {t.c}")
        if t.p < 1:
            raise InvalidInstance(f"task {idx}: period must satisfy p >= 1, got {t.p}")
        if not 0 <= t.jitter <= t.p:
            raise InvalidInstance(
                f"task {idx}: jitter must satisfy 0 <= jitter <= p, got {t.jitter} (p={t.p})"
            )
        if t.d is not None:
            if not is_integer(t.d):
                raise InvalidInstance(f"task {idx}: deadline must be an integer or None")
            if not t.c <= t.d <= t.p:
                raise InvalidInstance(
                    f"task {idx}: deadline must satisfy c <= d <= p, got {t.d}"
                )


def load_at_lcm(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(L, m) for (num, den) pairs with den >= 1: m is the lcm of the dens and
    L = sum num*(m/den), so sum num/den = L/m, decided in integers."""
    pairs = tuple(pairs)
    m = math.lcm(*(d for _, d in pairs))
    return sum(n * (m // d) for n, d in pairs), m


def workload(tasks: Iterable[Task], gamma: int, t: int) -> int:
    """gamma + sum c_i*ceil((t + jitter_i)/p_i): the demand that a response
    time t must cover; the response is the least t with workload <= t."""
    return gamma + sum(task.c * ceil_div(t + task.jitter, task.p) for task in tasks)


def utilization(obj: TaskSystem | Iterable[Task]) -> Fraction:
    """Exact sum of c_i/p_i over a system or a sequence of tasks."""
    tasks = obj.tasks if isinstance(obj, TaskSystem) else obj
    return Fraction(*load_at_lcm((t.c, t.p) for t in tasks))


def is_harmonic(obj: TaskSystem | Iterable[int]) -> bool:
    """True iff the periods (or given capacities) pairwise divide in sorted order."""
    values = sorted(obj.periods() if isinstance(obj, TaskSystem) else obj)
    if not values:
        return True
    if values[0] < 1:
        raise InvalidInstance("harmonicity is defined for positive integers only")
    return all(b % a == 0 for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class BoundsResult:
    """Certified interval for the lowest-priority response time.

    ell <= r <= min(u1, u2); `u` is the integer search ceiling
    min(ceil(u1), u2) used by the binary searches (the response time is
    integral, the analytic u1 generally is not).  `utilization` is the
    interferers' exact utilization, below 1, from which the bounds follow.
    """

    ell: Fraction
    u1: Fraction
    u2: int
    u: int
    utilization: Fraction


def bounds_from_parts(gamma: int, interferers: Sequence[Task]) -> BoundsResult:
    """Bounds for the least t with t >= gamma + sum c_i*ceil((t+jitter_i)/p_i).

    One integer pass over the interferers at their lcm m: with the load
    L = sum c_i*(m/p_i) the utilization is L/m and the slack is D/m,
    D = m - L, so every bound is an integer ratio over D.  The utilization
    gate is decided before the lcm meets the magnitude cap.
    """
    if any(t.p < 1 for t in interferers):
        raise InvalidInstance("interferer periods must be >= 1")
    m = math.lcm(*(t.p for t in interferers))
    load = jitter_load = cost_sum = 0
    for t in interferers:
        share = t.c * (m // t.p)
        load += share
        jitter_load += t.jitter * share
        cost_sum += t.c
    if load >= m:
        raise UtilizationExceeded(f"interfering utilization {Fraction(load, m)} >= 1")
    limit = magnitude_cap()
    if m > limit:
        raise OverflowLimit(f"lcm exceeds the magnitude cap {limit}")
    slack = m - load
    base = gamma * m + jitter_load
    u2 = ceil_div(gamma + cost_sum, slack) * m
    return BoundsResult(
        Fraction(base, slack),
        Fraction(base + cost_sum * m, slack),
        u2,
        min(ceil_div(base + cost_sum * m, slack), u2),
        Fraction(load, m),
    )


def response_bounds(ts: TaskSystem) -> BoundsResult:
    """Bounds on the response time of the lowest-priority task."""
    validate(ts)
    return bounds_from_parts(ts.tasks[-1].c, ts.tasks[:-1])

"""Sporadic task-system model and exact response-time bounds.

Tasks are quadruples (c, d, p, jitter) of integers: worst-case execution
time, relative deadline (optional: a response query never reads it, and
only schedulability analysis requires it), minimum inter-arrival
separation, and release jitter.  Priority is list
order, index 0 highest.

All utilization and bound arithmetic is exact: sums of ratios are taken in
integers at the lcm of their denominators (`load_at_lcm`, `bounds_from_parts`)
and returned as `fractions.Fraction`, never floats.
Feasibility decisions in the solver modules rely on the integrality
arguments behind these bounds, which a rounding error would silently break.
Every integer field must be a Python `int`: `bool`, float and str values
are rejected (`is_integer`).

The one magnitude rule is `certified_s`: S, which bounds every search,
raises OverflowLimit past the fixed cap `MAGNITUDE_CAP` = 2**63 - 1; the lcm
is exact and uncapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InternalInvariantViolated, InvalidInstance, OverflowLimit, UtilizationExceeded

# Cap on the search bound S (`certified_s`).  Every search is bounded by S,
# so a hard cap on S beats a silent astronomically long search.
MAGNITUDE_CAP = 2**63 - 1


def is_integer(value) -> bool:
    """True for a Python int; `bool` is an int subclass but not an integer field."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def require_integers(**values) -> None:
    """Raise InvalidInstance naming the first value that is not an integer."""
    for name, value in values.items():
        if not is_integer(value):
            raise InvalidInstance(f"{name} must be an integer, got {value!r}")


def ceil_div(num: int, den: int) -> int:
    """Exact ceil(num / den) for integer num and positive integer den."""
    if den <= 0:
        raise ValueError(f"ceil_div needs a positive denominator, got {den}")
    return -((-num) // den)


def bracket(lo: int, hi: int, narrow: Callable[[int, int, int], tuple[int, int]]) -> int:
    """The least k in [lo, hi] that a monotone decision accepts, by the one
    bisection: while lo < hi, `narrow(k, lo, hi)` probes k = (lo + hi) // 2
    and returns the window its verdict proves, within [lo, k] on a yes and
    [k + 1, hi] on a no, so a search probes at most
    ceil(log2(hi - lo + 1)) = (hi - lo).bit_length() times.  Raises
    InternalInvariantViolated when the verdicts empty the window, or when a
    probe keeps k below the window's upper end, which would loop forever."""
    while lo < hi:
        k = (lo + hi) // 2
        lo, hi = narrow(k, lo, hi)
        if lo <= k < hi:
            raise InternalInvariantViolated(f"the probe kept its midpoint {k} inside [{lo}, {hi}]")
    if lo > hi:
        raise InternalInvariantViolated(f"the verdicts emptied the bracket [{lo}, {hi}]")
    return lo


def certified_s(weight_sum: int, m: int, slack: int) -> int:
    """The certified search bound S = min(m - 1, ceil(weight_sum * m / slack)),
    or m - 1 when there is no slack (slack <= 0), for terms of lcm m and
    summed weight `weight_sum`.  The one gate on magnitude: S past
    `MAGNITUDE_CAP` raises OverflowLimit, while m itself is uncapped."""
    s = m - 1 if slack <= 0 else min(m - 1, ceil_div(weight_sum * m, slack))
    if s > MAGNITUDE_CAP:
        raise OverflowLimit("the search bound S exceeds the magnitude cap 2**63 - 1")
    return s


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

    def periods(self) -> tuple[int, ...]:
        return tuple(t.p for t in self.tasks)


def validate_task(idx: int, t: Task) -> None:
    """Check one task's fields; raise InvalidInstance naming task `idx`."""
    if not isinstance(t, Task):
        raise InvalidInstance(f"task {idx}: expected a Task, got {t!r}")
    if not (is_integer(t.c) and is_integer(t.p) and is_integer(t.jitter)):
        name = next(n for n in ("c", "p", "jitter") if not is_integer(getattr(t, n)))
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
            raise InvalidInstance(f"task {idx}: deadline must satisfy c <= d <= p, got {t.d}")


def validate(ts: TaskSystem) -> None:
    """Check every structural invariant; raise InvalidInstance naming the first violation."""
    if not isinstance(ts, TaskSystem):
        raise InvalidInstance("expected a TaskSystem")
    if len(ts.tasks) < 1:
        raise InvalidInstance("task system must contain at least one task")
    for idx, t in enumerate(ts.tasks):
        validate_task(idx, t)


def load_at_lcm(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(L, m) for (num, den) pairs with den >= 1: m is the lcm of the dens and
    L = sum num*(m/den), so sum num/den = L/m, decided in integers."""
    pairs = tuple(pairs)
    for _, d in pairs:
        if not is_integer(d) or d < 1:
            raise InvalidInstance(f"denominators must be integers >= 1, got {d!r}")
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
    values = obj.periods() if isinstance(obj, TaskSystem) else tuple(obj)
    if not all(is_integer(v) and v >= 1 for v in values):
        raise InvalidInstance("harmonicity is defined for positive integers only")
    return is_chain(values)


def is_chain(values: Iterable[int]) -> bool:
    """`is_harmonic` on positive integers its caller has checked, with no
    check of its own: a query build and a mixing compile pass the periods
    or capacities they have just validated."""
    values = sorted(values)
    return all(b % a == 0 for a, b in zip(values, values[1:]))


class BoundsResult(NamedTuple):
    """Certified interval for the lowest-priority response time, with the
    interferers' integer load aggregate: the lcm m of their periods,
    L = sum c_i*(m/p_i) (`load`), sum jitter_i*c_i*(m/p_i) and sum c_i.

    ell <= r <= min(u1, u2); `u` is the integer search ceiling
    min(ceil(u1), u2) used by the binary searches, and `ceil_ell` is
    ceil(ell), computed in integers, where the searches start.
    `utilization` L/m is below 1.  `s` is the certified bound S on the
    optimal s of every mixing instance Mix(I, k) of these interferers,
    min(m - 1, ceil(sum c_i / (1 - U))), the `mixing.certified_s_bound` of
    their terms (c_i, p_i, k + jitter_i)."""

    gamma: int
    m: int
    load: int
    jitter_load: int
    cost_sum: int
    u2: int
    u: int
    s: int
    ceil_ell: int

    # exact, built when read
    ell = property(lambda b: Fraction(b.gamma * b.m + b.jitter_load, b.m - b.load))
    u1 = property(lambda b: b.ell + Fraction(b.cost_sum * b.m, b.m - b.load))
    utilization = property(lambda b: Fraction(b.load, b.m))

    def at(self, gamma: int) -> BoundsResult:
        """The same interferers' bounds at constant gamma."""
        return bounds_from_load(gamma, self.m, self.load, self.jitter_load, self.cost_sum)

    def plus(self, t: Task, gamma: int) -> BoundsResult:
        """The bounds with interferer t added, at constant gamma: m' = lcm(m, p),
        each sum scaled by m'/m, plus t's share; no pass over the others."""
        m = math.lcm(self.m, t.p)
        scale, share = m // self.m, t.c * (m // t.p)
        return bounds_from_load(gamma, m, self.load * scale + share,
                                self.jitter_load * scale + t.jitter * share, self.cost_sum + t.c)


def bounds_from_parts(gamma: int, interferers: Sequence[Task]) -> BoundsResult:
    """Bounds for the least t with t >= gamma + sum c_i*ceil((t+jitter_i)/p_i),
    from one integer pass over the interferers for their load aggregate."""
    if any(t.p < 1 for t in interferers):
        raise InvalidInstance("interferer periods must be >= 1")
    m = math.lcm(*(t.p for t in interferers))
    load = jitter_load = cost_sum = 0
    for t in interferers:
        share = t.c * (m // t.p)
        load += share
        jitter_load += t.jitter * share
        cost_sum += t.c
    return bounds_from_load(gamma, m, load, jitter_load, cost_sum)


def bounds_from_load(gamma: int, m: int, load: int, jitter_load: int,
                     cost_sum: int) -> BoundsResult:
    """The bounds at gamma from a load aggregate, the one copy of their
    arithmetic.  The slack is D/m, D = m - L, so every bound is an integer
    ratio over D, S and ceil(ell) included: S = min(m - 1, ceil(sum c_i * m
    / D)), gated by `certified_s` after the utilization gate, and
    ceil(ell) = ceil((gamma*m + J) / D)."""
    if load >= m:
        raise UtilizationExceeded(f"interfering utilization {Fraction(load, m)} >= 1")
    slack = m - load
    s = certified_s(cost_sum, m, slack)
    u2 = ceil_div(gamma + cost_sum, slack) * m
    base = gamma * m + jitter_load
    return BoundsResult(gamma, m, load, jitter_load, cost_sum, u2,
                        min(ceil_div(base + cost_sum * m, slack), u2), s, ceil_div(base, slack))


def response_bounds(ts: TaskSystem) -> BoundsResult:
    """Bounds on the response time of the lowest-priority task."""
    validate(ts)
    return bounds_from_parts(ts.tasks[-1].c, ts.tasks[:-1])

"""Instance generators: analytic extreme families and seeded random suites.

`construct_extreme` builds full-utilization harmonic systems on which the
analytic response-time upper bound is attained exactly (with jitter = period);
`tight_mixing_instance` is the family showing lcm - 1 is the best general
bound on the optimal s of a mixing set.  The random generators are rejection
samplers, deterministic in their seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import Task, TaskSystem, load_at_lcm, utilization, validate
from .errors import (
    GenerationFailed, InternalInvariantViolated, InvalidInstance, PreconditionViolated,
)
from .mixing import MixInstance

_MAX_TRIES = 2000


def construct_extreme(
    cs: Sequence[int],
    p1: int,
    jitters: Sequence[int] | str = "p",
    deadlines: str = "none",
) -> TaskSystem:
    """Supplement costs c_1..c_{n-2} and period p_1 to an n-task system with
    utilization exactly 1, harmonic periods, c_n = 1 and p_n = p_max.

    Periods grow as p_i = (c_i + 1) * p_{i-1}, the last two coincide at
    2 * p_{n-2}, and c_{n-1} absorbs all remaining capacity.  `jitters` is
    either an explicit length-n vector or one of the presets "p" / "zero".
    """
    cs = list(cs)
    n = len(cs) + 2
    if n < 3:
        raise PreconditionViolated("need at least one leading cost (n >= 3)")
    if any(c < 1 for c in cs):
        raise PreconditionViolated("leading costs must be >= 1")
    if p1 <= cs[0]:
        raise PreconditionViolated(f"p1 must exceed c_1, got p1={p1}, c_1={cs[0]}")

    periods = [p1]
    for i in range(1, n - 2):
        periods.append((cs[i] + 1) * periods[i - 1])
    periods.append(2 * periods[-1])
    periods.append(periods[-1])

    # every head period divides P = p_{n-2}, so 2P*(1 - head utilization) - 1
    # is an integer, and at least 1: by induction 1 - head utilization >= 1/P
    P = periods[n - 3]
    costs = cs + [2 * P - 1 - sum(c * (2 * P // p) for c, p in zip(cs, periods)), 1]

    if jitters == "p":
        jit = list(periods)
    elif jitters == "zero":
        jit = [0] * n
    else:
        jit = list(jitters)
        if len(jit) != n:
            raise PreconditionViolated(f"jitter vector must have length {n}")

    ds = list(periods) if deadlines == "p" else [None] * n
    ts = TaskSystem(
        Task(c, p, j, d) for c, p, j, d in zip(costs, periods, jit, ds)
    )
    if costs[n - 2] < 1 or utilization(ts) != 1:
        raise InternalInvariantViolated("constructed system misses full utilization")
    validate(ts)
    return ts


def tight_mixing_instance(n: int) -> MixInstance:
    """w0 = 1, w_i = 2^i, a_i = n*2^i, b_i = n*2^n - 1 for i = 1..n.

    The weight utilization is exactly 1 and the unique optimal s is
    n*2^n - 1 = lcm(a) - 1 with the same objective value.
    """
    if n < 2:
        raise PreconditionViolated(f"tight family needs n >= 2, got {n}")
    rhs = n * 2**n - 1
    return MixInstance(1, [(2**i, n * 2**i, rhs) for i in range(1, n + 1)])


def _harmonic_periods(rng: random.Random, n: int, p_max: int) -> list[int]:
    chain = [rng.randint(1, max(1, p_max // 4)) if p_max >= 4 else 1]
    while len(chain) < n:
        factor = rng.choice([1, 2, 2, 3, 4])
        nxt = chain[-1] * factor
        chain.append(nxt if nxt <= p_max else chain[-1])
    rng.shuffle(chain)
    return chain


def random_system(
    seed: int,
    n: int,
    p_max: int,
    harmonic: bool = False,
    jitter_mode: str = "upto-p",
    require_schedulable: bool = False,
) -> TaskSystem:
    """Seeded random task system passing the higher-priority utilization gate.

    jitter_mode: "zero" or "upto-p".  With `require_schedulable` the total
    utilization is also forced <= 1 (needed e.g. for the sharper width
    bounds).  Raises GenerationFailed after a bounded number of rejections.
    """
    if jitter_mode not in ("zero", "upto-p"):
        raise InvalidInstance(f"unknown jitter_mode {jitter_mode!r}")
    if p_max < 1:
        raise InvalidInstance(f"p_max must be >= 1, got {p_max}")
    rng = random.Random(seed)
    for _ in range(_MAX_TRIES):
        periods = (
            _harmonic_periods(rng, n, p_max)
            if harmonic
            else [rng.randint(1, p_max) for _ in range(n)]
        )
        tasks = []
        for p in periods:
            # bias costs so the utilization gate is reachable for larger n
            c = rng.randint(1, max(1, (2 * p) // (n + 1)))
            jit = 0 if jitter_mode == "zero" else rng.randint(0, p)
            tasks.append(Task(c, p, jit, rng.randint(c, p)))
        ts = TaskSystem(tasks)
        if utilization(ts.tasks[:-1]) >= 1:
            continue
        if require_schedulable and utilization(ts) > 1:
            continue
        validate(ts)
        return ts
    raise GenerationFailed(
        f"no valid system within {_MAX_TRIES} draws (seed={seed}, n={n}, p_max={p_max})"
    )


def random_mix_instance(
    seed: int,
    n: int,
    a_max: int,
    b_lo: int = -512,
    b_hi: int = 512,
    w_max: int = 16,
    harmonic: bool = True,
) -> MixInstance:
    """Seeded random bounded mixing instance (weight utilization <= w0 = 1)."""
    if a_max < 1:
        raise InvalidInstance(f"a_max must be >= 1, got {a_max}")
    rng = random.Random(seed)
    for _ in range(_MAX_TRIES):
        if harmonic:
            caps = sorted(_harmonic_periods(rng, n, a_max))
        else:
            caps = [rng.randint(1, a_max) for _ in range(n)]
        terms = [
            # weight ceiling scaled to the capacity keeps the utilization
            # rejection step from starving at larger n
            (rng.randint(0, min(w_max, max(1, a // max(1, n)))), a, rng.randint(b_lo, b_hi))
            for a in caps
        ]
        load, m = load_at_lcm((w, a) for w, a, _ in terms)
        if load <= m:
            return MixInstance(1, terms)
    raise GenerationFailed(f"no bounded mixing instance within {_MAX_TRIES} draws (seed={seed})")


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

"""Solving mixing set instances through response-time computations.

The forward reduction decides "response(I, gamma) <= k" via
"Mix(I, k) <= k - gamma"; substituting k -> k' + gamma, gamma -> beta - k'
turns it around: for beta at or above the certified bound S on optimal s,

    Mix(I, beta) <= k   iff   response(I, beta - k) <= beta,

where the instance's capacities become periods, weights become costs, and
b_i - beta becomes the release jitter.  This module applies that identity:

* `solve_crowded` handles right-hand sides with lcm(a) <= b_i <= b_min + a_i,
  where the jitter encoding is immediate;
* `solve_general_via_shift` normalizes an arbitrary right-hand side into the
  crowded window by shifting each b_i up by a multiple of a_i (the objective
  shifts by a computable constant);
* `solve_constant_beta` is the all-equal right-hand-side special case: with
  b_i = beta >= lcm(a) the instance is crowded with zero jitter, so it is
  handed to `solve_crowded` as it is.

All of these fix w0 = 1 (rescaling would change the integrality of the dual
query) and reject anything else.  Each public function validates its
instance at entry, and `mix_leq_via_rtc` is the checked form of one
decision.  Inside a solve the instance and beta stay fixed, so the binary
search builds its pseudo-tasks once and probes without re-checking; only the
response query, whose bounds depend on the dual constant, is built per probe.
The queries are answered by `rta.compute_response`, the same algorithm
selector `rtmix rta compute --algorithm auto` uses; a probe reads the
query's own `UtilizationExceeded` (dual load >= 1) as "no response".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from . import mixing, rta
from .core import Task, TaskSystem, ceil_div, lcm_capped
from .errors import InternalInvariantViolated, PreconditionViolated, Unbounded, UtilizationExceeded


@dataclass(frozen=True)
class ShiftRecord:
    """Normalization data: b'_i = b_i + offset_i * a_i lands in [m, m + a_i]."""

    m: int
    offsets: tuple[int, ...]
    objective_correction: int


def _validate(inst: mixing.MixInstance) -> None:
    if inst.w0 != 1:
        raise PreconditionViolated(
            f"reverse reductions require w0 = 1, got {inst.w0!r} (rescaling would "
            "change the integrality of the dual query)"
        )
    mixing.validate(inst)


def _pseudo_tasks(inst: mixing.MixInstance, beta: int) -> tuple[Task, ...]:
    """Tasks (c=w_i, p=a_i, jitter=b_i - beta) for the positive-weight terms.

    Zero-weight terms never contribute to the objective and their constraints
    are met by the canonical completion, so they are dropped from the query.
    """
    kept = []
    for idx, t in enumerate(inst.terms):
        jit = t.b - beta
        if not 0 <= jit <= t.a:
            raise PreconditionViolated(
                f"term {idx}: jitter encoding needs 0 <= b - beta <= a, got {jit}"
            )
        if t.w > 0:
            kept.append(Task(t.w, t.a, jit))
    return tuple(kept)


def _response_leq(tasks: tuple[Task, ...], beta: int, gamma: int) -> tuple[bool, int | None]:
    """Decide whether the dual response of `tasks` at `gamma` is <= beta,
    returning the response value when it exists.

    At weight utilization 1 no t is feasible, so there is no response: with
    jitter_i >= 0 the workload is at least
    gamma + sum c_i*(t + jitter_i)/p_i >= gamma + t > t.
    """
    try:
        q = rta.ResponseQuery(TaskSystem(tasks), range(len(tasks)), gamma)
    except UtilizationExceeded:
        return False, None
    r = rta.compute_response(q)
    return r <= beta, r


def mix_leq_via_rtc(inst: mixing.MixInstance, beta: int, k: int) -> bool:
    """Decide Mix(I, beta) <= k by computing response(I, beta - k) and
    comparing with beta.  Requires the jitter encoding 0 <= b_i - beta <= a_i,
    beta at or above the certified s bound, and beta - k >= 1."""
    _validate(inst)
    if beta - k < 1:
        raise PreconditionViolated(f"need beta - k >= 1, got beta={beta}, k={k}")
    if beta < mixing.certified_s_bound(inst):
        raise PreconditionViolated(
            f"beta={beta} is below the certified bound on optimal s"
        )
    verdict, _ = _response_leq(_pseudo_tasks(inst, beta), beta, beta - k)
    return verdict


def _witness(inst: mixing.MixInstance, s: int, expect: int) -> mixing.MixSolution:
    sol = mixing.complete(s, inst)
    if sol.objective != expect:
        raise InternalInvariantViolated(
            f"witness at s={s} has objective {sol.objective}, expected {expect}"
        )
    return sol


def _least_k(inst: mixing.MixInstance, beta: int) -> mixing.MixSolution:
    """The least k <= beta - 1 with Mix(I, beta) <= k, by binary search over
    the decision of `mix_leq_via_rtc`, and its witness s = beta - response(I,
    beta - k).  The caller has checked the instance, beta, and k = beta - 1;
    every probe k <= beta - 1 keeps the dual constant >= 1."""
    tasks = _pseudo_tasks(inst, beta)

    def leq(k: int) -> bool:
        return _response_leq(tasks, beta, beta - k)[0]

    k = bisect.bisect_left(range(beta - 1), True, key=leq)
    _, r = _response_leq(tasks, beta, beta - k)
    return _witness(inst, beta - r, k)


def solve_crowded(inst: mixing.MixInstance) -> mixing.MixSolution:
    """Optimum for crowded right-hand sides: lcm(a) <= b_i <= b_min + a_i.

    Sets beta = b_min, jitter_i = b_i - beta, then binary-searches the least
    k with response(I, beta - k) <= beta.  Probes are limited to k <= beta - 1
    (the dual constant must stay >= 1); when even beta - 1 fails, the optimum
    lies in [beta, b_max].  It maximizes the dual objective
    t - sum w_i*ceil((t + jitter_i)/a_i) over one capacity period, which the
    shift identity pins to (beta - m, beta]; with s = beta - t that is the
    mixing objective over s < min(m, beta), which the brute-force solver
    minimizes at its drop points (the smallest optimal s on ties).
    """
    _validate(inst)
    if mixing.is_unbounded(inst):
        raise Unbounded("weight utilization exceeds 1")
    if not inst.terms:
        return mixing.complete(0, inst)
    m = lcm_capped(inst.capacities())
    b_min = min(t.b for t in inst.terms)
    b_max = max(t.b for t in inst.terms)
    for idx, t in enumerate(inst.terms):
        if not m <= t.b <= b_min + t.a:
            raise PreconditionViolated(
                f"term {idx}: crowded right-hand side needs lcm <= b <= b_min + a"
            )
    beta = b_min
    if mix_leq_via_rtc(inst, beta, beta - 1):
        return _least_k(inst, beta)
    # optimum in [beta, b_max]: minimize over the s = beta - t of one capacity period
    sol = mixing.solve_bruteforce(inst, s_bound=min(m - 1, beta - 1))
    if not beta <= sol.objective <= b_max:
        raise InternalInvariantViolated(
            f"crowded fallback produced optimum {sol.objective} outside [beta, b_max]"
        )
    return sol


def solve_general_via_shift(inst: mixing.MixInstance) -> mixing.MixSolution:
    """Arbitrary right-hand sides: shift each b_i up to the crowded window
    [m, m + a_i], solve the crowded instance, and subtract the shift cost."""
    _validate(inst)
    if mixing.is_unbounded(inst):
        raise Unbounded("weight utilization exceeds 1")
    if not inst.terms:
        return mixing.complete(0, inst)
    rec = shift_record(inst)
    terms = [(t.w, t.a, t.b + off * t.a) for t, off in zip(inst.terms, rec.offsets)]
    crowded = solve_crowded(mixing.MixInstance(1, terms))
    return _witness(inst, crowded.s, crowded.objective - rec.objective_correction)


def shift_record(inst: mixing.MixInstance) -> ShiftRecord:
    """Offsets ceil((m - b_i)/a_i) and the objective correction they cost."""
    m = lcm_capped(inst.capacities())
    offsets = tuple(ceil_div(m - t.b, t.a) for t in inst.terms)
    for t, off in zip(inst.terms, offsets):
        shifted = t.b + off * t.a
        if not m <= shifted <= m + t.a:
            raise InternalInvariantViolated(
                f"shifted right-hand side {shifted} escaped [m, m + a]"
            )
    correction = sum(t.w * off for t, off in zip(inst.terms, offsets))
    return ShiftRecord(m, offsets, correction)


def solve_constant_beta(inst: mixing.MixInstance, beta: int) -> mixing.MixSolution:
    """All right-hand sides equal to beta >= lcm(a) (on a divisibility chain,
    lcm(a) = a_max): a crowded instance whose every jitter b_i - beta is 0,
    solved by `solve_crowded`, which checks the window.
    """
    _validate(inst)
    if any(t.b != beta for t in inst.terms):
        raise PreconditionViolated("constant-beta path requires every b_i == beta")
    return solve_crowded(inst)

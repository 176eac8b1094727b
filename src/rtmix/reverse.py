"""Solving mixing set instances through response times.

The forward reduction decides "response(I, gamma) <= k" via
"Mix(I, k) <= k - gamma"; substituting k -> k' + gamma, gamma -> beta - k'
turns it around: for beta at or above the certified bound S on optimal s,

    Mix(I, beta) <= k   iff   response(I, beta - k) <= beta,

where the instance's capacities become periods, weights become costs, and
b_i - beta becomes the release jitter.  `solve_general_via_shift`, the one
solver here, applies that identity to any bounded instance: it shifts each
b_i by a multiple of a_i into the crowded window [m, m + a_i], m = lcm(a)
(`shift_record`, which checks the window), where beta = b_min gives jitter
0 <= b_i - beta <= a_i, hands the shifted instance, with the same w and a,
straight to the crowded search (`_solve_crowded`), and shifts the objective
back by a computable constant.  Each public function but `shift_record`
validates its instance at entry and fixes w0 = 1 (rescaling would change
the integrality of the dual query); `mix_leq_via_rtc` is the checked form of
one decision, which the crowded search takes first at k = beta - 1; its
`mixing.certified_s_bound` raises Unbounded when sum w_i/a_i > 1, for the
original instance too, since the shift keeps w and a.  Inside
a solve the instance and beta stay fixed, so the search builds one response
query and derives each probe's, at dual constant beta - k, from it
(`rta.ResponseQuery.at`), sharing its mixing form.  The query's load
aggregate brackets every response (Sjodin and Hansson, RTSS 1998), which
leaves at most sum w_i + 1 values of k to bisect, and each probe starts from
a certified lower bound derived from the response above it.  The search
keeps each probe's response for the least k's witness s = beta - response,
which the solver completes and checks once, against the original instance.
The queries are answered by `rta.compute_response`, the same algorithm
selector `rtmix rta compute --algorithm auto` uses; the decision reads the
query's own `UtilizationExceeded` (dual load >= 1) as "no response".

The lcm m, beta and the shifted right-hand sides are uncapped: only the
certified S meets the magnitude cap (`core.certified_s`), and S bounds each
probe's search and the fallback's scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import mixing, rta
from .core import Task, TaskSystem, ceil_div
from .errors import InternalInvariantViolated, PreconditionViolated, UtilizationExceeded


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


def _dual_query(inst: mixing.MixInstance, beta: int, gamma: int) -> rta.ResponseQuery:
    """The response query at dual constant gamma of the pseudo-tasks
    (c=w_i, p=a_i, jitter=b_i - beta) of the positive-weight terms.

    Zero-weight terms never contribute to the objective and their constraints
    are met by the canonical completion, so they are dropped from the query.
    Raises UtilizationExceeded at dual load >= 1, where no t is feasible, so
    there is no response: with jitter_i >= 0 the workload is at least
    gamma + sum c_i*(t + jitter_i)/p_i >= gamma + t > t.
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
    return rta.ResponseQuery(TaskSystem(kept), range(len(kept)), gamma)


def mix_leq_via_rtc(inst: mixing.MixInstance, beta: int, k: int) -> bool:
    """Decide Mix(I, beta) <= k by computing response(I, beta - k) and
    comparing with beta.  Requires the jitter encoding 0 <= b_i - beta <= a_i,
    beta at or above the certified s bound, and beta - k >= 1.  Raises
    Unbounded when sum w_i/a_i > 1 (`mixing.certified_s_bound`)."""
    _validate(inst)
    if beta - k < 1:
        raise PreconditionViolated(f"need beta - k >= 1, got beta={beta}, k={k}")
    if beta < mixing.certified_s_bound(inst):
        raise PreconditionViolated(
            f"beta={beta} is below the certified bound on optimal s"
        )
    try:
        q = _dual_query(inst, beta, beta - k)
    except UtilizationExceeded:
        return False
    return rta.compute_response(q) <= beta


def solve_general_via_shift(inst: mixing.MixInstance) -> mixing.MixSolution:
    """Optimum of any bounded instance: shift each b_i by a multiple of
    a_i into the crowded window [m, m + a_i] (`shift_record`), solve the
    crowded instance (`_solve_crowded`), and subtract the shift's cost.
    With x'_i = x_i + offset_i the shifted objective at s is the original's
    plus the correction, so the optimal s is the same and the completion is
    checked once, against the original instance.  The crowded search's
    first probe raises Unbounded for an unbounded instance."""
    _validate(inst)
    if not inst.terms:
        return mixing.complete(0, inst)
    rec = shift_record(inst)
    terms = [(t.w, t.a, t.b + off * t.a) for t, off in zip(inst.terms, rec.offsets)]
    s, objective = _solve_crowded(mixing.MixInstance(1, terms))
    objective -= rec.objective_correction
    sol = mixing.complete(s, inst)
    if sol.objective != objective:
        raise InternalInvariantViolated(
            f"witness at s={s} has objective {sol.objective}, expected {objective}"
        )
    return sol


def _solve_crowded(inst: mixing.MixInstance) -> tuple[int, int]:
    """(s, objective) of an optimum of a valid, bounded, nonempty instance
    whose right-hand sides are crowded: m <= b_i <= b_min + a_i, m = lcm(a),
    as `shift_record` places them.

    Sets beta = b_min, jitter_i = b_i - beta, then binary-searches the least
    k with response(I, beta - k) <= beta.  Probes are limited to k <= beta - 1
    (the dual constant must stay >= 1); when even beta - 1 fails, the optimum
    lies in [beta, b_max].  Otherwise the dual query's load aggregate
    (D = m - L, jitter load J, cost sum C) bounds the least k: with
    top = floor((beta*D - J)/m), each dual constant g > top has
    ell(g) > beta and each g <= top - C has u1(g) <= beta, so only
    [beta - top, beta - max(1, top - C)], at most C + 1 values, is bisected.
    A probe below the least known yes k' starts from r(k') + (k' - k), a
    lower bound since r(g) - g, the interference at r(g), never falls as g grows.
    The search maximizes the dual objective t - sum w_i*ceil((t + jitter_i)/a_i)
    over one capacity period, which the shift identity pins to
    (beta - m, beta]; with s = beta - t that is the mixing objective over
    s < min(m, beta) = m.  The fallback's brute-force range [0, S] lies inside
    it (S <= m - 1) and holds an optimal s, so its smallest optimal s is the
    answer.
    """
    beta = min(t.b for t in inst.terms)
    if mix_leq_via_rtc(inst, beta, beta - 1):
        # k = beta - 1 holds (so the dual load is below 1 and 1 <= top <= beta);
        # bisected in integers since beta may pass sys.maxsize
        q = _dual_query(inst, beta, 1)
        b = q.bounds
        top = (beta * (b.m - b.load) - b.jitter_load) // b.m
        lo, hi = beta - top, beta - max(1, top - b.cost_sum)
        responses = {}
        while lo < hi:
            k = (lo + hi) // 2
            lower = responses[hi] + (hi - k) if hi in responses else 0
            responses[k] = rta.compute_response(q.at(beta - k, lower))
            if responses[k] <= beta:
                hi = k
            else:
                lo = k + 1
        if lo not in responses:  # the window's upper end, a yes by the bounds
            responses[lo] = rta.compute_response(q.at(beta - lo))
        return beta - responses[lo], lo
    # optimum in [beta, b_max], at some s = beta - t <= S <= m - 1 <= beta - 1
    sol = mixing.solve_bruteforce(inst)
    if not beta <= sol.objective <= max(t.b for t in inst.terms):
        raise InternalInvariantViolated(
            f"crowded fallback produced optimum {sol.objective} outside [beta, b_max]"
        )
    return sol.s, sol.objective


def shift_record(inst: mixing.MixInstance) -> ShiftRecord:
    """Offsets ceil((m - b_i)/a_i) and the objective correction they cost,
    for a valid instance.  Each shifted b'_i lies in [m, m + a_i], so
    m <= b'_min and the shifted instance is crowded: b'_i <= b'_min + a_i."""
    m = math.lcm(*inst.capacities())
    offsets = tuple(ceil_div(m - t.b, t.a) for t in inst.terms)
    for t, off in zip(inst.terms, offsets):
        shifted = t.b + off * t.a
        if not m <= shifted <= m + t.a:
            raise InternalInvariantViolated(
                f"shifted right-hand side {shifted} escaped [m, m + a]"
            )
    correction = sum(t.w * off for t, off in zip(inst.terms, offsets))
    return ShiftRecord(m, offsets, correction)

"""Solving mixing set instances through response times.

The forward reduction decides "response(I, gamma) <= k" via
"Mix(I, k) <= k - gamma"; substituting k -> k' + gamma, gamma -> beta - k'
turns it around: for beta at or above the certified bound S on optimal s,

    Mix(I, beta) <= k   iff   response(I, beta - k) <= beta,

where the instance's capacities become periods, weights become costs, and
b_i - beta becomes the release jitter.  `solve_general_via_shift`, the one
solver here, applies that identity to any bounded instance.  The instance
checked its validity when it was built (`mixing.MixInstance`), so the solver
checks only what this reduction adds, once, at entry: w0 = 1 (rescaling
would change the integrality of the dual query), then
`mixing.certified_s_bound`, which raises Unbounded when sum w_i/a_i > 1.
It shifts each b_i by a multiple of a_i into the
crowded window [m, m + a_i], m = lcm(a), where beta = b_min gives jitter
0 <= b_i - beta <= a_i (`shift_record`, whose one pass checks the window and
returns the shifted right-hand sides and the objective correction they
cost), hands them as they are, with the same w and a, to the crowded search
(`_solve_crowded`), and subtracts the correction from its objective.
The search builds one dual query and derives each probe's, at dual constant
beta - k, from it (`rta.ResponseQuery.at`), sharing its mixing form.  The
query's load aggregate brackets every response (Sjodin and Hansson, RTSS
1998): it decides the first probe in most solves and leaves at most
sum w_i + 1 values of k, which `core.bracket` bisects, each probe's response
narrowing them from both sides.  The least k's witness s = beta - response
is completed and checked once, against the original instance.
`mix_leq_via_rtc` is the checked form of one decision, which the search
calls only where the bounds leave its first probe open.  Queries are
answered by `rta.compute_response`, the selector `rtmix rta compute
--algorithm auto` uses; a dual load >= 1 (the query's own
`UtilizationExceeded`) reads as "no response".

The lcm m, beta and the shifted right-hand sides are uncapped: only the
certified S meets the magnitude cap (`core.certified_s`), and S bounds each
probe's search and the fallback's scan.
"""

from __future__ import annotations

import math

from . import core, mixing, rta
from .core import Task, ceil_div, require_integers
from .errors import InternalInvariantViolated, PreconditionViolated, UtilizationExceeded


def _validate(inst: mixing.MixInstance) -> None:
    """The w0 = 1 rule, the one check a valid instance can still fail here."""
    if inst.w0 != 1:
        raise PreconditionViolated(
            f"reverse reductions require w0 = 1, got {inst.w0!r} (rescaling would "
            "change the integrality of the dual query)"
        )


def _dual_query(terms: tuple[mixing.MixTerm, ...], bs: list[int], beta: int,
                gamma: int) -> rta.ResponseQuery | None:
    """The response query at dual constant gamma of the pseudo-tasks
    (c=w_i, p=a_i, jitter=b_i - beta) of the positive-weight terms at
    right-hand sides bs; zero-weight terms never move the objective, and the
    canonical completion meets their constraints.  None at dual load >= 1,
    where there is no response: with jitter_i >= 0 the workload is at least
    gamma + sum c_i*(t + jitter_i)/p_i >= gamma + t > t."""
    kept = []
    for idx, (t, b) in enumerate(zip(terms, bs)):
        jit = b - beta
        if not 0 <= jit <= t.a:
            raise PreconditionViolated(
                f"term {idx}: jitter encoding needs 0 <= b - beta <= a, got {jit}"
            )
        if t.w > 0:
            kept.append(Task(t.w, t.a, jit))
    try:
        return rta.ResponseQuery(kept, gamma)
    except UtilizationExceeded:
        return None


def mix_leq_via_rtc(inst: mixing.MixInstance, beta: int, k: int) -> bool:
    """Decide Mix(I, beta) <= k by computing response(I, beta - k) and
    comparing with beta.  Requires the jitter encoding 0 <= b_i - beta <= a_i,
    beta at or above the certified s bound, and beta - k >= 1.  Raises
    Unbounded when sum w_i/a_i > 1 (`mixing.certified_s_bound`)."""
    _validate(inst)
    require_integers(beta=beta, k=k)
    if beta - k < 1:
        raise PreconditionViolated(f"need beta - k >= 1, got beta={beta}, k={k}")
    if beta < mixing.certified_s_bound(inst):
        raise PreconditionViolated(f"beta={beta} is below the certified bound on optimal s")
    q = _dual_query(inst.terms, [t.b for t in inst.terms], beta, beta - k)
    return q is not None and rta.compute_response(q) <= beta


def solve_general_via_shift(inst: mixing.MixInstance) -> mixing.MixSolution:
    """Optimum of any bounded instance: shift each b_i by a multiple of
    a_i into the crowded window [m, m + a_i] (`shift_record`), solve the
    shifted right-hand sides as they are (`_solve_crowded`), and subtract the
    correction they cost.  With x'_i = x_i + offset_i the shifted objective
    at s is the original's plus the correction, so the optimal s is the same
    and the completion is checked once, against the original instance.  Its
    one `certified_s_bound` (Unbounded, then OverflowLimit) holds for the
    shifted instance too, since the shift keeps w and a."""
    _validate(inst)
    mixing.certified_s_bound(inst)
    if not inst.terms:
        return mixing.complete(0, inst)
    bs, correction = shift_record(inst)
    s, objective = _solve_crowded(inst.terms, bs)
    sol = mixing.complete(s, inst)
    if sol.objective != objective - correction:
        raise InternalInvariantViolated(f"witness at s={s} has objective {sol.objective}, "
                                        f"expected {objective - correction}")
    return sol


def _solve_crowded(terms: tuple[mixing.MixTerm, ...], bs: list[int]) -> tuple[int, int]:
    """(s, objective) of an optimum of the terms' weights and capacities at
    right-hand sides bs, for a checked, bounded, nonempty instance that bs
    crowd: m <= b_i <= b_min + a_i, m = lcm(a), as `shift_record` places them.

    Sets beta = b_min, jitter_i = b_i - beta, builds one dual query at
    gamma = 1 and searches the least k with r(beta - k) <= beta, r the
    response, each probe's query derived from that one.  Its load aggregate
    (D = m - L, jitter load J, cost sum C) brackets every response: with
    top = floor((beta*D - J)/m), each dual constant g > top has ell(g) > beta
    and each g <= top - C has u1(g) <= beta.  So it decides the first probe,
    k = beta - 1 (the dual constant stays >= 1): a yes when top - C >= 1, a
    no when top < 1 or at dual load >= 1; only in between does the checked
    `mix_leq_via_rtc` compute it.  After a yes, `core.bracket` searches the
    least k in [beta - top, beta - max(1, top - C)], at most C + 1 values,
    and each probe's response r narrows them from both sides:
    f(t) = t - sum w_i*ceil((t + jitter_i)/a_i) rises by at most 1 per unit
    of t, the least k is beta - max_{t <= beta} f(t), and f(r) = g since
    W(r) = r, while f(t) < g for t < r.  So a yes (r <= beta) puts the least
    k in [k - (beta - r), k], and a no in [k + 1, k + (r - beta)].  A probe
    below the least yes k' starts from r(k') + (k' - k), a lower bound since
    r(g) - g, the interference at r(g), never falls as g grows.  The least
    k's witness is s = beta - r, probed once more when the window alone
    settles that k.  When k = beta - 1 fails, the optimum lies in [beta,
    b_max], at s < min(m, beta) = m by the shift identity; the fallback's
    brute-force range [0, S] lies inside it (S <= m - 1) and holds an
    optimal s, so its smallest optimal s is the answer.
    """
    beta = min(bs)
    q = _dual_query(terms, bs, beta, 1)
    top = cost_sum = 0
    if q is not None:
        b = q.bounds
        top, cost_sum = (beta * (b.m - b.load) - b.jitter_load) // b.m, b.cost_sum
    if top - cost_sum < 1:  # the bounds do not decide k = beta - 1 a yes
        crowded = mixing.MixInstance(1, [(t.w, t.a, rhs) for t, rhs in zip(terms, bs)])
        if top < 1 or not mix_leq_via_rtc(crowded, beta, beta - 1):
            sol = mixing.solve_bruteforce(crowded)
            if not beta <= sol.objective <= max(bs):
                raise InternalInvariantViolated("crowded fallback produced optimum "
                                                f"{sol.objective} outside [beta, b_max]")
            return sol.s, sol.objective
    ky = ry = None  # the least k probed with a yes, and its response

    def probe(k: int, lo: int, hi: int) -> tuple[int, int]:
        nonlocal ky, ry
        r = rta.compute_response(q.at(beta - k, 0 if ky is None else ry + ky - k))
        if r > beta:
            return k + 1, min(hi, k + (r - beta))
        ky, ry = k, r
        return max(lo, k - (beta - r)), k

    # in integers, since beta may pass sys.maxsize
    least = core.bracket(beta - top, beta - max(1, top - cost_sum), probe)
    if ky != least:  # the window alone settled it: one probe there gives the witness
        core.bracket(*probe(least, least, least), probe)
    return beta - ry, least


def shift_record(inst: mixing.MixInstance) -> tuple[list[int], int]:
    """The shifted right-hand sides b'_i = b_i + offset_i * a_i, with
    offset_i = ceil((m - b_i)/a_i), m = lcm(a), and the objective correction
    sum w_i * offset_i they cost, for a valid instance.  Each b'_i is checked
    to lie in [m, m + a_i], so m <= b'_min and the shifted instance is
    crowded: b'_i <= b'_min + a_i."""
    m = math.lcm(*inst.capacities())
    bs, correction = [], 0
    for t in inst.terms:
        offset = ceil_div(m - t.b, t.a)
        shifted = t.b + offset * t.a
        if not m <= shifted <= m + t.a:
            raise InternalInvariantViolated(f"shifted right-hand side {shifted} "
                                            "escaped [m, m + a]")
        bs.append(shifted)
        correction += t.w * offset
    return bs, correction

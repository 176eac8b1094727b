"""The mixing set program: min w0*s + sum w_i*x_i  s.t.  s + a_i*x_i >= b_i.

Here s ranges over nonnegative integers and x over all integers; capacities
a_i are positive, weights nonnegative, right-hand sides arbitrary (negative
b_i arise from the shift normalization in `reverse`).  For a fixed s the
pointwise-minimal completion x_i(s) = ceil((b_i - s)/a_i) is optimal, so the
whole problem is a one-dimensional search over s.

Two exact solvers are provided:

* `solve_bruteforce` searches s up to a certified bound, visiting only s = 0
  and the points where some term's ceiling drops - the correctness oracle
  for everything else.
* `solve_harmonic` exploits a divisibility chain among the capacities: the
  objective shifts by a*(w0 - sum_{a_j <= a} w_j/a_j) >= 0 under s -> s + a,
  so the search narrows to one capacity-period per level and only splits at
  the level's own breakpoints, carrying the objective down so that a leaf
  costs O(1), and skips every window whose lower bound reaches the best
  objective found.

`solve` is the one selector between them: the chain search when the
capacities form a divisibility chain, the scan otherwise.  `rta`'s decision
probes and `reverse`'s fallback call it and pick no solver themselves; the
two named solvers stay as explicit algorithms (`mix solve --algorithm`) and
as each other's oracle.

Every solver returns the solution with the smallest optimal s, and every
returned completion is feasibility-checked before it leaves the module.

A `MixInstance` checks itself when it is built (`validate`, called by its
constructor, so `dataclasses.replace` checks too), and nothing checks its
validity again.  Both solvers search one compiled form, a `MixForm`:
`compile_mix` decides boundedness and certifies S in one pass
(`certified_s_bound`, which raises Unbounded, then OverflowLimit when S
passes the magnitude cap 2**63 - 1; the lcm itself is uncapped), notes
whether the capacities form a divisibility chain, and groups the
positive-weight terms by capacity.  A solver given a `MixInstance` compiles it, searches it once
and checks its completion.  A solver given a form searches it with no check
repeated and reports s and the objective only: `rta` compiles one form per
response query, terms (c_i, p_i, jitter_i), and every decision probe
searches it at right-hand sides k + jitter_i (`MixForm.at`), the harmonic
walk its levels with capacity below k.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from . import counters
from .core import ceil_div, certified_s, is_chain, is_integer, require_integers
from .errors import (
    InternalInvariantViolated,
    InvalidInstance,
    PreconditionViolated,
    Unbounded,
)


@dataclass(frozen=True)
class MixTerm:
    w: int  # objective weight of x_i
    a: int  # capacity
    b: int  # right-hand side


@dataclass(frozen=True)
class MixInstance:
    """A mixing set instance, checked by `validate` when it is built."""

    w0: int
    terms: tuple[MixTerm, ...]

    def __init__(self, w0: int, terms: Iterable[MixTerm | tuple]):
        object.__setattr__(self, "w0", w0)
        object.__setattr__(
            self,
            "terms",
            tuple(t if isinstance(t, MixTerm) else MixTerm(*t) for t in terms),
        )
        validate(self)

    def capacities(self) -> tuple[int, ...]:
        return tuple(t.a for t in self.terms)


@dataclass(frozen=True)
class MixSolution:
    s: int
    x: tuple[int, ...]  # empty when a solver searched a compiled form
    objective: int


def validate(inst: MixInstance) -> None:
    """Reject a w0 or a term field that is not an integer, w0 < 0, a
    capacity below 1 and a negative weight; run by `MixInstance` itself."""
    if not is_integer(inst.w0) or inst.w0 < 0:
        raise InvalidInstance(f"w0 must be a nonnegative integer, got {inst.w0!r}")
    for idx, t in enumerate(inst.terms):
        if not (is_integer(t.w) and is_integer(t.a) and is_integer(t.b)):
            raise InvalidInstance(f"term {idx}: w, a, b must be integers")
        if t.a < 1:
            raise InvalidInstance(f"term {idx}: capacity must satisfy a >= 1, got {t.a}")
        if t.w < 0:
            raise InvalidInstance(f"term {idx}: weight must be nonnegative, got {t.w}")


def complete(s: int, inst: MixInstance) -> MixSolution:
    """Canonical completion of s: x_i = ceil((b_i - s)/a_i), pointwise minimal."""
    require_integers(s=s)
    if s < 0:
        raise PreconditionViolated(f"s must be nonnegative, got {s}")
    x = tuple(ceil_div(t.b - s, t.a) for t in inst.terms)
    obj = inst.w0 * s + sum(t.w * xi for t, xi in zip(inst.terms, x))
    return MixSolution(s, x, obj)


def certified_s_bound(inst: MixInstance) -> int:
    """An integer S with some optimal s <= S; the one boundedness decision.

    One integer pass at the lcm m computes the slack w0*m - sum w_i*(m/a_i).
    A negative slack (sum w_i/a_i > w0) raises Unbounded: pushing s up one
    lcm then pays for itself.  Otherwise S is lcm(a) - 1, and also at most
    ceil(sum w_i / (w0 - sum w_i/a_i)) when the slack is positive, below
    which shifting s down by that amount strictly improves the objective
    (`core.certified_s`, which then raises OverflowLimit when S passes the
    magnitude cap 2**63 - 1).
    """
    m = math.lcm(*(t.a for t in inst.terms))
    load = weight_sum = 0
    for t in inst.terms:
        load += t.w * (m // t.a)
        weight_sum += t.w
    slack = inst.w0 * m - load
    if slack < 0:
        raise Unbounded("sum w_i/a_i exceeds w0")
    return certified_s(weight_sum, m, slack)


@dataclass(frozen=True)
class MixForm:
    """A mixing instance checked and sorted once by `compile_mix`, which
    both solvers search.

    `levels` lists the distinct capacities of the positive-weight terms in
    ascending order, and `groups[l]` holds the (w, offset) pairs of the
    terms at level l; a term's right-hand side is b = base + offset.  Zero-
    weight terms never move the objective and are left out.  `chain` tells
    whether all capacities form a divisibility chain, and `s_bound` is the
    certified S (`certified_s_bound`), which no right-hand side enters.  On
    a chain, `loads[l]` = sum_{j <= l} w_j*(a_l/a_j) and `offset_loads[l]` =
    sum_{j <= l} w_j*(a_l/a_j)*offset_j over the terms of levels up to l
    feed `_search`'s bound; both are empty off a chain, and neither reads a
    level above l.  Dropping terms shrinks both the lcm and the utilization
    bound, so a prefix of levels stays bounded and keeps S certified: one
    compiled form serves every instance that keeps some of its lowest
    levels and moves all right-hand sides by one constant (`at`), without
    checking anything again.
    """

    w0: int
    levels: tuple[int, ...]
    groups: tuple[tuple[tuple[int, int], ...], ...]
    chain: bool
    s_bound: int
    loads: tuple[int, ...]
    offset_loads: tuple[int, ...]
    base: int = 0

    def at(self, base: int, below: int | None = None) -> MixForm:
        """The levels with capacity below `below` (all of them when None),
        with right-hand sides base + offset."""
        depth = None if below is None else bisect.bisect_left(self.levels, below)
        return MixForm(self.w0, self.levels[:depth], self.groups[:depth], self.chain,
                       self.s_bound, self.loads[:depth], self.offset_loads[:depth], base)


def compile_mix(inst: MixInstance) -> MixForm:
    """Check an instance's boundedness and S once, in one pass
    (`certified_s_bound`; the instance checked its validity when it was
    built), note whether its capacities form a divisibility chain, group its
    positive-weight terms by capacity and, on a chain, sum their loads level
    by level."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for t in inst.terms:
        if t.w:
            groups.setdefault(t.a, []).append((t.w, t.b))
    levels = tuple(sorted(groups))
    chain = is_chain(inst.capacities())
    loads, offset_loads = [], []
    load = offset_load = 0
    below = 1
    for a in levels if chain else ():
        load = load * (a // below) + sum(w for w, _ in groups[a])
        offset_load = offset_load * (a // below) + sum(w * off for w, off in groups[a])
        loads.append(load)
        offset_loads.append(offset_load)
        below = a
    return MixForm(inst.w0, levels, tuple(tuple(groups[a]) for a in levels), chain,
                   certified_s_bound(inst), tuple(loads), tuple(offset_loads))


def _solve(inst: MixInstance | MixForm, search) -> MixSolution:
    """Run `search` on a compiled form.  A `MixInstance` is compiled
    (boundedness and S), searched once, and its completion is checked for
    feasibility and against the search's objective.  A compiled form was
    checked when it was compiled and is only searched: its solution reports
    s and the objective, and leaves x empty."""
    if isinstance(inst, MixForm):
        s, obj = search(inst)
        return MixSolution(s, (), obj)
    s, obj = search(compile_mix(inst))
    sol = complete(s, inst)
    for t, xi in zip(inst.terms, sol.x):
        if sol.s + t.a * xi < t.b:
            raise InternalInvariantViolated(
                f"solver produced an infeasible completion at s={sol.s}"
            )
    if sol.objective != obj:
        raise InternalInvariantViolated(
            f"the search carried objective {obj} to s={s}, completion gives {sol.objective}"
        )
    return sol


def _scan(form: MixForm) -> tuple[int, int]:
    """The smallest optimal s in [0, S] and its objective."""
    w0, base, hi = form.w0, form.base, form.s_bound
    terms = [(w, a, base + off) for a, group in zip(form.levels, form.groups) for w, off in group]
    counters.bump("mixing_calls")
    # least s >= 1 with s = b (mod a), then every a-th s up to hi
    drops = [(range((b - 1) % a + 1, hi + 1, a), w) for w, a, b in terms]
    counters.bump("mixing_ops", len(terms) + 1 + sum(len(r) for r, _ in drops))
    best_s = prev = 0
    best_obj = obj = sum(w * ceil_div(b, a) for w, a, b in terms)
    for s, w in heapq.merge(*(zip(r, repeat(w)) for r, w in drops)):
        if s != prev:  # obj is complete at prev: every drop there is taken
            if obj < best_obj:
                best_s, best_obj = prev, obj
            obj += w0 * (s - prev)
            prev = s
        obj -= w
    if obj < best_obj:
        best_s, best_obj = prev, obj
    return best_s, best_obj


def solve_bruteforce(inst: MixInstance | MixForm) -> MixSolution:
    """Global optimum over s = 0 .. S, the certified S; smallest optimal s
    wins ties.

    From s - 1 to s the objective rises by w0 and falls by w_i for every term
    with s = b_i (mod a_i), so a minimum lies at s = 0 or at one of these drop
    points.  Only those are visited: each weighted term's drop points form an
    arithmetic progression, the progressions are merged lazily (O(n) memory),
    and the objective is carried along as a running sum.
    """
    return _solve(inst, _scan)


def _search(form: MixForm) -> tuple[int, int]:
    """The smallest optimal s of a compiled form over a divisibility chain,
    and its objective.

    Works top-down over the levels (largest capacity first) on windows
    [L, R).  Invariants: every term above the current level is constant on
    the window, and boundedness gives w0 >= sum_{a_j <= a} w_j/a_j, so
    s -> s + a never improves the objective and the window narrows to
    [L, L + a).  Splitting at the level's own breakpoints (where its
    ceilings drop) restores the invariant one level down.  Each node carries
    the constant part of the objective down: it adds its level's terms at
    the left end of each piece, less the weights dropped at the cuts before
    it.  At the bottom the objective is w0*s plus that sum, so the left end
    wins and a leaf costs O(1).  Leaves are visited left to right, so ties
    resolve to the smallest s.

    A window is skipped once a lower bound on its objective reaches the
    best one found: with P_l = sum_{j <= l} w_j*(a_l/a_j) and
    Q_l = sum_{j <= l} w_j*(a_l/a_j)*b_j over the terms of levels up to l,
    every s >= L in a window of level l costs at least
    acc + w0*L + ceil((Q_l - L*P_l)/a_l), acc the terms above l, since
    ceil(x) >= x, every lower capacity divides a_l and boundedness gives
    w0*a_l >= P_l.  P_l is the form's `loads[l]` and Q_l = base*P_l +
    `offset_loads[l]`, both summed once, when the form is compiled.  A skipped
    window costs one `mixing_ops` unit; it holds no s below the best one's
    objective, and none of equal objective left of it, so the answer stays
    the smallest optimal s.
    """
    if not form.chain:
        raise PreconditionViolated("capacities do not form a divisibility chain")
    w0, levels, groups, base = form.w0, form.levels, form.groups, form.base
    counters.bump("mixing_calls")
    if not levels:
        return 0, 0
    loads, offset_loads = form.loads, form.offset_loads
    ops = 0
    best_s = best_obj = None
    stack = [(0, levels[-1], len(levels) - 1, 0)]
    while stack:
        left, right, li, acc = stack.pop()
        a = levels[li]
        if best_obj is not None and best_obj <= acc + w0 * left - (
                (left - base) * loads[li] - offset_loads[li]) // a:
            ops += 1  # the window's lower bound reaches the best objective
            continue
        right = min(right, left + a)
        group = groups[li]
        cuts = []
        for w, off in group:
            gap = base + off - left
            acc -= w * (-gap // a)  # adds w*ceil((b - left)/a)
            d = left + gap % a      # where this term's ceiling next drops
            if left < d < right:
                cuts.append((d, w))
        cuts.sort()
        li -= 1
        pieces = []  # (left, right, level below, constant part) from left to right
        for d, w in cuts:
            if d != left:
                pieces.append((left, d, li, acc))
                left = d
            acc -= w
        pieces.append((left, right, li, acc))
        ops += len(group) + 1
        if li >= 0:
            stack.extend(reversed(pieces))
            continue
        ops += len(pieces)
        for lo, _, _, val in pieces:  # leaves: the objective is w0*s + val on the piece
            obj = w0 * lo + val
            if best_obj is None or obj < best_obj:
                best_s, best_obj = lo, obj
    counters.bump("mixing_ops", ops)
    return best_s, best_obj


def solve_harmonic(inst: MixInstance | MixForm) -> MixSolution:
    """Global optimum for a divisibility chain of capacities; the smallest
    optimal s wins ties.  Takes an instance or a compiled form, as
    `solve_bruteforce` does."""
    return _solve(inst, _search)


def solve(inst: MixInstance | MixForm) -> MixSolution:
    """Global optimum, smallest optimal s on ties: `solve_harmonic` when the
    capacities form a divisibility chain (a form's `chain`), else
    `solve_bruteforce`.  Both are called through this module's names, so a
    wrapper put on either sees every call."""
    chain = inst.chain if isinstance(inst, MixForm) else is_chain(inst.capacities())
    return (solve_harmonic if chain else solve_bruteforce)(inst)

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
  costs O(1).

Every solver returns the solution with the smallest optimal s, and every
returned completion is feasibility-checked before it leaves the module.

Each solver runs `validate` once, at its entry; `solve_harmonic` does so in
`compile_harmonic`, which also checks the chain and boundedness and sorts
the terms into a `HarmonicChain`.  A compiled chain can be searched again
and again, as a prefix of its levels at shifted right-hand sides, with no
check repeated: the harmonic walk in `rta` compiles one chain per response
query and searches a prefix of it in each decision probe.  Such a search
reports s and the objective only.  The helpers (`is_unbounded`,
`certified_s_bound`) trust their caller and do not re-validate, so code
calling them directly validates first.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from . import counters
from .core import ceil_div, is_harmonic, is_integer, load_at_lcm, magnitude_cap
from .errors import (
    InternalInvariantViolated,
    InvalidInstance,
    OverflowLimit,
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
    w0: int
    terms: tuple[MixTerm, ...]

    def __init__(self, w0: int, terms: Iterable[MixTerm | tuple]):
        object.__setattr__(self, "w0", w0)
        object.__setattr__(
            self,
            "terms",
            tuple(t if isinstance(t, MixTerm) else MixTerm(*t) for t in terms),
        )

    def capacities(self) -> tuple[int, ...]:
        return tuple(t.a for t in self.terms)


@dataclass(frozen=True)
class MixSolution:
    s: int
    x: tuple[int, ...]  # empty when `solve_harmonic` searched a compiled chain
    objective: int


def validate(inst: MixInstance) -> None:
    if not is_integer(inst.w0) or inst.w0 < 0:
        raise InvalidInstance(f"w0 must be a nonnegative integer, got {inst.w0!r}")
    for idx, t in enumerate(inst.terms):
        if not all(is_integer(v) for v in (t.w, t.a, t.b)):
            raise InvalidInstance(f"term {idx}: w, a, b must be integers")
        if t.a < 1:
            raise InvalidInstance(f"term {idx}: capacity must satisfy a >= 1, got {t.a}")
        if t.w < 0:
            raise InvalidInstance(f"term {idx}: weight must be nonnegative, got {t.w}")


def complete(s: int, inst: MixInstance) -> MixSolution:
    """Canonical completion of s: x_i = ceil((b_i - s)/a_i), pointwise minimal."""
    if s < 0:
        raise PreconditionViolated(f"s must be nonnegative, got {s}")
    x = tuple(ceil_div(t.b - s, t.a) for t in inst.terms)
    obj = inst.w0 * s + sum(t.w * xi for t, xi in zip(inst.terms, x))
    return MixSolution(s, x, obj)


def objective_at(s: int, inst: MixInstance) -> int:
    return inst.w0 * s + sum(t.w * ceil_div(t.b - s, t.a) for t in inst.terms)


def is_unbounded(inst: MixInstance) -> bool:
    """Unbounded iff sum w_i/a_i > w0: pushing s up one lcm then pays for itself.
    Decided in integers at the lcm m (`load_at_lcm`): sum w_i*(m/a_i) > w0*m."""
    load, m = load_at_lcm((t.w, t.a) for t in inst.terms)
    return load > inst.w0 * m


def certified_s_bound(inst: MixInstance) -> int:
    """An integer S with some optimal s <= S, for a bounded instance.

    Always lcm(a) - 1; when sum w_i/a_i < w0 strictly (and w0 >= 1) also
    ceil(sum w_i / (w0 - sum w_i/a_i)), below which shifting s down by that
    amount strictly improves the objective.  Returns the smaller of the two.
    An lcm past the magnitude cap raises OverflowLimit unless the second
    bound exists and stays within the cap.  One integer pass at the lcm m:
    sum w_i/a_i < w0 reads sum w_i*(m/a_i) < w0*m, and the second bound is
    ceil(sum w_i * m / (w0*m - sum w_i*(m/a_i))).
    """
    m = math.lcm(*(t.a for t in inst.terms))
    load = weight_sum = 0
    for t in inst.terms:
        load += t.w * (m // t.a)
        weight_sum += t.w
    util_bound = None
    if inst.w0 >= 1 and load < inst.w0 * m:
        util_bound = ceil_div(weight_sum * m, inst.w0 * m - load)
    limit = magnitude_cap()
    if m > limit:
        if util_bound is None or util_bound > limit:
            raise OverflowLimit(f"lcm exceeds the magnitude cap {limit}")
        return util_bound
    return m - 1 if util_bound is None else min(m - 1, util_bound)


def _finalize(s: int, inst: MixInstance) -> MixSolution:
    sol = complete(s, inst)
    for t, xi in zip(inst.terms, sol.x):
        if sol.s + t.a * xi < t.b:
            raise InternalInvariantViolated(
                f"solver produced an infeasible completion at s={sol.s}"
            )
    return sol


def solve_bruteforce(inst: MixInstance, *, s_bound: int | None = None) -> MixSolution:
    """Global optimum over s = 0 .. bound; smallest optimal s wins ties.

    From s - 1 to s the objective rises by w0 and falls by w_i for every term
    with s = b_i (mod a_i), so a minimum lies at s = 0 or at one of these drop
    points.  Only those are visited: each weighted term's drop points form an
    arithmetic progression, the progressions are merged lazily (O(n) memory),
    and the objective is carried along as a running sum.
    """
    validate(inst)
    if is_unbounded(inst):
        raise Unbounded("sum w_i/a_i exceeds w0")
    hi = certified_s_bound(inst) if s_bound is None else s_bound
    counters.bump("mixing_calls")
    # least s >= 1 with s = b (mod a), then every a-th s up to hi
    drops = [(range((t.b - 1) % t.a + 1, hi + 1, t.a), t.w) for t in inst.terms if t.w]
    counters.bump("mixing_ops", len(inst.terms) + 1 + sum(len(r) for r, _ in drops))
    best_s = prev = 0
    best_obj = obj = objective_at(0, inst)
    for s, w in heapq.merge(*(zip(r, repeat(w)) for r, w in drops)):
        if s != prev:  # obj is complete at prev: every drop there is taken
            if obj < best_obj:
                best_s, best_obj = prev, obj
            obj += inst.w0 * (s - prev)
            prev = s
        obj -= w
    if obj < best_obj:
        best_s = prev
    return _finalize(best_s, inst)


@dataclass(frozen=True)
class HarmonicChain:
    """A mixing instance over a divisibility chain, checked and sorted once
    by `compile_harmonic`.

    `levels` lists the distinct capacities of the positive-weight terms in
    ascending order, and `groups[l]` holds the (w, offset) pairs of the terms
    at level l; a term's right-hand side is b = base + offset.  A prefix of a
    bounded chain is bounded, so one compiled chain serves every instance
    that keeps some of its lowest levels and moves all right-hand sides by
    one constant (`prefix`), without checking anything again.
    """

    w0: int
    levels: tuple[int, ...]
    groups: tuple[tuple[tuple[int, int], ...], ...]
    base: int = 0

    def prefix(self, depth: int, base: int) -> HarmonicChain:
        """The chain of the lowest `depth` levels, with right-hand sides base + offset."""
        return HarmonicChain(self.w0, self.levels[:depth], self.groups[:depth], base)


def compile_harmonic(inst: MixInstance) -> HarmonicChain:
    """Check an instance once - validity, the divisibility chain, and
    boundedness (`is_unbounded`) - and sort its terms into levels.
    Zero-weight terms never move the objective and are left out of the
    levels.
    """
    validate(inst)
    if not is_harmonic(inst.capacities()):
        raise PreconditionViolated("capacities do not form a divisibility chain")
    if is_unbounded(inst):
        raise Unbounded("sum w_i/a_i exceeds w0")
    groups: dict[int, list[tuple[int, int]]] = {}
    for t in inst.terms:
        if t.w:
            groups.setdefault(t.a, []).append((t.w, t.b))
    levels = tuple(sorted(groups))
    return HarmonicChain(inst.w0, levels, tuple(tuple(groups[a]) for a in levels))


def _search(chain: HarmonicChain) -> tuple[int, int]:
    """The smallest optimal s of a compiled chain and its objective.

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
    """
    w0, levels, groups, base = chain.w0, chain.levels, chain.groups, chain.base
    counters.bump("mixing_calls")
    if not levels:
        return 0, 0
    ops = 0
    best_s = best_obj = None
    stack = [(0, levels[-1], len(levels) - 1, 0)]
    while stack:
        left, right, li, acc = stack.pop()
        a = levels[li]
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
        pieces = []  # (left, right, constant part) from left to right
        for d, w in cuts:
            if d != left:
                pieces.append((left, d, acc))
                left = d
            acc -= w
        pieces.append((left, right, acc))
        ops += len(group) + 1
        if li:
            stack.extend((lo, hi, li - 1, val) for lo, hi, val in reversed(pieces))
            continue
        ops += len(pieces)
        for lo, _, val in pieces:  # leaves: the objective is w0*s + val on the piece
            obj = w0 * lo + val
            if best_obj is None or obj < best_obj:
                best_s, best_obj = lo, obj
    counters.bump("mixing_ops", ops)
    return best_s, best_obj


def solve_harmonic(inst: MixInstance | HarmonicChain) -> MixSolution:
    """Global optimum for a divisibility chain of capacities; the smallest
    optimal s wins ties.

    A `MixInstance` is compiled (every check), searched once, and its
    completion is checked against the search's objective.  A compiled chain
    was checked when it was compiled and is only searched: its solution
    reports s and the objective, and leaves x empty.
    """
    if isinstance(inst, HarmonicChain):
        s, obj = _search(inst)
        return MixSolution(s, (), obj)
    s, obj = _search(compile_harmonic(inst))
    sol = _finalize(s, inst)
    if sol.objective != obj:
        raise InternalInvariantViolated(
            f"harmonic search carried objective {obj} to s={s}, completion gives {sol.objective}"
        )
    return sol

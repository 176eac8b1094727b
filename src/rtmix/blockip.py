"""Simple 4-block integer programs and their dualized solver.

The programs have one coupling inequality a^T x >= b0 on top of a
block-diagonal system of equalities

    B_i x^(0) + A_i x^(i) = rhs_i      (brick i = 1..n)

with box bounds 0 <= x <= u, and an objective that touches only the first
brick x^(0) and at most one other brick j.  Minimizing w^T x reduces, for a
probe value k, to the decision

    max { a^T x  :  w^T x <= k,  blocks,  boxes }  >=  b0,

a two-stage program: once x^(0) is fixed the bricks decouple and each brick
maximizes its share of a independently, brick j under the room
k - w0 . x^(0) that x^(0) leaves its weights.  `solve_2stage_desk` exploits
exactly that under the node budget `DEFAULT_NODE_BUDGET`.  A unit-slack brick,
whose one row is (p, -1) with p >= 1, is completed in closed form in O(1);
every other brick goes through a depth-first search with interval-propagation
pruning.  Both stop brick j where its weight would pass the room.  In general
the first stage enumerates the x^(0) box.  When x^(0) is one variable t,
wj = 0 and every brick is unit-slack - the shape `encode_rtc_as_4block`
writes - the bricks' completions sum to an affine function of t between the
points where some brick's ceiling or floor steps, with one slope for all
pieces, so the first stage visits only one end of each piece: about
sum_i |b_i|*u/p_i points instead of u + 1 (the piece path, `on_piece_path`).

`solve_simple_4block` finds the least feasible k in [0, H] (the decisions
are monotone in k because a larger k only relaxes w^T x <= k, and no k < 0
passes because weights and variables are nonnegative).  On the piece path a
probe at k only widens t's range to [0, floor(k/w0)], so the least k is w0
times the least t whose coupling value reaches b0: one increasing sweep over
the pieces finds that t, solving the affine inequality inside each piece and
stopping at the first hit, and one `solve_2stage_desk` probe at the answer
certifies it.  Every other program is searched by bisection on k with one
`solve_2stage_desk` probe per step.

`encode_rtc_as_4block` expresses response-time computation with jitter in
this shape: one first-stage variable t, one unit-slack brick (x_i, z_i) per
interfering task with equality p_i*x_i - t - z_i = jitter_i, and coupling
t - sum c_i*x_i >= c_n.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby, product
from typing import Callable, Iterator, Sequence

from . import counters
from .core import TaskSystem, bounds_from_parts, ceil_div, is_integer, validate
from .errors import (
    BudgetExceeded,
    Infeasible,
    InternalInvariantViolated,
    InvalidInstance,
)

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_NODE_BUDGET = 5_000_000


def _integers(values, length: int, what: str) -> None:
    if len(values) != length or not all(is_integer(v) for v in values):
        raise InvalidInstance(f"{what} must hold {length} integers")


def _matrix(rows, r: int, cols: int, what: str) -> None:
    if len(rows) != r:
        raise InvalidInstance(f"{what}: expected a {r}x{cols} integer matrix")
    for row in rows:
        _integers(row, cols, f"each row of {what}")


@dataclass(frozen=True)
class SimpleFourBlock:
    """n bricks of width t over a first stage of width s, r equality rows per
    brick, one coupling inequality (q = 1)."""

    n: int
    r: int
    s: int
    t: int
    D: Matrix                      # 1 x s   coupling coefficients on x^(0)
    C: tuple[Matrix, ...]          # n of 1 x t
    B: tuple[Matrix, ...]          # n of r x s
    A: tuple[Matrix, ...]          # n of r x t
    b0: int
    rhs: tuple[tuple[int, ...], ...]  # n of length r
    w0: tuple[int, ...]            # objective on x^(0)
    j: int | None                  # addressed brick (1-based), None if n = 0
    wj: tuple[int, ...]            # objective on brick j
    u: tuple[int, ...]             # box bounds, length s + n*t

    def __post_init__(self):
        n, r, s, t = self.n, self.r, self.s, self.t
        if not all(is_integer(v) for v in (n, r, s, t, self.b0)):
            raise InvalidInstance("n, r, s, t and b0 must be integers")
        if n < 0 or s < 1 or t < 0 or r < 0:
            raise InvalidInstance("dimensions must satisfy n,r,t >= 0 and s >= 1")
        _matrix(self.D, 1, s, "D")
        if len(self.C) != n or len(self.B) != n or len(self.A) != n or len(self.rhs) != n:
            raise InvalidInstance("need exactly one C, B, A, rhs block per brick")
        for i in range(n):
            _matrix(self.C[i], 1, t, f"C[{i}]")
            _matrix(self.B[i], r, s, f"B[{i}]")
            _matrix(self.A[i], r, t, f"A[{i}]")
            _integers(self.rhs[i], r, f"rhs[{i}]")
        _integers(self.w0, s, "w0")
        if n == 0:
            if self.j is not None:
                raise InvalidInstance("j must be None when there are no bricks")
        elif not is_integer(self.j) or not 1 <= self.j <= n:
            raise InvalidInstance(f"addressed brick j={self.j!r} out of range 1..{n}")
        _integers(self.wj, t, "wj")
        if any(v < 0 for v in self.w0) or any(v < 0 for v in self.wj):
            raise InvalidInstance("objective weights must be nonnegative")
        _integers(self.u, s + n * t, "box bounds u")
        if any(v < 0 for v in self.u):
            raise InvalidInstance("box bounds must be nonnegative")

    def u_first(self) -> tuple[int, ...]:
        return self.u[: self.s]

    def u_brick(self, i: int) -> tuple[int, ...]:
        lo = self.s + i * self.t
        return self.u[lo : lo + self.t]


class _Budget:
    __slots__ = ("left", "budget")

    def __init__(self, budget: int):
        self.left = budget
        self.budget = budget

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(self.budget - self.left, self.budget)


def _max_brick(
    a_obj: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    boxes: Sequence[int],
    weights: Sequence[int],
    room: int,
    budget: _Budget,
) -> int | None:
    """Exact max of a_obj . x over integer x in the boxes with rows . x = rhs
    and weights . x <= room (weights and room nonnegative).

    Depth-first assignment with interval propagation: a partial assignment is
    pruned as soon as some row's residual cannot be covered by the remaining
    variables' coefficient ranges.  Each variable's values stop where the
    partial weight, which only grows, would pass the room.
    """
    nvars = len(boxes)
    residual = list(rhs)
    # per-row suffix interval of reachable contributions
    lo_suffix = [[0] * len(rows) for _ in range(nvars + 1)]
    hi_suffix = [[0] * len(rows) for _ in range(nvars + 1)]
    for v in range(nvars - 1, -1, -1):
        for ri, row in enumerate(rows):
            contrib_lo = min(0, row[v] * boxes[v])
            contrib_hi = max(0, row[v] * boxes[v])
            lo_suffix[v][ri] = lo_suffix[v + 1][ri] + contrib_lo
            hi_suffix[v][ri] = hi_suffix[v + 1][ri] + contrib_hi

    best: int | None = None

    def solve(v: int, acc_obj: int, left: int) -> None:
        nonlocal best
        budget.spend()
        if v == nvars:
            if all(r == 0 for r in residual):
                if best is None or acc_obj > best:
                    best = acc_obj
            return
        for ri in range(len(rows)):
            if not lo_suffix[v][ri] <= residual[ri] <= hi_suffix[v][ri]:
                return
        top = min(boxes[v], left // weights[v]) if weights[v] else boxes[v]
        for val in range(top + 1):
            for ri, row in enumerate(rows):
                residual[ri] -= row[v] * val
            solve(v + 1, acc_obj + a_obj[v] * val, left - weights[v] * val)
            for ri, row in enumerate(rows):
                residual[ri] += row[v] * val

    solve(0, 0, room)
    return best


def _max_unit_slack(coef: int, c: Sequence[int], rest: int, boxes: Sequence[int],
                    weights: Sequence[int], room: int) -> int | None:
    """Exact max of c . (x, z) over the boxes with coef*x - z = rest, coef >= 1,
    and weights . (x, z) <= room when some weight is positive.

    z = coef*x - rest, so the weight is (w_x + w_z*coef)*x - w_z*rest, the
    feasible x form one interval and the objective is linear in x on it:
    the best x is an end of that interval.
    """
    lo = max(0, ceil_div(rest, coef))
    hi = min(boxes[0], (rest + boxes[1]) // coef)
    rate = weights[0] + weights[1] * coef
    if rate:
        hi = min(hi, (room + weights[1] * rest) // rate)
    if lo > hi:
        return None
    slope = c[0] + c[1] * coef
    return slope * (hi if slope > 0 else lo) - c[1] * rest


def _unit_slack_coefficient(rows: Matrix) -> int | None:
    """p when a brick's rows are the single row (p, -1) with p >= 1, else None."""
    if len(rows) == 1 and len(rows[0]) == 2 and rows[0][0] >= 1 and rows[0][1] == -1:
        return rows[0][0]
    return None


def _steps(num: int, m: int, coef: int, T: int) -> Iterator[int]:
    """The t in [1, T], in increasing order, where floor((num + m*t)/coef)
    differs from its value at t - 1 (m != 0); a t repeats when |m| > coef.

    A falling term floor((num - a*t)/coef) equals
    -floor((coef - 1 - num + a*t)/coef), so it steps where that rising term
    does.  A rising term steps once per multiple j*coef in (num, num + m*T],
    at t = ceil((j*coef - num)/m).
    """
    if m < 0:
        num, m = coef - 1 - num, -m
    return (ceil_div(j * coef - num, m) for j in range(num // coef + 1, (num + m * T) // coef + 1))


def _pieces(p: SimpleFourBlock, T: int) -> Iterator[tuple[int, int]]:
    """The pieces [left, right] of t in [0, T] (T >= 0) of a program on the
    piece path (`on_piece_path`), lazily and in increasing order.

    Brick i's completion depends on t only through
    lo = ceil((rhs_i - b_i*t)/p_i) and hi = floor((rhs_i + uz_i - b_i*t)/p_i),
    so between their steps it is affine with slope c_z*b_i and its
    feasibility is fixed.  The coupling row is then affine on every piece
    with one slope `_slope(p)`.
    """
    terms = set()  # (num, m, coef) of each distinct floor((num + m*t)/coef)
    for i in range(p.n):
        b, coef, rhs, uz = p.B[i][0][0], p.A[i][0][0], p.rhs[i][0], p.u_brick(i)[1]
        if b:
            terms.update(((rhs + coef - 1, -b, coef), (rhs + uz, -b, coef)))
    steps = heapq.merge(*(_steps(num, m, coef, T) for num, m, coef in terms))
    left = 0
    for start, _ in groupby(steps):  # the left end of every piece but the first
        yield left, start - 1
        left = start
    yield left, T


def _slope(p: SimpleFourBlock) -> int:
    """sigma = D + sum_i c_z*b_i, the coupling row's slope on every piece."""
    return p.D[0][0] + sum(p.C[i][0][1] * p.B[i][0][0] for i in range(p.n))


def _coupling(p: SimpleFourBlock, budget: _Budget) -> Callable[[int], int | None]:
    """f(t): the coupling row's maximum at first-stage point t of a program on
    the piece path, every brick completed in closed form, or None when some
    brick has no completion.  Each call spends one unit of the budget for the
    point and one per completion."""
    d = p.D[0][0]
    bricks = [
        (p.A[i][0][0], p.C[i][0], p.rhs[i][0], p.B[i][0][0], p.u_brick(i)) for i in range(p.n)
    ]

    def f(t: int) -> int | None:
        budget.spend()
        total = d * t
        for coef, c, rhs, b, boxes in bricks:
            budget.spend()
            part = _max_unit_slack(coef, c, rhs - b * t, boxes, (0, 0), 0)  # wj = 0 here
            if part is None:
                return None
            total += part
        return total

    return f


def _max_over_pieces(p: SimpleFourBlock, k: int, budget: _Budget) -> int | None:
    """`solve_2stage_desk` on the piece path: the best f over t in [0, T],
    T = min(u_0, floor(k / w0)), where the slack row leaves room.  f is
    affine on each piece, so its maximum there lies at the right end when
    the slope is positive and at the left end otherwise."""
    w0, u0 = p.w0[0], p.u[0]
    T = min(u0, k // w0) if w0 else (u0 if k >= 0 else -1)
    if T < 0:
        return None
    f = _coupling(p, budget)
    right_end = _slope(p) > 0
    best: int | None = None
    for left, right in _pieces(p, T):
        value = f(right if right_end else left)
        if value is not None and (best is None or value > best):
            best = value
    return best


def _least_reaching_t(p: SimpleFourBlock, T: int, budget: _Budget) -> int | None:
    """The least t in [0, T] with f(t) >= b0 on the piece path, or None.

    One increasing pass over the pieces: f is affine with slope sigma on
    each, so the pass evaluates the piece's left end and, when sigma > 0,
    solves f(left) + sigma*(t - left) >= b0 inside the piece; it stops at
    the first hit.  A piece whose left end has no completion has none.
    """
    f = _coupling(p, budget)
    sigma = _slope(p)
    for left, right in _pieces(p, T):
        value = f(left)
        if value is None:
            continue
        if value >= p.b0:
            return left
        if sigma > 0:
            t = left + ceil_div(p.b0 - value, sigma)
            if t <= right:
                return t
    return None


def on_piece_path(p: SimpleFourBlock) -> bool:
    """True when x^(0) is one variable t, wj = 0 and every brick is
    unit-slack (one row (p, -1), p >= 1): the shape `encode_rtc_as_4block`
    writes, whose coupling row is affine in t piece by piece."""
    return p.s == 1 and not any(p.wj) and all(_unit_slack_coefficient(a) is not None for a in p.A)


def solve_2stage_desk(p: SimpleFourBlock, k: int) -> int | None:
    """Exact maximum of the coupling row over the two-stage program of probe k,
    or None when infeasible.  Raises BudgetExceeded past DEFAULT_NODE_BUDGET.

    The slack row w0 . x^(0) + wj . x^(j) <= k is checked once per
    first-stage point, before the bricks, as room = k - w0 . x^(0) >= 0;
    when wj = 0 that is the whole row.  Otherwise the addressed brick j
    keeps wj . x^(j) <= room.  A unit-slack brick (one row (p, -1), p >= 1)
    is completed in closed form, the room bounding its x when it is brick j;
    every other brick goes through the DFS `_max_brick`, which cuts a branch
    once its weight passes the room.

    On the piece path (`on_piece_path`) the first stage visits one end of
    each piece of t on which the coupling row is affine (`_max_over_pieces`);
    otherwise it enumerates the x^(0) box.  Each piece, each first-stage
    point, each closed-form completion and each DFS node spends one unit of
    the budget; a solve adds the units it spent to the `blockip_nodes`
    counter.
    """
    budget = _Budget(DEFAULT_NODE_BUDGET)
    if on_piece_path(p):
        best = _max_over_pieces(p, k, budget)
    else:
        best = _max_over_first_stage(p, k, budget)
    counters.bump("blockip_nodes", budget.budget - budget.left)
    return best


def _max_over_first_stage(p: SimpleFourBlock, k: int, budget: _Budget) -> int | None:
    """`solve_2stage_desk` off the piece path: every x^(0) in its box, each
    brick completed on its own under the room the point leaves."""
    weights = [p.wj if i + 1 == p.j else (0,) * p.t for i in range(p.n)]
    unit_coef = [_unit_slack_coefficient(a) for a in p.A]
    best: int | None = None
    for x0 in product(*(range(u + 1) for u in p.u_first())):
        budget.spend()
        room = k - sum(w * v for w, v in zip(p.w0, x0))
        if room < 0:
            continue
        total = sum(d * v for d, v in zip(p.D[0], x0))
        for i in range(p.n):
            rhs = [r - sum(b * v for b, v in zip(row, x0)) for r, row in zip(p.rhs[i], p.B[i])]
            if unit_coef[i] is not None:
                budget.spend()
                part = _max_unit_slack(unit_coef[i], p.C[i][0], rhs[0], p.u_brick(i),
                                       weights[i], room)
            else:
                part = _max_brick(p.C[i][0], p.A[i], rhs, p.u_brick(i), weights[i], room, budget)
            if part is None:
                break
            total += part
        else:
            if best is None or total > best:
                best = total
    return best


def solve_simple_4block(p: SimpleFourBlock, H: int | None = None) -> int:
    """Least k in [0, H] whose dual decision reaches the coupling bound b0.

    Weights and variables are nonnegative, so no k < 0 passes.  H defaults to
    sum w_i * u_i, a sound bound on w^T x over the boxes; a negative H raises
    InvalidInstance.  Raises Infeasible when no k in the window passes.

    On the piece path (`on_piece_path`) the answer is w0*t* for the least
    t* in [0, min(u_0, floor(H / w0))] (or [0, u_0] when w0 = 0) whose
    coupling value reaches b0: one sweep over the pieces, under a node
    budget of its own, finds t*, and one `solve_2stage_desk` probe at w0*t*
    certifies it.  Every other program is bisected on k, one probe a step.
    """
    if H is None:
        H = _default_objective_bound(p)
    if H < 0:
        raise InvalidInstance(f"the search bound H must be nonnegative, got {H}")
    if not on_piece_path(p):
        return _bisect(p, H)
    w0, u0 = p.w0[0], p.u[0]
    budget = _Budget(DEFAULT_NODE_BUDGET)
    t = _least_reaching_t(p, min(u0, H // w0) if w0 else u0, budget)
    counters.bump("blockip_nodes", budget.budget - budget.left)
    if t is None:
        raise Infeasible(f"no objective value in [0, {H}] satisfies the coupling bound")
    k = w0 * t
    value = solve_2stage_desk(p, k)
    if value is None or value < p.b0:
        raise InternalInvariantViolated(
            f"the piece sweep's k={k} does not reach b0={p.b0} (probe gives {value})"
        )
    return k


def _bisect(p: SimpleFourBlock, H: int) -> int:
    """Least k in [0, H] whose probe reaches b0, by bisection; the decisions
    are monotone in k because a larger k only relaxes the slack row."""

    def reaches(k: int) -> bool:
        value = solve_2stage_desk(p, k)
        return value is not None and value >= p.b0

    if not reaches(H):
        raise Infeasible(f"no objective value in [0, {H}] satisfies the coupling bound")
    lo, hi = 0, H
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _default_objective_bound(p: SimpleFourBlock) -> int:
    bound = sum(w * u for w, u in zip(p.w0, p.u_first()))
    if p.j is not None:
        bound += sum(w * u for w, u in zip(p.wj, p.u_brick(p.j - 1)))
    return max(1, bound)


def encode_rtc_as_4block(ts: TaskSystem) -> SimpleFourBlock:
    """Response-time computation, with jitter, as a simple 4-block program.

    First stage: the candidate time t, box [0, u] from the certified bounds.
    Brick i: (x_i, z_i) with p_i*x_i - t - z_i = jitter_i; the multiplier
    box ceil((u + jitter_i + p_i)/p_i) comes from the same bounds and the
    slack box [0, p_i - 1] is tight because any solution with z_i >= p_i
    lowers its objective by decrementing x_i.  The bounds gate utilization
    and S (`core.bounds_from_parts`); u and the lcm are uncapped.
    """
    validate(ts)
    bounds = bounds_from_parts(ts.tasks[-1].c, ts.tasks[:-1])  # the utilization and S gates
    u_t = bounds.u
    interferers = ts.tasks[:-1]
    n = len(interferers)
    boxes = [u_t]
    for task in interferers:
        boxes.extend([ceil_div(u_t + task.jitter + task.p, task.p), task.p - 1])
    return SimpleFourBlock(
        n=n,
        r=1 if n else 0,
        s=1,
        t=2 if n else 0,
        D=((1,),),
        C=tuple(((-task.c, 0),) for task in interferers),
        B=tuple(((-1,),) for _ in interferers),
        A=tuple(((task.p, -1),) for task in interferers),
        b0=ts.tasks[-1].c,
        rhs=tuple((task.jitter,) for task in interferers),
        w0=(1,),
        j=1 if n else None,
        wj=(0, 0) if n else (),
        u=tuple(boxes),
    )

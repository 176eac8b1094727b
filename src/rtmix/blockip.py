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
every other brick goes through a depth-first search that enters only the
values of each variable that leave every row reachable by the later ones.
Both stop brick j where its weight would pass the room.  In general
the first stage enumerates the x^(0) box.  When x^(0) is one variable t,
wj = 0 and every brick is unit-slack - the shape `encode_rtc_as_4block`
writes - the bricks' completions sum to an affine function of t between the
points where some brick's ceiling or floor steps, with one slope for all
pieces, so the first stage evaluates only the left end of each piece:
about sum_i |b_i|*u/p_i points instead of u + 1 (the piece path,
`on_piece_path`), each piece ending just before the nearest next step
(`_pieces`).  One generator, `_piece_values`, walks the pieces of t's range
at a probe k and yields each feasible piece with its left end's value.

`solve_simple_4block` finds the least feasible k in [0, H] (the decisions
are monotone in k because a larger k only relaxes w^T x <= k, and no k < 0
passes because weights and variables are nonnegative).  Its two searches
share one contract: each returns that k, or H + 1 when no k in [0, H]
passes, and `solve_simple_4block` alone raises Infeasible on H + 1.  On the
piece path a probe at k only widens t's range to [0, floor(k/w0)], so the
least k is w0 times the least t whose coupling value reaches b0: one
increasing sweep over the same `_piece_values` finds that t, solving the
affine inequality inside each piece and stopping at the first hit, and one
`solve_2stage_desk` probe at the answer certifies it.  Every other program is
searched on k by one `core.bracket` over [0, H + 1], one `solve_2stage_desk`
probe a step; the bracket never probes H + 1, so it stands for none.

`encode_rtc_as_4block` expresses response-time computation with jitter in
this shape: one first-stage variable t, one unit-slack brick (x_i, z_i) per
interfering task with equality p_i*x_i - t - z_i = jitter_i, and coupling
t - sum c_i*x_i >= c_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import core, counters
from .core import TaskSystem, bounds_from_parts, ceil_div, is_integer, require_integers, validate
from .errors import (
    BudgetExceeded,
    Infeasible,
    InternalInvariantViolated,
    InvalidInstance,
)

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_NODE_BUDGET = 5_000_000


def _array(value, shape: tuple[int, ...]) -> tuple | None:
    """`value` as tuples nested to `shape`, or None when it is not that: each
    level a list or a tuple of its length, each leaf an integer."""
    if not isinstance(value, (list, tuple)) or len(value) != shape[0]:
        return None
    if len(shape) == 1:
        return tuple(value) if all(map(is_integer, value)) else None
    rows, kept = [], type(value) is tuple  # a tuple of kept rows is kept, not copied
    for v in value:
        rows.append(row := _array(v, shape[1:]))
        if row is None:
            return None
        kept = kept and row is v
    return value if kept else tuple(rows)


@dataclass(frozen=True)
class SimpleFourBlock:
    """n bricks of width t over a first stage of width s, r equality rows per
    brick, one coupling inequality (q = 1).  Each array field may nest lists
    or tuples; `__post_init__` checks its shape and stores it as tuples."""

    n: int
    r: int
    s: int
    t: int
    D: Matrix                      # coupling coefficients on x^(0)
    C: tuple[Matrix, ...]          # coupling coefficients on each brick
    B: tuple[Matrix, ...]          # each brick's rows on x^(0)
    A: tuple[Matrix, ...]          # each brick's rows on its own variables
    b0: int
    rhs: tuple[tuple[int, ...], ...]  # each brick's right-hand sides
    w0: tuple[int, ...]            # objective on x^(0)
    j: int | None                  # addressed brick (1-based), None if n = 0
    wj: tuple[int, ...]            # objective on brick j
    u: tuple[int, ...]             # box bounds, x^(0) then brick by brick

    def __post_init__(self):
        n, r, s, t = self.n, self.r, self.s, self.t
        if not all(is_integer(v) for v in (n, r, s, t, self.b0)):
            raise InvalidInstance("n, r, s, t and b0 must be integers")
        if n < 0 or s < 1 or t < 0 or r < 0:
            raise InvalidInstance("dimensions must satisfy n,r,t >= 0 and s >= 1")
        # every array field's shape in n, r, s, t
        shapes = {"D": (1, s), "C": (n, 1, t), "B": (n, r, s), "A": (n, r, t), "rhs": (n, r),
                  "w0": (s,), "wj": (t,), "u": (s + n * t,)}
        for name, shape in shapes.items():
            value = _array(getattr(self, name), shape)
            if value is None:
                raise InvalidInstance(
                    f"{name} must be an integer array of shape {'x'.join(map(str, shape))}")
            object.__setattr__(self, name, value)
        if n == 0:
            if self.j is not None:
                raise InvalidInstance("j must be None when there are no bricks")
        elif not is_integer(self.j) or not 1 <= self.j <= n:
            raise InvalidInstance(f"addressed brick j={self.j!r} out of range 1..{n}")
        if any(v < 0 for v in self.w0) or any(v < 0 for v in self.wj):
            raise InvalidInstance("objective weights must be nonnegative")
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

    Depth-first assignment with interval propagation: each variable runs only
    over [first, last], the values that keep the partial weight within the
    room and leave every row's residual within what the later variables'
    coefficient ranges can still add, so every child it enters can still
    reach each row and no value is entered only to be pruned.  A leaf checks
    that every residual is zero, which covers a brick with no variables.  The
    search keeps its own stack of open variables, one frame each, so no width
    of brick meets the interpreter's recursion limit.
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
    # one frame per open variable, frames[v] for variable v: its value, its
    # last value, and the objective and room before it
    frames: list[list[int]] = []
    acc_obj, left = 0, room
    while True:
        budget.spend()
        v = len(frames)
        if v == nvars:
            if all(r == 0 for r in residual) and (best is None or acc_obj > best):
                best = acc_obj
        else:
            first, last = 0, min(boxes[v], left // weights[v]) if weights[v] else boxes[v]
            for row, r, lo, hi in zip(rows, residual, lo_suffix[v + 1], hi_suffix[v + 1]):
                a = row[v]  # r - a*x must stay within [lo, hi]
                if a > 0:
                    first, last = max(first, ceil_div(r - hi, a)), min(last, (r - lo) // a)
                elif a < 0:
                    first, last = max(first, ceil_div(lo - r, -a)), min(last, (hi - r) // -a)
                elif not lo <= r <= hi:
                    last = -1  # the row is out of reach whatever value v takes
            if first <= last:  # enter the first child, value first
                frames.append([first, last, acc_obj, left])
                for ri, row in enumerate(rows):
                    residual[ri] -= row[v] * first
                acc_obj, left = acc_obj + a_obj[v] * first, left - weights[v] * first
                continue
        # back up to the deepest open variable with a value left, and take it
        while frames:
            v = len(frames) - 1
            val, last, acc_obj, left = frame = frames[-1]
            if val < last:
                frame[0] = val = val + 1
                for ri, row in enumerate(rows):
                    residual[ri] -= row[v]
                acc_obj, left = acc_obj + a_obj[v] * val, left - weights[v] * val
                break
            for ri, row in enumerate(rows):
                residual[ri] += row[v] * val
            frames.pop()
        else:
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


def _pieces(p: SimpleFourBlock, T: int) -> Iterator[tuple[int, int]]:
    """The pieces [left, right] of t in [0, T], none when T < 0, of a program
    on the piece path (`on_piece_path`), lazily and in increasing order.

    Brick i's completion depends on t only through
    lo = ceil((rhs_i - b_i*t)/p_i) and hi = floor((rhs_i + uz_i - b_i*t)/p_i),
    so between their steps it is affine with slope c_z*b_i and its
    feasibility is fixed.  The coupling row is then affine on every piece
    with one slope `_slope(p)`.  A piece ends just before the nearest next
    step of any bound, each kept rising as floor((num + m*t)/coef), m > 0
    (floor((num - a*t)/coef) = -floor((coef - 1 - num + a*t)/coef)).
    """
    terms = set()  # (num, m, coef) of each distinct floor((num + m*t)/coef), m > 0
    for i in range(p.n):
        b, coef, rhs, uz = p.B[i][0][0], p.A[i][0][0], p.rhs[i][0], p.u_brick(i)[1]
        if b:
            for num in (rhs + coef - 1, rhs + uz):
                terms.add((num, -b, coef) if b < 0 else (coef - 1 - num, b, coef))
    left = 0
    while left <= T:
        right = T
        for num, m, coef in terms:  # ceil((next multiple of coef - num)/m) - 1
            step = (((num + m * left) // coef + 1) * coef - num - 1) // m
            if step < right:
                right = step
        yield left, right
        left = right + 1


def _slope(p: SimpleFourBlock) -> int:
    """sigma = D + sum_i c_z*b_i, the coupling row's slope on every piece."""
    return p.D[0][0] + sum(p.C[i][0][1] * p.B[i][0][0] for i in range(p.n))


def _piece_values(p: SimpleFourBlock, k: int, budget: _Budget) -> Iterator[tuple[int, int, int]]:
    """(left, right, f(left)) in increasing order for each piece [left, right]
    of t's whole range at probe k, the t in [0, u_0] with room k - w0*t >= 0
    (none when k < 0), of a program on the piece path whose bricks all
    complete.

    f(t) is the coupling row's maximum at first-stage point t, every brick
    completed in closed form (wj = 0 here).  On a piece f is affine with
    slope `_slope(p)` and whether the bricks complete is fixed, so f(left)
    stands for the piece.  Each piece spends one unit of the budget and each
    completion tried one more.
    """
    d, w0, u0 = p.D[0][0], p.w0[0], p.u[0]
    bricks = [
        (p.A[i][0][0], p.C[i][0], p.rhs[i][0], p.B[i][0][0], p.u_brick(i)) for i in range(p.n)
    ]
    for left, right in _pieces(p, -1 if k < 0 else min(u0, k // w0) if w0 else u0):
        budget.spend()
        total = d * left
        for coef, c, rhs, b, boxes in bricks:
            budget.spend()
            part = _max_unit_slack(coef, c, rhs - b * left, boxes, (0, 0), 0)
            if part is None:
                break
            total += part
        else:
            yield left, right, total


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

    On the piece path (`on_piece_path`) the first stage evaluates the left
    end of each piece of t on which the coupling row is affine
    (`_piece_values`) and extends it to the piece's best end,
    f(left) + max(0, sigma)*(right - left) for the slope sigma; otherwise it
    enumerates the x^(0) box.  The probe is the max over one total per
    feasible piece or point.  Each piece, each first-stage point entered,
    each closed-form completion and each DFS node spends one unit of the
    budget; a solve adds the units it spent to the `blockip_nodes` counter,
    also when it runs out of budget.
    """
    require_integers(k=k)
    budget = _Budget(DEFAULT_NODE_BUDGET)
    if on_piece_path(p):
        rise = max(0, _slope(p))
        totals = (f + rise * (right - left) for left, right, f in _piece_values(p, k, budget))
    else:
        totals = _first_stage_totals(p, k, budget)
    try:
        return max(totals, default=None)
    finally:
        counters.bump("blockip_nodes", budget.budget - budget.left)


def _first_stage_totals(p: SimpleFourBlock, k: int, budget: _Budget) -> Iterator[int]:
    """`solve_2stage_desk` off the piece path: the coupling row's maximum at
    every x^(0) in its box with room k - w0 . x^(0) >= 0 whose bricks all
    complete, each on its own, under that room.  An odometer walks those
    points alone, lazily and in lexicographic order: variable i runs only up
    to the room that x_0..x_{i-1} leave it (no point when k < 0), and each
    point entered is a node."""
    if k < 0:
        return
    weights = [p.wj if i + 1 == p.j else (0,) * p.t for i in range(p.n)]
    unit_coef = [_unit_slack_coefficient(a) for a in p.A]
    u, w0 = p.u_first(), p.w0
    x0, rooms = [0] * p.s, [k] * (p.s + 1)  # rooms[i] = k - w0[:i] . x0[:i]
    while True:
        budget.spend()
        room = rooms[-1]
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
            yield total
        i = p.s - 1  # the last variable that can still rise
        while i >= 0 and (x0[i] == u[i] or w0[i] * (x0[i] + 1) > rooms[i]):
            i -= 1
        if i < 0:
            return
        x0[i] += 1
        x0[i + 1:] = [0] * (p.s - 1 - i)
        rooms[i + 1:] = [rooms[i] - w0[i] * x0[i]] * (p.s - i)


def solve_simple_4block(p: SimpleFourBlock, H: int | None = None) -> int:
    """Least k in [0, H] whose dual decision reaches the coupling bound b0.

    Weights and variables are nonnegative, so no k < 0 passes.  H defaults to
    sum w_i * u_i, a sound bound on w^T x over the boxes; a negative H raises
    InvalidInstance.  Both searches return the least k in [0, H] whose probe
    reaches b0, or H + 1 when none does, and H + 1 raises Infeasible here.
    The piece path (`on_piece_path`) sweeps t's pieces (`_sweep`); every
    other program is bisected on k (`_bisect`).
    """
    if H is None:
        H = _default_objective_bound(p)
    require_integers(H=H)
    if H < 0:
        raise InvalidInstance(f"the search bound H must be nonnegative, got {H}")
    k = _sweep(p, H) if on_piece_path(p) else _bisect(p, H)
    if k > H:
        raise Infeasible(f"no objective value in [0, {H}] satisfies the coupling bound")
    return k


def _sweep(p: SimpleFourBlock, H: int) -> int:
    """Least k in [0, H] whose probe reaches b0 on the piece path, or H + 1
    when none does: w0 times the least t in `_piece_values`' range at k = H
    with f(t) >= b0, as a probe at k only widens that range to t <= k/w0.

    One increasing pass over the pieces, under a node budget of its own: f is
    affine with slope sigma on each piece, so when sigma > 0 the pass solves
    f(left) + sigma*(t - left) >= b0 inside the piece.  It stops at the first
    hit, and one `solve_2stage_desk` probe at w0*t certifies it.
    """
    budget = _Budget(DEFAULT_NODE_BUDGET)
    sigma, k = _slope(p), H + 1
    try:
        for left, right, value in _piece_values(p, H, budget):
            if value >= p.b0:
                t = left
            else:  # past right when the piece never reaches b0
                t = left + ceil_div(p.b0 - value, sigma) if sigma > 0 else right + 1
            if t <= right:
                k = p.w0[0] * t
                break
    finally:
        counters.bump("blockip_nodes", budget.budget - budget.left)
    if k > H:
        return k
    value = solve_2stage_desk(p, k)
    if value is None or value < p.b0:
        raise InternalInvariantViolated(
            f"the piece sweep's k={k} does not reach b0={p.b0} (probe gives {value})"
        )
    return k


def _bisect(p: SimpleFourBlock, H: int) -> int:
    """Least k in [0, H] whose probe reaches b0, or H + 1 when none does: one
    `core.bracket` over [0, H + 1], one `solve_2stage_desk` probe a step.
    `core.bracket` never probes its window's upper end, so H + 1 stands for
    none, and a k <= H it returns was probed with a yes; the decisions are
    monotone in k because a larger k only relaxes the slack row."""

    def narrow(k: int, lo: int, hi: int) -> tuple[int, int]:
        value = solve_2stage_desk(p, k)
        return (lo, k) if value is not None and value >= p.b0 else (k + 1, hi)

    return core.bracket(0, H + 1, narrow)


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

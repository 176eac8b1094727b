"""Response-time computation by dualized reduction to mixing set programs.

The generalized query is: given interfering tasks I and a constant gamma >= 1,
find the least t >= 0 with

    t >= W(t) = gamma + sum_{i in I} c_i * ceil((t + jitter_i) / p_i).

`response_bruteforce` solves it by the classic monotone fixed-point iteration
and is the oracle for everything else.  The other algorithms answer the
decision "response <= k?" through one windowed decision, `decide_large_k`.
Given lo, a certified lower bound on the response r, r <= k holds exactly
when some t in [lo, k] has W(t) <= t.  Mix(I, k) has one term (w=c_i, a=p_i,
b=k+jitter_i) per interferer, and at s = k - t its objective is
W(t) - gamma + k - t, so the decision is Mix(I, k) <= k - gamma over
s in [0, k - lo] only.  That is exact for every k >= lo, on any periods, and
needs no forced multipliers and no gate at the certified bound S: past S,
S itself cuts the search, since every mixing optimum's smallest s lies
within it.

Every search runs one body (`_climb_then_search`): climb t <- W(t) from a
certified lower bound t0 for at most a budget of steps; a t with W(t) <= t
is the response.  Otherwise the last iterate, a certified lower bound too
since W is monotone and W(r) = r, hands off (counted as `auto_handoffs`) to
a bracketed search from max(last iterate, ceil(ell)) up to u, or up to the
lcm m when W(m) <= m.  Each algorithm supplies only its class's t0 and
budget:

* `response_harmonic` (harmonic periods) climbs from t0 = max(gamma, lower)
  for at most (u - t0 + 1).bit_length() steps, and its search probes the
  sorted distinct nonzero differences d_j = p_j - jitter_j upward before it
  bisects.  The differences are only its probe order; below the cap at m,
  bisection alone settles the geometric family in as few probes.
* `response_turing` and `response_jitter_free` (any periods; the second
  only without jitter) climb from t0 = max(lower, ceil(ell)) for at most
  B = ceil((n + 1 + sum_i (S // p_i + 1)) / max(1, n)) steps, n = |I|, the
  W evaluations (n units each) that cost about one decision's scan.

Every search narrows its window by one rule (`_search`), first at each k
of the ascending differences, if any, and then in `core.bracket`, the one
bisection.  The response r is a fixed point of the monotone W, so a yes at
k gives r <= min(k, W(k)) and a no gives r >= max(k + 1, W(k + 1)).  A
decision over the window [lo, k] also returns its witness t* = k - s*, s*
the smallest optimal s of the mixing form searched, so that a yes names
lo <= t* < k with W(t*) <= t*, checked in O(n), and gives r <= W(t*): the
window's upper end drops to W(t*), below k.  W(k) is computed before the
decision, and when W(k) <= k, k is itself feasible: the recurrence gives
the yes in O(n), with r <= W(k), and no mixing solve runs (a free verdict,
counted as `recurrence_verdicts`; `decision_probes` counts only the
decisions).  Every search starts its lower end at ceil(ell), the
certified lower bound of `core.bounds_from_parts` (Sjodin and Hansson,
RTSS 1998), or at the last iterate when that is larger; the harmonic walk
skips the differences outside the window.

Both budgets are ski rental (Karlin, Manasse, Rudolph and Sleator,
Algorithmica 1988): the climb keeps going while what it spent stays within
what the search it hands off to can spend, and the search starts above
everything the climb spent.  On harmonic periods the budget counts steps,
not work: every probe evaluates W at least once and adds at most a solve
over |I| chain levels, so the climb spends no more than a constant times
what the bisection, at most (u - t0).bit_length() probes on [t0, u], can
spend.  On general periods a decision sweeps the drop points up to
min(S, k - lo), which can cost thousands of W evaluations, so the budget
counts work: the climb stops once its W evaluations have cost about as much
as one decision's scan can, so a query the climb leaves unsettled has spent
at most about one decision more.  The budgets come from the query; nothing
is tuned.  `compute_response(q, "auto")` only picks the period class:
`harmonic` on a chain, else `turing` with jitter and `jitter-free` without.
Most queries of random harmonic systems settle in the climb; the geometric
family, where the fixed point needs thousands of steps, hands off.

Every algorithm takes a `ResponseQuery`, the one compiled form of a query,
and no other setting.  A query is what the paper states: the interfering
tasks themselves, in priority order, and gamma, with no enclosing
`TaskSystem` and no positions into one.  It is validated once, when it is
built: each interferer as `core.validate` checks a task, then its
`BoundsResult` (which carries the exact utilization, S and ceil(ell), the
searches' start, in integers; building a query at utilization >= 1
raises, and so does S past the magnitude cap 2**63 - 1), and whether the
periods form a chain (`harmonic`) and some interferer has jitter
(`jittered`), all computed then; no algorithm or probe recomputes them.
W is compiled once per query
too: one integer term (c_i, p_i, o_i = jitter_i + p_i - 1) per interferer,
so that W(t) = gamma + sum c_i * ((t + o_i) // p_i) (`ResponseQuery.workload`).
Every search evaluates W through these terms; `core.workload` stays the
definition, which `response_bruteforce`, the independent baseline, uses.
Building a query calls nothing in `mixing`.  A query may also carry a
certified lower bound on its response (`lower`, 0 when none is known),
from which `harmonic`, `turing` and `jitter-free` start;
`analyze_system` sets it to r_{j-1} + c_j for level j, and
`response_bruteforce`, the independent baseline, ignores it.  Two
derivations, checked as a build is, make a query from a built one, deriving
its bounds from the load aggregate: `ResponseQuery.at` at another gamma or
lower (`reverse`), and `ResponseQuery.plus` with one more interferer
(`analyze_system`), which trusts its caller to have checked the task:
`analyze_system` validates its `TaskSystem` once, so a request checks each
task once there, besides its decoder's check.

Mix(I, k) differs between probes only by the shift k, so a query compiles
its interferers' mixing form once (`mixing.compile_mix`: one term
(c_i, p_i, jitter_i) per interferer, checked once, grouped into period
levels), on first need: the first probe that reaches a mixing solve.  Every
query that `at` derives shares it.  A decision at k over [lo, k] searches
the form at base k, right-hand sides k + jitter_i, up to width k - lo
(`MixForm.at`), and checks nothing again; `mixing.solve`, the one mixing
selector, searches it by the chain search when the periods form a chain,
else by the brute-force scan over s in [0, min(S, k - lo)].
`compute_response` is the only response algorithm selector; `reverse`
calls it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import core, counters, mixing
from .core import (
    BoundsResult,
    Task,
    TaskSystem,
    bounds_from_parts,
    is_chain,
    is_integer,
    require_integers,
    validate,
    validate_task,
    workload,
)
from .errors import InternalInvariantViolated, InvalidInstance, PreconditionViolated

@dataclass(frozen=True)
class ResponseQuery:
    """The interferers I, in priority order, plus the constant gamma,
    compiled once: `tasks` is the interferer tuple, each checked as
    `core.validate` checks a task (named by its position in `tasks`),
    `bounds` its certified interval with its exact utilization, `harmonic`
    whether the interferers' periods form a divisibility chain and
    `jittered` whether some interferer has jitter.  `lower` is a lower bound
    on the response that the caller certifies (0 when it knows none); the
    searches start from it.  `analyze_system` and `reverse` set it.  A build
    checks it against u only: a `lower` above the response is caught, if at
    all, by `_search`'s check that t - 1 is infeasible or by a window that
    its verdicts empty.  The interferers' mixing form (`form`) is compiled
    on first need; its certified S is `bounds.s`, and the bounds also carry
    the load aggregate from which `at` and `plus` derive their bounds
    without a pass over the interferers.  W is compiled at the build into integer terms
    (`workload`), which `at` shares and `plus` extends.  With no
    interferers, S = 0 and u = ceil(ell) = gamma >= `lower`, so with no
    case of their own every search returns gamma after one W evaluation and
    `decide_large_k` decides k >= gamma on the empty mixing form."""

    gamma: int
    tasks: tuple[Task, ...]
    bounds: BoundsResult
    harmonic: bool
    jittered: bool
    lower: int

    def __init__(self, tasks: Iterable[Task], gamma: int, lower: int = 0):
        tasks = tuple(tasks)
        for i, t in enumerate(tasks):
            validate_task(i, t)
        vars(self).update(tasks=tasks, harmonic=is_chain(t.p for t in tasks),
                          jittered=any(t.jitter for t in tasks),
                          _form=[],  # shared by every `at` copy
                          _terms=tuple((t.c, t.p, t.jitter + t.p - 1) for t in tasks))
        self._set_constants(gamma, lower, lambda g: bounds_from_parts(g, tasks))

    def at(self, gamma: int, lower: int = 0) -> ResponseQuery:
        """This query at another constant gamma and certified lower bound,
        checked as a build is.  Only `bounds` depends on gamma, derived from
        its load aggregate.  The interferers, the flags, the compiled W and
        the mixing form are shared."""
        return self._copy()._set_constants(gamma, lower, self.bounds.at)

    def plus(self, t: Task, gamma: int, lower: int = 0) -> ResponseQuery:
        """This query with interferer t, below all of its interferers in
        priority, added at gamma and lower: the bounds come from the load
        aggregate, the chain flag holds when t's period is comparable with
        every other (as a chain's pairs are), and W gains one term.  Gamma
        and lower are checked as a build checks them; t is not, since its
        one caller, `analyze_system`, adds tasks that its one `validate`
        has checked."""
        return self._copy(
            _form=[], jittered=self.jittered or t.jitter > 0, tasks=self.tasks + (t,),
            harmonic=self.harmonic and all(t.p % u.p == 0 or u.p % t.p == 0 for u in self.tasks),
            _terms=self._terms + ((t.c, t.p, t.jitter + t.p - 1),),
        )._set_constants(gamma, lower, lambda g: self.bounds.plus(t, g))

    def _copy(self, **changes) -> ResponseQuery:
        q = object.__new__(ResponseQuery)
        vars(q).update(vars(self), **changes)
        return q

    def _set_constants(self, gamma: int, lower: int,
                       bounds: Callable[[int], BoundsResult]) -> ResponseQuery:
        if not is_integer(gamma) or gamma < 1:
            raise InvalidInstance(f"gamma must be an integer >= 1, got {gamma!r}")
        if not is_integer(lower) or lower < 0:
            raise InvalidInstance(f"lower bound must be an integer >= 0, got {lower!r}")
        result = bounds(gamma)  # raises UtilizationExceeded at U >= 1
        if lower > result.u:
            raise InvalidInstance(f"lower bound {lower} exceeds the certified bound {result.u}")
        vars(self).update(gamma=gamma, bounds=result, lower=lower)
        return self

    def workload(self, t: int) -> int:
        """W(t) = gamma + sum c_i * ((t + o_i) // p_i), o_i = jitter_i + p_i - 1,
        through the interferers compiled once as integer terms; it equals
        `core.workload(self.tasks, self.gamma, t)`."""
        w = self.gamma
        for c, p, o in self._terms:
            w += c * ((t + o) // p)
        return w

    @property
    def form(self) -> mixing.MixForm:
        """The interferers' mixing form, one term (c_i, p_i, jitter_i) each,
        so that Mix(I, k) is the form at base k; compiled on first need."""
        if not self._form:
            inst = mixing.MixInstance(1, [(t.c, t.p, t.jitter) for t in self.tasks])
            self._form.append(mixing.compile_mix(inst))
        return self._form[0]


def response_bruteforce(q: ResponseQuery) -> int:
    """Least fixed point of t -> gamma + sum c_i*ceil((t+jitter_i)/p_i),
    iterated upward from gamma.  Monotone, so it converges to the least
    feasible t; the certified upper bound doubles as an iteration guard."""
    t = q.gamma
    while True:
        counters.bump("fixpoint_iters")
        nxt = workload(q.tasks, q.gamma, t)
        if nxt == t:
            break
        if nxt > q.bounds.u:
            raise InternalInvariantViolated(
                f"fixed-point iteration escaped the certified bound {q.bounds.u}"
            )
        t = nxt
    return t


def decide_large_k(q: ResponseQuery, k: int, lo: int) -> tuple[bool, int]:
    """Decide response(I, gamma) <= k for k >= 1, given 0 <= lo <= k, a
    certified lower bound on the response r, and return the verdict with its
    witness t* = k - s*.

    r <= k holds exactly when some t in [lo, k] has W(t) <= t.  At s = k - t
    the objective of Mix(I, k), the query's mixing form at base k, is
    W(t) - gamma + k - t, so the decision is Mix(I, k) <= k - gamma over
    s in [0, k - lo]: `mixing.solve` searches the form cut to that width
    (`MixForm.at`) with no check repeated, and its smallest optimal s*
    names the largest t* in [lo, k] that minimizes W(t) - t.  A yes means
    W(t*) <= t*, so r <= W(t*) <= t* <= k.  This is exact at every k >= lo,
    on any periods: no multiplier is forced and no k is refused for lying
    below S.  The form searches s only up to min(S, k - lo), which loses
    nothing, since the smallest optimal s of Mix(I, k) over all s >= 0 lies
    in [0, S].
    """
    require_integers(k=k, lo=lo)
    if k < 1:
        raise PreconditionViolated(f"decision probes need k >= 1, got {k}")
    if not 0 <= lo <= k:
        raise PreconditionViolated(f"a decision needs 0 <= lo <= k, got lo={lo}, k={k}")
    counters.bump("decision_probes")
    sol = mixing.solve(q.form.at(k, k - lo))
    return sol.objective <= k - q.gamma, k - sol.s


def _search(q: ResponseQuery, lo: int, hi: int, algorithm: str, scan: Iterable[int] = ()) -> int:
    """The response r, given lo <= r <= hi, through one narrowing rule (see
    the module docstring): W(k) <= k gives r <= W(k) with no decision;
    otherwise `decide_large_k` decides "r <= k" over the window's lower end
    lo, which every step keeps certified.  A yes names lo <= t* < k with
    W(t*) <= t* (the verdict implies the second, and W(k) > k rules out
    t* = k), so r <= W(t*); a witness that fails this raises
    InternalInvariantViolated.  A no gives r >= max(k + 1, W(k + 1)).  The
    rule runs first at each k of the ascending `scan` that lies in the
    window, then `core.bracket` bisects what is left.  The answer is
    checked against the recurrence: feasible, and t - 1 is not.  No
    decision can trip either check.  The upper end stays feasible: u is
    certified, and W(t) <= t keeps W(W(t)) <= W(t), W being monotone.  The
    bracket returns its last lower end, and a no sets it to
    max(k + 1, W(k + 1)) at a k with W(k) > k, which leaves every t from k
    up to it infeasible.  So the first check catches a wrong certified upper
    end and the second a start above the response: a caller's `lower` that
    is not the lower bound it certifies (`ResponseQuery`)."""

    def narrow(k: int, lo: int, hi: int) -> tuple[int, int]:
        w = q.workload(k)
        if w <= k:
            counters.bump("recurrence_verdicts")
            return lo, w
        feasible, t = decide_large_k(q, k, lo)
        if not feasible:
            return max(k + 1, q.workload(k + 1)), hi
        if lo <= t < k and (w_t := q.workload(t)) <= t:
            return lo, w_t
        raise InternalInvariantViolated(
            f"{algorithm}: a yes at k={k} names the witness t={t}, not a feasible t in [{lo}, {k})")

    for k in scan:
        if lo <= k < hi:
            lo, hi = narrow(k, lo, hi)
    t = core.bracket(lo, hi, narrow)
    if q.workload(t) > t:
        raise InternalInvariantViolated(f"{algorithm} returned infeasible t={t}")
    if t > q.gamma and q.workload(t - 1) <= t - 1:
        raise InternalInvariantViolated(f"{algorithm} returned t={t}, but t - 1 is feasible")
    return t


def _climb_then_search(q: ResponseQuery, t0: int, budget: int, algorithm: str) -> int:
    """The response r, given t0 <= r, by the one body of every search.
    Climb t <- W(t) from t0 for at most `budget` steps; at the first t with
    W(t) <= t, t is r.  Every iterate is a certified lower bound too: W is
    monotone and W(r) = r.  `fixpoint_iters` is bumped once, by the number
    of W evaluations, also when the climb raises.  A climb that leaves the
    query unsettled hands off (counted as `auto_handoffs`) to `_search` from
    max(last iterate, ceil(ell)) up to u, or up to the lcm m when W(m) <= m,
    which probes the sorted distinct nonzero differences d_j = p_j - jitter_j
    first when the periods form a chain."""
    u = q.bounds.u
    t = t0
    steps = 0
    try:
        for steps in range(1, budget + 1):
            nxt = q.workload(t)
            if nxt <= t:
                return t
            if nxt > u:
                raise InternalInvariantViolated(
                    f"fixed-point iteration escaped the certified bound {u}"
                )
            t = nxt
    finally:
        counters.bump("fixpoint_iters", steps)
    counters.bump("auto_handoffs")
    m = q.bounds.m
    hi = min(u, m) if q.workload(m) <= m else u
    scan = sorted({task.p - task.jitter for task in q.tasks} - {0}) if q.harmonic else ()
    return _search(q, max(t, q.bounds.ceil_ell), hi, algorithm, scan)


def response_harmonic(q: ResponseQuery) -> int:
    """The harmonic walk: climb from t0 = max(gamma, lower) for at most
    (u - t0 + 1).bit_length() steps, no fewer than the bisection's
    (u - t0).bit_length() probes on [t0, u], then search
    (`_climb_then_search`), probing the differences d_j upward before it
    bisects.  The differences are only its probe order: on the harmonic
    geometric system at k = 14 (c_i = 1, p_i = 2^i, no jitter), `auto` makes
    3 decision probes over all its levels, with them or by bisection alone
    below the cap at m."""
    if not q.harmonic:
        raise PreconditionViolated("periods do not form a divisibility chain")
    t0 = max(q.gamma, q.lower)
    return _climb_then_search(q, t0, (q.bounds.u - t0 + 1).bit_length(), "harmonic walk")


def _general_search(q: ResponseQuery) -> int:
    """Climb from t0 = max(lower, ceil(ell)), a certified lower bound
    (Sjodin and Hansson, RTSS 1998), for at most B steps, then search
    (`_climb_then_search`).

    B is ski rental (Karlin, Manasse, Rudolph and Sleator, Algorithmica
    1988) in `mixing_ops` units: one W evaluation costs n = |I|, and one
    decision at most n + 1 + sum_i (S // p_i + 1), the brute-force scan's
    own count over the drop points of [0, S].  So the climb keeps going
    while its evaluations cost less than one decision, B = ceil(that / n),
    and a query it leaves unsettled has spent at most about one decision
    more than the decisions that settle it."""
    n = len(q.tasks)
    scan = n + 1 + sum(q.bounds.s // t.p + 1 for t in q.tasks)  # one decision's ops bound
    return _climb_then_search(q, max(q.lower, q.bounds.ceil_ell), -(-scan // max(1, n)),
                              "general-period search")


def response_turing(q: ResponseQuery) -> int:
    """The general-period search (`_general_search`), for any periods."""
    return _general_search(q)


def response_jitter_free(q: ResponseQuery) -> int:
    """The general-period search (`_general_search`), for zero-jitter
    queries only."""
    if q.jittered:
        raise PreconditionViolated("jitter-free search requires jitter = 0 over I")
    return _general_search(q)


_DISPATCH = {
    "bruteforce": response_bruteforce,
    "harmonic": response_harmonic,
    "turing": response_turing,
    "jitter-free": response_jitter_free,
}

ALGORITHMS = ("auto", *_DISPATCH)


def compute_response(q: ResponseQuery, algorithm: str = "auto") -> int:
    """Run the selected algorithm.  "auto" picks by the period class only:
    `harmonic` on a chain, else `turing` with jitter and `jitter-free`
    without; the module docstring says why."""
    if algorithm == "auto":
        algorithm = "harmonic" if q.harmonic else "turing" if q.jittered else "jitter-free"
    if algorithm not in _DISPATCH:
        raise InvalidInstance(f"unknown algorithm {algorithm!r}")
    return _DISPATCH[algorithm](q)


@dataclass(frozen=True)
class TaskVerdict:
    index: int
    response: int
    deadline_budget: int  # d_j - jitter_j
    schedulable: bool


@dataclass(frozen=True)
class SystemVerdict:
    tasks: tuple[TaskVerdict, ...]
    schedulable: bool

    def responses(self) -> tuple[int, ...]:
        return tuple(t.response for t in self.tasks)


def analyze_system(ts: TaskSystem, algorithm: str = "auto") -> SystemVerdict:
    """Per-task responses r_j = response([0..j-1], c_j) and the schedulability
    verdict r_j <= d_j - jitter_j; the overall verdict is their conjunction.

    Each level starts from r_{j-1} + c_j, a certified lower bound on r_j
    (Davis, Zabos and Burns, IEEE TC 2008): a t feasible for task j gives a
    t - c_j feasible for task j - 1.  Level j's query is level j - 1's with
    task j - 1 added (`ResponseQuery.plus`, which relies on the one
    `validate(ts)` here), so each task is checked once."""
    validate(ts)
    if any(t.d is None for t in ts.tasks):
        raise PreconditionViolated("schedulability analysis requires deadlines on every task")
    verdicts = []
    for j, task in enumerate(ts.tasks):
        lower = verdicts[-1].response + task.c if verdicts else 0
        q = q.plus(ts.tasks[j - 1], task.c, lower) if j else ResponseQuery((), task.c)
        r = compute_response(q, algorithm)
        budget = task.d - task.jitter
        verdicts.append(TaskVerdict(j, r, budget, r <= budget))
    return SystemVerdict(tuple(verdicts), all(v.schedulable for v in verdicts))

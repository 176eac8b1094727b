"""Response-time computation by dualized reduction to mixing set programs.

The generalized query is: given interfering tasks I and a constant gamma >= 1,
find the least t >= 0 with

    t >= W(t) = gamma + sum_{i in I} c_i * ceil((t + jitter_i) / p_i).

`response_bruteforce` solves it by the classic monotone fixed-point iteration
and is the oracle for everything else.  The other algorithms answer the
decision "response <= k?" through the equivalent mixing set question
"Mix(I, k) <= k - gamma?", where Mix(I, k) has one term (w=c_i, a=p_i,
b=k+jitter_i) per interferer.  That equivalence is only valid once k reaches
a certified bound S on the optimal s of the mixing instance, hence:

* `response_turing` (any periods): decide at k = S (by the recurrence alone
  when W(S) <= S, see below); on yes, run the fixed-point iteration from
  max(gamma, lower), which stops at the least feasible t and so at most at
  S; on no, search (S, u] where every probe is valid.
* `response_harmonic` (harmonic periods): at a probe k, every task with
  p_j >= k has its optimal multiplier forced to 1 or 2 by the probe's
  position relative to d_j = p_j - jitter_j, so those tasks leave the
  residual instance and the probe stays above every residual period.  The
  walk first probes the sorted distinct nonzero differences d_j upward
  until one is feasible, then searches the interval that leaves.
* `response_jitter_free`: with zero jitter (s=k, x=0) is always feasible for
  the mixing instance, so every k is decidable and the search needs no gate.

All of them decide through `decide_large_k`, the one dualized oracle.
Every search is bracketed by the recurrence (`_bracket`): the response r is
a fixed point of the monotone W, so a yes at k gives r <= min(k, W(k)) and
a no gives r >= max(k + 1, W(k + 1)).  W(k) is computed before the decision,
and when W(k) <= k, k is itself feasible: the recurrence gives the yes in
O(n), with r <= W(k), and no mixing solve runs (a free verdict, counted as
`recurrence_verdicts`; `decision_probes` counts only the oracle's calls).
The searches bisect and tighten the bracket this way after each verdict; the
width still at least halves per step, so a search decides at most
ceil(log2(hi - lo + 1)) times.  The harmonic walk starts its lower end at
ceil(ell), the certified lower bound of `core.bounds_from_parts` (Sjodin and
Hansson, RTSS 1998), or at the query's `lower` when that is larger; it
tightens that end the same way after each infeasible difference, and skips
the differences below it.  Its difference probes always run the mixing
solve, so each records the forced multipliers that the walk's audit checks.

`compute_response(q, "auto")` on harmonic periods runs the fixed point
first.  On a query with interferers it iterates t <- W(t) from
t0 = max(gamma, lower), a certified lower bound, for at most
(u - t0 + 1).bit_length() steps: the most bisection steps `_bracket` can
take on [t0, u].  When W(t) <= t, t is the response.  Otherwise the last
iterate, a certified lower bound since W is monotone and W(r) = r, becomes
the query's `lower`, and `auto` hands off to the walk, which starts above
everything the iteration spent (ski rental: Karlin, Manasse, Rudolph and
Sleator, Algorithmica 1988).  The budget counts steps, not work.  Every
walk probe evaluates W at least once and adds at most a solve over |I|
chain levels, so on harmonic periods the iteration spends no more than a
constant times what the walk's bisection can spend.  On general periods a
probe sweeps the drop points up to min(S, k), which can cost thousands of
W evaluations, so a step count bounds nothing there: `auto` runs
`jitter-free` (zero jitter) or `turing` alone, as an explicit algorithm
always does.  The budget comes from the query; nothing is tuned.  Most
queries of random harmonic systems settle in the first leg; the geometric
family, where the fixed point needs thousands of steps, hands off.

Every algorithm takes a `ResponseQuery`, the one compiled form of a query,
and no other setting.  A query is validated once, when it is built, and
holds the interferer tuple, its `BoundsResult` (which carries the exact
utilization; building a query at utilization >= 1 raises), its certified S,
and whether the periods form a chain (`harmonic`) and some interferer has
jitter (`jittered`), all computed then under the magnitude cap that
RTMIX_LIMIT_BITS sets; no algorithm or probe recomputes them.
`decide_large_k` refuses a k below a query's S when the query is
`jittered`; with no jitter, S <= k holds for every probe.  A query may also
carry a certified lower bound on its response (`lower`, 0 when none is
known), from which `auto`, `harmonic`, `turing` and `jitter-free` start;
`analyze_system` sets it to r_{j-1} + c_j for level j, `auto` raises it to
its last iterate when it hands off (`ResponseQuery.with_lower`), and
`response_bruteforce`, the independent baseline, ignores it.

The harmonic walk compiles its mixing chain once per query
(`mixing.compile_harmonic`: one term (c_i, p_i, jitter_i) per interferer,
sorted into period levels, checked once), on the first probe whose residual
is not empty; a walk whose probes never reach a mixing solve compiles none.
A residual probe at k is the chain's prefix of levels below k with
right-hand sides k + jitter_i, passed to `decide_large_k` as a `Residual`;
it needs no S, since the walk keeps every residual period below the probe,
and no check beyond that, so a probe costs only the search over its levels.
`compute_response` is the only algorithm selector; `reverse` calls it too.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import counters, mixing
from .core import (
    BoundsResult,
    Task,
    TaskSystem,
    bounds_from_parts,
    is_harmonic,
    is_integer,
    lcm_capped,
    validate,
    workload,
)
from .errors import (
    InternalInvariantViolated,
    InvalidInstance,
    PreconditionKTooSmall,
    PreconditionViolated,
)

@dataclass(frozen=True)
class ResponseQuery:
    """Interference set I (indices into the system) plus the constant gamma,
    compiled once: `tasks` is the interferer tuple, `bounds` its certified
    interval with its exact utilization, `s_bound` the certified bound S
    on the optimal s of every Mix(I, k), `harmonic` whether the interferers'
    periods form a divisibility chain and `jittered` whether some
    interferer has jitter.  `lower` is a lower bound on the response that
    the caller certifies (0 when it knows none); the searches start from it.
    `analyze_system` sets it, and `auto` raises it on a hand-off."""

    system: TaskSystem
    indices: tuple[int, ...]
    gamma: int
    tasks: tuple[Task, ...]
    bounds: BoundsResult
    s_bound: int
    harmonic: bool
    jittered: bool
    lower: int

    def __init__(self, system: TaskSystem, indices: Sequence[int], gamma: int, lower: int = 0):
        indices = tuple(sorted(set(indices)))
        if not is_integer(gamma) or gamma < 1:
            raise InvalidInstance(f"gamma must be an integer >= 1, got {gamma!r}")
        if not is_integer(lower) or lower < 0:
            raise InvalidInstance(f"lower bound must be an integer >= 0, got {lower!r}")
        n = len(system.tasks)
        if any(not 0 <= i < n for i in indices):
            raise InvalidInstance("interference indices out of range")
        tasks = tuple(system.tasks[i] for i in indices)
        bounds = bounds_from_parts(gamma, tasks)  # raises UtilizationExceeded at U >= 1
        # Independent of k, since the right-hand sides do not enter S.
        s_bound = mixing.certified_s_bound(mixing.MixInstance(1, [(t.c, t.p, 0) for t in tasks]))
        if lower > bounds.u:
            raise InvalidInstance(f"lower bound {lower} exceeds the certified bound {bounds.u}")
        harmonic = is_harmonic([t.p for t in tasks])
        jittered = any(t.jitter for t in tasks)
        for name, value in (("system", system), ("indices", indices), ("gamma", gamma),
                            ("tasks", tasks), ("bounds", bounds), ("s_bound", s_bound),
                            ("harmonic", harmonic), ("jittered", jittered), ("lower", lower)):
            object.__setattr__(self, name, value)

    def with_lower(self, lower: int) -> ResponseQuery:
        """This query with `lower` raised to a bound the caller certifies,
        lower <= r <= u; nothing is recomputed or checked again."""
        q = copy.copy(self)
        object.__setattr__(q, "lower", lower)
        return q


class Residual(NamedTuple):
    """One decision probe of the harmonic walk at k: the interferers with
    period below k, as the lowest `depth` levels of the walk's compiled chain
    (right-hand sides k + jitter_i; no chain when `depth` is 0), and the
    constant gamma' that the tasks with forced multipliers add to gamma."""

    chain: mixing.HarmonicChain | None
    depth: int
    gamma: int


@dataclass
class ProbeRecord:
    """Instrumentation record of one decision probe (for invariant audits)."""

    phase: str                  # "difference" or "bisection"
    k: int
    forced: dict[int, int]      # task index -> forced multiplier (1 or 2)
    residual: tuple[int, ...]
    gamma_prime: int
    feasible: bool


def response_bruteforce(q: ResponseQuery) -> int:
    """Least fixed point of t -> gamma + sum c_i*ceil((t+jitter_i)/p_i),
    iterated upward from gamma.  Monotone, so it converges to the least
    feasible t; the certified upper bound doubles as an iteration guard."""
    if not q.indices:
        return q.gamma
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


def _iterate(q: ResponseQuery, t: int, budget: int) -> tuple[int, bool]:
    """At most `budget` steps of t <- W(t) from t, a certified lower bound on
    the response r.  Returns (r, True) at the first t with W(t) <= t, which
    is then r itself; else (the last iterate, False).  Every iterate is a
    certified lower bound too: W is monotone and W(r) = r."""
    for _ in range(budget):
        counters.bump("fixpoint_iters")
        nxt = workload(q.tasks, q.gamma, t)
        if nxt <= t:
            return t, True
        if nxt > q.bounds.u:
            raise InternalInvariantViolated(
                f"fixed-point iteration escaped the certified bound {q.bounds.u}"
            )
        t = nxt
    return t, False


def build_mix_for_k(q: ResponseQuery, k: int) -> mixing.MixInstance:
    """Mixing instance deciding response <= k: term (w=c_i, a=p_i, b=k+jitter_i)."""
    if k < 1:
        raise PreconditionViolated(f"decision probes need k >= 1, got {k}")
    return mixing.MixInstance(1, [(t.c, t.p, k + t.jitter) for t in q.tasks])


def decide_large_k(q: ResponseQuery | Residual, k: int) -> bool:
    """Decide response(I, gamma) <= k through Mix(I, k) <= k - gamma.

    Valid for k at or above the certified bound S, so a built query with
    jitter refuses any smaller k (the gate).  With zero jitter the pair
    (s=k, x=0) is feasible for Mix(I, k) and anything with s > k is strictly
    worse, so some optimal s lies at or below min(S, k) and every k >= 1 is
    decidable; the solve scans s up to that.  A `Residual` of the harmonic walk
    carries no S: the walk certifies the reduction by construction (every
    residual period lies below k, which `_Walk.decide` checks), and its
    mixing instance is a prefix of the walk's chain at right-hand sides
    k + jitter_i, checked when the chain was compiled.
    """
    if isinstance(q, Residual):
        if not q.depth:
            return k >= q.gamma
        counters.bump("decision_probes")
        return mixing.solve_harmonic(q.chain.prefix(q.depth, k)).objective <= k - q.gamma
    if not q.indices:
        if k < 1:
            raise PreconditionViolated(f"decision probes need k >= 1, got {k}")
        return k >= q.gamma
    if k < q.s_bound and q.jittered:
        raise PreconditionKTooSmall(k, q.s_bound)
    counters.bump("decision_probes")
    inst = build_mix_for_k(q, k)
    if q.harmonic:
        sol = mixing.solve_harmonic(inst)
    else:
        sol = mixing.solve_bruteforce(inst, s_bound=min(q.s_bound, k))
    return sol.objective <= k - q.gamma


def _walk_chain(q: ResponseQuery) -> mixing.HarmonicChain:
    """The walk's mixing chain, compiled once per query: term (c_i, p_i, jitter_i)
    per interferer, so a probe at k is a prefix of it at base k."""
    return mixing.compile_harmonic(mixing.MixInstance(1, [(t.c, t.p, t.jitter) for t in q.tasks]))


class _Walk:
    """One harmonic walk over a query, and the probes it makes.  The chain is
    compiled on the first probe whose residual is not empty, so a walk whose
    probes never reach a mixing solve compiles and validates none."""

    def __init__(self, q: ResponseQuery, trace: list[ProbeRecord] | None):
        if not q.harmonic:
            raise PreconditionViolated("periods do not form a divisibility chain")
        self.q = q
        self.trace = trace
        self.chain: mixing.HarmonicChain | None = None
        self.p_min = min((t.p for t in q.tasks), default=math.inf)

    def decide(self, phase: str, k: int, lo: int) -> bool:
        """Probe k >= lo, lo a certified lower bound on the response:
        Mix(residual, k) <= k - gamma'.  With d_j = p_j - jitter_j, task j's
        multiplier is forced to 1 when k <= d_j and to 2 when d_j < lo and
        k <= p_j; the rest form the residual.  No difference lies in [lo, k),
        so residual periods lie below k and the residual is the chain's
        prefix below k; a residual that is not raises InternalInvariantViolated."""
        q, tasks = self.q, self.q.system.tasks
        forced = {}
        for j, t in zip(q.indices, q.tasks):
            if k <= t.p - t.jitter:
                forced[j] = 1
            elif t.p - t.jitter < lo and k <= t.p:
                forced[j] = 2
        residual = tuple(j for j in q.indices if j not in forced)
        if residual:
            if self.chain is None:
                self.chain = _walk_chain(q)
            chain = self.chain
            depth = bisect.bisect_left(chain.levels, k)
            exact = len(residual) == sum(map(len, chain.groups[:depth]))
        else:
            chain, depth, exact = None, 0, self.p_min >= k
        if not exact or any(tasks[j].p >= k for j in residual):
            raise InternalInvariantViolated("residual set is not the chain below the probe")
        gamma_prime = q.gamma + sum(tasks[j].c * m for j, m in forced.items())
        feasible = decide_large_k(Residual(chain, depth, gamma_prime), k)
        if self.trace is not None:
            self.trace.append(ProbeRecord(phase, k, forced, residual, gamma_prime, feasible))
        return feasible


def _least_fixed_point(q: ResponseQuery, t: int, algorithm: str) -> int:
    """t, after checking it against the recurrence: feasible, and t - 1 is not."""
    if workload(q.tasks, q.gamma, t) > t:
        raise InternalInvariantViolated(f"{algorithm} returned infeasible t={t}")
    if t > q.gamma and workload(q.tasks, q.gamma, t - 1) <= t - 1:
        raise InternalInvariantViolated(f"{algorithm} returned non-minimal t={t}")
    return t


def _bracket(q: ResponseQuery, lo: int, hi: int, decide: Callable[[int], bool]) -> int:
    """The response r, given lo <= r <= hi and a decision decide(k) that
    answers "r <= k".

    Bisects, and each verdict also tightens the bracket through the
    recurrence: r is a fixed point of the monotone workload W, so a yes at k
    gives r <= W(k) besides r <= k, and a no gives r >= W(k + 1) besides
    r >= k + 1.  W(k) comes first: when W(k) <= k, k is feasible, so the
    yes is free and `decide` is not called; `decide` only sees a k with
    W(k) > k.  The bracket still at least halves per step, so a search calls
    `decide` at most ceil(log2(hi - lo + 1)) times.
    """
    while lo < hi:
        k = (lo + hi) // 2
        w = workload(q.tasks, q.gamma, k)
        if w <= k:
            counters.bump("recurrence_verdicts")
            hi = w
        elif decide(k):
            hi = k
        else:
            lo = max(k + 1, workload(q.tasks, q.gamma, k + 1))
    if lo != hi:
        raise InternalInvariantViolated(f"the verdicts emptied the bracket [{lo}, {hi}]")
    return lo


def response_harmonic(q: ResponseQuery, *, trace: list[ProbeRecord] | None = None) -> int:
    """The harmonic walk: probe the distinct nonzero differences upward from
    lo = max(lower, ceil(ell)), skipping those below lo; a no at k raises lo
    to max(k + 1, W(k + 1)), a yes caps hi at min(k, W(k)) and ends the scan.
    Then `_bracket` searches [lo, hi]; no difference lies in [lo, hi), so the
    forcing by that lo stays valid.  The answer is re-checked against the
    recurrence."""
    if not q.indices:
        return q.gamma
    walk = _Walk(q, trace)  # raises PreconditionViolated unless the periods form a chain
    lo, hi = max(q.lower, math.ceil(q.bounds.ell)), q.bounds.u
    for k in sorted({t.p - t.jitter for t in q.tasks} - {0}):
        if k < lo:
            continue
        if walk.decide("difference", k, lo):
            hi = min(k, workload(q.tasks, q.gamma, k))
            break
        lo = max(k + 1, workload(q.tasks, q.gamma, k + 1))
    t = _bracket(q, lo, hi, lambda k: walk.decide("bisection", k, lo))
    return _least_fixed_point(q, t, "harmonic walk")


def _affirmed_at(q: ResponseQuery, k: int) -> bool:
    """The decision "r <= k", by the recurrence when W(k) <= k, else by the
    dualized oracle."""
    if workload(q.tasks, q.gamma, k) <= k:
        counters.bump("recurrence_verdicts")
        return True
    return decide_large_k(q, k)


def response_turing(q: ResponseQuery) -> int:
    """Decide at the certified bound S; on yes the response is at most S and the
    fixed-point iteration from t0 = max(gamma, lower) reaches it within
    S - t0 + 1 steps, on no run the bracketed search (`_bracket`) above S,
    where every probe passes the gate.  When W(S) <= S, S is feasible, so
    the yes at S is free; only otherwise does the decision solve Mix(I, S).
    A certified lower bound above S skips the decision at S; the search
    starts at the largest of S + 1, W(S + 1), ceil(ell) and that bound."""
    if not q.indices:
        return q.gamma
    s_cert = q.s_bound
    if s_cert >= max(1, q.lower) and _affirmed_at(q, s_cert):
        t0 = max(q.gamma, q.lower)
        t, settled = _iterate(q, t0, s_cert - t0 + 1)
        if not settled:
            raise InternalInvariantViolated(
                f"decision at S={s_cert} affirmed but the fixed point exceeds it"
            )
        return t
    lo = max(s_cert + 1, workload(q.tasks, q.gamma, s_cert + 1), math.ceil(q.bounds.ell), q.lower)
    t = _bracket(q, lo, q.bounds.u, lambda k: decide_large_k(q, k))
    return _least_fixed_point(q, t, "bracketed search")


def response_jitter_free(q: ResponseQuery) -> int:
    """Unconditional bracketed search (`_bracket`) for zero-jitter queries,
    from the largest of gamma, ceil(ell) and the certified lower bound.

    With jitter 0, `decide_large_k` decides every k >= 1 (see there).
    """
    tasks = q.tasks
    if q.jittered:
        raise PreconditionViolated("jitter-free search requires jitter = 0 over I")
    if not q.indices:
        return q.gamma
    lo = max(q.gamma, math.ceil(q.bounds.ell), q.lower)
    hi = q.bounds.u
    m = lcm_capped(t.p for t in tasks)
    if workload(tasks, q.gamma, m) <= m:
        hi = min(hi, m)
    t = _bracket(q, lo, hi, lambda k: decide_large_k(q, k))
    return _least_fixed_point(q, t, "jitter-free search")


_DISPATCH = {
    "bruteforce": response_bruteforce,
    "harmonic": response_harmonic,
    "turing": response_turing,
    "jitter-free": response_jitter_free,
}

ALGORITHMS = ("auto", *_DISPATCH)


def compute_response(q: ResponseQuery, algorithm: str = "auto") -> int:
    """Run the selected algorithm.

    "auto" on harmonic periods first iterates t <- W(t) from
    t0 = max(gamma, lower) for at most (u - t0 + 1).bit_length() steps, the
    most bisection steps `_bracket` can take on [t0, u].  It returns t once
    W(t) <= t, and otherwise hands the last iterate, as `lower`, to the walk
    (counted as `auto_handoffs`).  The bound counts steps, not work; it
    holds for the walk, whose every probe evaluates W, and not for the
    general-period searches, whose probes can cost thousands of W
    evaluations (see the module docstring).  So on other periods "auto"
    runs `jitter-free` (zero jitter) or `turing` alone, as an explicit
    algorithm does."""
    if algorithm == "auto":
        if q.harmonic:
            if q.indices:
                t0 = max(q.gamma, q.lower)
                t, settled = _iterate(q, t0, (q.bounds.u - t0 + 1).bit_length())
                if settled:
                    return t
                counters.bump("auto_handoffs")
                q = q.with_lower(t)
            algorithm = "harmonic"
        elif not q.jittered:
            algorithm = "jitter-free"
        else:
            algorithm = "turing"
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
    verdict r_j <= d_j - jitter_j; the system verdict is their conjunction.

    Each level starts from r_{j-1} + c_j, a certified lower bound on r_j
    (Davis, Zabos and Burns, IEEE TC 2008): a t feasible for task j gives a
    t - c_j feasible for task j - 1."""
    validate(ts)
    if any(t.d is None for t in ts.tasks):
        raise PreconditionViolated("schedulability analysis requires deadlines on every task")
    verdicts = []
    for j, task in enumerate(ts.tasks):
        lower = verdicts[-1].response + task.c if verdicts else 0
        q = ResponseQuery(ts, range(j), task.c, lower)
        r = compute_response(q, algorithm)
        budget = task.d - task.jitter
        verdicts.append(TaskVerdict(j, r, budget, r <= budget))
    return SystemVerdict(tuple(verdicts), all(v.schedulable for v in verdicts))

"""Solver-maintained operation counters.

The complexity claims of the algorithms in this package are stated as
arithmetic-operation counts, so benchmarks report these counters next to wall
time.  Counting is off unless a `collect()` context is active; solvers call
`bump()` unconditionally, which is a no-op outside a collection scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class Counters:
    mixing_calls: int = 0      # mixing-set solves
    # Steps of mixing solves, each a search of a compiled form (`MixForm`,
    # which holds only the positive-weight terms) over s up to S, or up to a
    # decision's window when that is narrower.  Brute force: its n terms at
    # s = 0 plus one, then one per drop point.  Harmonic: per node, the
    # terms of its level (each evaluated once, its objective part carried
    # down) plus one; per leaf, one; per window its lower bound skips, one.
    mixing_ops: int = 0
    decision_probes: int = 0   # windowed decisions, `rta.decide_large_k`
    # Decisions "response <= k" of a bracketed search that W(k) <= k settled
    # without the oracle.
    recurrence_verdicts: int = 0
    # Evaluations of W in fixed-point iterations t <- W(t): the baseline's
    # and the climb of `auto`'s search.
    fixpoint_iters: int = 0
    # Queries whose climb ended unsettled within its budget and handed off
    # to the bracketed search.
    handoffs: int = 0
    # Node-budget units blockip's two-stage solver spent, out of budget too:
    # first-stage points entered or pieces of t, brick completions, DFS nodes.
    blockip_nodes: int = 0

    def as_dict(self) -> dict:
        """A fresh dict of every counter, in declaration order."""
        return dict(vars(self))


_active: ContextVar[Counters | None] = ContextVar("rtmix_counters", default=None)


def bump(name: str, amount: int = 1) -> None:
    c = _active.get()
    if c is not None:
        setattr(c, name, getattr(c, name) + amount)


@contextmanager
def collect():
    """Activate a fresh counter set for the dynamic extent of the block."""
    c = Counters()
    token = _active.set(c)
    try:
        yield c
    finally:
        _active.reset(token)

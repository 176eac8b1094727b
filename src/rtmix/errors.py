"""Exception hierarchy shared by all solver modules.

The CLI maps these onto exit codes (`cli.EXIT_CODES`): infeasible/unbounded
outcomes -> 1, invalid input -> 2, resource limits (the magnitude cap,
enumeration budgets, generation attempt caps) -> 3, internal errors -> 4.
"""


class RTMixError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstance(RTMixError):
    """An input object violates one of its structural invariants."""


class PreconditionViolated(RTMixError):
    """An operation was called outside its documented domain: a decision at
    k < 1 or over a window [lo, k] with lo outside [0, k], the harmonic walk
    on periods that form no chain, and the like."""


class UtilizationExceeded(RTMixError):
    """Higher-priority utilization is >= 1, so no finite response time exists."""


class OverflowLimit(RTMixError):
    """The search bound S exceeded the magnitude cap 2**63 - 1
    (`core.MAGNITUDE_CAP`), or a report held an integer too long to print."""


class Unbounded(RTMixError):
    """The optimization problem has no finite optimum."""


class Infeasible(RTMixError):
    """No feasible point exists in the searched range."""


class BudgetExceeded(RTMixError):
    """The exact enumeration backend ran past its node budget."""

    def __init__(self, explored: int, budget: int):
        super().__init__(f"enumeration budget exhausted after {explored} nodes (budget {budget})")
        self.explored = explored
        self.budget = budget


class GenerationFailed(RTMixError):
    """Rejection sampling did not produce a valid instance within the attempt cap."""


class HorizonTooSmall(RTMixError):
    """A released job could not finish before the simulation horizon."""


class VerifyMismatch(RTMixError):
    """Under `--verify`, an answer disagreed with the brute-force oracle."""


class InternalInvariantViolated(RTMixError):
    """A certified identity failed; indicates an arithmetic bug, not bad input."""

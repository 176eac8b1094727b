"""Exact response-time analysis for jittery fixed-priority task systems,
mixing set solvers, and the reductions connecting them."""

from .core import (
    BoundsResult,
    Task,
    TaskSystem,
    is_harmonic,
    response_bounds,
    utilization,
    validate,
)
from .mixing import MixInstance, MixSolution, MixTerm, complete
from .rta import ResponseQuery, analyze_system, compute_response
from .sim import ReleasePattern, ScheduleTrace, simulate

__all__ = [
    "BoundsResult",
    "MixInstance",
    "MixSolution",
    "MixTerm",
    "ReleasePattern",
    "ResponseQuery",
    "ScheduleTrace",
    "Task",
    "TaskSystem",
    "analyze_system",
    "complete",
    "compute_response",
    "is_harmonic",
    "response_bounds",
    "simulate",
    "utilization",
    "validate",
]

__version__ = "0.1.0"

"""Exact response-time analysis for jittery fixed-priority task systems,
mixing set solvers, and the reductions connecting them."""

from .core import (
    BoundsResult,
    Task,
    TaskSystem,
    check_general_utilization_bound,
    interval_width_certificates,
    is_harmonic,
    jitter_free_bounds,
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
    "check_general_utilization_bound",
    "complete",
    "compute_response",
    "interval_width_certificates",
    "is_harmonic",
    "jitter_free_bounds",
    "response_bounds",
    "simulate",
    "utilization",
    "validate",
]

__version__ = "0.1.0"

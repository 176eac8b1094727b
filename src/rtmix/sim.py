"""Preemptive fixed-priority uniprocessor simulator over explicit releases.

Discrete time, unit quanta: at each instant the released, unfinished job of
the highest-priority task runs; a release preempts lower-priority work in the
same instant.  Every job costs exactly c_i units, and every arrival, release
and horizon is a Python int.  Time stays discrete, but the loop advances
from event to event - the next release or the running job's completion -
and extends the last segment while the same task (or idle) continues, so
its cost grows with the number of jobs, not with the horizon.  The
simulator is the ground-truth cross-validator for the analysis side:
observed responses can never exceed the computed worst case, and one
bundled scenario reproduces a documented schedule strip exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Literal

from .core import TaskSystem, is_integer, require_integers, validate
from .errors import HorizonTooSmall, InvalidInstance, PreconditionViolated

# Widest strip `render_gantt` draws, in time units (columns).
GANTT_MAX_WIDTH = 1_000_000


@dataclass(frozen=True)
class JobRelease:
    arrival: int
    release: int


@dataclass(frozen=True)
class ReleasePattern:
    """Per-task job lists; index aligned with the task system."""

    jobs: tuple[tuple[JobRelease, ...], ...]

    def __init__(self, jobs: Iterable[Iterable[JobRelease | tuple[int, int]]]):
        norm = tuple(
            tuple(j if isinstance(j, JobRelease) else JobRelease(*j) for j in per_task)
            for per_task in jobs
        )
        object.__setattr__(self, "jobs", norm)


@dataclass(frozen=True)
class Segment:
    start: int
    end: int
    task: int | None  # None = idle


@dataclass(frozen=True)
class CompletedJob:
    task: int
    index: int
    arrival: int
    release: int
    completion: int


@dataclass(frozen=True)
class ScheduleTrace:
    horizon: int
    segments: tuple[Segment, ...]
    jobs: tuple[CompletedJob, ...]


def validate_pattern(ts: TaskSystem, rp: ReleasePattern) -> None:
    validate(ts)
    if len(rp.jobs) != len(ts.tasks):
        raise InvalidInstance(
            f"pattern covers {len(rp.jobs)} tasks, system has {len(ts.tasks)}"
        )
    for idx, (task, jobs) in enumerate(zip(ts.tasks, rp.jobs)):
        prev_arrival = None
        for job in jobs:
            if not (is_integer(job.arrival) and is_integer(job.release)):
                raise InvalidInstance(f"task {idx}: arrival and release must be integers")
            if job.arrival < 0:
                raise InvalidInstance(f"task {idx}: negative arrival {job.arrival}")
            if prev_arrival is not None and job.arrival - prev_arrival < task.p:
                raise InvalidInstance(
                    f"task {idx}: arrivals {prev_arrival},{job.arrival} closer than p={task.p}"
                )
            if not 0 <= job.release - job.arrival <= task.jitter:
                raise InvalidInstance(
                    f"task {idx}: release delay {job.release - job.arrival} outside "
                    f"[0, jitter={task.jitter}]"
                )
            prev_arrival = job.arrival


def simulate(ts: TaskSystem, rp: ReleasePattern, horizon: int) -> ScheduleTrace:
    """Run the schedule on [0, horizon); raises HorizonTooSmall if a job
    released inside the window cannot finish."""
    validate_pattern(ts, rp)
    require_integers(horizon=horizon)
    if horizon < 1:
        raise InvalidInstance(f"horizon must be >= 1, got {horizon}")

    # (release, task, job index) of the jobs released inside the window
    pending = sorted((job.release, t, j) for t, jobs in enumerate(rp.jobs)
                     for j, job in enumerate(jobs) if job.release < horizon)
    # per task, [job index, remaining cost] of its released, unfinished jobs;
    # a task's jobs are released in index order, so its queue's head runs first
    queues: list[deque[list[int]]] = [deque() for _ in ts.tasks]
    completions: list[CompletedJob] = []
    segments: list[Segment] = []
    cursor = now = 0
    while now < horizon:
        while cursor < len(pending) and pending[cursor][0] <= now:
            _, t, j = pending[cursor]
            queues[t].append([j, ts.tasks[t].c])
            cursor += 1
        # the highest-priority task with a released, unfinished job runs
        # until it completes or the next release, whichever is earlier
        t = next((t for t, queue in enumerate(queues) if queue), None)
        end = pending[cursor][0] if cursor < len(pending) else horizon
        if t is not None:
            head = queues[t][0]
            end = min(end, now + head[1])
            head[1] -= end - now
            if head[1] == 0:
                queues[t].popleft()
                job = rp.jobs[t][head[0]]
                completions.append(CompletedJob(t, head[0], job.arrival, job.release, end))
        if segments and segments[-1].task == t:
            segments[-1] = Segment(segments[-1].start, end, t)
        else:
            segments.append(Segment(now, end, t))
        now = end

    for t, queue in enumerate(queues):
        if queue:
            j = queue[0][0]
            raise HorizonTooSmall(
                f"job {j} of task {t} released at {rp.jobs[t][j].release} does not finish "
                f"within horizon {horizon}"
            )

    completions.sort(key=lambda c: (c.task, c.index))
    return ScheduleTrace(horizon, tuple(segments), tuple(completions))


def observed_responses(
    trace: ScheduleTrace, measure: Literal["release", "arrival"] = "release"
) -> list[int]:
    """Per completed job, completion minus release (or arrival)."""
    if measure not in ("release", "arrival"):
        raise InvalidInstance(f"unknown measure {measure!r}")
    origin = (lambda j: j.release) if measure == "release" else (lambda j: j.arrival)
    return [job.completion - origin(job) for job in trace.jobs]


def render_gantt(trace: ScheduleTrace, ts: TaskSystem) -> str:
    """Monospace strip per task plus a processor row; '#' marks execution.

    Each row is drawn from the segments, which tile [0, horizon) as
    `simulate` writes them, one column per time unit; a horizon past
    `GANTT_MAX_WIDTH` raises PreconditionViolated."""
    if trace.horizon > GANTT_MAX_WIDTH:
        raise PreconditionViolated(
            f"a Gantt strip of {trace.horizon} columns is wider than {GANTT_MAX_WIDTH}"
        )

    def strip(mark) -> str:
        return "".join(mark(seg.task) * (seg.end - seg.start) for seg in trace.segments)

    rows = [f"task{tidx:<2d} |{strip(lambda t: '#' if t == tidx else '.')}|"
            for tidx in range(len(ts.tasks))]
    rows.append(f"cpu    |{strip(lambda t: '.' if t is None else str(t % 10))}|")
    return "\n".join(rows)

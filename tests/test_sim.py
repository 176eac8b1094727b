"""Schedule simulator: trace reproduction, preemption rules, soundness."""

import math
import random

import pytest

from conftest import random_release_pattern
from rtmix import sim
from rtmix.core import Task, TaskSystem
from rtmix.errors import HorizonTooSmall, InvalidInstance, PreconditionViolated
from rtmix.gen import random_system
from rtmix.rta import ResponseQuery, response_bruteforce
from rtmix.sim import (
    ReleasePattern,
    Segment,
    observed_responses,
    render_gantt,
    simulate,
    validate_pattern,
)


@pytest.fixture
def demo_pattern():
    return ReleasePattern(
        [
            [(0, 8), (65, 73)],
            [(0, 5), (30, 35)],
            [(0, 25)],
        ]
    )


class TestValidatePattern:
    def test_demo_pattern_is_legal(self, demo_system, demo_pattern):
        validate_pattern(demo_system, demo_pattern)

    def test_arrival_separation_enforced(self, demo_system):
        rp = ReleasePattern([[(0, 0), (64, 64)], [], []])
        with pytest.raises(InvalidInstance, match="closer"):
            validate_pattern(demo_system, rp)

    def test_one_job_list_per_task(self, demo_system):
        with pytest.raises(InvalidInstance) as exc:
            validate_pattern(demo_system, ReleasePattern([[], []]))
        assert str(exc.value) == "pattern covers 2 tasks, system has 3"

    def test_negative_arrival_rejected(self, demo_system):
        with pytest.raises(InvalidInstance) as exc:
            validate_pattern(demo_system, ReleasePattern([[(-1, 0)], [], []]))
        assert str(exc.value) == "task 0: negative arrival -1"

    def test_release_delay_bounded_by_jitter(self, demo_system):
        rp = ReleasePattern([[(0, 9)], [], []])
        with pytest.raises(InvalidInstance, match="delay"):
            validate_pattern(demo_system, rp)

    # a release of 1.5 would otherwise report a response of 2.5
    @pytest.mark.parametrize("job", [(0, 1.5), (True, True)], ids=["fractional", "bool"])
    def test_non_integer_times_rejected(self, demo_system, job):
        with pytest.raises(InvalidInstance) as exc:
            validate_pattern(demo_system, ReleasePattern([[job], [], []]))
        assert str(exc.value) == "task 0: arrival and release must be integers"


class TestSimulate:
    def test_demo_schedule_strip(self, demo_system, demo_pattern):
        trace = simulate(demo_system, demo_pattern, 65)
        busy = [(s.start, s.end, s.task) for s in trace.segments if s.task is not None]
        assert busy == [
            (5, 8, 1),
            (8, 23, 0),
            (23, 27, 1),
            (27, 35, 2),
            (35, 42, 1),
            (42, 47, 2),
        ]
        tau3 = next(j for j in trace.jobs if j.task == 2)
        assert tau3.completion == 47

    def test_single_job_runs_contiguously(self):
        ts = TaskSystem([Task(4, 9, 0)])
        trace = simulate(ts, ReleasePattern([[(0, 0)]]), 9)
        assert trace.segments[0] == trace.segments[0].__class__(0, 4, 0)

    def test_preemption_at_the_release_instant(self):
        ts = TaskSystem([Task(2, 10, 3), Task(5, 10, 0)])
        trace = simulate(ts, ReleasePattern([[(0, 3)], [(0, 0)]]), 10)
        busy = [(s.start, s.end, s.task) for s in trace.segments if s.task is not None]
        assert busy == [(0, 3, 1), (3, 5, 0), (5, 7, 1)]

    def test_segments_partition_the_horizon(self, demo_system, demo_pattern):
        trace = simulate(demo_system, demo_pattern, 65)
        cursor = 0
        for seg in trace.segments:
            assert seg.start == cursor
            cursor = seg.end
        assert cursor == 65

    def test_horizon_too_small(self):
        ts = TaskSystem([Task(5, 9, 0)])
        with pytest.raises(HorizonTooSmall):
            simulate(ts, ReleasePattern([[(0, 0)]]), 3)

    def test_cost_does_not_grow_with_the_horizon(self):
        # one job at horizon 10**12: the loop jumps from its completion to
        # the horizon, one busy and one idle segment
        ts = TaskSystem([Task(4, 9, 0)])
        trace = simulate(ts, ReleasePattern([[(0, 0)]]), 10**12)
        assert trace.segments == (Segment(0, 4, 0), Segment(4, 10**12, None))
        assert [job.completion for job in trace.jobs] == [4]

    def test_deterministic(self, demo_system, demo_pattern):
        a = simulate(demo_system, demo_pattern, 65)
        b = simulate(demo_system, demo_pattern, 65)
        assert a == b


class TestSimulateInputs:
    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_1_rejected(self, demo_system, demo_pattern, horizon):
        with pytest.raises(InvalidInstance) as exc:
            simulate(demo_system, demo_pattern, horizon)
        assert str(exc.value) == f"horizon must be >= 1, got {horizon}"

    @pytest.mark.parametrize("horizon", [10.5, True])
    def test_non_integer_horizon_rejected(self, demo_system, demo_pattern, horizon):
        with pytest.raises(InvalidInstance) as exc:
            simulate(demo_system, demo_pattern, horizon)
        assert str(exc.value) == f"horizon must be an integer, got {horizon!r}"

    def test_unknown_measure_rejected(self, demo_system, demo_pattern):
        trace = simulate(demo_system, demo_pattern, 65)
        with pytest.raises(InvalidInstance) as exc:
            observed_responses(trace, "completion")
        assert str(exc.value) == "unknown measure 'completion'"


class TestObservedResponses:
    def test_demo_tau3_from_release_and_arrival(self, demo_system, demo_pattern):
        trace = simulate(demo_system, demo_pattern, 65)
        tau3 = next(j for j in trace.jobs if j.task == 2)
        assert tau3.completion - tau3.release == 22
        assert tau3.completion - tau3.arrival == 47

    def test_uninterrupted_job_costs_exactly_c(self):
        ts = TaskSystem([Task(4, 9, 2)])
        trace = simulate(ts, ReleasePattern([[(0, 2)]]), 9)
        assert observed_responses(trace, "release") == [4]
        assert observed_responses(trace, "arrival") == [6]


class TestWorkConservation:
    def test_idle_only_without_ready_work(self):
        for seed in range(40):
            ts = random_system(seed + 1200, random.Random(seed).randint(1, 4), 8)
            horizon = 3 * math.lcm(*ts.periods())
            rp = ReleasePattern(random_release_pattern(seed, ts, horizon))
            slack = sum(t.c for t in ts.tasks) * (horizon // min(ts.periods()) + 2)
            trace = simulate(ts, rp, horizon + slack)
            completions = {(j.task, j.index): j.completion for j in trace.jobs}
            for seg in trace.segments:
                if seg.task is not None:
                    continue
                for t_idx, jobs in enumerate(rp.jobs):
                    for j_idx, job in enumerate(jobs):
                        done = completions[(t_idx, j_idx)]
                        # a job is pending on [release, completion); pending
                        # work overlapping an idle segment breaks conservation
                        overlaps_idle = job.release < seg.end and done > seg.start
                        assert not overlaps_idle, (seed, seg, t_idx, j_idx)


class TestSoundnessAgainstAnalysis:
    def test_observed_never_exceeds_worst_case(self):
        # The analysis bounds the response of a job that is released into an
        # empty queue of its own task (one c_n term in the recurrence).  Under
        # overload consecutive lowest-priority jobs may queue behind each
        # other, so backlogged releases are outside the claim and skipped.
        checked = 0
        for seed in range(60):
            ts = random_system(seed + 2000, random.Random(seed).randint(1, 4), 10)
            n = len(ts.tasks)
            q = ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
            wcrt = response_bruteforce(q)
            horizon = 4 * math.lcm(*ts.periods())
            rp = ReleasePattern(random_release_pattern(seed, ts, horizon))
            slack = wcrt + sum(t.c for t in ts.tasks) * (horizon // min(ts.periods()) + 2)
            trace = simulate(ts, rp, horizon + slack)
            completions = {(j.task, j.index): j.completion for j in trace.jobs}
            for job in trace.jobs:
                if job.task != n - 1:
                    continue
                prior = completions.get((job.task, job.index - 1))
                if prior is not None and prior > job.release:
                    continue  # backlogged release: outside the analyzed premise
                checked += 1
                assert job.completion - job.release <= wcrt, (seed, ts, job, wcrt)
        assert checked > 100


class TestGantt:
    def test_render_contains_a_row_per_task(self, demo_system, demo_pattern):
        trace = simulate(demo_system, demo_pattern, 65)
        text = render_gantt(trace, demo_system)
        lines = text.splitlines()
        assert len(lines) == len(demo_system.tasks) + 1
        assert lines[0].startswith("task0")

    def test_demo_strip(self, demo_system, demo_pattern):
        assert render_gantt(simulate(demo_system, demo_pattern, 65), demo_system) == (
            "task0  |........###############..........................................|\n"
            "task1  |.....###...............####........#######.......................|\n"
            "task2  |...........................########.......#####..................|\n"
            "cpu    |.....111000000000000000111122222222111111122222..................|"
        )

    def test_refuses_a_strip_past_the_width_limit(self):
        ts = TaskSystem([Task(1, 4, 0, 4)])
        releases = ReleasePattern([[(0, 0)]])
        text = render_gantt(simulate(ts, releases, sim.GANTT_MAX_WIDTH), ts)
        assert [len(line) for line in text.splitlines()] == [sim.GANTT_MAX_WIDTH + 9] * 2
        with pytest.raises(PreconditionViolated):
            render_gantt(simulate(ts, releases, sim.GANTT_MAX_WIDTH + 1), ts)

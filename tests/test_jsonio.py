"""JSON schema round trips and rejection of malformed documents."""

import json

import pytest

from conftest import release_pattern_to_dict
from rtmix.blockip import encode_rtc_as_4block
from rtmix.core import Task, TaskSystem
from rtmix.errors import InvalidInstance
from rtmix.jsonio import (
    four_block_from_dict,
    four_block_to_dict,
    mix_instance_from_dict,
    mix_instance_to_dict,
    release_pattern_from_dict,
    task_system_from_dict,
    task_system_to_dict,
    trace_to_dict,
)
from rtmix.mixing import MixInstance
from rtmix.sim import ReleasePattern, simulate


class TestTaskSystem:
    def test_round_trip(self, demo_system):
        assert task_system_from_dict(task_system_to_dict(demo_system)) == demo_system

    def test_missing_deadline_defaults_to_none(self):
        ts = task_system_from_dict({"tasks": [{"c": 1, "p": 2, "jitter": 0}]})
        assert ts.tasks[0].d is None

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInstance, match="unknown task fields"):
            task_system_from_dict({"tasks": [{"c": 1, "p": 2, "jitter": 0, "wcet": 1}]})

    def test_unknown_fields_message_names_them_sorted(self):
        with pytest.raises(InvalidInstance) as exc:
            task_system_from_dict({"tasks": [{"c": 1, "p": 2}, {"c": 1, "p": 4, "z": 0, "a": 1}]})
        assert str(exc.value) == "unknown task fields: ['a', 'z']"

    def test_invalid_task_rejected(self):
        with pytest.raises(InvalidInstance):
            task_system_from_dict({"tasks": [{"c": 0, "p": 2, "jitter": 0}]})


class TestMixInstance:
    def test_round_trip(self):
        inst = MixInstance(1, [(2, 4, 7), (4, 8, -3)])
        assert mix_instance_from_dict(mix_instance_to_dict(inst)) == inst

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInstance, match="unknown term fields"):
            mix_instance_from_dict({"w0": 1, "terms": [{"w": 1, "a": 2, "b": 3, "x": 0}]})

    def test_unknown_fields_message_names_them_sorted(self):
        with pytest.raises(InvalidInstance) as exc:
            mix_instance_from_dict({"w0": 1, "terms": [{"w": 1, "a": 2, "b": 3},
                                                       {"w": 1, "a": 2, "y": 3, "x": 0}]})
        assert str(exc.value) == "unknown term fields: ['x', 'y']"

    def test_shape_rejected(self):
        with pytest.raises(InvalidInstance):
            mix_instance_from_dict({"terms": []})


class TestReleasePattern:
    def test_round_trip(self):
        rp = ReleasePattern([[(0, 8), (65, 73)], [], [(0, 25)]])
        assert release_pattern_from_dict(release_pattern_to_dict(rp)) == rp

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInstance) as exc:
            release_pattern_from_dict({"releases": [[{"arrival": 0, "release": 0, "x": 1}]]})
        assert str(exc.value) == "unknown release fields: ['x']"


class TestTrace:
    def test_segments_and_jobs_serialized(self, demo_system):
        rp = ReleasePattern([[(0, 8)], [(0, 5)], [(0, 25)]])
        trace = simulate(demo_system, rp, 65)
        data = trace_to_dict(trace)
        assert data["horizon"] == 65
        assert data["segments"][0]["task"] is None
        assert {"task", "index", "arrival", "release", "completion"} <= data["jobs"][0].keys()


class TestFourBlock:
    def test_round_trip(self):
        prog = encode_rtc_as_4block(TaskSystem([Task(1, 2, 0), Task(1, 4, 0), Task(2, 8, 0)]))
        assert four_block_from_dict(four_block_to_dict(prog)) == prog

    def test_multi_coupling_rejected(self):
        data = four_block_to_dict(encode_rtc_as_4block(TaskSystem([Task(1, 2, 0)])))
        data["q"] = 2
        with pytest.raises(InvalidInstance, match="coupling"):
            four_block_from_dict(data)

    @pytest.mark.parametrize("field, value", [("D", 1), ("C", [[[-1, 0]], 2]), ("w0", {"0": 1}),
                                              ("rhs", [0])])
    def test_a_field_that_is_not_an_array_is_named(self, field, value):
        data = four_block_to_dict(encode_rtc_as_4block(TaskSystem([Task(1, 2, 0)])))
        data[field] = value
        with pytest.raises(InvalidInstance) as exc:
            four_block_from_dict(data)
        # one task leaves no brick: n = r = t = 0 and s = 1
        shape = {"D": "1x1", "C": "0x1x0", "w0": "1", "rhs": "0x0"}[field]
        assert str(exc.value) == f"{field} must be an integer array of shape {shape}"

    def test_missing_field_rejected(self):
        data = four_block_to_dict(encode_rtc_as_4block(TaskSystem([Task(1, 2, 0)])))
        del data["u"]
        with pytest.raises(InvalidInstance, match="missing"):
            four_block_from_dict(data)


def _nested(value, kinds, depth=0):
    """`value` with each array at nesting `depth` made kinds[depth % len(kinds)]."""
    if not isinstance(value, list):
        return value
    return kinds[depth % len(kinds)](_nested(v, kinds, depth + 1) for v in value)


class TestFourBlockArrays:
    PROG = encode_rtc_as_4block(TaskSystem([Task(1, 2, 0), Task(1, 4, 1), Task(2, 8, 0)]))

    def test_the_writer_shares_the_program_s_tuples(self):
        data = four_block_to_dict(self.PROG)
        assert data["q"] == 1 and list(data).index("q") == list(data).index("t") + 1
        assert all(data[name] is getattr(self.PROG, name) for name in data if name != "q")

    @pytest.mark.parametrize("kinds", [(tuple,), (list, tuple), (tuple, list)],
                             ids=["tuples", "lists-then-tuples", "tuples-then-lists"])
    def test_tuples_read_as_the_json_form(self, kinds):
        text = json.loads(json.dumps(four_block_to_dict(self.PROG)))
        data = {name: _nested(value, kinds) for name, value in text.items()}
        assert four_block_from_dict(data) == four_block_from_dict(text) == self.PROG

"""JSON schemas for every instance kind the CLI consumes or emits.

Task systems:   {"tasks": [{"c": int, "d": int|null, "p": int, "jitter": int}, ...]}
                (priority = array order, index 0 highest)
Mixing:         {"w0": int, "terms": [{"w": int, "a": int, "b": int}, ...]}
Releases:       {"releases": [[{"arrival": int, "release": int}, ...], ...]}
4-block:        the fields of `_FOUR_BLOCK` in order, arrays nested row-major to the shapes
                `SimpleFourBlock` states; the writer hands `json` the program's own tuples

Every document and every record (task, term, release) is read by `_objects`: an object,
no unknown field.  A decoded task system is checked here (`core.validate`); a mixing
instance checks itself when it is built (`MixInstance`), as a 4-block program does
(`SimpleFourBlock`), so this module checks neither again.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from .blockip import SimpleFourBlock
from .core import Task, TaskSystem, is_integer, validate
from .errors import InvalidInstance
from .mixing import MixInstance, MixSolution
from .sim import ReleasePattern, ScheduleTrace


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidInstance(msg)


def _objects(entries: list, fields: set[str], what: str) -> list[dict]:
    """`entries`, each checked to be an object with no field outside `fields`;
    a document is checked as a list of one."""
    for entry in entries:
        _require(isinstance(entry, dict), f"a {what} must be an object")
        unknown = set(entry) - fields
        if unknown:
            raise InvalidInstance(f"unknown {what} fields: {sorted(unknown)}")
    return entries


def task_system_to_dict(ts: TaskSystem) -> dict:
    return {
        "tasks": [
            {"c": t.c, "d": t.d, "p": t.p, "jitter": t.jitter} for t in ts.tasks
        ]
    }


def task_system_from_dict(data: Any) -> TaskSystem:
    [data] = _objects([data], {"tasks"}, "task system")
    _require(isinstance(data.get("tasks"), list), "expected {'tasks': [...]}")
    tasks = _objects(data["tasks"], {"c", "d", "p", "jitter"}, "task")
    ts = TaskSystem([Task(e.get("c"), e.get("p"), e.get("jitter", 0), e.get("d")) for e in tasks])
    validate(ts)
    return ts


def mix_instance_to_dict(inst: MixInstance) -> dict:
    return {
        "w0": inst.w0,
        "terms": [{"w": t.w, "a": t.a, "b": t.b} for t in inst.terms],
    }


def mix_instance_from_dict(data: Any) -> MixInstance:
    [data] = _objects([data], {"w0", "terms"}, "mixing instance")
    _require("w0" in data and isinstance(data.get("terms"), list),
             "expected {'w0': ..., 'terms': [...]}")
    terms = [(e.get("w"), e.get("a"), e.get("b"))
             for e in _objects(data["terms"], {"w", "a", "b"}, "term")]
    return MixInstance(data["w0"], terms)  # which checks itself


def mix_solution_to_dict(sol: MixSolution) -> dict:
    return {"s": sol.s, "x": list(sol.x), "objective": sol.objective}


def release_pattern_from_dict(data: Any) -> ReleasePattern:
    [data] = _objects([data], {"releases"}, "release pattern")
    _require(isinstance(data.get("releases"), list), "expected {'releases': [[...], ...]}")
    jobs = []
    for per_task in data["releases"]:
        _require(isinstance(per_task, list), "each task's releases must be a list")
        jobs.append([(e.get("arrival"), e.get("release"))
                     for e in _objects(per_task, {"arrival", "release"}, "release")])
    return ReleasePattern(jobs)


def trace_to_dict(trace: ScheduleTrace) -> dict:
    return {
        "horizon": trace.horizon,
        "segments": [asdict(s) for s in trace.segments],
        "jobs": [asdict(j) for j in trace.jobs],
    }


# The 4-block document's fields in order; q, always 1, is the one not stored.
_FOUR_BLOCK = ("n", "r", "s", "t", "q", "D", "C", "B", "A", "b0", "rhs", "w0", "j", "wj", "u")


def four_block_to_dict(p: SimpleFourBlock) -> dict:
    """The program's fields as it stores them: `json` writes a tuple as it
    writes a list, so the dict shares the program's nested tuples."""
    return {name: 1 if name == "q" else getattr(p, name) for name in _FOUR_BLOCK}


def four_block_from_dict(data: Any) -> SimpleFourBlock:
    """The program `data` gives, each field passed on as JSON gave it."""
    [data] = _objects([data], set(_FOUR_BLOCK), "4-block program")
    q = data.get("q", 1)
    _require(is_integer(q) and q == 1, "exactly one coupling inequality is supported")
    try:
        return SimpleFourBlock(**{name: data[name] for name in _FOUR_BLOCK if name != "q"})
    except KeyError as exc:
        raise InvalidInstance(f"missing 4-block field {exc}") from None


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInstance(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:  # a ValueError too: catch it before the digit limit
        raise InvalidInstance(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # an integer literal past the int/str digit limit
        raise InvalidInstance(f"{path} holds an integer too long to parse: {exc}") from None
    except RecursionError:
        raise InvalidInstance(f"{path} nests too deeply to parse") from None

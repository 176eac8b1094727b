"""Operation counters: collection scopes and their reports."""

import dataclasses

from rtmix import counters


class TestAsDict:
    def test_every_field_in_declaration_order(self):
        with counters.collect() as ops:
            counters.bump("decision_probes", 3)
            counters.bump("mixing_ops")
        report = ops.as_dict()
        assert list(report) == [f.name for f in dataclasses.fields(counters.Counters)]
        assert report == dataclasses.asdict(ops)
        assert report["decision_probes"] == 3 and report["mixing_ops"] == 1

    def test_a_fresh_dict_each_call(self):
        ops = counters.Counters()
        report = ops.as_dict()
        report["mixing_ops"] = 99
        assert ops.mixing_ops == 0
        assert ops.as_dict() is not ops.as_dict()
        assert ops.as_dict() == {f.name: 0 for f in dataclasses.fields(ops)}

    def test_bump_outside_a_scope_counts_nothing(self):
        counters.bump("mixing_ops")
        with counters.collect() as ops:
            pass
        assert ops.mixing_ops == 0

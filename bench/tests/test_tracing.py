import pytest

import matroidkit as mk
from matroidkit import cli, lemmas
from tracing import LAYERS, Tracer, layer_self_seconds, self_times


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", "cli", 0.0, 10.0, None, 0),
        ("a", "core", 1.0, 4.0, 0, 0),
        ("b", "core", 3.0, 6.0, 0, 0),  # overlaps a: [1, 6] is covered once
        ("c", "files", 8.0, 12.0, 0, 0),  # clipped to the parent's end
        ("a1", "constructions", 2.0, 3.0, 1, 0),
        ("other", "bases", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 1.0])
    totals = layer_self_seconds(spans)
    assert totals["cli"] == pytest.approx(3.0)
    assert totals["core"] == pytest.approx(5.0)
    assert totals["constructions"] == pytest.approx(1.0)
    assert totals["lemmas"] == 0.0
    assert set(totals) == set(LAYERS)


def test_install_wraps_imported_names_and_uninstall_restores_them():
    originals = (cli.validate_axioms, mk.Matroid.rank, lemmas.BATTERY, cli._HANDLERS["validate"])
    tracer = Tracer()
    with tracer.installed():
        assert cli.validate_axioms is not originals[0]
        assert cli.validate_axioms.__wrapped__ is originals[0]
        assert lemmas.BATTERY[0][1].__wrapped__ is originals[2][0][1]
        assert cli._HANDLERS["validate"].__wrapped__ is originals[3]
    assert (cli.validate_axioms, mk.Matroid.rank, lemmas.BATTERY,
            cli._HANDLERS["validate"]) == originals


def test_spans_open_only_at_layer_boundaries():
    tracer = Tracer()
    with tracer.installed():
        m = mk.uniform(4, 2)
        tracer.recording = True
        closed = mk.closure(m, {0, 1})
        tracer.recording = False
    assert closed == (0, 1, 2, 3)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "closure.closure"
    core = [s for s in tracer.spans if s[1] == "core"]
    assert core and all(s[4] == 0 for s in core)  # every core span hangs off closure
    assert tracer.calls["closure"] == 1
    # check_subset, then rank of {0,1} and of {0,1}+y for y = 2, 3
    assert tracer.counts["core.rank_calls"] == 3
    assert tracer.counts["core.oracle_evals"] == 3
    assert {s[1] for s in tracer.spans} == {"closure", "core", "constructions"}

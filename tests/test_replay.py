import random

import pytest

from satid import parse_trace
from satid.replay import ReplayOrderError, TraceReplayer

import theory_gen


def test_loop_trace_expectations(loop):
    trace = parse_trace("+ 2\n+ 1\n# expect 3 0\n# expect 4 0\n# expect 1 0\n")
    report = TraceReplayer(loop).run(trace)
    assert report.ok
    assert report.events == 5


def test_expect_mismatch_is_reported(loop):
    report = TraceReplayer(loop).run(parse_trace("# expect 3 0\n"))
    assert not report.ok
    assert report.mismatches[0].kind == "expect"
    assert "isRelevant(3) = 1" in report.mismatches[0].message


def test_query_output_format(loop):
    replayer = TraceReplayer(loop)
    report = replayer.run(parse_trace("? 3\n? -3\n"))
    assert report.outputs == ["3 1", "-3 0"]


def test_intro_trace_prunes_negated_literal(intro):
    d = intro.atoms.id_of("d")
    e = intro.atoms.id_of("e")
    a = intro.atoms.id_of("a")
    trace = parse_trace(f"+ {d}\n+ {a}\n# expect -{e} 0\n? -{e}\n")
    report = TraceReplayer(intro).run(trace)
    assert report.ok
    assert report.outputs == [f"-{e} 0"]


def test_retracting_unassigned_literal_is_an_ordering_error(loop):
    replayer = TraceReplayer(loop)
    with pytest.raises(ReplayOrderError, match="event 0: literal 2 is not justified"):
        replayer.run(parse_trace("- 2\n"))


def test_retracting_wrong_polarity_is_an_ordering_error(loop):
    replayer = TraceReplayer(loop)
    with pytest.raises(ReplayOrderError, match="event 1: literal -2 is not justified"):
        replayer.run(parse_trace("+ 2\n- -2\n"))


def test_double_assignment_is_an_ordering_error(loop):
    replayer = TraceReplayer(loop)
    with pytest.raises(ReplayOrderError, match="event 1: literal 2 is already justified"):
        replayer.run(parse_trace("+ 2\n+ -2\n"))


def test_literal_outside_table_rejected(loop):
    replayer = TraceReplayer(loop)
    with pytest.raises(ReplayOrderError, match="outside"):
        replayer.run(parse_trace("+ 99\n"))
    # the theory of demos/data/loop.cid has 4 atoms, and an event names the
    # literal whose justified status flips, so the last literal a trace may
    # name is 4
    assert TraceReplayer(loop).run(parse_trace("+ -4\n")).events == 1
    with pytest.raises(ReplayOrderError, match="outside atoms 1..4"):
        TraceReplayer(loop).run(parse_trace("+ 5\n"))


def test_oracle_checking_counts_quiescent_states():
    rng = random.Random(40)
    theory = theory_gen.random_total_theory(rng, max_atoms=5)
    events, _ = theory_gen.random_trace(rng, theory, min_events=40)
    replayer = TraceReplayer(theory, check_oracle=True)
    report = replayer.run(events)
    assert report.ok
    assert report.oracle_checks > 0


@pytest.mark.parametrize("text, index, message", [
    ("- 2\n", 0, "literal 2 is not justified"),
    ("+ 2\n- -2\n", 1, "literal -2 is not justified"),
    ("+ 2\n+ -2\n", 1, "literal 2 is already justified"),
])
def test_the_tracker_refuses_each_order_fault_at_its_event(loop, text, index, message):
    # the standalone tracker's own check is the replay's one order check: it
    # refuses before writing, and the replayer adds the event's index
    replayer = TraceReplayer(loop)
    events = parse_trace(text)
    for event in events[:-1]:
        replayer.apply(event)
    before = replayer.tracker.justified_literals()
    with pytest.raises(ReplayOrderError, match=f"^event {index}: {message}$") as raised:
        replayer.apply(events[-1])
    assert type(raised.value.__cause__) is ValueError
    assert replayer.tracker.justified_literals() == before
    assert not hasattr(replayer, "assignment")

import random

import pytest

from satid import (AtomTable, RelevanceTracker, build_dependency_graph,
                   build_justification_maps, normalize_to_defnf, parse_cid,
                   parse_pcid, parse_trace, relevance_dot, solve, to_dot,
                   write_cid, write_trace)
from satid.formats import (BECOMES_TRUE, BECOMES_UNKNOWN, EXPECT_RELEVANT,
                           MAX_NESTING, FormatError, QUERY_RELEVANT, TraceEvent)

import theory_gen


# -- .cid parsing ----------------------------------------------------------------

def test_parse_minimal_theory():
    theory = parse_cid("p cid 3\nt 1\nr 1 d 2 3 0\n")
    assert theory.theory_atom == 1
    rule = theory.definition.rules[0]
    assert (rule.head, rule.conjunctive, rule.body) == (1, False, (2, 3))


def test_parse_loop_theory_encoding(loop):
    text = "p cid 4\nt 1\nr 1 d 2 3 0\nr 3 d 4 0\nr 4 d 3 0\n"
    assert parse_cid(text) == loop


def test_parse_comments_and_blank_lines():
    text = "% header comment\n\np cid 2\n% another\nt 1\nr 1 c 2 0\n"
    assert parse_cid(text).n_atoms == 2


def test_parse_duplicate_head_reports_line():
    text = "p cid 2\nt 1\nr 1 d 2 0\nr 1 c 2 0\n"
    with pytest.raises(FormatError, match=r"line 4.*defined twice"):
        parse_cid(text)


def test_parse_missing_theory_atom_line():
    with pytest.raises(FormatError, match="missing theory-atom"):
        parse_cid("p cid 2\nr 1 d 2 0\n")


def test_parse_duplicate_theory_atom_line():
    with pytest.raises(FormatError, match=r"line 3.*duplicate"):
        parse_cid("p cid 2\nt 1\nt 2\nr 1 d 2 0\n")


def test_parse_undefined_theory_atom():
    with pytest.raises(FormatError, match="not defined"):
        parse_cid("p cid 2\nt 2\nr 1 d 2 0\n")


def test_parse_literal_out_of_range():
    with pytest.raises(FormatError, match=r"line 3.*out of range"):
        parse_cid("p cid 2\nt 1\nr 1 d 5 0\n")


def test_parse_reports_the_first_bad_literal():
    for body, message in (("2 x 9", "bad literal 'x'"),
                          ("2 9 x", "literal 9 out of range"),
                          ("-9 2", "literal -9 out of range"),
                          ("2 0", "literal 0 out of range")):
        with pytest.raises(FormatError, match=rf"line 3: {message}"):
            parse_cid(f"p cid 3\nt 1\nr 1 d {body} 0\n")
    assert parse_cid("p cid 3\nt 1\nr 1 d 2 -3 2 0\n").definition.rules[0].body == (2, -3)


def test_parse_sizes_the_atom_table_in_one_step(monkeypatch):
    # the header's atoms go into the table at once, not one `fresh` call each
    def fresh(self, name=None):
        raise AssertionError("AtomTable.fresh called")

    monkeypatch.setattr(AtomTable, "fresh", fresh)
    theory = parse_cid("p cid 2000000\nt 1\nr 1 d 2 -2000000 0\n")
    assert theory.n_atoms == 2_000_000
    assert theory.definition.rules[0].body == (2, -2_000_000)


def test_parse_malformed_rule_line():
    with pytest.raises(FormatError, match="line 3"):
        parse_cid("p cid 2\nt 1\nr 1 x 2 0\n")


def test_parse_missing_header():
    with pytest.raises(FormatError, match="header"):
        parse_cid("t 1\nr 1 d 2 0\n")


@pytest.mark.parametrize("count", [10**20, 2**62])
def test_parse_rejects_an_atom_count_too_large_for_a_table(count):
    # 10**20 does not fit an index and 2**62 pointers do not fit an address
    # space, so both fail before anything is allocated
    with pytest.raises(FormatError, match=f"line 1: atom count {count} is too large"):
        parse_cid(f"p cid {count}\nt 1\nr 1 d 2 0\n")


def test_parse_deduplicates_body_literals():
    theory = parse_cid("p cid 3\nt 1\nr 1 d 2 2 3 -2 0\n")
    assert theory.definition.rules[0].body == (2, 3, -2)


# -- .cid round trip --------------------------------------------------------------

def test_round_trip_fixtures(intro, justdef, loop):
    for theory in (intro, justdef, loop):
        assert parse_cid(write_cid(theory)) == theory


def test_round_trip_random_theories():
    rng = random.Random(6)
    for _ in range(50):
        theory = theory_gen.random_total_theory(rng)
        assert parse_cid(write_cid(theory)) == theory


def test_round_trip_empty_body():
    theory = parse_cid("p cid 1\nt 1\nr 1 c 0\n")
    assert parse_cid(write_cid(theory)) == theory


# -- .pcid -------------------------------------------------------------------------

def test_parse_pcid_basic():
    ast = parse_pcid("(theory (constraint pT) (define (rule pT (or a p)) "
                     "(rule p q) (rule q p)))")
    assert len(ast.constraints) == 1
    assert len(ast.definitions) == 1
    assert len(ast.definitions[0]) == 3
    assert ast.atoms.id_of("pT") == 1
    assert ast.atoms.id_of("q") == 4


def test_parse_pcid_not_collapses_on_atoms():
    ast = parse_pcid("(theory (constraint (not a)))")
    assert ast.constraints == [-1]


def test_parse_pcid_rejects_unbalanced():
    with pytest.raises(FormatError, match="unbalanced"):
        parse_pcid("(theory (constraint a)")


def test_parse_pcid_rejects_unknown_forms():
    with pytest.raises(FormatError, match="unknown theory item"):
        parse_pcid("(theory (assert a))")


def test_parse_pcid_semicolon_comments():
    ast = parse_pcid("; a comment\n(theory (constraint a)) ; trailing")
    assert ast.constraints == [1]


def nested_pcid(depth, shape):
    """A one-constraint theory whose parentheses nest `depth` levels deep;
    `(theory (constraint ...))` takes the outer two."""
    levels = depth - 2
    if shape == "not":
        formula = "(not " * levels + "a" + ")" * levels
    else:  # alternating and/or
        formula = "".join(f"(and b{i} " if i % 2 else f"(or c{i} "
                          for i in range(levels))
        formula += "a" + ")" * levels
    return f"(theory (constraint {formula}))"


@pytest.mark.parametrize("shape", ["not", "and_or"])
def test_parse_pcid_rejects_deep_nesting(shape):
    with pytest.raises(FormatError, match="nesting deeper than"):
        parse_pcid(nested_pcid(3000, shape))
    with pytest.raises(FormatError, match="nesting deeper than"):
        parse_pcid(nested_pcid(MAX_NESTING + 1, shape))


@pytest.mark.parametrize("shape", ["not", "and_or"])
def test_parse_pcid_accepts_nesting_at_the_limit(shape):
    theory, _ = normalize_to_defnf(parse_pcid(nested_pcid(MAX_NESTING, shape)))
    assert solve(theory).status == "sat"


# -- .trc ---------------------------------------------------------------------------

def test_parse_trace_events():
    events = parse_trace("+ 2\n? 3\n")
    assert events == [TraceEvent(BECOMES_TRUE, 2), TraceEvent(QUERY_RELEVANT, 3)]


def test_parse_trace_expect():
    assert parse_trace("# expect 3 0\n") == [TraceEvent(EXPECT_RELEVANT, 3, False)]


def test_parse_trace_retraction():
    events = parse_trace("+ 2\n- 2\n")
    assert events == [TraceEvent(BECOMES_TRUE, 2), TraceEvent(BECOMES_UNKNOWN, 2)]


def test_parse_trace_comments():
    assert parse_trace("% comment\n# free-form note\n") == []


def test_parse_trace_malformed():
    with pytest.raises(FormatError, match="line 2"):
        parse_trace("+ 2\n+ x\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_trace("? 0\n")


def test_write_trace_round_trip():
    events = [TraceEvent(BECOMES_TRUE, 2), TraceEvent(QUERY_RELEVANT, -3),
              TraceEvent(EXPECT_RELEVANT, 4, True), TraceEvent(BECOMES_UNKNOWN, 2)]
    assert parse_trace(write_trace(events)) == events


# -- DOT ------------------------------------------------------------------------------

def test_dependency_dot_contains_edges(loop):
    graph = build_dependency_graph(loop.definition)
    dot = to_dot(graph, loop.name_of)
    for edge in ('"p_T" -> "a"', '"p_T" -> "p"', '"p" -> "q"', '"q" -> "p"'):
        assert edge in dot
    assert dot.startswith("digraph")


def test_dependency_dot_empty():
    from satid import Definition
    dot = to_dot(build_dependency_graph(Definition([])))
    assert dot == "digraph dependencies {\n}\n"


def test_relevance_dot_initial(loop):
    tracker = RelevanceTracker.for_theory(loop)
    dot = relevance_dot(tracker, loop.name_of)
    for edge in ('"p_T" -> "a"', '"p_T" -> "p"', '"p" -> "q"', '"q" -> "p"'):
        assert edge + ";" in dot
    assert dot == (
        'digraph relevance {\n'
        '  "p_T";\n  "a";\n  "p";\n  "q";\n'
        '  "p_T" -> "a";\n  "p_T" -> "p";\n  "p" -> "q";\n  "q" -> "p";\n'
        '  "~p" -> "~q" [style=dashed];\n  "~q" -> "~p" [style=dashed];\n'
        '}\n')


def test_relevance_dot_after_support_shows_dashed_loop(loop):
    setup = build_justification_maps(loop)
    tracker = RelevanceTracker.for_theory(loop, setup)
    tracker.notify_becomes_true(2)                          # open a
    tracker.notify_becomes_true(setup.maps.to_just[1])      # theory atom justified
    tracker.notify_becomes_true(-setup.maps.to_just[3])     # p status false
    tracker.notify_becomes_true(-setup.maps.to_just[4])     # q status false
    dot = relevance_dot(tracker, loop.name_of)
    assert '"p" -> "q" [style=dashed];' in dot
    assert '"q" -> "p" [style=dashed];' in dot
    assert '"p_T" -> "p";' not in dot

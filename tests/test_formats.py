import random
import re

import pytest

from satid import (AtomTable, Definition, DefnfTheory, RelevanceTracker, Rule,
                   build_dependency_graph, build_justification_maps,
                   normalize_to_defnf, parse_cid,
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
    # an integer field is ASCII digits with an optional leading '-': no
    # '+', no '_' and no other script's digits, all of which int() takes
    for body, message in (("2 x 9", "bad literal 'x'"),
                          ("2 9 x", "literal 9 out of range"),
                          ("-9 2", "literal -9 out of range"),
                          ("2 0", "literal 0 out of range"),
                          ("+2", "bad literal '+2'"),
                          ("2 1_0", "bad literal '1_0'"),
                          ("\uff12", "bad literal '\uff12'"),  # a full-width 2
                          ("9 +2", "literal 9 out of range")):
        with pytest.raises(FormatError, match=re.escape(f"line 3: {message}")):
            parse_cid(f"p cid 3\nt 1\nr 1 d {body} 0\n")
    for text, message in (("p cid \uff13\nt 1\nr 1 d 2 0\n", "line 1: bad atom count '\uff13'"),
                          ("p cid +3\nt 1\nr 1 d 2 0\n", "line 1: bad atom count '+3'"),
                          ("p cid 3\nt +1\nr 1 d 2 0\n", "line 2: bad atom '+1'"),
                          ("p cid 3\nt 1\nr 0_1 d 2 0\n", "line 3: bad atom '0_1'")):
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_cid(text)
    assert parse_cid("p cid 3\nt 1\nr 1 d 2 -3 2 0\n").definition.rules[0].body == (2, -3)
    # leading zeros are ASCII digits, and a non-ASCII space still separates
    assert parse_cid("p cid 03\nt 01\nr 1 d -02\u00a03 0\n").definition.rules[0].body == (-2, 3)


# Each .cid fault with its line, exactly as raised.  On a line with two
# faults the first in this order wins: the rule line's shape, its head, its
# connective, a second rule for the head, its literals from left to right.
CID_DIAGNOSTICS = [
    ("p cid 3\nt 1\nr x q 2 0\n", "line 3: bad atom 'x'"),  # bad head and connective
    ("p cid 3\nt 1\nr 4 q 2 0\n", "line 3: atom 4 out of range 1..3"),
    ("p cid 3\nt 1\nr 1 q x 0\n", "line 3: connective must be 'c' or 'd', got 'q'"),
    ("p cid 3\nt 1\nr 1 d 2 0\nr 1 c x 0\n",  # duplicate head and bad literal
     "line 4: atom 1 defined twice (first rule on line 3)"),
    ("p cid 3\nt 1\nr x d 2\n",  # no trailing 0 and a bad head
     "line 3: expected 'r <head> <c|d> <lit>... 0'"),
    ("p cid 3\nt 1\nr 1 d\n", "line 3: expected 'r <head> <c|d> <lit>... 0'"),
    ("r 1 d 2 0\np cid 3\nt 1\n",  # a rule line before the header
     "line 1: expected header 'p cid <natoms>', got 'r 1 d 2 0'"),
    ("% note\np cid 3\nt 1\nr 1 d 2 0\nr 1 d 3 0\n",  # a comment before the header
     "line 5: atom 1 defined twice (first rule on line 4)"),
    ("t 1\np cid 3\n", "line 1: expected header 'p cid <natoms>', got 't 1'"),
    ("p cid\n", "line 1: expected header 'p cid <natoms>', got 'p cid'"),
    ("p cid x\n", "line 1: bad atom count 'x'"),
    ("p cid 0\n", "line 1: atom count must be at least 1"),
    ("p cid 3\nt 1\nt 2\n", "line 3: duplicate theory-atom line"),
    ("p cid 3\nt 1 2\n", "line 2: expected 't <atom>'"),
    ("p cid 3\nt x\n", "line 2: bad atom 'x'"),
    ("p cid 3\nt 5\n", "line 2: atom 5 out of range 1..3"),
    ("p cid 3\nt 1\np cid 3\n", "line 3: unrecognized line 'p cid 3'"),
    ("p cid 3\nt 1\nr 1 d 2 0 0\n", "line 3: literal 0 out of range"),
    ("", "missing 'p cid' header"),
    ("% only a comment\n", "missing 'p cid' header"),
    ("p cid 3\nr 1 d 2 0\n", "missing theory-atom line 't <atom>'"),
    ("p cid 3\nt 2\nr 1 d 2 0\n", "theory atom 2 is not defined by any rule"),
]


@pytest.mark.parametrize("text, message", CID_DIAGNOSTICS)
def test_parse_cid_diagnostics_and_their_lines(text, message):
    with pytest.raises(FormatError) as raised:
        parse_cid(text)
    assert str(raised.value) == message


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


@pytest.mark.parametrize("text, line, message", [
    ("(theory\n  (constraint (xor a b)))", 2, "unknown formula head 'xor'"),
    ("(theory\n  (constraint\n    (not a b)))", 3, "'not' takes exactly one argument"),
    ("(theory (constraint (or (not))))", 1, "'not' takes exactly one argument"),
    ("(theory\n  (constraint a\n    b))", 3, "'constraint' takes exactly one formula"),
    ("(theory\n  (constraint))", 2, "'constraint' takes exactly one formula"),
    ("(theory (define\n  (rule p)))", 2, "expected (rule <name> F), got ')'"),
    ("(theory (define\n  p))", 2, "expected (rule <name> F), got 'p'"),
    ("(theory\n\n  (assert a))", 3, "unknown theory item 'assert'"),
    ("; comment\n(formula a)", 2, "expected '(theory ...)'"),
    ("(theory\n  (constraint ()))", 2, "empty formula '()'"),
    ("(theory\n  (constraint a)", 1, "unbalanced '('"),
    (")", 1, "unbalanced ')'"),
    ("(theory (constraint a))\n(theory)", 2, "trailing input after theory"),
    ("(theory\n  ())", 2, "empty theory item '()'"),
    ("(theory\n  ((constraint a)))", 2, "expected (constraint ...) or (define ...), got '('"),
])
def test_parse_pcid_errors_carry_their_line(text, line, message):
    with pytest.raises(FormatError, match="^" + re.escape(f"line {line}: {message}") + "$"):
        parse_pcid(text)


def test_parse_pcid_reports_the_first_error_in_text_order():
    # the unknown head comes before the missing ')' at the end of the text
    with pytest.raises(FormatError, match=r"^line 2: unknown formula head 'xor'$"):
        parse_pcid("(theory (constraint a)\n  (constraint (xor a b))")


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
    # literals are ASCII digits with an optional leading '-', as in .cid
    for text, message in (("+ \uff12\n", "line 1: bad literal '\uff12'"),
                          ("- +2\n", "line 1: bad literal '+2'"),
                          ("+ 2\n? 1_0\n", "line 2: bad literal '1_0'"),
                          ("# expect +2 1\n", "line 1: bad literal '+2'")):
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_trace(text)


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


def test_dot_keeps_one_edge_when_a_body_repeats_a_literal():
    # 1 <- 2 | 2 has two occurrences of 2 but one edge 1 -> 2 (and ~1 -> ~2)
    theory = DefnfTheory(AtomTable([None] * 2), 1,
                         Definition([Rule(1, False, (2, 2))]))
    graph = build_dependency_graph(theory.definition)
    assert to_dot(graph) == (
        'digraph dependencies {\n  "x1" -> "x2";\n  "~x1" -> "~x2";\n}\n')
    assert relevance_dot(RelevanceTracker.for_theory(theory)) == (
        'digraph relevance {\n  "x1";\n  "x2";\n  "x1" -> "x2";\n}\n')
    # and one dashed edge each way on the loop 2 <- 3 | 3, 3 <- 2 & 2 once
    # the theory atom 1 <- 4 | 2 is justified by the open 4
    theory = DefnfTheory(AtomTable([None] * 4), 1, Definition([
        Rule(1, False, (4, 2)), Rule(2, False, (3, 3)), Rule(3, True, (2, 2))]))
    tracker = RelevanceTracker.for_theory(theory)
    tracker.notify_becomes_true(4)
    tracker.notify_becomes_true(1)
    assert relevance_dot(tracker) == (
        'digraph relevance {\n'
        '  "x2" -> "x3" [style=dashed];\n  "~x2" -> "~x3" [style=dashed];\n'
        '  "x3" -> "x2" [style=dashed];\n  "~x3" -> "~x2" [style=dashed];\n'
        '}\n')


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
    tracker = RelevanceTracker.for_theory(loop, setup.graph)
    tracker.notify_becomes_true(2)                          # open a
    tracker.notify_becomes_true(1)                          # theory atom justified
    tracker.notify_becomes_true(-3)                         # p status false
    tracker.notify_becomes_true(-4)                         # q status false
    dot = relevance_dot(tracker, loop.name_of)
    assert '"p" -> "q" [style=dashed];' in dot
    assert '"q" -> "p" [style=dashed];' in dot
    assert '"p_T" -> "p";' not in dot

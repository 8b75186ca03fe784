import random

import pytest

from satid import (FALSE, TRUE, UNKNOWN, And, AtomTable, DefnfTheory,
                   Definition, Not, Or, PartialInterpretation, Rule,
                   atom_of, build_dependency_graph, completion_clauses,
                   direct_justifications, eval_formula, negate)
from satid.core import leq_precision, leq_truth

import theory_gen


def interp(*lits):
    return PartialInterpretation.from_literals(lits)


# -- truth values ------------------------------------------------------------

def test_truth_order_is_total():
    assert leq_truth(FALSE, UNKNOWN) and leq_truth(UNKNOWN, TRUE)
    assert leq_truth(FALSE, TRUE)
    assert not leq_truth(TRUE, UNKNOWN)


def test_precision_order():
    assert leq_precision(UNKNOWN, FALSE) and leq_precision(UNKNOWN, TRUE)
    assert leq_precision(TRUE, TRUE)
    assert not leq_precision(FALSE, TRUE)
    assert not leq_precision(TRUE, FALSE)
    assert not leq_precision(FALSE, UNKNOWN)


def test_truth_negation():
    assert TRUE.negate() is FALSE
    assert FALSE.negate() is TRUE
    assert UNKNOWN.negate() is UNKNOWN


# -- literals ----------------------------------------------------------------

def test_negate_examples():
    assert negate(3) == -3
    assert negate(-3) == 3
    assert negate(negate(7)) == 7


def test_negate_is_atom_preserving():
    rng = random.Random(1)
    for _ in range(100):
        lit = rng.choice((1, -1)) * rng.randint(1, 50)
        assert negate(negate(lit)) == lit
        assert atom_of(negate(lit)) == atom_of(lit)


# -- Kleene evaluation ---------------------------------------------------------

def test_eval_conjunction_with_unknown():
    assert eval_formula(And((1, 2)), interp(1)) is UNKNOWN


def test_eval_disjunction_with_unknown():
    assert eval_formula(Or((1, 2)), interp(1)) is TRUE


def test_eval_negation():
    assert eval_formula(Not(1), interp(-1)) is TRUE
    assert eval_formula(-1, interp(-1)) is TRUE


def test_eval_empty_connectives():
    assert eval_formula(And(()), interp()) is TRUE
    assert eval_formula(Or(()), interp()) is FALSE


def test_eval_unknown_atom_is_an_error():
    with pytest.raises(ValueError):
        eval_formula(And((1, 5)), interp(), n_atoms=3)


def _random_formula(rng, n_atoms, depth=3):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice((1, -1)) * rng.randint(1, n_atoms)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_formula(rng, n_atoms, depth - 1))
    children = tuple(_random_formula(rng, n_atoms, depth - 1)
                     for _ in range(rng.randint(0, 3)))
    return And(children) if kind == 1 else Or(children)


def test_eval_is_precision_monotone():
    rng = random.Random(2)
    for _ in range(300):
        n = 5
        formula = _random_formula(rng, n)
        base = PartialInterpretation.from_literals(
            rng.choice((a, -a)) for a in range(1, n + 1) if rng.random() < 0.5)
        extended = base.copy()
        for atom in range(1, n + 1):
            if extended.value(atom) is UNKNOWN and rng.random() < 0.5:
                extended.set_literal(rng.choice((atom, -atom)))
        assert base.leq_precision(extended)
        assert leq_precision(eval_formula(formula, base),
                             eval_formula(formula, extended))


# -- interpretations -----------------------------------------------------------

def test_restrict_examples():
    assert interp(1, -2).restrict([1]) == interp(1)
    assert interp().restrict([1, 2]) == interp()
    assert interp(1).restrict([]) == interp()


def test_interpretation_set_and_unset():
    i = interp(3)
    i.set_literal(-3)
    assert i.value(3) is FALSE
    i.unset(3)
    assert i.value(3) is UNKNOWN
    assert i.literal_value(-3) is UNKNOWN


def test_interpretation_two_valued_and_literals():
    i = interp(1, -2)
    assert i.two_valued_on([1, 2])
    assert not i.two_valued_on([1, 2, 3])
    assert i.true_literals() == [1, -2]


# -- rules, definitions, theories -----------------------------------------------

def test_definition_rejects_second_rule_for_head():
    with pytest.raises(ValueError, match="defined twice"):
        Definition([Rule(1, True, (2,)), Rule(1, False, (3,))])


def test_rule_rejects_zero_literal():
    with pytest.raises(ValueError, match="0 is not a literal"):
        Rule(1, True, (2, 0))


def test_atom_table_built_in_one_step():
    table = AtomTable(["a", None, "b"])
    assert len(table) == 3
    assert (table.id_of("a"), table.id_of("b")) == (1, 3)
    assert table.name_of(2) == "x2"
    assert table.fresh("c") == 4
    with pytest.raises(ValueError, match="'a' already in use"):
        AtomTable(["a", None, "b", None, "a"])


def test_theory_rejects_atoms_outside_the_table():
    table = AtomTable([None] * 3)
    for rules in ([Rule(1, True, (2, 5))],                 # positive body literal
                  [Rule(1, False, (-5, 2))],               # negative body literal
                  [Rule(1, True, (2,)), Rule(5, True, (3,))]):  # head
        with pytest.raises(ValueError, match=r"atom 5 outside atom table \(1\.\.3\)"):
            DefnfTheory(table, 1, Definition(rules))
    DefnfTheory(table, 1, Definition([Rule(1, True, (3, -3, -2))]))


def test_definition_defined_and_open_atoms():
    d = Definition([Rule(1, True, (2, -3))])
    assert d.defined_atoms == {1}
    assert d.open_atoms([1, 2, 3, 4]) == {2, 3, 4}


def test_theory_requires_defined_theory_atom():
    table = AtomTable([None, None])
    with pytest.raises(ValueError, match="not defined"):
        DefnfTheory(table, 2, Definition([Rule(1, True, (2,))]))


def test_theory_builds_its_open_atoms_once():
    theory = DefnfTheory(AtomTable([None] * 4), 1, Definition([Rule(1, True, (2, -3))]))
    assert theory.opens == {2, 3, 4}
    assert theory.opens is theory.opens


# -- dependency graph ------------------------------------------------------------

def test_dependency_edges_both_polarities():
    d = Definition([Rule(1, False, (4, -5, 6))])
    g = build_dependency_graph(d)
    assert g.children_of(1) == {4, -5, 6}
    assert g.children_of(-1) == {-4, 5, -6}
    assert g.parents_of(-5) == {1}


def test_dependency_parents_in_loop_theory(loop):
    g = build_dependency_graph(loop.definition)
    p_T, a, p, q = 1, 2, 3, 4
    assert g.children_of(p) == {q}
    assert g.parents_of(p) == {p_T, q}


def test_dependency_graph_keeps_insertion_order():
    # rules in definition order, the head before its negation, body order
    # with first occurrences kept
    d = Definition([Rule(1, False, (6, -5, 6, 4)), Rule(2, True, (4, 1, -5))])
    g = build_dependency_graph(d)
    assert list(g.children_of(1)) == [6, -5, 4]
    assert list(g.children_of(-2)) == [-4, -1, 5]
    assert list(g.parents_of(4)) == [1, 2]
    assert list(g.parents_of(-5)) == [1, 2]
    assert list(g.parents_of(5)) == [-1, -2]
    assert g.edges()[:3] == [(1, 4), (1, -5), (1, 6)]


def test_reachable_through_unblocked_literals(loop):
    g = build_dependency_graph(loop.definition)
    p_T, a, p, q = 1, 2, 3, 4
    assert g.reachable(p_T, set()) == {p_T, a, p, q}
    assert g.reachable(p_T, {p}) == {p_T, a}          # the loop is cut off
    assert g.reachable(-p_T, {-a}) == {-p_T, -p, -q}
    assert g.reachable(a, set()) == {a}               # an open atom is a leaf
    assert g.reachable(p_T, {p_T}) == set()           # a blocked root


def test_empty_definition_graph():
    g = build_dependency_graph(Definition([]))
    assert g.edges() == []


def test_parents_children_are_inverse():
    rng = random.Random(3)
    for _ in range(50):
        theory = theory_gen.random_total_theory(rng)
        g = build_dependency_graph(theory.definition)
        for parent, child in g.edges():
            assert parent in g.parents_of(child)
            assert child in g.children_of(parent)
        for lit in g.literals():
            for child in g.children_of(lit):
                assert lit in g.parents_of(child)
            for parent in g.parents_of(lit):
                assert lit in g.children_of(parent)


# -- direct justifications ---------------------------------------------------------

def test_direct_justifications_four_cases():
    d = Definition([Rule(1, False, (4, -5, 6)),   # a <- d | ~e | f
                    Rule(2, True, (7, 8))])       # p <- x & y
    assert direct_justifications(1, d) == [frozenset({4}), frozenset({-5}),
                                           frozenset({6})]
    assert direct_justifications(-1, d) == [frozenset({-4, 5, -6})]
    assert direct_justifications(2, d) == [frozenset({7, 8})]
    assert direct_justifications(-2, d) == [frozenset({-7}), frozenset({-8})]


def test_direct_justifications_need_defined_literal():
    d = Definition([Rule(1, True, (2,))])
    with pytest.raises(ValueError, match="not defined"):
        direct_justifications(2, d)


def test_direct_justifications_are_children():
    rng = random.Random(4)
    for _ in range(50):
        theory = theory_gen.random_total_theory(rng)
        g = build_dependency_graph(theory.definition)
        for atom in theory.defined:
            for lit in (atom, -atom):
                for just in direct_justifications(lit, theory.definition):
                    assert just <= g.children_of(lit)


# -- completion ---------------------------------------------------------------------

def test_completion_of_unary_rule():
    clauses = completion_clauses(Definition([Rule(1, False, (2,))]))
    assert set(map(frozenset, clauses)) == {frozenset({-1, 2}), frozenset({1, -2})}


def test_completion_of_conjunctive_rule():
    clauses = completion_clauses(Definition([Rule(1, True, (2, 3))]))
    assert set(map(frozenset, clauses)) == {frozenset({-1, 2}), frozenset({-1, 3}),
                                            frozenset({1, -2, -3})}


def test_completion_of_empty_conjunction():
    assert completion_clauses(Definition([Rule(1, True, ())])) == [[1]]


def test_completion_of_empty_disjunction():
    assert completion_clauses(Definition([Rule(1, False, ())])) == [[-1]]


def test_completion_equivalent_to_rule_bodies():
    rng = random.Random(5)
    for _ in range(50):
        theory = theory_gen.random_total_theory(rng, max_atoms=6)
        clauses = completion_clauses(theory.definition)
        atoms = list(theory.atoms.atoms())
        for mask in range(2 ** len(atoms)):
            i = PartialInterpretation.from_literals(
                atom if mask >> k & 1 else -atom
                for k, atom in enumerate(atoms))
            satisfies = all(
                any(i.literal_value(lit) is TRUE for lit in clause)
                for clause in clauses)
            matches = all(i.value(rule.head) == rule.body_value(i)
                          for rule in theory.definition)
            assert satisfies == matches

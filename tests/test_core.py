import random
from operator import neg

import pytest

from satid import (FALSE, TRUE, UNKNOWN, And, AtomTable, DefnfTheory,
                   Definition, Not, Or, PartialInterpretation, Rule,
                   build_dependency_graph, completion_clauses,
                   direct_justifications, eval_formula)

import theory_gen


def interp(*lits):
    return PartialInterpretation.from_literals(lits)


# -- truth values ------------------------------------------------------------

def test_truth_negation():
    assert TRUE.negate() is FALSE
    assert FALSE.negate() is TRUE
    assert UNKNOWN.negate() is UNKNOWN


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
        assert all(extended.value(atom) is value for atom, value in base.items())
        # in the precision order: unknown below false and true
        value = eval_formula(formula, base)
        assert value is UNKNOWN or eval_formula(formula, extended) is value


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


def test_from_literals_sets_each_literal_in_turn():
    # a later literal over an atom overrides an earlier one, and the atoms
    # keep the order of their first literal
    rng = random.Random(3)
    for _ in range(200):
        lits = [rng.choice((1, -1)) * rng.randint(1, 6)
                for _ in range(rng.randint(0, 12))]
        stepwise = PartialInterpretation()
        for lit in lits:
            stepwise.set_literal(lit)
        built = PartialInterpretation.from_literals(iter(lits))
        assert list(built._vals.items()) == list(stepwise._vals.items())


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
    for head in (0, -1):
        with pytest.raises(ValueError, match="positive atom"):
            Rule(head, False, (2,))


def test_rules_and_formulas_are_values():
    # equal fields make equal objects with equal hashes, whichever object
    # holds them, so that sets and dict keys (normalize's memo) merge them
    pairs = [(Rule(1, True, (2, -3)), Rule(1, True, (2, -3))),
             (Not(1), Not(1)),
             (And((1, Not(2))), And((1, Not(2)))),
             (Or((And(()), -4)), Or((And(()), -4)))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert Rule(1, True, (2,)) != Rule(1, False, (2,))
    assert And((1, 2)) != Or((1, 2)) and Not(1) != -1
    assert len({Rule(1, True, (2,)), Rule(1, False, (2,)), Rule(1, True, (2, 3))}) == 3


def test_rule_and_formula_reprs_are_pinned():
    assert repr(Rule(1, True, (2, -3))) == "Rule(head=1, conjunctive=True, body=(2, -3))"
    assert repr(Rule(4, False, ())) == "Rule(head=4, conjunctive=False, body=())"
    assert repr(Not(1)) == "Not(child=1)"
    assert repr(And((1, Not(-2)))) == "And(children=(1, Not(child=-2)))"
    assert repr(Or((And(()), 3))) == "Or(children=(And(children=()), 3))"


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


def test_definition_knows_its_largest_atom():
    # the largest atom a head or a body literal of either sign mentions,
    # found in the walk that checks the heads; DefnfTheory's range check
    # reads it
    assert Definition([]).largest_atom == 0
    assert Definition([Rule(2, True, ())]).largest_atom == 2
    assert Definition([Rule(1, True, (2, -7)), Rule(3, False, (5,))]).largest_atom == 7
    assert Definition([Rule(9, True, (2, -7))]).largest_atom == 9


def test_an_unnamed_atom_table_names_its_atoms_by_id():
    table = AtomTable([None] * 3)
    assert len(table) == 3 and table.names() == {}
    assert [table.name_of(atom) for atom in table.atoms()] == ["x1", "x2", "x3"]
    assert table.fresh("a") == 4 and table.id_of("a") == 4
    with pytest.raises(ValueError, match="already in use"):
        AtomTable([None, "a", None, "a"])


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
    assert g.children_of(1) == (4, -5, 6)
    assert g.children_of(-1) == (-4, 5, -6)
    assert list(g.parents_of(-5)) == [1]
    assert list(g.parents_of(5)) == [-1]


def test_dependency_parents_in_loop_theory(loop):
    g = build_dependency_graph(loop.definition)
    p_T, a, p, q = 1, 2, 3, 4
    assert g.children_of(p) == (q,)
    assert list(g.parents_of(p)) == [p_T, q]
    assert list(g.parents_of(-p)) == [-p_T, -q]


def test_dependency_graph_keeps_insertion_order():
    # the children of a head are its body as written, repeats kept, and of
    # its negation the negated body; the parents of a literal are the heads
    # whose bodies hold it, in rule order and once per occurrence, then the
    # negations of those whose bodies hold its negation
    d = Definition([Rule(1, False, (6, -5, 6, 4)), Rule(2, True, (4, 1, -5)),
                    Rule(3, False, (-4,))])
    g = build_dependency_graph(d)
    assert g.bodies == {1: (6, -5, 6, 4), 2: (4, 1, -5), 3: (-4,)}
    assert g.children_of(1) == (6, -5, 6, 4)
    assert g.children_of(-2) == (-4, -1, 5)
    assert list(g.parents_of(4)) == [1, 2, -3]
    assert list(g.parents_of(-4)) == [3, -1, -2]
    assert list(g.parents_of(6)) == [1, 1]
    assert list(g.parents_of(-5)) == [1, 2]
    assert list(g.parents_of(5)) == [-1, -2]
    # one edge per (source, target), however often a body repeats it
    assert g.edges()[:3] == [(1, 4), (1, -5), (1, 6)]
    assert len(g.edges()) == 14


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
    assert not g.literals()
    assert g.deep_literals() == set()


def test_an_empty_body_gives_no_inner_literal():
    # 2 <- (empty conjunction) has no edges, so 2 is a leaf like the open 3
    g = build_dependency_graph(Definition([Rule(1, False, (2, -3)), Rule(2, True, ())]))
    assert {lit for lit in g.literals() if g.children_of(lit)} == {1, -1}
    assert g.deep_literals() == set()


def reference_deep_literals(g):
    return {lit for lit in g.literals()
            if any(g.children_of(child) for child in g.children_of(lit))}


def test_deep_literals_of_a_chain():
    # 1 <- 2 <- 3 <- 4 <- 5: 4's only child, the open 5, is a leaf
    g = build_dependency_graph(Definition([Rule(a, False, (a + 1,)) for a in range(1, 5)]))
    assert g.deep_literals() == {1, -1, 2, -2, 3, -3}


def test_deep_literals_of_a_loop(loop):
    # p_T <- a | p, p <- q, q <- p: every head has a child with children
    p_T, a, p, q = 1, 2, 3, 4
    g = build_dependency_graph(loop.definition)
    assert g.deep_literals() == {p_T, -p_T, p, -p, q, -q}


def test_deep_literals_of_a_3sat_shape():
    # T <- t1 & t2 over clause atoms whose children are all open: only the
    # theory atom is deep, and the clause atoms are frontier literals
    T, t1, t2, a, b, c, d = range(1, 8)
    g = build_dependency_graph(Definition([
        Rule(T, True, (t1, t2)), Rule(t1, False, (a, -b, c)),
        Rule(t2, False, (-a, b, d))]))
    assert g.deep_literals() == {T, -T}
    assert all(g.children_of(lit) for lit in (t1, -t1, t2, -t2))


def test_deep_literals_with_empty_bodies():
    # x <- (empty) and z <- (empty) are leaves, so y <- z is a frontier
    # literal and T <- x | y is deep through y alone; U <- x is not deep
    T, x, y, z, U = range(1, 6)
    g = build_dependency_graph(Definition([
        Rule(T, False, (x, y)), Rule(x, True, ()), Rule(y, False, (z,)),
        Rule(z, True, ()), Rule(U, False, (x,))]))
    assert g.deep_literals() == {T, -T}


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
        deep = g.deep_literals()
        assert deep == reference_deep_literals(g)
        assert {-lit for lit in deep} == deep


def reference_edges(definition):
    """The dependency edges written out rule by rule: (p, l) and (~p, ~l)
    for each occurrence of a body literal l of each rule p <- body."""
    edges = []
    for rule in definition:
        for lit in rule.body:
            edges.append((rule.head, lit))
            edges.append((-rule.head, -lit))
    return edges


def with_repeats(rng, definition):
    """The definition with each body repeating a literal, adding a
    complement or emptied, at random."""
    rules = []
    for rule in definition:
        body = list(rule.body)
        roll = rng.random()
        if roll < 0.3:
            body.insert(rng.randrange(len(body) + 1), rng.choice(body))
        elif roll < 0.5:
            body.append(-rng.choice(body))
        elif roll < 0.6:
            body = []
        rules.append(Rule(rule.head, rule.conjunctive, tuple(body)))
    return Definition(rules)


def test_the_graph_view_matches_the_rule_by_rule_reference():
    # the view over bodies and occurrence lists against edges listed one by
    # one from the rules: children in body order, parents and edges as
    # multisets and sets, the literals, the deep literals and the loop atoms
    # (by a naive peel to a fixpoint)
    rng = random.Random(28)
    definitions = [Definition([Rule(1, False, (2, 2))]),
                   Definition([Rule(1, True, (2, -2))]),
                   Definition([Rule(1, False, (2, 2)), Rule(2, True, (1, 3, 1))]),
                   Definition([Rule(1, True, ()), Rule(2, False, ())]),
                   Definition([Rule(1, False, (2, 3)), Rule(2, True, ()),
                               Rule(3, False, (-1, -1))]),
                   Definition([])]
    for _ in range(300):
        definitions.append(theory_gen.random_theory(rng).definition)
        definitions.append(theory_gen.random_total_theory(rng).definition)
        definitions.append(with_repeats(rng, definitions[-2]))
    repeats = loops = 0
    for definition in definitions:
        g = build_dependency_graph(definition)
        edges = reference_edges(definition)
        repeats += len(set(edges)) < len(edges)
        children = {}
        parents = {}
        for src, dst in edges:
            children.setdefault(src, []).append(dst)
            parents.setdefault(dst, []).append(src)
        lits = set(children) | set(parents)
        assert g.literals() == lits
        assert g.edges() == sorted(set(edges), key=lambda e: (
            abs(e[0]), e[0] < 0, abs(e[1]), e[1] < 0))
        atoms = {abs(lit) for lit in lits} | {rule.head for rule in definition}
        for lit in [*atoms, *map(neg, atoms), max(atoms, default=0) + 1]:
            assert list(g.children_of(lit)) == children.get(lit, []), lit
            assert sorted(g.parents_of(lit)) == sorted(parents.get(lit, [])), lit
        assert g.deep_literals() == {
            lit for lit, kids in children.items() if any(k in children for k in kids)}
        peeled = set()
        grown = True
        while grown:
            grown = False
            for head, kids in children.items():
                if head > 0 and head not in peeled and all(
                        kid < 0 or kid not in children or kid in peeled for kid in kids):
                    peeled.add(head)
                    grown = True
        want = {head for head in children if head > 0} - peeled
        assert g.loop_atoms() == want, definition
        loops += bool(want)
    assert repeats > 150 and loops > 150, (repeats, loops)


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
                justs = direct_justifications(lit, theory.definition)
                assert set().union(*justs) == set(g.children_of(lit))


# -- completion ---------------------------------------------------------------------

def test_completion_of_unary_rule():
    clauses = completion_clauses(Definition([Rule(1, False, (2,))]))
    assert set(map(frozenset, clauses)) == {frozenset({-1, 2}), frozenset({1, -2})}


def test_completion_of_conjunctive_rule():
    clauses = completion_clauses(Definition([Rule(1, True, (2, 3))]))
    assert set(map(frozenset, clauses)) == {frozenset({-1, 2}), frozenset({-1, 3}),
                                            frozenset({1, -2, -3})}


def test_completion_of_one_literal_bodies():
    # a literal not over the head gives (~p | l) then (p | ~l) under either
    # connective; p <- p gives only tautologies and p <- ~p both units
    for conjunctive in (True, False):
        assert completion_clauses(Definition([Rule(1, conjunctive, (-2,))])) == [[-1, -2], [1, 2]]
        assert completion_clauses(Definition([Rule(1, conjunctive, (1,))])) == []
        assert completion_clauses(Definition([Rule(1, conjunctive, (-1,))])) == [[-1], [1]]


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
            matches = all(
                i.value(rule.head)
                == eval_formula((And if rule.conjunctive else Or)(rule.body), i)
                for rule in theory.definition)
            assert satisfies == matches

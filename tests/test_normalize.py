import random

from satid import (And, Not, Or, normalize_to_defnf, parse_pcid, write_cid,
                   parse_cid)
from satid.formats import PcidAst
from satid.core import AtomTable
from satid import oracle


def test_structural_decomposition():
    # a | (b & c), no definitions: one fresh atom per non-literal subformula
    theory, names = normalize_to_defnf(parse_pcid("(theory (constraint (or a (and b c))))"))
    x1, x2, p_t = names["_t1"], names["_t2"], names["_pT"]
    a, b, c = names["a"], names["b"], names["c"]
    rules = {r.head: r for r in theory.definition}
    assert rules[p_t].conjunctive and rules[p_t].body == (x1,)
    assert not rules[x1].conjunctive and rules[x1].body == (a, x2)
    assert rules[x2].conjunctive and rules[x2].body == (b, c)
    assert theory.theory_atom == p_t


def test_already_normal_theory_is_unchanged(loop):
    text = ("(theory (constraint p_T) (define (rule p_T (or a p)) "
            "(rule p q) (rule q p)))")
    theory, names = normalize_to_defnf(parse_pcid(text))
    assert theory == loop
    assert names == {"p_T": 1, "a": 2, "p": 3, "q": 4}


def test_intro_style_theory_is_unchanged(intro):
    text = ("(theory (constraint p_T) (define"
            " (rule p_T (and a b))"
            " (rule a (or d (not e) f))"
            " (rule b (or c (not g) h))"
            " (rule e (or f (not h) i))))")
    theory, names = normalize_to_defnf(parse_pcid(text))
    assert all(not name.startswith("_") for name in names)  # no fresh atoms
    assert theory.theory_atom == names["p_T"]
    shapes = {theory.name_of(r.head): (r.conjunctive, tuple(r.body))
              for r in theory.definition}
    assert shapes["p_T"] == (True, (names["a"], names["b"]))
    assert shapes["a"] == (False, (names["d"], -names["e"], names["f"]))
    assert shapes["e"] == (False, (names["f"], -names["h"], names["i"]))


def test_same_connective_nesting_is_flattened():
    theory, names = normalize_to_defnf(
        parse_pcid("(theory (constraint (or a (or b c))))"))
    rules = {r.head: r for r in theory.definition}
    body = rules[names["_t1"]].body
    assert body == (names["a"], names["b"], names["c"])

    # repeated literals keep their first occurrence, in order
    theory, names = normalize_to_defnf(
        parse_pcid("(theory (constraint (or c a (or b (not a) c) a (not a) b)))"))
    rules = {r.head: r for r in theory.definition}
    body = rules[names["_t1"]].body
    assert body == (names["c"], names["a"], names["b"], -names["a"])


def test_double_negation_collapses():
    theory, names = normalize_to_defnf(
        parse_pcid("(theory (constraint (not (not a))))"))
    rules = {r.head: r for r in theory.definition}
    assert rules[theory.theory_atom].body == (names["a"],)


def test_negated_connective_pushes_inward():
    # not(a & b) becomes ~a | ~b before flattening, keeping dependency
    # polarities intact
    theory, names = normalize_to_defnf(
        parse_pcid("(theory (constraint (not (and a b))))"))
    rules = {r.head: r for r in theory.definition}
    assert rules[names["_t1"]].body == (-names["a"], -names["b"])
    assert not rules[names["_t1"]].conjunctive
    assert rules[theory.theory_atom].body == (names["_t1"],)


def test_positive_self_loop_survives_flattening():
    # p <- not(not p) is a positive loop; the flattened theory must still make
    # p false rather than unknown
    theory, names = normalize_to_defnf(parse_pcid(
        "(theory (define (rule p (not (not p)))))"))
    models = oracle.enumerate_models(theory)
    assert all(m.value(names["p"]) is oracle.FALSE for m in models)
    assert len(models) == 1


def test_multiple_rules_for_one_head_merge_disjunctively():
    theory, names = normalize_to_defnf(parse_pcid(
        "(theory (constraint p) (define (rule p a) (rule p b)))"))
    rules = {r.head: r for r in theory.definition}
    assert not rules[names["p"]].conjunctive
    assert rules[names["p"]].body == (names["a"], names["b"])


def test_no_constraints_yields_empty_conjunction():
    theory, names = normalize_to_defnf(parse_pcid("(theory (define (rule p a)))"))
    rules = {r.head: r for r in theory.definition}
    assert rules[theory.theory_atom].conjunctive
    assert rules[theory.theory_atom].body == ()
    assert len(oracle.enumerate_models(theory)) == 2 ** len(theory.opens)


def test_round_trip_after_normalization():
    theory, _ = normalize_to_defnf(
        parse_pcid("(theory (constraint (or a (and b (not c)))))"))
    assert parse_cid(write_cid(theory)) == theory


def test_output_is_in_normal_form():
    rng = random.Random(7)
    for _ in range(40):
        ast = _random_ast(rng)
        theory, _ = normalize_to_defnf(ast)
        # parse_cid validates outside input; the theory must pass unchanged
        assert parse_cid(write_cid(theory)) == theory


def test_normalization_preserves_models():
    rng = random.Random(8)
    checked = 0
    for _ in range(60):
        ast = _random_ast(rng)
        want = oracle.pcid_models(ast)
        theory, _ = normalize_to_defnf(ast)
        originals = list(ast.atoms.atoms())
        got = sorted(
            {frozenset(a for a in originals if model.value(a) is oracle.TRUE)
             for model in oracle.enumerate_models(theory)},
            key=sorted)
        assert got == want
        checked += 1
    assert checked == 60


def _random_formula(rng, n_atoms, depth):
    if depth == 0 or rng.random() < 0.45:
        atom = rng.randint(1, n_atoms)
        return atom if rng.random() < 0.7 else Not(atom)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_formula(rng, n_atoms, depth - 1))
    children = tuple(_random_formula(rng, n_atoms, depth - 1)
                     for _ in range(rng.randint(1, 3)))
    return And(children) if kind == 1 else Or(children)


def _random_ast(rng):
    n = rng.randint(2, 5)
    atoms = AtomTable([f"a{i}" for i in range(1, n + 1)])
    constraints = [_random_formula(rng, n, 2) for _ in range(rng.randint(0, 2))]
    definitions = []
    if rng.random() < 0.8:
        heads = rng.sample(range(1, n + 1), rng.randint(1, n))
        rules = []
        for head in heads:
            for _ in range(rng.randint(1, 2)):
                rules.append((head, _random_formula(rng, n, 2)))
        definitions.append(rules)
    return PcidAst(atoms, constraints, definitions)

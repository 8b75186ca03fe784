import hashlib
import json
import random

import pytest

from satid import (And, Not, Or, normalize_to_defnf, parse_pcid, solve, write_cid,
                   parse_cid)
from satid.formats import FormatError, PcidAst
from satid.core import AtomTable, to_nnf
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


def _rebuilt_nnf(formula, positive=True):
    """Negation normal form with every connective built anew."""
    if isinstance(formula, int):
        return formula if positive else -formula
    if isinstance(formula, Not):
        return _rebuilt_nnf(formula.child, not positive)
    children = tuple(_rebuilt_nnf(c, positive) for c in formula.children)
    return type(formula)(children) if positive else (
        Or(children) if isinstance(formula, And) else And(children))


def _has_not(formula):
    if isinstance(formula, int):
        return False
    if isinstance(formula, Not):
        return True
    return any(map(_has_not, formula.children))


def test_nnf_keeps_what_is_already_in_nnf():
    # to_nnf gives the formula a full rebuild gives; it returns an NNF
    # input itself, and a new object, sharing each NNF child, otherwise
    rng = random.Random(8)
    kept = rebuilt = 0
    for _ in range(800):
        formula = _random_formula(rng, 5, rng.randint(1, 3))
        nnf = to_nnf(formula)
        assert nnf == _rebuilt_nnf(formula) and not _has_not(nnf)
        if not _has_not(formula):
            assert nnf is formula
            kept += not isinstance(formula, int)
            continue
        assert nnf is not formula
        rebuilt += 1
        if isinstance(formula, (And, Or)):
            for old, new in zip(formula.children, nnf.children):
                assert new is old or _has_not(old)
    assert kept > 60 and rebuilt > 300, (kept, rebuilt)


def test_output_is_in_normal_form():
    rng = random.Random(7)
    for _ in range(40):
        ast = _random_ast(rng)
        theory, _ = normalize_to_defnf(ast)
        # parse_cid validates outside input; the theory must pass unchanged
        assert parse_cid(write_cid(theory)) == theory


def test_normalization_preserves_models():
    # in the second pass, 45 of the 60 theories have two define blocks, and 42
    # of those read an atom of one block in the other
    checked = 0
    for blocks in (1, 2):
        rng = random.Random(8)
        for _ in range(60):
            ast = _random_ast(rng, blocks)
            want = oracle.pcid_models(ast)
            theory, _ = normalize_to_defnf(ast)
            originals = list(ast.atoms.atoms())
            got = sorted(
                {frozenset(a for a in originals if model.value(a) is oracle.TRUE)
                 for model in oracle.enumerate_models(theory)},
                key=sorted)
            assert got == want, (blocks, ast)
            checked += 1
    assert checked == 120


def test_define_blocks_are_separate_definitions():
    # merged, p <- q and q <- p would be a positive loop forcing both false;
    # as two definitions, each reads the other's atom as open
    ast = parse_pcid("(theory (constraint p) (define (rule p q)) (define (rule q p)))")
    assert oracle.pcid_models(ast) == [frozenset({1, 2})]
    theory, names = normalize_to_defnf(ast)
    result = solve(theory)
    assert result.status == "sat"
    assert result.witness.value(names["p"]) is oracle.TRUE
    assert result.witness.value(names["q"]) is oracle.TRUE


@pytest.mark.parametrize("ast", [
    PcidAst(AtomTable(["p", "q"]), [], [[(1, 2)], [(1, -2)]]),
    parse_pcid("(theory (define (rule p q))\n  (define (rule p r)))"),
])
def test_an_atom_defined_in_two_blocks_is_rejected(ast):
    with pytest.raises(FormatError, match="^atom 'p' is defined in two define blocks$"):
        normalize_to_defnf(ast)


# sha256 of the normalized theories and name maps of `_pinned_corpus()`.  A
# change here means that parse or normalize moved an atom id, a rule or a name.
PINNED_DIGEST = "72acd252b3b39d492ec06cc10aaa177cc0d1480d95212adaebb1e9e6b1521def"


def test_parse_and_normalize_output_is_pinned():
    digest = hashlib.sha256()
    for text in _pinned_corpus():
        theory, names = normalize_to_defnf(parse_pcid(text))
        digest.update(write_cid(theory).encode())
        digest.update(json.dumps(sorted(names.items())).encode())
    assert digest.hexdigest() == PINNED_DIGEST


def _pinned_corpus():
    """Seeded `.pcid` texts: `_random_formula` shapes, 3-SAT clauses, comments,
    line breaks, and user names that collide with normalization's fresh ones."""
    rng = random.Random(16)
    pool = ["a", "b", "p", "q7", "_t1", "_t3", "_pT", "not", "rule"]
    texts = []
    for _ in range(300):
        names = rng.sample(pool, rng.randint(2, 6))
        n = len(names)
        items = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.3:
                clause = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)]
                items.append(f"(constraint {_render(Or(tuple(clause)), names)})")
            else:
                formula = _random_formula(rng, n, 3)
                items.append(f"(constraint {_render(formula, names)})")
        if rng.random() < 0.8:
            rules = [f"(rule {names[head - 1]} {_render(_random_formula(rng, n, 3), names)})"
                     for head in rng.sample(range(1, n + 1), rng.randint(1, n))
                     for _ in range(rng.randint(1, 2))]
            items.append("(define " + "\n  ".join(rules) + ")")
        lines = ["; generated"] if rng.random() < 0.5 else []
        lines.append("(theory")
        lines += [f"  {item}" + (" ; note" if rng.random() < 0.3 else "") for item in items]
        lines.append(")")
        texts.append("\n".join(lines) + "\n")
    return texts


def _render(formula, names):
    if isinstance(formula, int):
        name = names[abs(formula) - 1]
        return name if formula > 0 else f"(not {name})"
    if isinstance(formula, Not):
        return f"(not {_render(formula.child, names)})"
    tag = "and" if isinstance(formula, And) else "or"
    return f"({tag} {' '.join(_render(c, names) for c in formula.children)})"


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


def _random_ast(rng, blocks=1):
    """A random theory over a2..a5; with `blocks` 2, its defined atoms are
    split between two define blocks."""
    n = rng.randint(2, 5)
    atoms = AtomTable([f"a{i}" for i in range(1, n + 1)])
    constraints = [_random_formula(rng, n, 2) for _ in range(rng.randint(0, 2))]
    definitions = []
    if rng.random() < 0.8:
        heads = rng.sample(range(1, n + 1), rng.randint(blocks, n))
        cut = rng.randint(1, len(heads) - 1) if blocks == 2 else len(heads)
        for part in (heads[:cut], heads[cut:])[:blocks]:
            rules = []
            for head in part:
                for _ in range(rng.randint(1, 2)):
                    rules.append((head, _random_formula(rng, n, 2)))
            definitions.append(rules)
    return PcidAst(atoms, constraints, definitions)

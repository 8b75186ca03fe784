import itertools
import random

import pytest

from satid import (FALSE, TRUE, UNKNOWN, AtomTable, DefnfTheory, Definition,
                   PartialInterpretation, Rule, normalize_to_defnf, parse_pcid)
from satid.oracle import (GuardExceeded, count_models_extending,
                          enumerate_models, is_model, is_total, justified,
                          justified_literals, justified_status, relevant_set,
                          well_founded_model)

import theory_gen


def interp(*lits):
    return PartialInterpretation.from_literals(lits)


def _two_atom_defn(positive: bool):
    # p <- q; q <- p  (positive) or p <- ~q; q <- ~p
    sign = 1 if positive else -1
    return Definition([Rule(1, False, (sign * 2,)), Rule(2, False, (sign * 1,))])


# -- well-founded models -----------------------------------------------------

def test_wfm_unfounded_positive_loop_is_false():
    wfm = well_founded_model(_two_atom_defn(positive=True), interp())
    assert wfm.value(1) is FALSE and wfm.value(2) is FALSE


def test_wfm_symmetric_negative_loop_is_unknown():
    wfm = well_founded_model(_two_atom_defn(positive=False), interp())
    assert wfm.value(1) is UNKNOWN and wfm.value(2) is UNKNOWN


def test_wfm_intro_contexts(intro):
    # hand-run alternating fixpoint: with c,d true and f,g,i false the value
    # of e depends on h alone (e <- f | ~h | i)
    names = intro.atoms
    c, d, f, g, h, i = (names.id_of(x) for x in "cdfghi")
    ctx_h_false = interp(c, d, -f, -g, -h, -i)
    wfm = well_founded_model(intro.definition, ctx_h_false)
    assert wfm.value(names.id_of("a")) is TRUE
    assert wfm.value(names.id_of("b")) is TRUE
    assert wfm.value(names.id_of("p_T")) is TRUE
    assert wfm.value(names.id_of("e")) is TRUE  # ~h holds, so e fires

    ctx_h_true = interp(c, d, -f, -g, h, -i)
    wfm = well_founded_model(intro.definition, ctx_h_true)
    assert wfm.value(names.id_of("a")) is TRUE
    assert wfm.value(names.id_of("b")) is TRUE
    assert wfm.value(names.id_of("p_T")) is TRUE
    assert wfm.value(names.id_of("e")) is FALSE


def test_wfm_is_deterministic_and_idempotent(justdef):
    ctx = interp(7, -8, 9, -10, 11)
    first = well_founded_model(justdef.definition, ctx)
    second = well_founded_model(justdef.definition, ctx)
    assert first == second


def test_wfm_keeps_open_context():
    wfm = well_founded_model(Definition([Rule(1, False, (2,))]), interp(-2))
    assert wfm.value(2) is FALSE and wfm.value(1) is FALSE


# -- totality -------------------------------------------------------------------

def test_totality_examples(justdef):
    assert not is_total(_two_atom_defn(positive=False))
    assert is_total(_two_atom_defn(positive=True))
    assert is_total(justdef.definition, justdef.atoms.atoms())


def test_totality_guard():
    defn = Definition([Rule(1, False, tuple(range(2, 30)))])
    with pytest.raises(GuardExceeded):
        is_total(defn)


def test_total_definitions_are_two_valued_everywhere():
    rng = random.Random(13)
    for _ in range(30):
        theory = theory_gen.random_total_theory(rng, max_atoms=6)
        if not is_total(theory.definition, theory.atoms.atoms()):
            continue
        opens = sorted(theory.opens)
        for mask in range(2 ** len(opens)):
            ctx = interp(*(a if mask >> k & 1 else -a
                           for k, a in enumerate(opens)))
            wfm = well_founded_model(theory.definition, ctx)
            assert wfm.two_valued_on(theory.defined)


# -- models ------------------------------------------------------------------------

def test_is_model_examples(loop):
    assert is_model(interp(1, 2, -3, -4), loop)
    assert not is_model(interp(1, -2, 3, 4), loop)  # unfounded loop
    assert not is_model(interp(-1, 2, -3, -4), loop)  # theory atom false


def test_is_model_requires_two_valued(loop):
    with pytest.raises(ValueError):
        is_model(interp(1, 2), loop)


def test_enumerate_models_loop(loop):
    models = enumerate_models(loop)
    assert [m.true_literals() for m in models] == [[1, 2, -3, -4]]


def test_enumerate_models_unconstrained():
    # theory atom defined by the empty conjunction: always true
    table = AtomTable([None] * 3)
    theory = DefnfTheory(table, 1, Definition([Rule(1, True, ())]))
    assert len(enumerate_models(theory)) == 4  # two free opens


def test_enumerate_models_contradictory_body():
    table = AtomTable([None, None])
    theory = DefnfTheory(table, 1, Definition([Rule(1, True, (2, -2))]))
    assert enumerate_models(theory) == []


def test_enumerate_models_guard():
    table = AtomTable([None] * 25)
    theory = DefnfTheory(table, 1, Definition([Rule(1, True, ())]))
    with pytest.raises(GuardExceeded):
        enumerate_models(theory)


def test_enumerate_models_guards_only_the_open_atoms():
    # normalization gives each connective its own defined atom: 6 opens, 28
    # atoms in all.  Every model is one of the open contexts' well-founded
    # models, so counting those that `is_model` accepts counts the models
    clauses = " ".join(f"(constraint (or (and {x} {y}) (not {z}) (and {y} (not {x}))))"
                       for x, y, z in itertools.permutations("abc", 3))
    theory, _ = normalize_to_defnf(parse_pcid(
        f"(theory {clauses} (define (rule p (or d (and e q))) (rule q (and f p))))"))
    opens = sorted(theory.opens)
    assert theory.n_atoms > 20 and len(opens) <= 8
    models = enumerate_models(theory)
    count = 0
    for signs in itertools.product((1, -1), repeat=len(opens)):
        context = interp(*(sign * atom for sign, atom in zip(signs, opens)))
        wfm = well_founded_model(theory.definition, context)
        count += (wfm.two_valued_on(theory.atoms.atoms())
                  and is_model(wfm, theory))
    assert len(models) == count > 0
    assert all(is_model(model, theory) for model in models)


# -- justified status -----------------------------------------------------------------

def test_intro_justified_statuses(intro):
    names = intro.atoms
    state = interp(names.id_of("c"), names.id_of("d"))
    assert justified_status(intro, state, names.id_of("a")) is TRUE
    assert justified_status(intro, state, names.id_of("b")) is TRUE
    assert justified_status(intro, state, names.id_of("p_T")) is TRUE
    assert justified_status(intro, state, names.id_of("e")) is UNKNOWN


def test_open_literal_justified_iff_true(intro):
    c = intro.atoms.id_of("c")
    assert justified(intro, interp(c), c)
    assert not justified(intro, interp(), c)
    assert justified(intro, interp(-c), -c)


def test_negative_loop_literals_justified_at_empty_state():
    table = AtomTable([None, None, None])
    theory = DefnfTheory(table, 1, Definition([
        Rule(1, False, (3,)), Rule(2, False, (2,))]))
    # q <- q is a positive self-loop: ~q is justified by its negative cycle
    assert justified(theory, interp(), -2)
    assert not justified(theory, interp(), 2)


def test_mixed_loop_justifies_nothing():
    table = AtomTable([None, None])
    theory = DefnfTheory(table, 1, Definition([
        Rule(1, False, (-2,)), Rule(2, False, (-1,))]))
    for lit in (1, -1, 2, -2):
        assert not justified(theory, interp(), lit)


def test_justified_never_both_polarities():
    rng = random.Random(14)
    for _ in range(40):
        theory = theory_gen.random_total_theory(rng, max_atoms=6)
        state = interp(*theory_gen.random_open_literals(rng, theory))
        for atom in theory.atoms.atoms():
            assert not (justified(theory, state, atom)
                        and justified(theory, state, -atom))


def test_justified_persists_under_extension():
    rng = random.Random(15)
    for _ in range(40):
        theory = theory_gen.random_total_theory(rng, max_atoms=6)
        state = interp(*theory_gen.random_open_literals(rng, theory, density=0.4))
        justified_now = justified_literals(theory, state)
        extended = state.copy()
        for atom in theory.opens:
            if extended.value(atom) is UNKNOWN and rng.random() < 0.5:
                extended.set_literal(rng.choice((atom, -atom)))
        for lit in justified_now:
            assert justified(theory, extended, lit)


def test_justified_guard():
    rules = [Rule(head, False, (head + 1,)) for head in range(1, 14)]
    table = AtomTable([None] * 14)
    theory = DefnfTheory(table, 1, Definition(rules))
    with pytest.raises(GuardExceeded):
        justified(theory, interp(), 1)


# -- relevance fixpoint -------------------------------------------------------------

def test_relevant_set_loop_examples(loop):
    assert relevant_set(loop, interp()) == {1, 2, 3, 4}
    assert relevant_set(loop, interp(2)) == set()


def test_relevant_set_intro_after_open_support(intro):
    names = intro.atoms
    relevant = relevant_set(intro, interp(names.id_of("d")))
    assert -names.id_of("e") not in relevant
    assert names.id_of("b") in relevant
    assert names.id_of("h") in relevant


def test_relevant_set_never_contains_justified(loop):
    rng = random.Random(16)
    for _ in range(30):
        theory = theory_gen.random_total_theory(rng, max_atoms=6)
        state = interp(*theory_gen.random_open_literals(rng, theory))
        relevant = relevant_set(theory, state)
        assert not relevant & justified_literals(theory, state)


# -- model counting --------------------------------------------------------------------

def test_count_models_extending_intro(intro):
    state = interp(1, 2, 3, 4, 5)  # p_T a b c d true; f g h i open
    assert count_models_extending(intro, state) == 16


def test_count_models_extending_fully_assigned_opens(intro):
    state = interp(4, 5, 7, -8, 9, -10)  # all six opens assigned, c and d true
    assert count_models_extending(intro, state) == 1


def test_count_models_extending_loop(loop):
    assert count_models_extending(loop, interp(2)) == 1


def test_count_models_requires_justified(loop):
    with pytest.raises(ValueError, match="not justified"):
        count_models_extending(loop, interp())

import random

from satid import (AtomTable, DefnfTheory, Definition, Rule,
                   build_justification_maps)

import theory_gen


def test_justification_definition_structure(justdef):
    setup = build_justification_maps(justdef)
    ext = setup.extended
    names = {ext.name_of(r.head): r for r in setup.maps.definition}
    b, c, d, e, a = (justdef.atoms.id_of(x) for x in "bcdea")
    jf = setup.maps.to_just[justdef.atoms.id_of("f")]

    top = names["j(p_T)"]
    assert top.conjunctive
    assert tuple(ext.name_of(x) for x in top.body) == (
        "j(c1)", "j(c2)", "j(c3)", "j(c4)")
    assert names["j(c1)"].body == (-b, -d)
    assert names["j(c2)"].body == (a, b, -c)
    assert names["j(c3)"].body == (-b, e, -jf)   # defined f becomes j(f)
    assert names["j(c4)"].body == (d, jf, -a)
    assert names["j(f)"].body == (b, d)          # open-only body is unchanged


def test_fresh_atoms_appended_in_ascending_defined_order(justdef):
    setup = build_justification_maps(justdef)
    n = justdef.n_atoms
    for offset, atom in enumerate(sorted(justdef.defined), start=1):
        assert setup.maps.to_just[atom] == n + offset


def test_open_only_bodies_are_identical():
    theory = theory_gen.build_theory("p x y", "p", [("p", "d", ["x", "~y"])])
    setup = build_justification_maps(theory)
    assert setup.maps.definition.rules[0].body == theory.definition.rules[0].body


def test_translation_maps_are_inverse(justdef):
    setup = build_justification_maps(justdef)
    for atom in justdef.defined:
        for lit in (atom, -atom):
            assert setup.maps.status_change[setup.maps.to_just[lit]] == lit
    assert setup.maps.just_atoms == {setup.maps.to_just[a] for a in justdef.defined}


def test_copy_is_isomorphic_to_original():
    rng = random.Random(20)
    for _ in range(30):
        theory = theory_gen.random_total_theory(rng)
        setup = build_justification_maps(theory)

        def translate(lit):
            return setup.maps.to_just.get(lit, lit)

        translated = [
            Rule(translate(rule.head), rule.conjunctive,
                 tuple(translate(l) for l in rule.body))
            for rule in theory.definition]
        assert tuple(translated) == setup.maps.definition.rules


def test_status_change_dispatch(justdef):
    setup = build_justification_maps(justdef)
    c1 = justdef.atoms.id_of("c1")
    d = justdef.atoms.id_of("d")
    j_c1 = setup.maps.to_just[c1]
    status_change = setup.maps.status_change
    assert status_change.get(j_c1) == c1
    assert status_change.get(-j_c1) == -c1
    assert status_change.get(d) == d          # open atom
    assert status_change.get(-d) == -d
    assert status_change.get(c1) is None      # original defined atom
    tracked = setup.maps.just_atoms | justdef.opens
    assert set(status_change) == {s * a for a in tracked for s in (1, -1)}


def test_empty_definition_has_empty_copy():
    table = AtomTable(["p"])
    theory = DefnfTheory(table, 1, Definition([Rule(1, True, ())]))
    setup = build_justification_maps(theory)
    assert len(setup.maps.definition) == 1
    assert setup.maps.definition.rules[0].body == ()


def test_extended_theory_contains_both_copies(loop):
    setup = build_justification_maps(loop)
    assert setup.extended.n_atoms == loop.n_atoms + len(loop.defined)
    assert len(setup.extended.definition) == 2 * len(loop.definition)
    assert setup.extended.theory_atom == loop.theory_atom
    assert setup.just_theory_atom == setup.maps.to_just[loop.theory_atom]

import random

from satid import (AtomTable, DefnfTheory, Definition, Rule,
                   build_justification_maps)

import theory_gen


def copy_rule(setup, name):
    """The copy rule of the base atom with this name, looked up by id."""
    atom = setup.base.atoms.id_of(name)
    return theory_gen.combined_definition(setup).rule_for(setup.maps.to_just[atom])


def test_justification_definition_structure(justdef):
    setup = build_justification_maps(justdef)
    b, c, d, e, a = (justdef.atoms.id_of(x) for x in "bcdea")
    j = {name: setup.maps.to_just[justdef.atoms.id_of(name)]
         for name in ("c1", "c2", "c3", "c4", "f")}

    top = copy_rule(setup, "p_T")
    assert top.conjunctive
    assert top.body == (j["c1"], j["c2"], j["c3"], j["c4"])
    assert copy_rule(setup, "c1").body == (-b, -d)
    assert copy_rule(setup, "c2").body == (a, b, -c)
    assert copy_rule(setup, "c3").body == (-b, e, -j["f"])  # defined f becomes j(f)
    assert copy_rule(setup, "c4").body == (d, j["f"], -a)
    assert copy_rule(setup, "f").body == (b, d)             # open-only body is unchanged


def test_fresh_atoms_appended_in_ascending_defined_order(justdef):
    setup = build_justification_maps(justdef)
    n = justdef.n_atoms
    for offset, atom in enumerate(sorted(justdef.defined), start=1):
        assert setup.maps.to_just[atom] == n + offset


def test_open_only_bodies_are_identical():
    theory = theory_gen.build_theory("p x y", "p", [("p", "d", ["x", "~y"])])
    setup = build_justification_maps(theory)
    assert copy_rule(setup, "p").body == theory.definition.rules[0].body


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
        bodies = [rule.body for rule in theory.definition]
        copies = setup.maps.translate(bodies)
        assert len(copies) == len(bodies)
        for body, copy in zip(bodies, copies):
            assert len(copy) == len(body)
            for lit, renamed in zip(body, copy):
                if abs(lit) in theory.defined:
                    # a defined atom's literal goes to its copy, same sign
                    assert abs(renamed) in setup.maps.just_atoms
                    assert setup.maps.status_change[renamed] == lit
                else:
                    assert renamed == lit  # an open literal stays


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
    assert setup.maps.translate([()]) == [[]]
    assert setup.maps.just_atoms == {setup.maps.to_just[1]} == {2}


def test_combined_definition_contains_both_copies(loop):
    setup = build_justification_maps(loop)
    assert setup.n_atoms == loop.n_atoms + len(loop.defined)
    assert setup.maps.just_atoms == {setup.maps.to_just[a] for a in loop.defined}
    assert setup.just_theory_atom == setup.maps.to_just[loop.theory_atom]


def test_copy_needs_no_atom_names():
    # the copies get ids, not names: the base table is not grown, and a
    # base atom named like a copy of another changes no id
    rules = [Rule(1, False, (2, 3)), Rule(3, True, (-2,))]
    named = AtomTable(["a", "j(a)", "b"])
    unnamed = AtomTable([None] * 3)
    ids = []
    for table in (named, unnamed):
        theory = DefnfTheory(table, 1, Definition(rules))
        setup = build_justification_maps(theory)
        assert len(theory.atoms) == 3
        ids.append(setup.maps.to_just)
    assert ids[0] == ids[1] == {1: 4, -1: -4, 3: 5, -3: -5}

"""Justification atoms: a duplicated definition over fresh atoms whose truth
values are produced purely by propagation, so that j(p) being true/false in
the solver encodes that p / ~p is justified.

The copy replaces every defined atom (head or body) by its justification
atom and leaves open atoms untouched.  The solver must never decide on a
justification atom; their values then coincide with justified status at every
propagation fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (DefnfTheory, Definition, DependencyGraph, Rule, atom_of,
                   build_dependency_graph)


@dataclass(frozen=True)
class JustificationMaps:
    """Literal translation between the original and the justification copy.

    `status_change` is the one place that says which events carry
    justification information: it maps each literal whose becoming true (or
    unknown again) flips a justified status to the literal whose status
    flips.  `j(p)` maps to `p` and `~j(p)` to `~p`, so on justification
    literals it inverts `to_just`; an open literal is its own one-node
    justification and maps to itself.  Literals of original defined atoms
    are absent: their values say nothing about justification.
    """

    to_just: dict[int, int]
    just_atoms: frozenset[int]
    status_change: dict[int, int]
    definition: Definition


@dataclass(frozen=True)
class JustifiedTheory:
    """A theory together with its justification copy, combined solver view
    and the base definition's dependency graph, the one that the relevance
    tracker, the solver's loop peel and `satid solve --dot` read."""

    base: DefnfTheory
    maps: JustificationMaps
    extended: DefnfTheory
    graph: DependencyGraph

    @property
    def just_theory_atom(self) -> int:
        return self.maps.to_just[self.base.theory_atom]


def build_justification_maps(theory: DefnfTheory) -> JustifiedTheory:
    """Create the justification copy of a theory's definition.

    Fresh atoms are appended after the existing table in ascending order of
    the defined atom they copy, which makes their ids reproducible.
    """
    atoms = theory.atoms.copy()
    defined = sorted(theory.definition.defined_atoms)

    j_of: dict[int, int] = {}
    for atom in defined:
        name: str | None = f"j({theory.atoms.name_of(atom)})"
        if name in atoms:
            name = None
        j_of[atom] = atoms.fresh(name)

    to_just: dict[int, int] = {}
    status_change: dict[int, int] = {}
    for atom, j_atom in j_of.items():
        to_just[atom] = j_atom
        to_just[-atom] = -j_atom
        status_change[j_atom] = atom
        status_change[-j_atom] = -atom
    for atom in theory.opens:
        status_change[atom] = atom
        status_change[-atom] = -atom

    def translate(lit: int) -> int:
        atom = atom_of(lit)
        if atom in j_of:
            return j_of[atom] if lit > 0 else -j_of[atom]
        return lit

    j_rules = [
        Rule(j_of[rule.head], rule.conjunctive, tuple(translate(l) for l in rule.body))
        for rule in theory.definition
    ]
    maps = JustificationMaps(to_just, frozenset(j_of.values()), status_change,
                             Definition(j_rules))
    combined = Definition(theory.definition.rules + maps.definition.rules)
    extended = DefnfTheory(atoms, theory.theory_atom, combined)
    return JustifiedTheory(theory, maps, extended,
                           build_dependency_graph(theory.definition))


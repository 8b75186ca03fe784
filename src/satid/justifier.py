"""Justification atoms: a duplicated definition over new atom ids whose truth
values are produced purely by propagation, so that j(p) being true/false in
the solver encodes that p / ~p is justified.

The copy replaces every defined atom (head or body) by its justification
atom and leaves open atoms untouched.  With n atoms in the theory and d of
them defined, the copies are numbered n+1..n+d in ascending order of the
defined atom they copy.  They have no names and no atom table: the theory
keeps its own.  The solver must never decide on a justification atom; their
values then coincide with justified status at every propagation fixpoint.
The copy is never built as rules: renaming keeps open atoms, so each copy
rule, and each of its completion clauses, is a base one with every literal
renamed (`JustificationMaps.translate`), and the solver builds them so.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .core import DefnfTheory, DependencyGraph, build_dependency_graph


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

    def translate(self, seqs: Iterable[Sequence[int]]) -> list[list[int]]:
        """Each sequence of literals renamed into the copy: a defined atom's
        literal to its justification atom's, an open literal to itself."""
        get = self.to_just.get
        return [list(map(get, lits, lits)) for lits in seqs]


@dataclass(frozen=True)
class JustifiedTheory:
    """A theory and what the solver and the relevance tracker read of its
    justification copy: the literal maps and the base definition's
    dependency graph, the one that the relevance tracker, the solver's loop
    peel and `satid solve --dot` read."""

    base: DefnfTheory
    maps: JustificationMaps
    graph: DependencyGraph

    @property
    def n_atoms(self) -> int:
        """Atoms of the theory plus their justification copies."""
        return self.base.n_atoms + len(self.maps.just_atoms)

    @property
    def just_theory_atom(self) -> int:
        return self.maps.to_just[self.base.theory_atom]

    def defined_atoms(self) -> frozenset[int]:
        """The base heads, then their copies, built from a dict in rule order
        as `Definition.defined_atoms` is: past its hash table an int set's
        iteration order, which `Solver._loop_rules` follows, depends on that."""
        heads = [rule.head for rule in self.base.definition]
        return frozenset(dict.fromkeys([*heads, *map(self.maps.to_just.__getitem__, heads)]))


def build_justification_maps(theory: DefnfTheory) -> JustifiedTheory:
    """Number the justification copies of a theory's defined atoms.

    The copies are numbered after the theory's atoms in ascending order of
    the defined atom they copy, which makes their ids reproducible.
    """
    n = theory.n_atoms
    to_just: dict[int, int] = {}
    status_change: dict[int, int] = {}
    for j_atom, atom in enumerate(sorted(theory.defined), start=n + 1):
        to_just[atom] = j_atom
        to_just[-atom] = -j_atom
        status_change[j_atom] = atom
        status_change[-j_atom] = -atom
    for atom in theory.opens:
        status_change[atom] = atom
        status_change[-atom] = -atom
    just_atoms = frozenset(range(n + 1, n + 1 + len(theory.defined)))
    maps = JustificationMaps(to_just, just_atoms, status_change)
    return JustifiedTheory(theory, maps, build_dependency_graph(theory.definition))

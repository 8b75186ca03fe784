"""Brute-force reference semantics.

Everything here favors transparency over speed and refuses loudly (via
GuardExceeded) on inputs beyond desk scale.  The well-founded model is
computed by the alternating fixpoint; justified status is decided by
exhaustive search over justification graphs, independently of any propagation
machinery, so the two can be checked against each other.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .core import (FALSE, TRUE, UNKNOWN, And, DefnfTheory, Definition, Formula,
                   Or, PartialInterpretation, TruthValue, atom_of,
                   build_dependency_graph, cyclic_literals,
                   direct_justifications, eval_formula, to_nnf)
from .formats import PcidAst

MAX_ENUM_OPENS = 20
MAX_PCID_ATOMS = 16
MAX_SEARCH_DEFINED = 12
SEARCH_BUDGET = 2_000_000


class GuardExceeded(RuntimeError):
    """Input too large for brute-force evaluation."""


class OracleError(RuntimeError):
    """Internal cross-check of the reference semantics failed."""


# ---------------------------------------------------------------------------
# Well-founded models (alternating fixpoint)

def _closure(definition: Definition, context: PartialInterpretation,
             other: frozenset[int] | set[int], not_false: bool) -> set[int]:
    """Least set of defined atoms whose rules fire.

    Negated defined literals are judged against `other` (the opposite bound of
    the alternation).  In exact mode a rule fires when its body is true; in
    `not_false` mode when its body is not false (unknown open atoms count).
    """
    defined = definition.defined_atoms
    derived: set[int] = set()

    def lit_ok(lit: int) -> bool:
        atom = atom_of(lit)
        if atom in defined:
            return (atom in derived) if lit > 0 else (atom not in other)
        value = context.literal_value(lit)
        return value is TRUE if not not_false else value is not FALSE

    changed = True
    while changed:
        changed = False
        for rule in definition:
            if rule.head in derived:
                continue
            if rule.conjunctive:
                fires = all(lit_ok(lit) for lit in rule.body)
            else:
                fires = any(lit_ok(lit) for lit in rule.body)
            if fires:
                derived.add(rule.head)
                changed = True
    return derived


def wfs_bounds(definition: Definition,
               context: PartialInterpretation) -> tuple[set[int], set[int]]:
    """(surely-true, possibly-true) defined atoms of the well-founded model
    in the given (possibly partial) context over the open atoms."""
    true_set: set[int] = set()
    notfalse_set: set[int] = set(definition.defined_atoms)
    while True:
        new_true = _closure(definition, context, notfalse_set, not_false=False)
        new_notfalse = _closure(definition, context, new_true, not_false=True)
        if new_true == true_set and new_notfalse == notfalse_set:
            return true_set, notfalse_set
        true_set, notfalse_set = new_true, new_notfalse


def well_founded_model(definition: Definition,
                       context: PartialInterpretation) -> PartialInterpretation:
    """Well-founded model of the definition in the given open-atom context.

    Open atoms keep their context value; defined atoms get t/f/u from the
    alternating fixpoint.  The result is three-valued in general and
    two-valued exactly when the bounds coincide.
    """
    true_set, notfalse_set = wfs_bounds(definition, context)
    defined = definition.defined_atoms
    result = PartialInterpretation()
    for atom, value in context.items():
        if atom not in defined:
            result.set_literal(atom if value is TRUE else -atom)
    for atom in defined:
        if atom in true_set:
            result.set_literal(atom)
        elif atom not in notfalse_set:
            result.set_literal(-atom)
    return result


def _open_contexts(opens: list[int]) -> Iterable[PartialInterpretation]:
    for signs in itertools.product((1, -1), repeat=len(opens)):
        yield PartialInterpretation.from_literals(
            sign * atom for sign, atom in zip(signs, opens))


def is_total(definition: Definition, universe: Iterable[int] | None = None) -> bool:
    """Whether every two-valued open context yields a two-valued model."""
    opens = sorted(definition.open_atoms(universe))
    if len(opens) > MAX_ENUM_OPENS:
        raise GuardExceeded(f"{len(opens)} open atoms exceed the enumeration guard")
    for context in _open_contexts(opens):
        true_set, notfalse_set = wfs_bounds(definition, context)
        if true_set != notfalse_set:
            return False
    return True


def is_model(interp: PartialInterpretation, theory: DefnfTheory) -> bool:
    """Two-valued `interp` is a model iff the theory atom holds and the
    interpretation equals the well-founded model in its own open context."""
    atoms = list(theory.atoms.atoms())
    if not interp.two_valued_on(atoms):
        raise ValueError("is_model needs a two-valued interpretation")
    if interp.value(theory.theory_atom) is not TRUE:
        return False
    wfm = well_founded_model(theory.definition, interp.restrict(theory.opens))
    return all(wfm.value(atom) == interp.value(atom) for atom in atoms)


def enumerate_models(theory: DefnfTheory) -> list[PartialInterpretation]:
    """All two-valued models, canonically ordered.

    A model is determined by its open part (the definition fixes the rest),
    so enumeration walks the open contexts only.
    """
    opens = sorted(theory.opens)
    if len(opens) > MAX_ENUM_OPENS:
        raise GuardExceeded(f"{len(opens)} open atoms exceed the enumeration guard")
    defined = theory.definition.defined_atoms
    models = []
    for context in _open_contexts(opens):
        true_set, notfalse_set = wfs_bounds(theory.definition, context)
        if true_set != notfalse_set or theory.theory_atom not in true_set:
            continue
        model = context.copy()
        for atom in defined:
            model.set_literal(atom if atom in true_set else -atom)
        models.append(model)
    return models


# ---------------------------------------------------------------------------
# Justified status by exhaustive search

def justified(theory: DefnfTheory, interp: PartialInterpretation,
              literal: int) -> bool:
    """Whether some total justification containing `literal` has value true.

    Searches over choices of one direct justification per reachable defined
    literal.  A choice graph is accepted when every open leaf is true and no
    positive literal lies on a cycle (cycles must be purely negative).
    """
    definition = theory.definition
    defined = definition.defined_atoms
    if atom_of(literal) not in defined:
        return interp.literal_value(literal) is TRUE
    if len(defined) > MAX_SEARCH_DEFINED:
        raise GuardExceeded(f"{len(defined)} defined atoms exceed the search guard")

    options: dict[int, list[frozenset[int]]] = {}

    def options_of(lit: int) -> list[frozenset[int]]:
        cached = options.get(lit)
        if cached is None:
            cached = [
                opt for opt in direct_justifications(lit, definition)
                if all(atom_of(m) in defined or interp.literal_value(m) is TRUE
                       for m in opt)
            ]
            options[lit] = cached
        return cached

    sigma: dict[int, frozenset[int]] = {}
    steps = 0

    def cycles_ok() -> bool:
        adjacency = {lit: [m for m in opt if m in sigma] for lit, opt in sigma.items()}
        return all(lit < 0 for lit in cyclic_literals(adjacency))

    def search(stack: list[int]) -> bool:
        nonlocal steps
        stack = [m for m in stack if m not in sigma]
        if not stack:
            return True
        lit = stack[-1]
        rest = stack[:-1]
        for opt in options_of(lit):
            steps += 1
            if steps > SEARCH_BUDGET:
                raise GuardExceeded("justification search budget exhausted")
            sigma[lit] = opt
            if cycles_ok():
                extra = [m for m in opt if atom_of(m) in defined]
                if search(rest + extra):
                    return True
            del sigma[lit]
        return False

    return search([literal])


def justified_status(theory: DefnfTheory, interp: PartialInterpretation,
                     atom: int) -> TruthValue:
    """true if the atom's positive literal is justified, false if its
    negation is, unknown otherwise."""
    if justified(theory, interp, atom):
        return TRUE
    if justified(theory, interp, -atom):
        return FALSE
    return UNKNOWN


def justified_literals(theory: DefnfTheory,
                       interp: PartialInterpretation) -> set[int]:
    """All justified literals (both polarities considered per atom)."""
    result: set[int] = set()
    defined = theory.defined
    for atom in theory.atoms.atoms():
        if atom in defined:
            if justified(theory, interp, atom):
                result.add(atom)
            elif justified(theory, interp, -atom):
                result.add(-atom)
        else:
            value = interp.value(atom)
            if value is TRUE:
                result.add(atom)
            elif value is FALSE:
                result.add(-atom)
    return result


def relevant_set(theory: DefnfTheory, interp: PartialInterpretation) -> set[int]:
    """Least fixpoint of relevance: the theory atom when unjustified, plus
    unjustified literals reachable from a relevant literal in the dependency
    graph."""
    return build_dependency_graph(theory.definition).reachable(
        theory.theory_atom, justified_literals(theory, interp))


def count_models_extending(theory: DefnfTheory,
                           interp: PartialInterpretation) -> int:
    """Number of models whose open part extends the interpretation's.

    Requires the theory atom to be justified; the count is verified against
    2^n for n the unassigned open atoms, which justifiedness guarantees.
    """
    if not justified(theory, interp, theory.theory_atom):
        raise ValueError("theory atom is not justified in this interpretation")
    opens = sorted(theory.opens)
    unassigned = [a for a in opens if interp.value(a) is UNKNOWN]
    if len(unassigned) > MAX_ENUM_OPENS:
        raise GuardExceeded(f"{len(unassigned)} unassigned opens exceed the guard")
    base = interp.restrict(opens)
    count = 0
    for signs in itertools.product((1, -1), repeat=len(unassigned)):
        context = base.copy()
        for sign, atom in zip(signs, unassigned):
            context.set_literal(sign * atom)
        true_set, notfalse_set = wfs_bounds(theory.definition, context)
        if true_set == notfalse_set and theory.theory_atom in true_set:
            count += 1
    if count != 2 ** len(unassigned):
        raise OracleError(
            f"extension count {count} differs from 2^{len(unassigned)}")
    return count


# ---------------------------------------------------------------------------
# General (pre-normalization) theories, for checking the normalizer

def _general_wfs_bounds(rules: Mapping[int, list[Formula]],
                        context: PartialInterpretation) -> tuple[set[int], set[int]]:
    """Alternating fixpoint for rules with arbitrary formula bodies (in NNF,
    so polarities of defined atoms are syntactically visible)."""
    defined = frozenset(rules)

    def closure(other: set[int], not_false: bool) -> set[int]:
        derived: set[int] = set()

        def holds(formula: Formula) -> bool:
            if isinstance(formula, int):
                atom = atom_of(formula)
                if atom in defined:
                    return (atom in derived) if formula > 0 else (atom not in other)
                value = context.literal_value(formula)
                return value is TRUE if not not_false else value is not FALSE
            if isinstance(formula, And):
                return all(holds(c) for c in formula.children)
            if isinstance(formula, Or):
                return any(holds(c) for c in formula.children)
            raise TypeError(f"not in NNF: {formula!r}")

        changed = True
        while changed:
            changed = False
            for head, bodies in rules.items():
                if head in derived:
                    continue
                if any(holds(body) for body in bodies):
                    derived.add(head)
                    changed = True
        return derived

    true_set: set[int] = set()
    notfalse_set: set[int] = set(defined)
    while True:
        new_true = closure(notfalse_set, not_false=False)
        new_notfalse = closure(new_true, not_false=True)
        if new_true == true_set and new_notfalse == notfalse_set:
            return true_set, notfalse_set
        true_set, notfalse_set = new_true, new_notfalse


def pcid_models(ast: PcidAst) -> list[frozenset[int]]:
    """All models of a general theory, as sets of true atoms.

    A two-valued interpretation is a model when it satisfies every constraint
    and equals, per definition, the well-founded model in its own context.
    """
    atoms = sorted(ast.atoms.atoms())
    if len(atoms) > MAX_PCID_ATOMS:
        raise GuardExceeded(f"{len(atoms)} atoms exceed the enumeration guard")
    prepared = []
    for definition in ast.definitions:
        rules: dict[int, list[Formula]] = {}
        for head, body in definition:
            rules.setdefault(head, []).append(to_nnf(body))
        prepared.append(rules)

    models = []
    for signs in itertools.product((1, -1), repeat=len(atoms)):
        interp = PartialInterpretation.from_literals(
            sign * atom for sign, atom in zip(signs, atoms))
        if any(eval_formula(c, interp) is not TRUE for c in ast.constraints):
            continue
        ok = True
        for rules in prepared:
            defined = frozenset(rules)
            context = interp.restrict(set(atoms) - defined)
            true_set, notfalse_set = _general_wfs_bounds(rules, context)
            if true_set != notfalse_set:
                ok = False
                break
            if any((interp.value(a) is TRUE) != (a in true_set) for a in defined):
                ok = False
                break
        if ok:
            models.append(frozenset(a for a in atoms if interp.value(a) is TRUE))
    return sorted(models, key=sorted)

"""Normalization of general ground PC(ID) theories to definitional normal form.

Rule bodies and constraints are first brought into negation normal form, then
flattened: every connective subformula gets a fresh definitional atom with its
own flat rule (full equivalence, shared between identical subformulas).
Working on NNF keeps the negation parity of every dependency path intact,
which is what makes the flattening conservative under the well-founded
semantics; introducing a fresh atom under a negation can otherwise turn a
positive loop into a negative one and change the models.

All constraints are conjoined into the theory atom: each contributes one
literal, either itself when already a literal or its fresh atom.  A theory
whose single constraint is an atom defined by its rules keeps that atom as
the theory atom and is left untouched.
"""

from __future__ import annotations

from .core import (And, AtomTable, DefnfTheory, Definition, Formula, Or, Rule,
                   to_nnf)
from .formats import PcidAst


def normalize_to_defnf(ast: PcidAst) -> tuple[DefnfTheory, dict[str, int]]:
    """Flatten a parsed PC(ID) theory into DEFNF.

    Returns the theory with a name map covering the original atoms and every
    fresh atom introduced (fresh names start with an underscore).  Models of
    the result restricted to the original atoms are exactly the models of the
    input.
    """
    atoms = ast.atoms.copy()
    fresh_count = 0
    rules: list[Rule] = []
    heads: set[int] = set()
    memo: dict[Formula, int] = {}

    def fresh_atom() -> int:
        nonlocal fresh_count
        while True:
            fresh_count += 1
            name = f"_t{fresh_count}"
            if name not in atoms:
                return atoms.fresh(name)

    def add_rule(head: int, conjunctive: bool, body: list[int]) -> None:
        if head in heads:
            raise ValueError(f"atom {atoms.name_of(head)!r} defined twice")
        heads.add(head)
        rules.append(Rule(head, conjunctive, tuple(dict.fromkeys(body))))

    def as_literal(formula: Formula) -> int:
        """A literal equivalent to an NNF formula, minting a fresh defined
        atom for connective nodes (shared between identical subformulas)."""
        if isinstance(formula, int):
            return formula
        children = _flatten(formula)
        if len(children) == 1:
            return as_literal(children[0])
        node = type(formula)(tuple(children))
        cached = memo.get(node)
        if cached is None:
            cached = fresh_atom()
            memo[node] = cached
            add_rule(cached, isinstance(formula, And),
                     [as_literal(c) for c in children])
        return cached

    def define_as(head: int, formula: Formula) -> None:
        if isinstance(formula, int):
            add_rule(head, False, [formula])
            return
        children = _flatten(formula)
        if len(children) == 1:
            define_as(head, children[0])
            return
        add_rule(head, isinstance(formula, And),
                 [as_literal(c) for c in children])

    # Group input rules per head (several rules for one head act as a
    # disjunction of their bodies), then flatten each body.
    grouped: dict[int, list[Formula]] = {}
    order: list[int] = []
    for definition in ast.definitions:
        for head, body in definition:
            if head not in grouped:
                grouped[head] = []
                order.append(head)
            grouped[head].append(body)
    for head in order:
        bodies = [to_nnf(b) for b in grouped[head]]
        define_as(head, bodies[0] if len(bodies) == 1 else Or(tuple(bodies)))

    constraint_lits = [as_literal(to_nnf(c)) for c in ast.constraints]

    reuse = (len(ast.constraints) == 1 and isinstance(ast.constraints[0], int)
             and constraint_lits[0] > 0 and constraint_lits[0] in heads)
    if reuse:
        theory_atom = constraint_lits[0]
    else:
        theory_atom = atoms.fresh(_fresh_name(atoms, "_pT"))
        add_rule(theory_atom, True, constraint_lits)

    theory = DefnfTheory(atoms, theory_atom, Definition(rules))
    return theory, atoms.names()


def _fresh_name(atoms: AtomTable, base: str) -> str:
    if base not in atoms:
        return base
    suffix = 2
    while f"{base}{suffix}" in atoms:
        suffix += 1
    return f"{base}{suffix}"


def _flatten(formula: And | Or) -> list[Formula]:
    """Children of an NNF connective with same-connective nesting merged."""
    kind = type(formula)
    result: list[Formula] = []
    for child in formula.children:
        if isinstance(child, kind):
            result.extend(_flatten(child))
        else:
            result.append(child)
    return result


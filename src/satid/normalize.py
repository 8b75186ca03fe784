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

Each define block is a definition of its own, so an atom that one block
defines is open to the others.  Merged into one definition, their rules
could support each other (`p <- q` in one block and `q <- p` in another
would become a positive loop), so a body atom defined in another block is
read through a fresh open copy, and two constraints hold the copy equal to
the atom.  An atom that two blocks define is a `FormatError`.
"""

from __future__ import annotations

from .core import (And, AtomTable, DefnfTheory, Definition, Formula, Not, Or,
                   Rule, to_nnf)
from .formats import FormatError, PcidAst


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
    memo: dict[tuple[type, tuple[Formula, ...]], int] = {}  # (connective, children)

    def fresh_atom() -> int:
        nonlocal fresh_count
        while True:
            fresh_count += 1
            try:
                return atoms.fresh(f"_t{fresh_count}")
            except ValueError:  # an input atom has the name
                pass

    def add_rule(head: int, conjunctive: bool, body: tuple[int, ...]) -> None:
        if head in heads:
            raise ValueError(f"atom {atoms.name_of(head)!r} defined twice")
        heads.add(head)
        distinct = dict.fromkeys(body)
        rules.append(Rule(head, conjunctive,
                          body if len(distinct) == len(body) else tuple(distinct)))

    def body_of(children: tuple[Formula, ...]) -> tuple[int, ...]:
        """The literals of flattened NNF children, each connective read
        through its atom; the children tuple itself when all are literals."""
        for c in children:
            if c.__class__ is not int:
                return tuple([c if c.__class__ is int else as_literal(c)
                              for c in children])
        return children

    def as_literal(formula: Formula) -> int:
        """A literal equivalent to an NNF formula, minting a fresh defined
        atom for connective nodes (shared between identical subformulas)."""
        if formula.__class__ is int:
            return formula
        children = _flatten(formula)
        if len(children) == 1:
            return as_literal(children[0])
        key = (formula.__class__, children)
        cached = memo.get(key)
        if cached is None:
            cached = fresh_atom()
            memo[key] = cached
            add_rule(cached, formula.__class__ is And, body_of(children))
        return cached

    def define_as(head: int, formula: Formula) -> None:
        if formula.__class__ is int:
            add_rule(head, False, (formula,))
            return
        children = _flatten(formula)
        if len(children) == 1:
            define_as(head, children[0])
            return
        add_rule(head, formula.__class__ is And, body_of(children))

    block_of: dict[int, int] = {}
    for index, definition in enumerate(ast.definitions):
        for head, _ in definition:
            if block_of.setdefault(head, index) != index:
                raise FormatError(f"atom {atoms.name_of(head)!r} is defined "
                                  "in two define blocks")
    copies: dict[int, int] = {}

    def detach(formula: Formula, block: int) -> Formula:
        """`formula` with each atom defined outside `block` read through its copy."""
        if formula.__class__ is int:
            atom = abs(formula)
            if block_of.get(atom, block) == block:
                return formula
            if atom not in copies:
                copies[atom] = fresh_atom()
            return copies[atom] if formula > 0 else -copies[atom]
        if formula.__class__ is Not:
            return Not(detach(formula.child, block))
        return formula.__class__(tuple(detach(c, block) for c in formula.children))

    # Group input rules per head (several rules for one head act as a
    # disjunction of their bodies), then flatten each body.
    grouped: dict[int, list[Formula]] = {}
    for index, definition in enumerate(ast.definitions):
        for head, body in definition:
            grouped.setdefault(head, []).append(detach(body, index))
    for head, bodies in grouped.items():
        bodies = [to_nnf(b) for b in bodies]
        define_as(head, bodies[0] if len(bodies) == 1 else Or(tuple(bodies)))

    constraints = list(ast.constraints)
    for atom, copy in copies.items():
        constraints += [Or((-copy, atom)), Or((copy, -atom))]
    constraint_lits = [as_literal(to_nnf(c)) for c in constraints]

    reuse = (len(constraints) == 1 and constraints[0].__class__ is int
             and constraint_lits[0] > 0 and constraint_lits[0] in heads)
    if reuse:
        theory_atom = constraint_lits[0]
    else:
        theory_atom = atoms.fresh(_fresh_name(atoms, "_pT"))
        add_rule(theory_atom, True, tuple(constraint_lits))

    theory = DefnfTheory(atoms, theory_atom, Definition(rules))
    return theory, atoms.names()


def _fresh_name(atoms: AtomTable, base: str) -> str:
    if base not in atoms:
        return base
    suffix = 2
    while f"{base}{suffix}" in atoms:
        suffix += 1
    return f"{base}{suffix}"


def _flatten(formula: And | Or) -> tuple[Formula, ...]:
    """Children of an NNF connective with same-connective nesting merged;
    the children tuple itself when there is none."""
    kind = formula.__class__
    children = formula.children
    for child in children:
        if child.__class__ is kind:
            break
    else:
        return children
    result: list[Formula] = []
    for child in children:
        if child.__class__ is kind:
            result.extend(_flatten(child))
        else:
            result.append(child)
    return tuple(result)

"""Core domain model for ground PC(ID) theories in definitional normal form.

Atoms are positive integers (dense 1..N within a theory), literals are signed
integers with the sign carrying polarity, and interpretations are three-valued.
A theory in normal form consists of a single theory atom and one inductive
definition whose rules have flat conjunctive or disjunctive bodies, with every
atom defined by at most one rule.

Everything here is immutable after construction except PartialInterpretation
(and the append-only AtomTable); values may move between threads, but one
PartialInterpretation must not be mutated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from operator import neg
from typing import AbstractSet, Iterable, Iterator, Mapping, Union


class TruthValue(IntEnum):
    """Three-valued truth.

    The integer encoding makes the truth order (false <= unknown <= true) the
    plain integer order, so Kleene conjunction/disjunction are min/max and
    negation is arithmetic negation.
    """

    FALSE = -1
    UNKNOWN = 0
    TRUE = 1

    def negate(self) -> "TruthValue":
        return TruthValue(-self.value)

    @property
    def symbol(self) -> str:
        return {self.TRUE: "t", self.FALSE: "f", self.UNKNOWN: "u"}[self]


TRUE = TruthValue.TRUE
FALSE = TruthValue.FALSE
UNKNOWN = TruthValue.UNKNOWN


Atom = int
Literal = int


def atom_of(lit: Literal) -> Atom:
    return lit if lit > 0 else -lit


class AtomTable:
    """Append-only table of atoms with optional symbolic names.

    Atom ids are dense 1..N; fresh atoms (normalization's subformula atoms)
    extend the table and never invalidate existing ids.
    """

    def __init__(self, names: Iterable[str | None] = ()) -> None:
        self._names: list[str | None] = list(names)
        self._ids: dict[str, Atom] = {}
        for atom, name in enumerate(self._names, 1):
            if name is not None:
                if name in self._ids:
                    raise ValueError(f"atom name {name!r} already in use")
                self._ids[name] = atom

    def fresh(self, name: str | None = None) -> Atom:
        if name is not None and name in self._ids:
            raise ValueError(f"atom name {name!r} already in use")
        self._names.append(name)
        atom = len(self._names)
        if name is not None:
            self._ids[name] = atom
        return atom

    def name_of(self, atom: Atom) -> str:
        if not 1 <= atom <= len(self._names):
            raise KeyError(atom)
        name = self._names[atom - 1]
        return name if name is not None else f"x{atom}"

    def id_of(self, name: str) -> Atom:
        return self._ids[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def atoms(self) -> range:
        return range(1, len(self._names) + 1)

    def names(self) -> dict[str, int]:
        return dict(self._ids)

    def copy(self) -> "AtomTable":
        table = AtomTable()
        table._names = list(self._names)
        table._ids = dict(self._ids)
        return table


class PartialInterpretation:
    """Sparse three-valued assignment; atoms not mentioned are unknown."""

    __slots__ = ("_vals",)

    def __init__(self, values: Mapping[int, TruthValue] | None = None) -> None:
        self._vals: dict[int, int] = {}
        if values:
            for atom, value in values.items():
                if atom <= 0:
                    raise ValueError(f"atom ids are positive, got {atom}")
                if value is not UNKNOWN:
                    self._vals[atom] = int(value)

    @classmethod
    def from_literals(cls, literals: Iterable[Literal]) -> "PartialInterpretation":
        """Each literal made true in turn, a later one overriding an earlier
        one over the same atom, as `set_literal` does."""
        interp = cls()
        interp._vals = {(lit if lit > 0 else -lit): (1 if lit > 0 else -1)
                        for lit in literals}
        return interp

    def value(self, atom: Atom) -> TruthValue:
        return TruthValue(self._vals.get(atom, 0))

    def literal_value(self, lit: Literal) -> TruthValue:
        value = self._vals.get(atom_of(lit), 0)
        return TruthValue(value if lit > 0 else -value)

    def set_literal(self, lit: Literal) -> None:
        """Make `lit` true, overriding any previous value of its atom."""
        self._vals[atom_of(lit)] = 1 if lit > 0 else -1

    def unset(self, atom: Atom) -> None:
        self._vals.pop(atom, None)

    def with_literal(self, lit: Literal) -> "PartialInterpretation":
        copy = self.copy()
        copy.set_literal(lit)
        return copy

    def without(self, atom: Atom) -> "PartialInterpretation":
        copy = self.copy()
        copy.unset(atom)
        return copy

    def restrict(self, atoms: Iterable[Atom]) -> "PartialInterpretation":
        keep = set(atoms)
        copy = PartialInterpretation()
        copy._vals = {a: v for a, v in self._vals.items() if a in keep}
        return copy

    def true_literals(self) -> list[Literal]:
        return sorted((a if v > 0 else -a for a, v in self._vals.items()), key=abs)

    def two_valued_on(self, atoms: Iterable[Atom]) -> bool:
        return all(a in self._vals for a in atoms)

    def copy(self) -> "PartialInterpretation":
        copy = PartialInterpretation()
        copy._vals = dict(self._vals)
        return copy

    def items(self) -> Iterator[tuple[Atom, TruthValue]]:
        for atom in sorted(self._vals):
            yield atom, TruthValue(self._vals[atom])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialInterpretation):
            return NotImplemented
        return self._vals == other._vals

    def __len__(self) -> int:
        return len(self._vals)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}:{TruthValue(v).symbol}" for a, v in sorted(self._vals.items()))
        return f"{{{inner}}}"


# ---------------------------------------------------------------------------
# Formulas (Kleene evaluation); literals double as leaf formulas.

@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]


Formula = Union[int, Not, And, Or]


def to_nnf(formula: Formula, positive: bool = True) -> Formula:
    """Negation normal form: negations pushed onto the literals."""
    cls = formula.__class__
    if cls is int:
        return formula if positive else -formula
    if cls is Not:
        return to_nnf(formula.child, not positive)
    if cls is And or cls is Or:
        if positive:
            return cls(tuple([c if c.__class__ is int else to_nnf(c)
                              for c in formula.children]))
        children = tuple([-c if c.__class__ is int else to_nnf(c, False)
                          for c in formula.children])
        return Or(children) if cls is And else And(children)
    raise TypeError(f"not a formula: {formula!r}")


def eval_formula(formula: Formula, interp: PartialInterpretation,
                 n_atoms: int | None = None) -> TruthValue:
    """Three-valued (Kleene) value of a formula in a partial interpretation.

    An empty conjunction is true, an empty disjunction false.  When `n_atoms`
    is given, literals over atoms outside 1..n_atoms are rejected.
    """
    if isinstance(formula, int):
        if formula == 0:
            raise ValueError("0 is not a literal")
        if n_atoms is not None and atom_of(formula) > n_atoms:
            raise ValueError(f"unknown atom {atom_of(formula)}")
        return interp.literal_value(formula)
    if isinstance(formula, Not):
        return eval_formula(formula.child, interp, n_atoms).negate()
    if isinstance(formula, And):
        value = TRUE
        for child in formula.children:
            value = min(value, eval_formula(child, interp, n_atoms))
        return TruthValue(value)
    if isinstance(formula, Or):
        value = FALSE
        for child in formula.children:
            value = max(value, eval_formula(child, interp, n_atoms))
        return TruthValue(value)
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Rules, definitions, theories.

@dataclass(frozen=True)
class Rule:
    """A flat rule `head <- l1 (x) ... (x) ln` with (x) either `and` or `or`."""

    head: Atom
    conjunctive: bool
    body: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if self.head <= 0:
            raise ValueError(f"rule head must be a positive atom, got {self.head}")
        if 0 in self.body:
            raise ValueError("0 is not a literal")


class Definition:
    """A finite set of rules with every atom defined by at most one rule."""

    def __init__(self, rules: Iterable[Rule]) -> None:
        self._rules = tuple(rules)
        self._by_head: dict[Atom, Rule] = {}
        for rule in self._rules:
            if rule.head in self._by_head:
                raise ValueError(f"atom {rule.head} defined twice")
            self._by_head[rule.head] = rule
        self._defined = frozenset(self._by_head)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def rule_for(self, atom: Atom) -> Rule | None:
        return self._by_head.get(atom)

    @property
    def defined_atoms(self) -> frozenset[Atom]:
        """The heads, built once."""
        return self._defined

    def open_atoms(self, universe: Iterable[Atom] | None = None) -> frozenset[Atom]:
        """The atoms of `universe` (by default, of the bodies) that no rule defines."""
        if universe is None:
            universe = [atom_of(lit) for rule in self._rules for lit in rule.body]
        return frozenset(universe) - self.defined_atoms

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Definition):
            return NotImplemented
        return self._rules == other._rules

    def __repr__(self) -> str:
        return f"Definition({list(self._rules)!r})"


class DefnfTheory:
    """A normal-form theory: one theory atom constrained true, one definition.

    Its atom table does not grow once the theory is built: `parse_cid` and
    `normalize` add all their atoms first.  So the set of open atoms is
    built on the first read of `opens` and kept.
    """

    def __init__(self, atoms: AtomTable, theory_atom: Atom, definition: Definition) -> None:
        n = len(atoms)
        if not 1 <= theory_atom <= n:
            raise ValueError(f"theory atom {theory_atom} outside atom table (1..{n})")
        if theory_atom not in definition.defined_atoms:
            raise ValueError(f"theory atom {theory_atom} is not defined")
        for rule in definition:
            if rule.head > n or rule.body and (max(rule.body) > n or min(rule.body) < -n):
                atom = next(a for a in (rule.head, *map(abs, rule.body)) if a > n)
                raise ValueError(f"atom {atom} outside atom table (1..{n})")
        self.atoms = atoms
        self.theory_atom = theory_atom
        self.definition = definition
        self._opens: frozenset[Atom] | None = None

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def defined(self) -> frozenset[Atom]:
        return self.definition.defined_atoms

    @property
    def opens(self) -> frozenset[Atom]:
        if self._opens is None:
            self._opens = frozenset(self.atoms.atoms()) - self.definition.defined_atoms
        return self._opens

    def name_of(self, atom: Atom) -> str:
        return self.atoms.name_of(atom)

    def literal_name(self, lit: Literal) -> str:
        name = self.name_of(atom_of(lit))
        return name if lit > 0 else "~" + name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DefnfTheory):
            return NotImplemented
        return (self.n_atoms == other.n_atoms
                and self.theory_atom == other.theory_atom
                and self.definition == other.definition)

    def __repr__(self) -> str:
        return (f"DefnfTheory(n_atoms={self.n_atoms}, theory_atom={self.theory_atom}, "
                f"rules={len(self.definition)})")


# ---------------------------------------------------------------------------
# Dependency relation.

class DependencyGraph:
    """Direct dependencies between literals: for each rule `p <- l1 .. ln`
    there is an edge (p, li) and an edge (~p, ~li), and no others.

    A view over the one rule index, which the justifier counts over too:
    `bodies` maps each head to its non-empty body and `occurs` each body
    literal to the heads whose bodies hold it, in rule order, once per
    occurrence.  The children of `p` are its body, those of `~p` the negated
    body, and the parents of `l` the heads in `occurs[l]`, then those in
    `occurs[~l]` negated; a repeated body literal repeats them, but `edges`
    lists each edge once.
    """

    def __init__(self, bodies: dict[Atom, tuple[Literal, ...]],
                 occurs: dict[Literal, list[Atom]]) -> None:
        self.bodies = bodies
        self.occurs = occurs

    def children_of(self, lit: Literal) -> tuple[Literal, ...]:
        if lit > 0:
            return self.bodies.get(lit, ())
        return tuple(map(neg, self.bodies.get(-lit, ())))

    def parents_of(self, lit: Literal) -> Iterator[Literal]:
        occurs = self.occurs
        return chain(occurs.get(lit, ()), map(neg, occurs.get(-lit, ())))

    def deep_literals(self) -> set[Literal]:
        """The literals with a child that has children of its own.  The
        children of `~p` are the negations of those of `p`, and a literal
        has children exactly when its atom heads a body, so `p` and `~p`
        are both deep or neither: one test per body decides both."""
        bodies = self.bodies
        deep: set[Literal] = set()
        for head, body in bodies.items():
            for lit in body:
                if (lit if lit > 0 else -lit) in bodies:
                    deep.add(head)
                    deep.add(-head)
                    break
        return deep

    def edges(self) -> list[tuple[Literal, Literal]]:
        pairs = {(head, lit) for head, body in self.bodies.items() for lit in body}
        pairs.update([(-src, -dst) for src, dst in pairs])
        return sorted(pairs, key=lambda e: (atom_of(e[0]), e[0] < 0, atom_of(e[1]), e[1] < 0))

    def literals(self) -> set[Literal]:
        lits = set(self.bodies)
        lits.update(self.occurs)
        lits.update([-lit for lit in lits])
        return lits

    def reachable(self, root: Literal, blocked: AbstractSet[Literal]) -> set[Literal]:
        """The literals reachable from `root`, itself included, through
        literals not in `blocked`; empty when `root` is blocked."""
        if root in blocked:
            return set()
        children_of = self.children_of
        reached = {root}
        stack = [root]
        while stack:
            for child in children_of(stack.pop()):
                if child not in reached and child not in blocked:
                    reached.add(child)
                    stack.append(child)
        return reached

    def loop_atoms(self) -> set[Atom]:
        """Defined atoms on a positive loop or depending positively on one.

        A Kahn-style peel over the positive edges between heads: a head is
        peeled once each positive body literal of it that heads a body is,
        counted per occurrence, and the heads never peeled are returned.
        Open atoms and the heads of empty bodies have no children and need
        no peeling.
        """
        bodies = self.bodies
        heads_a_body = bodies.__contains__  # false for every negative literal
        missing: dict[Atom, int] = {}  # unpeeled head -> its unpeeled occurrences
        ready: list[Atom] = []
        for head, body in bodies.items():
            n_deps = sum(map(heads_a_body, body))
            if n_deps:
                missing[head] = n_deps
            else:
                ready.append(head)
        occurs = self.occurs.get
        while ready:
            for head in occurs(ready.pop(), ()):
                missing[head] -= 1
                if not missing[head]:
                    del missing[head]
                    ready.append(head)
        return set(missing)


def build_dependency_graph(definition: Definition) -> DependencyGraph:
    bodies: dict[Atom, tuple[Literal, ...]] = {}
    occurs: dict[Literal, list[Atom]] = {}
    for rule in definition:
        body = rule.body
        if body:
            head = rule.head
            bodies[head] = body
            for lit in body:
                occurs.setdefault(lit, []).append(head)
    return DependencyGraph(bodies, occurs)


# ---------------------------------------------------------------------------
# Direct justifications and completion.

def direct_justifications(lit: Literal, definition: Definition) -> list[frozenset[Literal]]:
    """All direct justifications of a defined literal.

    A positive literal with a conjunctive rule needs its whole body; with a
    disjunctive rule any single disjunct suffices.  Negations dualize: one
    negated conjunct, or the whole negated body of a disjunction.
    """
    rule = definition.rule_for(atom_of(lit))
    if rule is None:
        raise ValueError(f"literal {lit} is not defined")
    positive = lit > 0
    if positive == rule.conjunctive:
        sign = 1 if positive else -1
        return [frozenset(sign * b for b in rule.body)]
    sign = 1 if positive else -1
    return [frozenset((sign * b,)) for b in rule.body]


def completion_clauses(definition: Definition) -> list[list[Literal]]:
    """Clauses stating head <=> body for every rule, rule by rule, with no
    repeated literal and no tautology, so that a solver can store them as
    they come.

    Conjunctive rule: (~p | li) for each i plus (p | ~l1 | ... | ~ln).
    Disjunctive rule: (~p | l1 | ... | ln) plus (p | ~li) for each i.

    Only a body literal over the head or a repeated body atom changes these.
    li = p makes its two-literal clause a tautology, left out; li = ~p shrinks
    it to the head literal it repeats.  The long clause is left out when the
    body holds p or a complementary pair; otherwise it drops ~p and keeps the
    first occurrence of each body literal.  A repeated body literal still gives
    one two-literal clause per occurrence.
    """
    clauses: list[list[Literal]] = []
    for rule in definition:
        p = rule.head
        body = rule.body
        atoms = set(map(abs, body))
        if p not in atoms and len(atoms) == len(body):
            if rule.conjunctive:
                clauses.extend([-p, lit] for lit in body)
                clauses.append([p, *map(neg, body)])
            else:
                clauses.append([-p, *body])
                clauses.extend([p, -lit] for lit in body)
            continue
        lits = dict.fromkeys(body)
        long = p not in lits and not any(-lit in lits for lit in lits)
        lits.pop(-p, None)
        if rule.conjunctive:
            clauses.extend([-p, lit] if lit != -p else [-p] for lit in body if lit != p)
            if long:
                clauses.append([p, *map(neg, lits)])
        else:
            if long:
                clauses.append([-p, *lits])
            clauses.extend([p, -lit] if lit != -p else [p] for lit in body if lit != p)
    return clauses


def cyclic_literals(adjacency: Mapping[int, Iterable[int]]) -> set[int]:
    """Nodes lying on some cycle of the graph (nontrivial SCC members and
    self-loops), via an iterative Tarjan pass."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    result: set[int] = set()

    def strongconnect(root: int) -> None:
        nonlocal counter
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adjacency.get(root, ())))]
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1 or node in adjacency.get(node, ()):
                    result.update(scc)

    for lit in adjacency:
        if lit not in index:
            strongconnect(lit)
    return result

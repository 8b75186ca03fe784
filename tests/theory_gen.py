"""Shared builders: named fixture theories and seeded random generators."""

from __future__ import annotations

import random

from satid import (AtomTable, DefnfTheory, Definition, PartialInterpretation,
                   Rule, UNKNOWN, atom_of, normalize_to_defnf, parse_pcid)
from satid.formats import (BECOMES_TRUE, BECOMES_UNKNOWN, EXPECT_RELEVANT,
                           QUERY_RELEVANT, TraceEvent)
from satid import oracle


def build_theory(atom_names: str, theory_atom: str,
                 rules: list[tuple[str, str, list[str]]]) -> DefnfTheory:
    """Theory from names: rules are (head, 'c'|'d', body) with '~' negation."""
    table = AtomTable(atom_names.split())

    def lit(name: str) -> int:
        if name.startswith("~"):
            return -table.id_of(name[1:])
        return table.id_of(name)

    built = [Rule(table.id_of(head), connective == "c", tuple(lit(b) for b in body))
             for head, connective, body in rules]
    return DefnfTheory(table, table.id_of(theory_atom), Definition(built))


def intro_theory() -> DefnfTheory:
    """Conjunction of two supported atoms over six opens; justifying a prefix
    of the opens leaves the rest (and one defined atom) undetermined."""
    return build_theory(
        "p_T a b c d e f g h i", "p_T",
        [("p_T", "c", ["a", "b"]),
         ("a", "d", ["d", "~e", "f"]),
         ("b", "d", ["c", "~g", "h"]),
         ("e", "d", ["f", "~h", "i"])])


def justdef_theory() -> DefnfTheory:
    """One conjunctive top rule over four disjunctive checks, one of which
    depends on another defined atom."""
    return build_theory(
        "p_T c1 c2 c3 c4 f a b c d e", "p_T",
        [("p_T", "c", ["c1", "c2", "c3", "c4"]),
         ("c1", "d", ["~b", "~d"]),
         ("c2", "d", ["a", "b", "~c"]),
         ("c3", "d", ["~b", "e", "~f"]),
         ("c4", "d", ["d", "f", "~a"]),
         ("f", "d", ["b", "d"])])


def loop_theory() -> DefnfTheory:
    """Theory atom supported by an open atom or by a two-literal positive loop."""
    return build_theory(
        "p_T a p q", "p_T",
        [("p_T", "d", ["a", "p"]),
         ("p", "d", ["q"]),
         ("q", "d", ["p"])])


def three_sat_theory(rng: random.Random, n_vars: int, n_clauses: int) -> DefnfTheory:
    """Random 3-SAT over `x1..x<n_vars>` as `.pcid` constraints, normalized:
    the theory atom is the conjunction of one clause atom per clause, and
    each clause atom the disjunction of its three open literals."""
    clauses = []
    for _ in range(n_clauses):
        lits = [f"x{a}" if rng.random() < 0.5 else f"(not x{a})"
                for a in rng.sample(range(1, n_vars + 1), 3)]
        clauses.append(f"(constraint (or {' '.join(lits)}))")
    return normalize_to_defnf(parse_pcid(f"(theory {' '.join(clauses)})"))[0]


def shuffled_loops_theory(rng: random.Random, count: int,
                          n_atoms: int) -> DefnfTheory:
    """`T <- p_1 & ... & p_n`, `p_i <- q_i | o_i`, `q_i <- p_i` with open
    `o_i`, over `n_atoms >= 3 * count + 1` atoms whose ids are shuffled, as
    is the rule order; the atoms no rule mentions are open too."""
    ids = list(range(1, n_atoms + 1))
    rng.shuffle(ids)
    top, rest = ids[0], ids[1:3 * count + 1]
    ps, qs, opens = rest[0::3], rest[1::3], rest[2::3]
    rules = [Rule(top, True, tuple(ps))]
    for p, q, o in zip(ps, qs, opens):
        rules.append(Rule(p, False, tuple(rng.sample([q, o], 2))))
        rules.append(Rule(q, False, (p,)))
    rng.shuffle(rules)
    return DefnfTheory(AtomTable([None] * n_atoms), top, Definition(rules))


def random_total_theory(rng: random.Random, max_atoms: int = 8,
                        max_rules: int = 8) -> DefnfTheory:
    """A random normal-form theory that is total by construction.

    Defined atoms carry ranks; negative body literals point strictly below
    the head's rank and positive ones never above it, so no cycle passes
    through negation and every open context has a two-valued model.
    """
    n = rng.randint(2, max_atoms)
    n_defined = rng.randint(1, min(max_rules, n))
    defined = [1] + (rng.sample(range(2, n + 1), n_defined - 1)
                     if n_defined > 1 else [])
    rank = {atom: rng.randint(0, 3) for atom in defined}
    rules = []
    for head in defined:
        conjunctive = rng.random() < 0.5
        body: list[int] = []
        seen: set[int] = set()
        for _ in range(rng.randint(1, min(4, n))):
            atom = rng.randint(1, n)
            if atom in rank and rank[atom] > rank[head]:
                continue
            negatable = atom not in rank or rank[atom] < rank[head]
            lit = -atom if (negatable and rng.random() < 0.4) else atom
            if lit not in seen and -lit not in seen:
                seen.add(lit)
                body.append(lit)
        if not body:
            opens = [a for a in range(1, n + 1) if a not in rank]
            body = [opens[0]] if opens else [head]
        rules.append(Rule(head, conjunctive, tuple(body)))
    return DefnfTheory(AtomTable([None] * n), 1, Definition(rules))


def random_theory(rng: random.Random, max_atoms: int = 8,
                  max_rules: int = 8) -> DefnfTheory:
    """A random normal-form theory without the rank discipline: positive
    loops, self-loops `p <- p`, negation on cycles and atoms above a loop
    all occur, and the definition need not be total."""
    n = rng.randint(2, max_atoms)
    n_defined = rng.randint(1, min(max_rules, n))
    defined = [1] + (rng.sample(range(2, n + 1), n_defined - 1)
                     if n_defined > 1 else [])
    rules = []
    for head in defined:
        body: list[int] = []
        for _ in range(rng.randint(1, min(4, n))):
            atom = rng.randint(1, n)
            lit = -atom if rng.random() < 0.3 else atom
            if lit not in body and -lit not in body:
                body.append(lit)
        rules.append(Rule(head, rng.random() < 0.5, tuple(body)))
    return DefnfTheory(AtomTable([None] * n), 1, Definition(rules))


def random_verified_total_theory(rng: random.Random, max_atoms: int = 8,
                                 max_rules: int = 8) -> DefnfTheory:
    theory = random_total_theory(rng, max_atoms, max_rules)
    assert oracle.is_total(theory.definition, theory.atoms.atoms())
    return theory


def random_open_literals(rng: random.Random, theory: DefnfTheory,
                         density: float = 0.7) -> list[int]:
    return [rng.choice((atom, -atom)) for atom in sorted(theory.opens)
            if rng.random() < density]


def random_trace(rng: random.Random, theory: DefnfTheory, min_events: int = 50,
                 ) -> tuple[list[TraceEvent], list[TraceEvent]]:
    """A valid notification trace plus the events that unwind its final state.

    Events come in solver-shaped batches: an open literal becomes true,
    followed by the defined literals it makes justified (or the exact
    reverse on backtracking), so the tracker's justified set agrees with the
    reference statuses at every batch boundary.
    """
    interp = PartialInterpretation()
    previous = oracle.justified_literals(theory, interp)
    events: list[TraceEvent] = []
    prelude = sorted(l for l in previous if atom_of(l) in theory.defined)
    for lit in prelude:
        events.append(TraceEvent(BECOMES_TRUE, lit))
    stack: list[tuple[int, list[int]]] = []

    def pop_batch() -> None:
        nonlocal interp, previous
        lit, gained = stack.pop()
        for g in reversed(gained):
            events.append(TraceEvent(BECOMES_UNKNOWN, g))
        events.append(TraceEvent(BECOMES_UNKNOWN, lit))
        interp = interp.without(atom_of(lit))
        previous = oracle.justified_literals(theory, interp)

    while len(events) < min_events:
        roll = rng.random()
        unassigned = [a for a in sorted(theory.opens) if interp.value(a) is UNKNOWN]
        if roll < 0.25 and events or not (unassigned or stack):
            atom = rng.randint(1, theory.n_atoms)
            lit = atom if rng.random() < 0.5 else -atom
            events.append(TraceEvent(QUERY_RELEVANT, lit))
            events.append(TraceEvent(
                EXPECT_RELEVANT, lit, lit in oracle.relevant_set(theory, interp)))
        elif (roll < 0.7 or not stack) and unassigned:
            atom = rng.choice(unassigned)
            lit = atom if rng.random() < 0.6 else -atom
            extended = interp.with_literal(lit)
            now = oracle.justified_literals(theory, extended)
            gained = sorted(l for l in now - previous
                            if atom_of(l) in theory.defined)
            events.append(TraceEvent(BECOMES_TRUE, lit))
            events.extend(TraceEvent(BECOMES_TRUE, l) for l in gained)
            stack.append((lit, gained))
            interp, previous = extended, now
        else:
            pop_batch()

    start = len(events)
    while stack:
        pop_batch()
    for lit in reversed(prelude):
        events.append(TraceEvent(BECOMES_UNKNOWN, lit))
    unwind = events[start:]
    return events[:start], unwind

"""Seeded generators for the four benchmark families.

Each generator returns `Instance`s: the text the library is fed (`.cid` or
`.pcid`) plus the generator's own view of the same theory, which the answer
checks use so that they never depend on the library's parser or normalizer.
The generators are deliberately independent of the test helpers: editing a
test fixture must not change what the benchmark measures.

Why each family is in the benchmark:

* `chain` -- one long disjunctive chain `x1 <- x2 <- ... <- xn` with `xn`
  open.  Trivial in structure, answered with 0 decisions and 0 conflicts,
  yet the unfounded-set pass recomputes a fixpoint that founds about one
  atom per sweep.  It exercises the unfounded pass, setup at scale and deep
  tracker watch chains, and bypasses picking, analysis and queries.
* `loops` -- n positive loops `p_i <- q_i | o_i`, `q_i <- p_i` under a
  conjunctive theory atom.  The loops are real, so a skip for loop-free
  definitions does not apply; this is where the relevance filter pays for
  itself (one decision per loop, many relevance queries).
* `3sat` -- uniform random 3-SAT at clause/variable ratio 4.26, fed as
  `.pcid` with one `(constraint (or ...))` per clause.  The only family with
  long conflict-driven searches and restarts, and the one that puts
  `parse_pcid` and `normalize_to_defnf` on the setup path.  It is loop-free,
  so the unfounded pass never fires there.  A batch holds as many
  satisfiable as unsatisfiable instances (by the reference DPLL below):
  unsatisfiable ones cost about twice as much, and a mix left to chance
  would make the batch's cost vary with the seed.
* `random` -- many small random normal-form theories (at most 10 atoms)
  with no rank discipline, so negation may sit on a cycle and some
  definitions are not total.  Instances are short, so setup dominates, and
  it is the only family where unfounded sets are actually found.  The
  non-total instances are kept on purpose: the solver answers some of them
  wrongly, and that must show in the failure count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CHAIN_LENGTH = 300
CHAIN_BATCH = 40
LOOPS_COUNT = 100
LOOPS_BATCH = 20
SAT_VARS = 40
SAT_RATIO = 4.26
SAT_BATCH = 120
RANDOM_MAX_ATOMS = 10
RANDOM_BATCH = 6000


@dataclass(frozen=True)
class Instance:
    """One generated theory.

    `text` is what the library parses.  For `.cid` families `rules` holds
    `(head, conjunctive, body)` triples over atoms `1..n_atoms`; for `3sat`
    `clauses` holds the generating CNF over variables named `v<i>`.
    """

    fmt: str  # "cid" | "pcid"
    text: str
    n_atoms: int = 0
    theory_atom: int = 0
    rules: tuple[tuple[int, bool, tuple[int, ...]], ...] = ()
    clauses: tuple[tuple[int, ...], ...] = ()
    satisfiable: bool | None = None  # 3sat only, by `dpll`


def _cid_instance(n_atoms: int, theory_atom: int,
                  rules: list[tuple[int, bool, tuple[int, ...]]]) -> Instance:
    lines = [f"p cid {n_atoms}", f"t {theory_atom}"]
    for head, conjunctive, body in rules:
        lits = " ".join(str(lit) for lit in body)
        lines.append(f"r {head} {'c' if conjunctive else 'd'} {lits} 0")
    return Instance("cid", "\n".join(lines) + "\n", n_atoms, theory_atom, tuple(rules))


def chain(rng: random.Random, length: int = CHAIN_LENGTH) -> Instance:
    """`x1 <- x2 <- ... <- xn`, theory atom `x1`, `xn` open.  Atom ids and
    rule order are shuffled, which changes the order in which a fixpoint
    sweep meets the chain."""
    ids = list(range(1, length + 1))
    rng.shuffle(ids)
    rules = [(ids[i], False, (ids[i + 1],)) for i in range(length - 1)]
    rng.shuffle(rules)
    return _cid_instance(length, ids[0], rules)


def loops(rng: random.Random, count: int = LOOPS_COUNT) -> Instance:
    """`T <- p_1 & ... & p_n`, `p_i <- q_i | o_i`, `q_i <- p_i`; the `o_i`
    are open.  Atom ids, rule order and body order are shuffled."""
    ids = list(range(1, 3 * count + 2))
    rng.shuffle(ids)
    top, rest = ids[0], ids[1:]
    ps, qs, os_ = rest[0::3], rest[1::3], rest[2::3]
    body = list(ps)
    rng.shuffle(body)
    rules = [(top, True, tuple(body))]
    for p, q, o in zip(ps, qs, os_):
        support = [q, o]
        rng.shuffle(support)
        rules.append((p, False, tuple(support)))
        rules.append((q, False, (p,)))
    rng.shuffle(rules)
    return _cid_instance(len(ids), top, rules)


def three_sat(rng: random.Random, n_vars: int = SAT_VARS,
              ratio: float = SAT_RATIO) -> Instance:
    """Uniform random 3-SAT: each clause has three distinct variables with
    random signs.  Clause `(a | ~b | c)` becomes `(constraint (or va (not vb)
    vc))`."""
    clauses = []
    for _ in range(round(ratio * n_vars)):
        atoms = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(a if rng.random() < 0.5 else -a for a in atoms))

    def lit(x: int) -> str:
        return f"v{x}" if x > 0 else f"(not v{-x})"

    lines = ["(theory"]
    lines += [f"  (constraint (or {' '.join(lit(x) for x in c)}))" for c in clauses]
    lines.append(")")
    return Instance("pcid", "\n".join(lines) + "\n", clauses=tuple(clauses),
                    satisfiable=dpll(clauses) is not None)


def three_sat_batch(rng: random.Random, size: int) -> list[Instance]:
    """`size // 2` satisfiable and as many unsatisfiable instances, in the
    order drawn; surplus draws of the class already full are skipped."""
    wanted = {True: size // 2, False: size - size // 2}
    chosen = []
    while len(chosen) < size:
        inst = three_sat(rng)
        if wanted[inst.satisfiable]:
            wanted[inst.satisfiable] -= 1
            chosen.append(inst)
    return chosen


def dpll(clauses: list[tuple[int, ...]]) -> list[int] | None:
    """Reference decision procedure for the generated CNFs: a satisfying
    list of literals, or None when unsatisfiable.  Unit propagation plus
    branching on a literal of a shortest clause; shares no code with satid."""
    result = _dpll(clauses, [])
    if result is not None:
        chosen = set(result)
        if not all(chosen.intersection(c) for c in clauses):
            raise RuntimeError("reference DPLL returned a non-model")
    return result


def _assign(clauses: list[tuple[int, ...]], lit: int) -> list[tuple[int, ...]] | None:
    reduced = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = tuple(x for x in clause if x != -lit)
            if not clause:
                return None
        reduced.append(clause)
    return reduced


def _dpll(clauses: list[tuple[int, ...]], trail: list[int]) -> list[int] | None:
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        trail = trail + [unit]
        clauses = _assign(clauses, unit)
        if clauses is None:
            return None
    if not clauses:
        return trail
    lit = min(clauses, key=len)[0]
    for choice in (lit, -lit):
        reduced = _assign(clauses, choice)
        if reduced is not None:
            found = _dpll(reduced, trail + [choice])
            if found is not None:
                return found
    return None


def random_theory(rng: random.Random, max_atoms: int = RANDOM_MAX_ATOMS) -> Instance:
    """A small random theory with theory atom 1.  Body atoms are drawn from
    the whole table and negated with probability 0.4 regardless of position,
    so cycles through negation (and non-total definitions) occur."""
    n = rng.randint(2, max_atoms)
    n_defined = rng.randint(1, n)
    defined = [1] + rng.sample(range(2, n + 1), n_defined - 1)
    rules = []
    for head in defined:
        body: list[int] = []
        for _ in range(rng.randint(1, min(4, n))):
            atom = rng.randint(1, n)
            lit = -atom if rng.random() < 0.4 else atom
            if lit not in body and -lit not in body:
                body.append(lit)
        rules.append((head, rng.random() < 0.5, tuple(body)))
    return _cid_instance(n, 1, rules)


def _independent(generate, size: int):
    return lambda rng: [generate(rng) for _ in range(size)]


FAMILIES = {
    "chain": _independent(chain, CHAIN_BATCH),
    "loops": _independent(loops, LOOPS_BATCH),
    "3sat": lambda rng: three_sat_batch(rng, SAT_BATCH),
    "random": _independent(random_theory, RANDOM_BATCH),
}


def batch(workload: str, seed: int) -> list[Instance]:
    """The instances of one workload for one seed; the same seed always
    gives the same texts."""
    return FAMILIES[workload](random.Random(f"{workload}:{seed}"))

import dataclasses
import itertools
import random
from collections import Counter
from operator import neg

import pytest

from satid import (FALSE, TRUE, UNKNOWN, AtomTable, DefnfTheory, Definition,
                   Justifier, PartialInterpretation, RelevanceTracker, Rule,
                   Solver, SolverConfig, build_dependency_graph,
                   build_justification_maps, completion_clauses, defined_fixpoint,
                   parse_cid, solve)
from satid.core import cyclic_literals
from satid.engine import BudgetExhausted, _luby
from satid import oracle, relevance

import theory_gen

ALL_CONFIGS = [
    SolverConfig(relevance_filter=filt, stop_on_justified=stop)
    for filt, stop in itertools.product((True, False), (True, False))
]


class NoFlipSolver(Solver):
    """A solver that fails when its relevant set runs empty while the theory
    atom is unjustified, which cannot happen on a total definition."""

    def _flip_most_recent_decision(self):
        raise AssertionError("nothing relevant, yet the theory atom is unjustified")


def unsat_theory():
    table = AtomTable([None, None])
    return DefnfTheory(table, 1, Definition([Rule(1, True, (2, -2))]))


# -- propagation -------------------------------------------------------------------

def test_unit_chain_propagates():
    theory = theory_gen.build_theory("p_T a", "p_T", [("p_T", "c", ["a"])])
    solver = Solver(theory)
    assert solver._enqueue_root_units()
    assert solver.propagate_unit() is None
    assert solver.lit_value(theory.atoms.id_of("a")) == 1


def unassigned_atoms(solver):
    """The unassigned atoms, ascending."""
    return [atom for atom in range(1, len(solver.values)) if not solver.values[atom]]


def reference_unit_fixpoint(clauses, assigned):
    """Reference unit propagation: scan every clause until nothing changes.
    Returns the set of true literals, or None when a clause is falsified."""
    true = set(assigned)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            unknown = [lit for lit in clause if -lit not in true]
            if not unknown:
                return None
            if len(unknown) == 1:
                true.add(unknown[0])
                changed = True
    return true


def checked_propagate_unit(solver):
    """`propagate_unit`, checked against the reference fixpoint and the
    watch, reason, level, counter and justifier bookkeeping."""
    before = len(solver.trail)
    propagations = solver.stats.propagations
    justifier = solver.justifier
    if justifier is not None:
        read, stack = justifier.read, list(justifier.stack)
    want = reference_unit_fixpoint(solver.clauses, solver.trail)
    conflict = solver.propagate_unit()
    assert (conflict is None) == (want is not None)
    if conflict is None:
        assert set(solver.trail) == want
    else:
        assert all(solver.lit_value(lit) == -1 for lit in conflict)
    implied = solver.trail[before:]
    assert solver.stats.propagations == propagations + len(implied)
    stored = {id(clause) for clause in solver.clauses}
    for lit in implied:
        atom = abs(lit)
        reason = solver.reasons[atom]
        assert id(reason) in stored  # the stored clause itself, not a copy
        assert lit in reason
        assert all(solver.lit_value(other) == -1 for other in reason if other != lit)
        assert solver.levels[atom] == solver.level
    # nothing is recorded per assignment: the implied literals lie past the
    # part of the trail the justifier has read, where its next sync reads them
    if justifier is not None:
        assert justifier.read == read <= before and justifier.stack == stack
    if conflict is None:  # the whole trail is read
        assert solver.qhead == len(solver.trail)
    check_watches(solver)
    return conflict, len(implied)


def root_literals(solver):
    """The literals assigned at level 0."""
    return set(solver.trail[:solver.trail_lim[0] if solver.trail_lim else None])


def check_watches(solver):
    """Each clause of two or more literals that is not true at level 0 is
    watched on its first two literals.  A clause true at level 0 is watched
    on at most those two.  Every watch holds a stored clause itself, not a
    copy of it.  Each stored clause holds the literals it was created with
    (`solver.created`, of a `ClauseRecorder`), less only literals false at
    level 0."""
    root = root_literals(solver)
    watched = {}  # id of each watched clause -> the literals it is watched on
    for lit, watchlist in solver.watches.items():
        for clause in watchlist:
            watched.setdefault(id(clause), []).append(lit)
    assert len(solver.created) == len(solver.clauses)
    for clause, created in zip(solver.clauses, solver.created):
        assert not Counter(clause) - Counter(created)
        assert all(-lit in root for lit in Counter(created) - Counter(clause))
        if len(clause) >= 2:
            both = sorted(clause[:2])
            held = sorted(watched.pop(id(clause), ()))
            if root.isdisjoint(clause):
                assert held == both
            else:
                assert held in ([], both[:1], both[1:], both)
    assert not watched


def test_unit_propagation_matches_the_reference_fixpoint():
    # CDCL steps with random decisions and random backjumps; every
    # propagate_unit call is compared with a full scan over the clauses
    rng = random.Random(43)
    theories = ([theory_gen.random_theory(rng, 10, 10) for _ in range(150)]
                + [theory_gen.random_total_theory(rng, 10, 10) for _ in range(150)]
                + [theory_gen.three_sat_theory(rng, 14, 60) for _ in range(64)])
    calls = propagated = conflicts = syncs = 0
    sync_rng = random.Random(44)  # apart, so that the search is the same
    for theory in theories:
        solver = RecordingSolver(theory, SolverConfig(relevance_filter=rng.random() < 0.7))
        if not solver._enqueue_root_units():
            continue
        for _ in range(60):
            conflict, implied = checked_propagate_unit(solver)
            calls += 1
            propagated += implied
            if conflict is None and solver.loop.rules:
                before = len(solver.trail)
                conflict = solver.propagate_unfounded()
                if conflict is None and len(solver.trail) > before:
                    continue
            if conflict is not None:
                conflicts += 1
                if solver.level == 0:
                    break
                learned, level = solver.analyze_conflict(conflict)
                solver._backtrack(level)
                solver._enqueue(learned[0], solver._add_learned_clause(learned))
            elif solver.level and rng.random() < 0.2:
                solver._backtrack(rng.randrange(solver.level))
            else:
                if solver.tracker is not None and sync_rng.random() < 0.5:
                    # the sync reads the trail and what backtracks undid
                    solver._sync_justifier()
                    solver._sync_tracker()
                    syncs += 1
                    assert solver.justifier.read == len(solver.trail)
                    assert solver.justifier._heard == len(solver.justifier.stack)
                    assert solver.tracker.justified_literals() == implied_justified(solver)
                free = unassigned_atoms(solver)
                if not free:
                    break
                atom = rng.choice(free)
                solver._decide(rng.choice((atom, -atom)))
    assert calls > 1200 and propagated > 6000 and conflicts > 200, (
        calls, propagated, conflicts)
    assert syncs > 300, syncs


class ClauseRecorder:
    """Records each clause as it is created, before watch moves reorder its
    literals or root simplification deletes any: the problem clauses at
    construction, then each learned clause as it is added."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.created = [list(clause) for clause in self.clauses]

    def _add_learned_clause(self, clause):
        self.created.append(list(clause))
        return super()._add_learned_clause(clause)

    @property
    def learned(self):
        return self.created[self.n_problem_clauses:]


class RecordingSolver(ClauseRecorder, Solver):
    pass


class OracleCheckedSolver(Solver):
    """At every sync, checks the justifier's set against the oracle's
    justified literals of the trail's open literals, and counts the syncs
    and those that follow a backtrack.  Past the oracle's search guard, the
    reference is the well-founded model from the alternating fixpoint."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.syncs = self.after_backtrack = self.popped = 0
        self.backtracked = False

    def _backtrack(self, target_level):
        if self.justifier is not None and target_level < len(self.justifier.lim):
            self.popped += len(self.justifier.stack) - self.justifier.lim[target_level]
        self.backtracked |= target_level < self.level
        super()._backtrack(target_level)

    def _sync_justifier(self):
        justifier = super()._sync_justifier()
        opens = PartialInterpretation.from_literals(
            lit for lit in self.trail if abs(lit) in self.theory.opens)
        if len(self.theory.defined) <= oracle.MAX_SEARCH_DEFINED:
            want = oracle.justified_literals(self.theory, opens)
        else:
            want = set(oracle.well_founded_model(self.theory.definition,
                                                 opens).true_literals())
        assert justifier.justified_literals() == want, (
            self.theory.definition.rules, opens, sorted(want))
        self.syncs += 1
        self.after_backtrack += self.backtracked
        self.backtracked = False
        return justifier


def test_justifier_matches_the_oracle_along_the_search():
    # at every decision point of real searches, with backjumps, restarts and
    # chronological flips, the incremental justifier's set is the oracle's
    # justified set of the trail's open literals, and (debug) that of a
    # fresh justifier; the definitions of random_theory may be non-total
    # and have cycles through negation
    rng = random.Random(45)
    corpus = ([theory_gen.intro_theory(), theory_gen.justdef_theory(),
               theory_gen.loop_theory()]
              + [parse_cid(text) for text in TRACKER_MISS_CIDS] + LOOP_SHAPES
              + [theory_gen.random_theory(rng, 12, 12) for _ in range(300)]
              + [theory_gen.three_sat_theory(rng, 30, 128) for _ in range(12)])
    syncs = after_backtrack = popped = 0
    for theory in corpus:
        for config in ALL_CONFIGS:
            solver = OracleCheckedSolver(theory, dataclasses.replace(config, debug=True))
            solver.solve()
            assert (solver.justifier is None) == (
                not config.relevance_filter and not config.stop_on_justified)
            syncs += solver.syncs
            after_backtrack += solver.after_backtrack
            popped += solver.popped
    # 2328 syncs, 298 after a backtrack and 7013 statuses popped when written
    assert syncs > 2000 and after_backtrack > 250 and popped > 5000, (
        syncs, after_backtrack, popped)


def test_a_base_conflict_assigns_no_justification_literal():
    # a decides the level: propagation derives b, then c, then a conflict in
    # z's completion, and ~b is learned.  The level ends in the conflict, so
    # the justifier never reads it: v <- a | d, which a would justify, gets
    # no status, and the backjump finds nothing of the level to pop
    theory = theory_gen.build_theory(
        "p_T x y z v a b c d", "p_T",
        [("p_T", "c", ["x", "y", "z"]),
         ("x", "d", ["~a", "b"]),
         ("y", "d", ["~b", "c"]),
         ("z", "d", ["~c", "~b"]),
         ("v", "d", ["a", "d"])])
    a, b, v = (theory.atoms.id_of(name) for name in "abv")
    solver = Solver(theory, SolverConfig(debug=True))
    assert solver._enqueue_root_units()
    assert solver.propagate() is None
    justifier = solver._sync_justifier()
    root = list(justifier.stack)
    solver._decide(a)
    conflict = solver.propagate_unit()
    assert conflict is not None
    learned, level = solver.analyze_conflict(conflict)
    assert (learned, level) == ([-b], 0)
    assert justifier.read == solver.trail_lim[0] and justifier.lim == []
    solver._backtrack(level)
    assert justifier.stack == root and justifier.values[v] == 0
    solver._enqueue(learned[0], solver._add_learned_clause(learned))
    assert solver.propagate() is None
    solver._sync_justifier()  # and, in debug, against a fresh justifier
    assert {-a, -b} <= justifier.justified_literals() and justifier.values[v] == 0


class KeepingSolver(ClauseRecorder, Solver):
    """Reference unit propagation without root simplification:
    `Solver.propagate_unit` as it was before it dropped clauses true at
    level 0 and deleted literals false there."""

    def propagate_unit(self):
        trail = self.trail
        start = len(trail)
        watches = self.watches
        values = self.values
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        conflict = None
        reading = iter(trail)
        reading.__setstate__(self.qhead)
        for falsified in map(neg, reading):
            watchlist = watches.get(falsified)
            if not watchlist:
                continue
            kept = []
            for i, clause in enumerate(watchlist):
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                value = values[first] if first > 0 else -values[-first]
                if value == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if (values[lit] if lit > 0 else -values[-lit]) != -1:
                        clause[1] = lit
                        clause[k] = falsified
                        watches.setdefault(lit, []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if value == -1:
                        kept.extend(watchlist[i + 1:])
                        conflict = clause
                        break
                    atom = first if first > 0 else -first
                    values[atom] = 1 if first > 0 else -1
                    levels[atom] = level
                    reasons[atom] = clause
                    trail.append(first)
            watches[falsified] = kept
            if conflict is not None:
                break
        self.qhead = len(trail)
        self.stats.propagations += len(trail) - start
        return conflict


def shortened_at_the_root(items, whole, root):
    """Whether `items` is `whole` with some of its members in `root` left
    out, the others in the same order."""
    rest = iter(items)
    following = next(rest, None)
    for item in whole:
        if item == following:
            following = next(rest, None)
        elif item not in root:
            return False
    return following is None


def watch_count(solver):
    return sum(len(watchlist) for watchlist in solver.watches.values())


def test_root_simplification_changes_no_counter():
    # dropping the clauses true at level 0 from the watch lists and deleting
    # literals false there changes no watch move, implication, reason,
    # conflict or learned clause
    rng = random.Random(46)
    three_sat = [theory_gen.three_sat_theory(rng, 30, 128) for _ in range(12)]
    corpus = (deferral_corpus()
              + [theory_gen.random_theory(rng, 12, 12) for _ in range(300)]
              + three_sat)
    dropped = deleted = 0  # on the 3-SAT part
    for theory in corpus:
        for config in ALL_CONFIGS:
            keep, simplify = KeepingSolver(theory, config), RecordingSolver(theory, config)
            want, got = keep.solve(), simplify.solve()
            context = (theory.definition.rules, config)
            assert got.status == want.status, context
            assert got.witness == want.witness, context
            assert simplify.learned == keep.learned, context
            assert (dataclasses.replace(got.stats, wall_ms=0)
                    == dataclasses.replace(want.stats, wall_ms=0)), context
            assert simplify.trail == keep.trail, context
            root = root_literals(simplify)
            root_false = {-lit for lit in root}
            # each clause is the kept one less literals false at the root,
            # and each watch list the kept one less clauses true there
            assert len(simplify.clauses) == len(keep.clauses), context
            position = {}
            for i, (clause, whole) in enumerate(zip(simplify.clauses, keep.clauses)):
                assert clause[:2] == whole[:2], context
                assert shortened_at_the_root(clause, whole, root_false), context
                position[id(clause)] = position[id(whole)] = i
            root_true = {i for i, clause in enumerate(simplify.clauses)
                         if not root.isdisjoint(clause)}
            table, kept_table = simplify.watches, keep.watches
            assert table.keys() <= kept_table.keys(), context
            for lit, kept in kept_table.items():
                assert shortened_at_the_root(
                    [position[id(clause)] for clause in table.get(lit, ())],
                    [position[id(clause)] for clause in kept], root_true), context
            if theory in three_sat:
                dropped += watch_count(keep) - watch_count(simplify)
                deleted += sum(map(len, keep.clauses)) - sum(map(len, simplify.clauses))
    # 17152 watches dropped and 6442 literals deleted when written
    assert dropped > 15000 and deleted > 5500, (dropped, deleted)


def test_justification_rule_propagates(justdef):
    b = justdef.atoms.id_of("b")
    fx = defined_fixpoint(justdef, [b])
    assert fx[justdef.atoms.id_of("f")] is TRUE   # f <- b | d fires through b


@pytest.mark.parametrize("text, open_literals, message", [
    ("p cid 1\nt 1\nr 1 c -1 0\n", [], "contradictory at the root"),
    ("p cid 2\nt 1\nr 1 d 2 0\n", [1], "literal 1 is not over an open atom"),
    ("p cid 2\nt 1\nr 1 d 2 0\n", [2, -2], "contradictory open literal -2"),
    ("p cid 2\nt 1\nr 1 d -1 2 0\n", [-2], "conflict from open literals alone"),
], ids=["root_conflict", "defined_atom", "literal_and_negation", "propagation_conflict"])
def test_fixpoint_rejects_what_has_no_fixpoint(text, open_literals, message):
    # 1 <- ~1 is false and true at the root; 1 <- ~1 | 2 makes 1 true at the
    # root, and then ~2 leaves its clause ~1 | 2 false
    with pytest.raises(ValueError, match=message):
        defined_fixpoint(parse_cid(text), open_literals)


def test_unfounded_pair_falsified():
    theory = theory_gen.build_theory(
        "p_T p q x", "p_T",
        [("p_T", "d", ["x"]), ("p", "d", ["q"]), ("q", "d", ["p"])])
    fx = defined_fixpoint(theory, [])
    assert fx[theory.atoms.id_of("p")] is FALSE
    assert fx[theory.atoms.id_of("q")] is FALSE


def test_fixpoint_reads_the_open_atoms_once(monkeypatch):
    # the fixpoint reads DefnfTheory.opens a fixed number of times, not once
    # per given literal; the property builds its set only on the first read,
    # but each read is still a call
    n = 200
    theory = DefnfTheory(AtomTable([None] * (n + 1)), 1,
                         Definition([Rule(1, False, tuple(range(2, n + 2)))]))
    reads = 0
    opens = DefnfTheory.opens.fget

    def counting_opens(self):
        nonlocal reads
        reads += 1
        return opens(self)

    monkeypatch.setattr(DefnfTheory, "opens", property(counting_opens))
    fx = defined_fixpoint(theory, [-a for a in range(2, n + 2)])
    assert fx == {1: FALSE}
    assert reads <= 3


def test_justifier_unfounded_at_root(loop):
    # p <- q and q <- p form an unfounded set before any open atom is read;
    # the theory atom p_T <- a | p waits for a
    justifier = Justifier(build_justification_maps(loop))
    justifier.sync([], [])
    assert justifier.stack == [-3, -4]
    assert justifier.lim == [] and justifier.values[1] == 0
    justifier.sync([1, 2, -3, -4], [])  # the solver's root: only a is open
    assert justifier.stack == [-3, -4, 2, 1]
    solver = Solver(loop, SolverConfig(relevance_filter=False, debug=True))
    assert solver._enqueue_root_units()
    assert solver.propagate() is None
    # the first sync reads the open a before it closes level 0
    assert solver._sync_justifier().stack == [2, 1, -3, -4]


def test_no_unfounded_set_without_positive_loops(intro):
    solver = Solver(intro, assert_constraint=False)
    assert solver.propagate_unfounded() is None
    assert solver.stats.unfounded_sets == 0


def reference_unfounded(solver):
    """The all-atoms founded-set sweep over the whole definition, repeated
    until nothing changes: the unfounded atoms in rule order."""
    definition = solver.theory.definition
    defined = definition.defined_atoms
    candidates = [rule.head for rule in definition if solver.values[rule.head] != -1]
    founded = set()

    def support(lit):
        return solver.lit_value(lit) != -1 and (
            lit < 0 or lit not in defined or lit in founded)

    changed = True
    while changed:
        changed = False
        for atom in candidates:
            rule = definition.rule_for(atom)
            test = all if rule.conjunctive else any
            if atom not in founded and test(support(l) for l in rule.body):
                founded.add(atom)
                changed = True
    return [a for a in candidates if a not in founded]


def reference_reasons(solver, unfounded):
    """External-bodies reason clauses for the unfounded atoms, and the
    literals they put on the trail, up to the first atom that is true."""
    blockers = []
    definition = solver.theory.definition
    for atom in unfounded:
        rule = definition.rule_for(atom)
        for lit in rule.body:
            if solver.lit_value(lit) == -1:
                if lit not in blockers:
                    blockers.append(lit)
                if rule.conjunctive:
                    break
    clauses, trail = [], []
    for atom in unfounded:
        clauses.append([-atom] + [b for b in blockers if b != -atom])
        if solver.values[atom] == 1:
            break
        trail.append(-atom)
    return clauses, trail


LOOP_SHAPES = [
    # self-loop
    theory_gen.build_theory("p_T p a", "p_T",
                            [("p_T", "d", ["a", "p"]), ("p", "d", ["p"])]),
    # positive loop p-q with negation on the cycle through r
    theory_gen.build_theory("p_T p q r a", "p_T",
                            [("p_T", "d", ["p", "a"]), ("p", "d", ["q", "~r"]),
                             ("q", "c", ["p", "a"]), ("r", "d", ["~q"])]),
    # s and p_T above the loop p-q, not on it
    theory_gen.build_theory("p_T s p q a b", "p_T",
                            [("p_T", "c", ["s", "a"]), ("s", "d", ["p", "b"]),
                             ("p", "d", ["q"]), ("q", "d", ["p", "~a"])]),
]


def test_unfounded_pass_matches_all_atoms_sweep():
    # at random unit-propagation fixpoints the loop-scoped pass falsifies the
    # same atoms in the same order with the same reasons as the full sweep
    rng = random.Random(36)
    theories = LOOP_SHAPES * 20 + [theory_gen.random_theory(rng)
                                   for _ in range(400)]
    nonempty = conflicts = 0
    for theory in theories:
        solver = Solver(theory, SolverConfig(relevance_filter=False),
                        assert_constraint=rng.random() < 0.5)
        if not solver._enqueue_root_units():
            continue
        while solver.propagate_unit() is None:
            expected = reference_unfounded(solver)
            clauses, trail = reference_reasons(solver, expected)
            n_clauses, n_trail = len(solver.clauses), len(solver.trail)
            conflict = solver.propagate_unfounded()
            assert solver.clauses[n_clauses:] == clauses
            assert solver.trail[n_trail:] == trail
            if conflict is not None:
                assert conflict is solver.clauses[-1]
                conflicts += 1
                break
            if expected:
                nonempty += 1
                continue
            unassigned = unassigned_atoms(solver)
            if not unassigned:
                break
            atom = rng.choice(unassigned)
            solver._decide(rng.choice((atom, -atom)))
    assert nonempty > 100 and conflicts > 10, (nonempty, conflicts)


def test_unfounded_pass_matches_sweep_across_backtracks():
    # as above, but between fixpoints the solver backtracks at random, as a
    # backjump, a restart or a chronological flip, so that later passes start
    # from sources kept across the backtrack
    rng = random.Random(38)
    theories = LOOP_SHAPES * 20 + [theory_gen.random_theory(rng, max_atoms=10)
                                   for _ in range(900)]
    after_backtrack = backtracks = 0
    for theory in theories:
        solver = Solver(theory, SolverConfig(relevance_filter=False, debug=True),
                        assert_constraint=rng.random() < 0.5)
        if not solver._enqueue_root_units():
            continue
        backtracked = False
        for _ in range(60):
            conflict = solver.propagate_unit()
            if conflict is None:
                expected = reference_unfounded(solver)
                clauses, trail = reference_reasons(solver, expected)
                n_clauses, n_trail = len(solver.clauses), len(solver.trail)
                conflict = solver.propagate_unfounded()
                assert solver.clauses[n_clauses:] == clauses
                assert solver.trail[n_trail:] == trail
                if expected and backtracked:
                    after_backtrack += 1
                if expected and conflict is None:
                    continue
            unassigned = unassigned_atoms(solver)
            if conflict is None and unassigned and (solver.level == 0
                                                    or rng.random() < 0.6):
                atom = rng.choice(unassigned)
                solver._decide(rng.choice((atom, -atom)))
                continue
            if solver.level == 0:
                break
            move = rng.randrange(3)
            if move == 0:
                solver._backtrack(rng.randrange(solver.level))
            elif move == 1 or not solver._flip_most_recent_decision():
                solver._backtrack(0)
            backtracked = True
            backtracks += 1
    assert after_backtrack > 120 and backtracks > 5000, (after_backtrack, backtracks)


def has_cycle_through_negation(theory):
    """Whether some rule body uses `~a` while `a` depends back on the head."""
    definition = theory.definition
    depends = {rule.head: {abs(lit) for lit in rule.body} for rule in definition}

    def reaches(start, goal):
        seen, stack = set(), [start]
        while stack:
            atom = stack.pop()
            if atom == goal:
                return True
            if atom not in seen:
                seen.add(atom)
                stack.extend(depends.get(atom, ()))
        return False

    return any(lit < 0 and reaches(-lit, rule.head)
               for rule in definition for lit in rule.body)


def test_debug_source_checks_hold_while_solving():
    # debug mode checks the source invariant after every pass; the answers
    # must agree with the oracle wherever the definition is stratified
    rng = random.Random(39)
    theories = LOOP_SHAPES + [theory_gen.random_theory(rng) for _ in range(600)]
    checked = unfounded = 0
    for theory in theories:
        for config in ALL_CONFIGS:
            result = Solver(theory, dataclasses.replace(config, debug=True)).solve()
            unfounded += result.stats.unfounded_sets
            if has_cycle_through_negation(theory):
                continue
            checked += 1
            if result.status == "unsat":
                assert not oracle.enumerate_models(theory), theory.definition.rules
                continue
            witness = result.witness
            if result.stats.stopped_early:
                assert oracle.justified(theory, witness, theory.theory_atom)
                assert oracle.count_models_extending(theory, witness) == \
                    result.stats.models_represented
            else:
                assert oracle.is_model(witness, theory), theory.definition.rules
    assert checked > 900 and unfounded > 500, (checked, unfounded)


def test_loop_index_and_clauses_follow_the_definition():
    # the problem clauses are the completion of the definition, and the loop
    # index holds the loop rules in rule order, the order unfounded atoms are
    # falsified in.  On the shuffled shapes (100 loops over 1200 atoms, 20
    # over 300) that order is not the ascending one.  The one rule index
    # gives each head its non-empty body and count thresholds, and each body
    # literal the heads it occurs in, in rule order, once per occurrence
    rng = random.Random(15)
    theories = ([theory_gen.shuffled_loops_theory(rng, count, n_atoms)
                 for count, n_atoms in [(100, 1200), (20, 300)] * 4]
                + LOOP_SHAPES
                + [theory_gen.random_theory(rng, max_atoms=10) for _ in range(200)])
    unsorted = 0
    for theory in theories:
        solver = Solver(theory, SolverConfig(relevance_filter=False))
        definition = theory.definition
        assert solver.clauses[:solver.n_problem_clauses] == (
            completion_clauses(definition) + [[theory.theory_atom]])
        loop = solver.setup.graph.loop_atoms()
        order = [rule.head for rule in definition if rule.head in loop]
        assert list(solver.loop.rules) == order
        watches = {}
        for position, atom in enumerate(order):
            rule = definition.rule_for(atom)
            assert solver.loop.rules[atom] == (position, rule.conjunctive, rule.body)
            for lit in rule.body:
                watches.setdefault(lit, []).append(atom)
        assert solver.loop.watches == watches
        unsorted += order != sorted(order)
        setup = solver.setup
        need_true = [0] * (theory.n_atoms + 1)
        need_false = [0] * (theory.n_atoms + 1)
        bodies = {}
        occurs = {}
        for rule in definition:
            size = len(rule.body)
            need_true[rule.head], need_false[rule.head] = (
                (size, 1) if rule.conjunctive else (1, size))
            if rule.body:
                bodies[rule.head] = rule.body
            for lit in rule.body:
                occurs.setdefault(lit, []).append(rule.head)
        assert (setup.need_true, setup.need_false) == (need_true, need_false)
        assert list(setup.graph.bodies.items()) == list(bodies.items())
        assert setup.graph.occurs == occurs
    assert unsorted >= 8, unsorted


def chain_theory(n):
    """x1 <- x2 <- ... <- xn with xn open and x1 the theory atom."""
    rules = [Rule(atom, False, (atom + 1,)) for atom in range(1, n)]
    return DefnfTheory(AtomTable([None] * n), 1, Definition(rules))


def count_unfounded_calls(solver):
    calls = []
    original = solver.propagate_unfounded
    solver.propagate_unfounded = lambda: calls.append(1) or original()
    return calls


def test_loop_free_chain_skips_unfounded_pass():
    solver = Solver(chain_theory(4000))
    calls = count_unfounded_calls(solver)
    result = solver.solve()
    assert result.status == "sat"
    assert result.stats.stopped_early
    assert result.stats.decisions == 0
    assert calls == []


def test_a_filtered_solver_that_never_syncs_runs_no_settle(monkeypatch):
    # the tracker settles at its first read, not when it is built; the
    # chain is justified by propagation alone, so the filtered solver makes
    # no decision, never syncs and never reads the tracker
    settles = []
    settle = RelevanceTracker._settle
    monkeypatch.setattr(RelevanceTracker, "_settle",
                        lambda tracker: settles.append(tracker) or settle(tracker))
    solver = Solver(chain_theory(200))
    assert settles == [] and solver.tracker._watch == {}
    result = solver.solve()
    assert result.stats.stopped_early and result.stats.decisions == 0
    assert result.stats.relevance_queries == 0
    assert settles == [] and solver.tracker._watch == {}


def test_positive_loop_runs_unfounded_pass(loop):
    solver = Solver(loop)
    calls = count_unfounded_calls(solver)
    assert solver.solve().status == "sat"
    assert calls


def reference_loop_atoms(definition):
    """Defined atoms on a positive cycle between defined atoms, closed under
    positive dependence: a head with such an atom in its body joins."""
    defined = definition.defined_atoms
    edges = {rule.head: [lit for lit in rule.body if lit in defined]
             for rule in definition}
    loop = cyclic_literals(edges)
    grown = True
    while grown:
        grown = False
        for head, deps in edges.items():
            if head not in loop and any(dep in loop for dep in deps):
                loop.add(head)
                grown = True
    return loop


def test_loop_peel_matches_the_cycle_reference():
    rng = random.Random(42)
    theories = LOOP_SHAPES + [chain_theory(50)] + [
        theory_gen.random_theory(rng) for _ in range(300)]
    with_loops = 0
    for theory in theories:
        want = reference_loop_atoms(theory.definition)
        setup = build_justification_maps(theory)
        assert setup.graph.loop_atoms() == want, theory.definition.rules
        solver = Solver(theory, SolverConfig(relevance_filter=False))
        assert set(solver.loop.rules) == want
        with_loops += bool(want)
    assert with_loops > 100, with_loops


@pytest.mark.parametrize("rules, want", [
    # 4 has an empty body: 3 <- 4 peels, and 1 <- 2 | 3 with it; 2 <- 2 stays
    ([Rule(1, False, (2, 3)), Rule(2, True, (2, 5)), Rule(3, False, (4,)),
      Rule(4, True, ())], {1, 2}),
    # 2 repeated in 1's body: the graph keeps one edge 1 -> 2, so 1 peels
    # right after 2 (and 3 after 1) on the left, and sits above the 2-4
    # loop on the right
    ([Rule(1, True, (2, 2, -5)), Rule(2, False, (5,)), Rule(3, False, (1, 1))],
     set()),
    ([Rule(1, True, (2, 2, -5)), Rule(2, False, (4, 5)), Rule(4, True, (2, 2)),
      Rule(3, False, (1, 1))], {1, 2, 3, 4}),
])
def test_loop_peel_handles_empty_bodies_and_repeated_literals(rules, want):
    definition = Definition(rules)
    assert reference_loop_atoms(definition) == want
    assert build_dependency_graph(definition).loop_atoms() == want


# -- deferred tracker notifications ----------------------------------------------------

def implied_justified(solver):
    """The justified set that the open literals of the solver's trail imply,
    by a fresh justifier."""
    fresh = Justifier(solver.setup)
    fresh.sync([lit for lit in solver.trail if abs(lit) in solver.theory.opens], [])
    return fresh.justified_literals()


class DecisionProbe:
    """Records decision literals, and at every filtered decision checks that
    the tracker's justified set is the one the current assignment implies."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decided = []
        self.filtered_picks = 0

    def _decide(self, lit, flipped=False):
        self.decided.append(lit)
        super()._decide(lit, flipped)

    def _pick_atom(self, restrict_relevant):
        if restrict_relevant:
            self.filtered_picks += 1
            assert self.tracker.justified_literals() == implied_justified(self)
        return super()._pick_atom(restrict_relevant)


class DeferredSolver(DecisionProbe, Solver):
    pass


class EagerSolver(DecisionProbe, Solver):
    """Reference: the tracker notes each status the justifier sets at the
    sync that sets it, filtered or not, and each popped status as the
    backtrack pops it, and nothing is left to a filtered sync."""

    def _sync_justifier(self):
        justifier = super()._sync_justifier()
        self.tracker.note_changed(justifier.stack[justifier._heard:])
        justifier._heard = len(justifier.stack)
        return justifier

    def _backtrack(self, target_level):
        justifier = self.justifier
        popped = []
        if target_level < len(justifier.lim):
            popped = justifier.stack[justifier.lim[target_level]:]
        super()._backtrack(target_level)
        assert justifier._unheard == popped
        assert justifier._heard == len(justifier.stack)
        justifier._unheard.clear()
        self.tracker.note_changed(reversed(popped))

    def _sync_tracker(self):
        # the tracker has heard everything already
        justifier = self.justifier
        assert justifier._heard == len(justifier.stack) and not justifier._unheard
        super()._sync_tracker()


# `random` benchmark instances (seed 1 no. 2119, seed 3 no. 2766) where a
# tracker that repairs each lost watch on its own, and never offers a
# literal left unwatched its parents again, misses relevant literals at a
# filtered pick
TRACKER_MISS_CIDS = [
    "p cid 7\nt 1\nr 1 d -7 4 0\nr 7 d 2 -3 5 0\nr 4 c -7 0\nr 6 c 2 -3 -7 0\n"
    "r 3 d -3 1 7 0\nr 2 c 2 4 6 3 0\nr 5 d 4 -1 0\n",
    "p cid 8\nt 1\nr 1 d -7 -3 -5 0\nr 2 d -5 1 3 -6 0\nr 8 c 7 -1 -2 0\n"
    "r 6 c -3 4 0\nr 4 c 2 7 8 0\nr 5 d -5 -6 -8 0\nr 7 d -3 0\n",
]


def deferral_corpus():
    rng = random.Random(37)
    return ([theory_gen.intro_theory(), theory_gen.justdef_theory(),
             theory_gen.loop_theory()]
            + [parse_cid(text) for text in TRACKER_MISS_CIDS]
            + [theory_gen.random_theory(rng, 12, 12) for _ in range(600)]
            + [theory_gen.random_total_theory(rng, 12, 12) for _ in range(600)]
            + [theory_gen.three_sat_theory(rng, 20, 85) for _ in range(16)])


FILTERED_CONFIGS = [config for config in ALL_CONFIGS if config.relevance_filter]


def test_deferred_sync_matches_eager_notification():
    filtered_picks = 0
    for theory in deferral_corpus():
        for config in FILTERED_CONFIGS:
            deferred = DeferredSolver(theory, config)
            eager = EagerSolver(theory, config)
            got, want = deferred.solve(), eager.solve()
            context = (theory.definition.rules, config)
            assert got.status == want.status, context
            assert got.witness == want.witness, context
            assert deferred.decided == eager.decided, context
            got_stats = dataclasses.replace(got.stats, wall_ms=0)
            assert got_stats == dataclasses.replace(want.stats, wall_ms=0), context
            assert deferred.filtered_picks == eager.filtered_picks
            filtered_picks += deferred.filtered_picks
    assert filtered_picks > 800, filtered_picks


def test_debug_picks_check_the_tracker_against_reachability():
    # with debug=True every filtered pick compares the tracker's relevant
    # literals with reachability through unjustified literals
    filtered_picks = 0
    for theory in deferral_corpus():
        for config in FILTERED_CONFIGS:
            solver = DeferredSolver(theory, dataclasses.replace(config, debug=True))
            solver.solve()
            filtered_picks += solver.filtered_picks
    assert filtered_picks > 800, filtered_picks


def test_debug_watch_check_finds_a_lost_or_misplaced_watch():
    # the watch half of the debug check: a clause true at level 0 may lose
    # a watch, any other clause must keep both, and only those two
    theory = theory_gen.three_sat_theory(random.Random(47), 12, 40)
    solver = Solver(theory, SolverConfig(debug=True))
    solver.solve()
    solver._check_watches()
    root = root_literals(solver)
    base = solver.watches
    true_at_root = {}  # whether a clause is true at level 0 -> a watch on one
    for lit, watchlist in base.items():
        for clause in watchlist:
            true_at_root.setdefault(not root.isdisjoint(clause), (lit, clause))
    lit, true_clause = true_at_root[True]
    base[lit].remove(true_clause)
    solver._check_watches()
    lit, open_clause = true_at_root[False]
    base[lit].remove(open_clause)
    with pytest.raises(AssertionError, match="not watched on both"):
        solver._check_watches()
    base[lit].append(open_clause)
    solver._check_watches()
    other = next(x for x in open_clause[2:] + [-open_clause[0]])
    base.setdefault(other, []).append(open_clause)
    with pytest.raises(AssertionError, match=f"is watched on {other}"):
        solver._check_watches()
    base[other].remove(open_clause)
    base.setdefault(lit, []).append(list(open_clause))
    with pytest.raises(AssertionError, match="not stored"):
        solver._check_watches()


class WalkingTracker(RelevanceTracker):
    """Reference relevance: no watches and no settle.  `is_relevant` reads
    the status array and walks backward from the literal over `parents_of`
    through unjustified literals, looking for the theory atom."""

    def is_relevant(self, lit):
        self.query_count += 1
        values = self._values

        def justified(lit):
            return (values[lit] if lit > 0 else -values[-lit]) == 1

        if justified(lit):
            return False
        parents_of = self.graph.parents_of
        seen = {lit}
        stack = [lit]
        while stack:
            node = stack.pop()
            if node == self._pt:
                return True
            for parent in parents_of(node):
                if parent not in seen and not justified(parent):
                    seen.add(parent)
                    stack.append(parent)
        return False


class WalkingSolver(Solver):
    def __init__(self, theory, config):
        super().__init__(theory, config)
        if self.tracker is not None:
            self.tracker = WalkingTracker.for_theory(theory, self.setup.graph,
                                                     values=self.justifier.values)


def test_the_tracker_decides_as_the_backward_walk():
    # the tracker's relevance is exact after each settle, so a solver that
    # asks the walk instead makes the same decisions and the same queries
    rng = random.Random(43)
    corpus = deferral_corpus() + [loops_theory(rng, count) for count in (1, 10, 60)]
    walked = 0
    for theory in corpus:
        for config in FILTERED_CONFIGS:
            got, want = Solver(theory, config).solve(), WalkingSolver(theory, config).solve()
            context = (theory.definition.rules, config)
            assert got.status == want.status, context
            assert got.witness == want.witness, context
            got_stats = dataclasses.replace(got.stats, wall_ms=0)
            assert got_stats == dataclasses.replace(want.stats, wall_ms=0), context
            walked += want.stats.relevance_queries
    assert walked > 2500, walked


def test_unfiltered_solver_records_nothing():
    class QuietSolver(Solver):
        def quiet(self):
            justifier = self.justifier
            assert justifier is None or justifier._heard == 0 and not justifier._unheard

        def _enqueue(self, lit, reason):
            assigned = super()._enqueue(lit, reason)
            self.quiet()
            return assigned

        def propagate_unit(self):
            conflict = super().propagate_unit()
            self.quiet()
            return conflict

        def _backtrack(self, target_level):
            super()._backtrack(target_level)
            self.quiet()

    for theory in deferral_corpus()[::10]:
        for config in ALL_CONFIGS:
            if not config.relevance_filter:
                solver = QuietSolver(theory, config)
                solver.solve()
                assert solver.tracker is None


def test_a_solver_that_reads_no_status_builds_no_justifier():
    # without the filter and the early stop nothing reads justified status;
    # the justifier is built only when `report_justified_log2` asks for it
    syncs = []
    sync = Justifier.sync
    for theory in deferral_corpus()[::10]:
        solver = Solver(theory, SolverConfig(relevance_filter=False,
                                             stop_on_justified=False))
        assert solver.justifier is None and solver.tracker is None
        Justifier.sync = lambda self, *args: syncs.append(self) or sync(self, *args)
        try:
            solver.solve()
        finally:
            Justifier.sync = sync
        assert solver.justifier is None
    assert syncs == []
    for config in ALL_CONFIGS[:3]:
        assert Solver(theory_gen.loop_theory(), config).justifier is not None


def test_unheard_holds_at_most_one_literal_per_atom():
    # between two syncs each backtrack records only the heard part of the
    # stack it pops, so `_unheard` holds literals of distinct atoms.  With
    # stop_on_justified off, syncs pause once the theory atom is justified
    # while backtracks go on; an unfiltered solver never calls take_changed
    # and records nothing
    class BoundedSolver(Solver):
        most = 0

        def _backtrack(self, target_level):
            super()._backtrack(target_level)
            unheard = self.justifier._unheard
            atoms = {abs(lit) for lit in unheard}
            assert len(atoms) == len(unheard) <= self.theory.n_atoms
            if self.tracker is None:
                assert self.justifier._heard == 0 and not unheard
            self.most = max(self.most, len(unheard))

    most = 0
    for theory in deferral_corpus():
        for filtered in (True, False):
            solver = BoundedSolver(theory, SolverConfig(relevance_filter=filtered,
                                                        stop_on_justified=not filtered))
            solver.solve()
            if filtered:
                most = max(most, solver.most)
    assert most > 50, most


def test_no_sync_after_the_last_decision():
    # the 4000-atom chain is justified by propagation alone, so nothing is
    # ever noted to the tracker, and it never walks the graph
    solver = Solver(chain_theory(4000))
    noted = []
    solver.tracker.note_changed = noted.append
    assert solver.solve().stats.stopped_early
    assert noted == [] and solver.tracker._watch == {}


# -- decision order ----------------------------------------------------------------------

def scan_pick(solver, restrict_relevant):
    """Reference for the activity heap: a linear scan for the most active
    unassigned decidable atom (ties: lowest id), relevant in some polarity
    when asked.  It reads `relevant_literals`, so the query count is left
    as it is."""
    relevant = solver.tracker.relevant_literals() if restrict_relevant else set()
    best = None
    for atom in range(1, solver.theory.n_atoms + 1):
        if solver.values[atom]:
            continue
        pos, neg = atom in relevant, -atom in relevant
        if restrict_relevant and not (pos or neg):
            continue
        key = (solver.order.activity[atom], -atom)
        if best is None or key > best[0]:
            best = (key, (atom, pos, neg))
    return None if best is None else best[1]


class ScanCheckedPicks:
    """Asserts at every pick that the heap picks what the scan picks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.picks = {"filtered": 0, "unfiltered": 0, "restored": 0}

    def _pick_atom(self, restrict_relevant):
        expected = scan_pick(self, restrict_relevant)
        if restrict_relevant:
            self.picks["filtered"] += 1
        else:
            self.picks["unfiltered"] += 1
            self.picks["restored"] += bool(self.order.side)
        picked = super()._pick_atom(restrict_relevant)
        assert picked == expected, (picked, expected)
        return picked


class ScanCheckedDeferred(ScanCheckedPicks, DeferredSolver):
    pass


class ScanCheckedEager(ScanCheckedPicks, EagerSolver):
    pass


def test_heap_picks_match_the_linear_scan():
    picks = dict.fromkeys(("filtered", "unfiltered", "restored"), 0)
    for theory in deferral_corpus():
        for config in ALL_CONFIGS:
            kinds = [ScanCheckedDeferred]
            if config.relevance_filter:
                kinds.append(ScanCheckedEager)
            for kind in kinds:
                solver = kind(theory, config)
                solver.solve()
                for name, count in solver.picks.items():
                    picks[name] += count
    assert picks["filtered"] > 1500 and picks["unfiltered"] > 8000, picks
    assert picks["restored"] > 200, picks


def test_heap_picks_match_the_scan_through_rescale_and_rebuild():
    # a huge starting increment pushes activities past 1e100 within a few
    # conflicts; the long search also fills the heap with stale entries
    theory = theory_gen.three_sat_theory(random.Random(40), 60, 255)
    for filtered in (True, False):
        solver = ScanCheckedDeferred(
            theory, SolverConfig(relevance_filter=filtered, debug=True))
        order = solver.order
        order.inc = 1e99
        sizes = []  # heap length at each rebuild
        rebuild = order._rebuild
        order._rebuild = lambda: sizes.append(len(order.heap)) or rebuild()
        result = solver.solve()
        assert result.stats.conflicts > 50, result.stats
        assert order.inc < 1e99  # rescaled
        limit = 2 * len(order.activity)
        assert any(size <= limit for size in sizes), sizes  # by the rescale
        assert any(size > limit for size in sizes), sizes  # by stale entries


def test_backtrack_returns_the_side_list_to_the_heap():
    # T <- A & B, A <- x | y, B <- v | w over open x, y, v, w: once x is
    # decided, A is justified and y is irrelevant until x is undone
    theory = theory_gen.build_theory(
        "T A B x y v w", "T",
        [("T", "c", ["A", "B"]), ("A", "d", ["x", "y"]), ("B", "d", ["v", "w"])])
    x, y, v = (theory.atoms.id_of(name) for name in "xyv")
    solver = Solver(theory, SolverConfig(debug=True))
    assert solver._enqueue_root_units()

    def pick():
        assert solver.propagate() is None
        solver._sync_justifier()
        solver._sync_tracker()
        expected = scan_pick(solver, True)
        picked = solver._pick_atom(True)
        assert picked == expected
        return picked

    assert pick() == (x, True, False)
    solver._decide(x)
    assert pick() == (v, True, False)
    assert solver.order.side == [y]
    solver._decide(v)
    solver._backtrack(0)
    assert solver.order.side == []
    assert pick() == (x, True, False)
    assert y in solver.tracker.relevant_literals()


def loops_theory(rng, count):
    """`T <- p_1 & ... & p_n`, `p_i <- q_i | o_i`, `q_i <- p_i` with the
    `o_i` open, atom ids shuffled."""
    names = [f"{kind}{i}" for i in range(count) for kind in "pqo"] + ["T"]
    rng.shuffle(names)
    rules = [("T", "c", [f"p{i}" for i in range(count)])]
    for i in range(count):
        rules.append((f"p{i}", "d", [f"q{i}", f"o{i}"]))
        rules.append((f"q{i}", "d", [f"p{i}"]))
    return theory_gen.build_theory(" ".join(names), "T", rules)


def test_loops_ask_only_about_the_decided_atom():
    rng = random.Random(41)
    for count in (1, 10, 60):
        stats = solve(loops_theory(rng, count)).stats
        assert stats.stopped_early and stats.decisions == count, stats
        assert stats.relevance_queries == 2 * stats.decisions, stats


def test_solver_keeps_to_the_shared_key_limit(loop):
    # CPython 3.11 lets the instances of a class share one key table for at
    # most 29 attributes set in `__init__`; past that every Solver keeps a
    # dict of its own.  The limit says nothing of attributes set after
    # construction: once a class has made many instances, one that gets two
    # more keeps a dict of its own whatever the count.  The bound is today's
    # count, so a new attribute has to replace one
    for config in ALL_CONFIGS:
        assert len(vars(Solver(loop, config))) <= 20


def test_the_solver_hands_the_tracker_its_own_graph(loop, intro, monkeypatch):
    # the tracker reads the graph that the solver's justifier counts over,
    # so a solver given its setup builds no dependency graph of its own
    built = []
    monkeypatch.setattr(relevance, "build_dependency_graph",
                        lambda definition: built.append(definition))
    for theory in (loop, intro, theory_gen.justdef_theory()):
        setup = build_justification_maps(theory)
        for config in FILTERED_CONFIGS:
            for debug in (False, True):
                config = dataclasses.replace(config, debug=debug)
                for solver in (Solver(theory, config), Solver(theory, config, setup)):
                    assert solver.tracker.graph is solver.setup.graph
                    solver.solve()
                    assert solver.tracker.graph is solver.setup.graph
    assert built == []


def reference_clause(lits):
    """The literals' first occurrences in order; None for a tautology."""
    clause = []
    for lit in lits:
        if -lit in clause:
            return None
        if lit not in clause:
            clause.append(lit)
    return clause


def naive_completion(rule):
    """One rule's completion clauses as written, with repeated literals and
    tautologies."""
    p = rule.head
    if rule.conjunctive:
        return [[-p, lit] for lit in rule.body] + [[p, *(-lit for lit in rule.body)]]
    return [[-p, *rule.body]] + [[p, -lit] for lit in rule.body]


def test_problem_clauses_keep_first_occurrences():
    rng = random.Random(38)
    # a 600-literal body over 300 atoms with repeats, then the same with one
    # complementary pair
    lits = [rng.choice((atom, -atom)) for atom in range(2, 302)]
    long_body = lits + rng.choices(lits, k=300)
    rng.shuffle(long_body)
    definitions = [(301, Definition([Rule(1, True, tuple(long_body))])),
                   (301, Definition([Rule(1, False, (*long_body, -long_body[0]))]))]
    for _ in range(300):  # short and long bodies over a few atoms
        rules = []
        for head in rng.sample(range(1, 7), rng.randint(1, 6)):
            body = [rng.choice((1, -1)) * rng.randint(1, 6)
                    for _ in range(rng.randint(0, 12))]
            body += rng.choices((head, -head), k=rng.randint(0, 2))
            if body:
                body += rng.choices(body, k=rng.randint(0, 3))
            rng.shuffle(body)
            rules.append(Rule(head, rng.random() < 0.5, tuple(body)))
        definitions.append((6, Definition(rules)))
    added = tautologies = 0
    for n_atoms, definition in definitions:
        expected = []
        for rule in definition:
            for lits in naive_completion(rule):
                clause = reference_clause(lits)
                if clause is None:
                    tautologies += 1
                else:
                    expected.append(clause)
                    added += 1
        assert completion_clauses(definition) == expected

        # the solver stores the clauses as they come
        theory = DefnfTheory(AtomTable([None] * n_atoms), definition.rules[0].head,
                             definition)
        solver = RecordingSolver(theory, SolverConfig(relevance_filter=False))
        assert solver.clauses == expected + [[theory.theory_atom]]
        assert solver.n_problem_clauses == len(solver.clauses)
        check_watches(solver)
        # the root units are the unit clauses themselves, in order; each is
        # the reason of its literal unless an earlier one holds it too
        units = [clause for clause in solver.clauses if len(clause) == 1]
        assert len(solver._root_units) == len(units)
        assert all(unit is clause for unit, clause in zip(solver._root_units, units))
        first = {}
        for clause in units:
            first.setdefault(clause[0], clause)
        if solver._enqueue_root_units():
            assert solver.trail == list(first)
            assert all(solver.reasons[abs(lit)] is clause for lit, clause in first.items())
        else:
            assert any(-lit in first for lit in first)
    assert added > 50 and tautologies > 50, (added, tautologies)


# -- solve: named examples -------------------------------------------------------------

def test_solve_loop_theory(loop):
    solver = Solver(loop)
    result = solver.solve()
    assert result.status == "sat"
    witness = result.witness
    assert witness.value(2) is TRUE
    assert result.witness == witness  # the theory's atoms, and no others
    assert solver.justifier.justified_literals() == {1, 2, -3, -4}
    assert result.stats.stopped_early
    assert result.stats.models_represented == 1


def test_solve_contradictory_body_unsat():
    for config in ALL_CONFIGS:
        assert solve(unsat_theory(), config).status == "unsat"


def test_solve_intro_stops_early(intro):
    result = solve(intro)
    assert result.status == "sat"
    assert result.stats.stopped_early
    witness = result.witness
    assert oracle.count_models_extending(intro, witness) == \
        result.stats.models_represented


def test_solve_intro_justifying_prefix(intro):
    # deterministic run: the unit constraint forces a and b, the filter then
    # decides c and d (lowest relevant atoms, relevant polarity), justifying
    # the theory atom with the four remaining opens unassigned
    result = solve(intro)
    assert result.witness.true_literals() == [1, 2, 3, 4, 5]
    assert result.stats.models_represented == 16
    assert result.stats.decisions == 2


def test_report_justified_count_all_opens_assigned(intro):
    config = SolverConfig(stop_on_justified=False, relevance_filter=False)
    solver = Solver(intro, config)
    result = solver.solve()
    assert result.status == "sat"
    assert solver.report_justified_log2() == 0


def test_report_justified_count_requires_justification(loop):
    solver = Solver(loop)
    with pytest.raises(ValueError, match="not justified"):
        solver.report_justified_log2()


# -- conflict analysis corner cases ------------------------------------------------------

def test_level_zero_conflict_is_unsat():
    # two contradictory unit completions: p <- (empty and), p_T <- ~p
    theory = theory_gen.build_theory(
        "p_T p", "p_T", [("p_T", "c", ["~p"]), ("p", "c", [])])
    assert solve(theory).status == "unsat"


def three_sat_models(theory):
    """The models of a normalized 3-SAT theory (`theory_gen.three_sat_theory`).
    The bodies of its clause atoms' rules are the CNF: its satisfying
    assignments of the open atoms are found by backtracking, and each is
    extended to the defined atoms by the oracle's well-founded bounds.
    `oracle.enumerate_models` finds the same models from all 2^n contexts."""
    definition = theory.definition
    opens = sorted(theory.opens)
    rank = {atom: i for i, atom in enumerate(opens)}
    closed_by = [[] for _ in opens]  # the CNF clauses each open atom completes
    for rule in definition:
        if rule.head != theory.theory_atom:
            closed_by[max(rank[abs(lit)] for lit in rule.body)].append(rule.body)
    models, true = [], set()

    def extend(i):
        if i == len(opens):
            context = PartialInterpretation.from_literals(true)
            true_set, _ = oracle.wfs_bounds(definition, context)
            for atom in definition.defined_atoms:
                context.set_literal(atom if atom in true_set else -atom)
            models.append(context)
            return
        for lit in (opens[i], -opens[i]):
            true.add(lit)
            if all(any(other in true for other in body) for body in closed_by[i]):
                extend(i + 1)
            true.remove(lit)

    extend(0)
    return models


def test_three_sat_models_match_the_oracle():
    rng = random.Random(29)
    found = 0
    for _ in range(4):
        theory = theory_gen.three_sat_theory(rng, 8, 30)
        models = three_sat_models(theory)
        assert ({frozenset(model.true_literals()) for model in models}
                == {frozenset(model.true_literals())
                    for model in oracle.enumerate_models(theory)})
        found += len(models)
    assert found > 4, found


def test_learned_clauses_are_consequences():
    # every learned clause, as stored after the solve, holds in every model;
    # on the 3-SAT theories root simplification has shortened some of them
    rng = random.Random(30)
    theories = [theory_gen.random_verified_total_theory(rng, max_atoms=6)
                for _ in range(40)]
    cases = [(theory, oracle.enumerate_models(theory)) for theory in theories]
    cases += [(theory, three_sat_models(theory))
              for theory in (theory_gen.three_sat_theory(rng, 14, 60) for _ in range(60))]
    clauses = pairs = shortened = 0
    for theory, models in cases:
        for config in ALL_CONFIGS:
            solver = RecordingSolver(theory, config)
            result = solver.solve()
            assert (result.status == "sat") == bool(models)
            learned = solver.clauses[solver.n_problem_clauses:]
            shortened += sum(len(clause) < len(created)
                             for clause, created in zip(learned, solver.learned))
            for clause in learned:
                for model in models:
                    assert any(model.literal_value(l) is TRUE for l in clause)
                pairs += len(models)
            if models:
                clauses += len(learned)
    # 600 clauses of satisfiable theories, 4612 clause/model pairs and 28
    # shortened clauses when written
    assert clauses > 500 and pairs > 4000 and shortened > 20, (clauses, pairs, shortened)


# -- relevance-filtered search ----------------------------------------------------------

def test_solver_state_covers_only_the_theory_atoms():
    # the per-atom lists, the heap and the justifier hold the theory's atoms
    # 1..n and nothing else, and every decision is over one of them
    rng = random.Random(31)
    for _ in range(30):
        theory = theory_gen.random_verified_total_theory(rng)
        n = theory.n_atoms
        for config in ALL_CONFIGS:
            solver = Solver(theory, config)
            solver.solve()
            for per_atom in (solver.values, solver.levels, solver.reasons,
                             solver.phase, solver.order.activity, solver.order.key):
                assert len(per_atom) == n + 1
            assert all(1 <= atom <= n for _, atom in solver.order.heap)
            for start in solver.trail_lim:
                assert 1 <= abs(solver.trail[start]) <= n
            if solver.justifier is not None:
                assert len(solver.justifier.values) == n + 1


class FilteredPickRecorder(Solver):
    """Records each atom a filtered decision picks, with the original atoms'
    assignment at that moment."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.filtered = []

    def _pick_atom(self, restrict_relevant):
        picked = super()._pick_atom(restrict_relevant)
        if restrict_relevant and picked is not None:
            self.filtered.append(
                (picked[0], self.interpretation().restrict(self.theory.atoms.atoms())))
        return picked


def test_filtered_decisions_are_oracle_relevant():
    rng = random.Random(32)
    for _ in range(25):
        theory = theory_gen.random_verified_total_theory(rng, max_atoms=6)
        config = SolverConfig(relevance_filter=True, stop_on_justified=True,
                              debug=True)
        solver = FilteredPickRecorder(theory, config)
        solver.solve()
        seen = []
        for atom, state in solver.filtered:
            relevant = oracle.relevant_set(theory, state)
            seen.append((atom, atom in relevant or -atom in relevant))
        assert all(ok for _, ok in seen), seen


def test_backtrack_policy_completes(intro):
    # with stopping disabled the filter is off once the theory atom is
    # justified, and the solver goes on to assign every atom
    config = SolverConfig(relevance_filter=True, stop_on_justified=False)
    result = solve(intro, config)
    assert result.status == "sat"
    assert result.witness.two_valued_on(intro.atoms.atoms())


# -- solver/oracle equivalence (randomized) ------------------------------------------------

def test_status_matches_oracle_all_configs():
    rng = random.Random(33)
    for _ in range(60):
        theory = theory_gen.random_verified_total_theory(rng)
        want = "sat" if oracle.enumerate_models(theory) else "unsat"
        for config in ALL_CONFIGS:
            result = NoFlipSolver(theory, config).solve()
            assert result.status == want, (theory.definition.rules, config)


def test_propagation_matches_justified_status():
    rng = random.Random(34)
    for _ in range(60):
        theory = theory_gen.random_verified_total_theory(rng)
        opens = theory_gen.random_open_literals(rng, theory)
        fx = defined_fixpoint(theory, opens)
        state = PartialInterpretation.from_literals(opens)
        for atom in sorted(theory.defined):
            assert fx[atom] == oracle.justified_status(theory, state, atom)


def test_early_stop_witness_is_sound():
    rng = random.Random(35)
    stops = 0
    for _ in range(40):
        theory = theory_gen.random_verified_total_theory(rng)
        result = solve(theory)
        if result.status == "sat" and result.stats.stopped_early:
            stops += 1
            witness = result.witness
            assert oracle.justified(theory, witness, theory.theory_atom)
            assert oracle.count_models_extending(theory, witness) == \
                result.stats.models_represented
    assert stops > 0


# -- budgets and configuration ---------------------------------------------------------------

def contradiction_quad():
    # all four sign combinations of a and b demanded at once: unsatisfiable,
    # and the contradiction needs a decision before propagation can see it
    return theory_gen.build_theory(
        "p_T c1 c2 c3 c4 a b", "p_T",
        [("p_T", "c", ["c1", "c2", "c3", "c4"]),
         ("c1", "d", ["a", "b"]),
         ("c2", "d", ["a", "~b"]),
         ("c3", "d", ["~a", "b"]),
         ("c4", "d", ["~a", "~b"])])


def test_conflict_budget():
    with pytest.raises(BudgetExhausted) as exc:
        Solver(contradiction_quad(), SolverConfig(max_conflicts=0)).solve()
    assert exc.value.stats.conflicts >= 1
    result = Solver(contradiction_quad(), SolverConfig(max_conflicts=50)).solve()
    assert result.status == "unsat"


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_conflicts=-1)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=float("nan"))


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]


def test_deterministic_across_runs(justdef):
    first = solve(justdef)
    second = solve(justdef)
    assert first.status == second.status
    assert first.stats.decisions == second.stats.decisions
    assert first.stats.conflicts == second.stats.conflicts
    assert first.witness == second.witness


def test_a_negative_cycle_stops_only_once_justified():
    # `random` seed 1 no. 223: the completion of 1 <- ~1 | 2 | ~3 is the unit
    # clause 1, yet 1 is justified only once 3 is assigned, either way
    theory = parse_cid("p cid 3\nt 1\nr 1 d -1 2 -3 0\nr 2 d 3 0\n")
    assert oracle.is_total(theory.definition, theory.atoms.atoms())
    for config in ALL_CONFIGS:
        solver = Solver(theory, dataclasses.replace(config, debug=True))
        result = solver.solve()
        assert result.status == "sat" and result.stats.decisions == 1
        assert result.stats.stopped_early == config.stop_on_justified
        if result.stats.stopped_early:
            witness = result.witness
            assert witness.value(3) is not UNKNOWN
            assert oracle.justified(theory, witness, theory.theory_atom)
            assert oracle.count_models_extending(theory, witness) == \
                result.stats.models_represented == 1

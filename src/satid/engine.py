"""CDCL search over rule completions plus unfounded-set propagation.

The solver works on the rules' completion clauses: unit propagation runs on
them with two watched literals, unfounded-set propagation falsifies defined
atoms that lost external support, and conflicts are analyzed to the first
unique implication point.  With the relevance filter on, decisions are
restricted to atoms that are relevant in at least one polarity, and search
can stop as soon as the theory atom is justified.

Justified status is not propagated.  The justifier (`justifier.Justifier`)
computes it from the open literals of the trail, and only at the decision
points where the early stop or the filter reads it; a solver with neither
builds no justifier.  It tags each status with the trail level it read, so
every status tagged L follows from the open literals of levels L and below,
and a backtrack to level L pops exactly the statuses tagged above L.  After
each sync its justified set is the well-founded model of the definition in
the context of the trail's open literals: the justified status that the
tracker and the early stop need.

Watch lists and reasons hold the clauses themselves.  Unit propagation also
simplifies clauses at the root as it meets them, what MiniSat's
`simplifyDB` does in a pass of its own (Eén and Sörensson, SAT 2003).
Level 0 is never undone.  A visited clause whose first literal is true at
level 0 is true for good, so it leaves the watch list being read: its other
watch is that literal, which never turns false, and the clause is never
visited again.  A scan for a new watch deletes each literal at position 2
or later that is false at level 0; positions 0 and 1 are never touched,
since an unfounded-set reason `[-atom] + blockers` may watch a false
blocker there.  A deletion keeps the other literals in their order, so a
scan picks the same new watch, and every watch move, implication, reason,
conflict and learned clause is the same (analysis skips level-0 literals).

Justified status has one home, the justifier's `values`.  The solver alone
wires the justifier to the relevance tracker, which reads that array and
the justifier's graph in place, and right before a filtered decision it
notes to the tracker, in one call, what `Justifier.take_changed` returns,
so nothing is recorded per assignment: the heard literals that backtracks
have popped since the last take (`_unheard`), and those set since.  The
tracker keeps the watch keys among them.  After
its next settle the tracker is exact (see `relevance`), a function of the
justified set alone, so deferred and eager notes decide the same.

Decisions come from an activity heap, as in MiniSat: the most active
unassigned atom, ties broken by the lowest id (`ActivityOrder`).  A
filtered pick pops atoms and asks the tracker only about the one popped.
Assigned atoms are dropped until a backtrack undoes them, and an atom
irrelevant in both polarities goes to a side list, which the next backtrack
or unfiltered pick puts back into the heap.  That is sound because
relevance only shrinks between two backtracks: a backtrack, the only step
that takes statuses back, empties the side list, and until the next one the
justified set only grows, so the reachable set, which is the relevant set,
only shrinks.  The picks are therefore the ones a scan over all atoms would
make.  When a pick finds nothing, the side list holds exactly the
unassigned atoms.  With `debug=True` each sync compares the justifier's set
with a fresh justifier's, and each filtered pick checks the tracker against
reachability, the side list, the heap and the watches.

Unfounded-set propagation only ever looks at the loop part of the
definition (`justifier.LoopPart`), found once by peeling the loop-free atoms
off the positive edges of the theory's one dependency graph,
`JustifiedTheory.graph`, a view over the one rule index (bodies and
occurrence lists) that the justifier counts over and the relevance tracker
watches too.  That is exact at a unit-propagation fixpoint: in an unfounded
set, the atom peeled first has no positive body atom in the set, so its
body is false, and its completion clause (for the justifier, its false
count) has made it false already.

Sources are not restored on backtrack.  A false atom keeps its source, and
an unfounded atom keeps the source it lost.  Search decides only after a
complete pass, and a conflict backjumps below the current level, so a pass
reads only literals of the current level, and an unfounded atom is
falsified at the level of the literal that broke its source.  A literal
that turns false later lies at that level or above.  So a backtrack that
unassigns a false atom unassigns every false literal of its source too,
and each source that was valid stays valid.  The justifier's tags play the
part of levels: it closes each level before it reads the next, and pops
whole levels.  The first pass runs at level 0, so the atoms it leaves
without a source stay false for good.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg

from .core import (DefnfTheory, PartialInterpretation, TruthValue,
                   completion_clauses)
from .justifier import (Justifier, JustifiedTheory, LoopPart,
                        build_justification_maps)
from .relevance import RelevanceTracker

VSIDS_DECAY = 0.95
LUBY_UNIT = 64


@dataclass
class SolverConfig:
    relevance_filter: bool = True
    stop_on_justified: bool = True
    max_conflicts: int | None = None
    time_limit: float | None = None
    debug: bool = False

    def __post_init__(self) -> None:
        # `not x >= 0` also rejects NaN, which compares false both ways
        if self.max_conflicts is not None and not self.max_conflicts >= 0:
            raise ValueError("max_conflicts must be nonnegative")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be nonnegative")


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    unfounded_sets: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    relevance_queries: int = 0
    stopped_early: bool = False
    # the k of the 2^k models an early stop represents; printing 2^k itself
    # fails past 4300 digits (CPython's int-to-string limit)
    models_represented_log2: int | None = None
    wall_ms: int = 0

    @property
    def models_represented(self) -> int | None:
        """The count 2^k of `models_represented_log2`, or None."""
        k = self.models_represented_log2
        return None if k is None else 1 << k


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat"
    witness: PartialInterpretation | None
    stats: SolveStats


class BudgetExhausted(RuntimeError):
    """Conflict or time budget ran out before an answer."""

    def __init__(self, message: str, stats: SolveStats) -> None:
        super().__init__(message)
        self.stats = stats


class ActivityOrder:
    """VSIDS activities and a lazy activity heap over the atoms.

    `heap` holds (-activity, atom) entries, so the most active atom comes
    out first and ties go to the lowest id.  `key[atom]` is the key of the
    atom's live entry, or None when it has none: an entry whose key differs
    is stale and skipped when popped.  A bump pushes a fresh entry instead
    of moving the old one, and the heap is rebuilt from the live keys when
    stale entries make up most of it.  `side` holds the atoms a filtered
    pick found irrelevant in both polarities, until the next backtrack or
    unfiltered pick puts them back.
    """

    def __init__(self, n_atoms: int) -> None:
        self.activity = [0.0] * (n_atoms + 1)
        self.inc = 1.0
        self.key: list[float | None] = [0.0] * (n_atoms + 1)
        self.key[0] = None
        # in ascending order, which is already a heap
        self.heap = [(0.0, atom) for atom in range(1, n_atoms + 1)]
        self.side: list[int] = []

    def bump(self, atom: int) -> None:
        activity = self.activity
        activity[atom] += self.inc
        if activity[atom] > 1e100:
            for a in range(1, len(activity)):
                activity[a] *= 1e-100
            self.inc *= 1e-100
            self._rebuild()
        elif self.key[atom] is not None:
            self.key[atom] = -activity[atom]
            heappush(self.heap, (-activity[atom], atom))
            if len(self.heap) > 2 * len(activity):
                self._rebuild()

    def _rebuild(self) -> None:
        """Drop the stale entries and rekey the live ones."""
        key = self.key
        activity = self.activity
        for atom, old in enumerate(key):
            if old is not None:
                key[atom] = -activity[atom]
        self.heap = [(k, atom) for atom, k in enumerate(key) if k is not None]
        heapify(self.heap)

    def restore_side(self) -> None:
        """Put every side-listed atom back into the heap."""
        key = self.key
        activity = self.activity
        for atom in self.side:
            if key[atom] is None:
                key[atom] = -activity[atom]
                heappush(self.heap, (key[atom], atom))
        self.side.clear()

    def pop(self, values: list[int],
            tracker: RelevanceTracker | None) -> tuple[int, bool, bool] | None:
        """Pop the most active unassigned atom; with a tracker, the most
        active one relevant in some polarity.  Returns (atom,
        positive_relevant, negative_relevant), or None when the heap runs
        dry; the side list then holds only unassigned atoms.  Popped atoms
        that are assigned lose their entry until a backtrack undoes them."""
        heap = self.heap
        key = self.key
        while heap:
            k, atom = heappop(heap)
            if key[atom] != k:
                continue
            key[atom] = None
            if values[atom]:
                continue
            if tracker is None:
                return atom, False, False
            pos = tracker.is_relevant(atom)
            neg = tracker.is_relevant(-atom)
            if pos or neg:
                return atom, pos, neg
            self.side.append(atom)
        if self.side:
            self.side = [atom for atom in self.side if not values[atom]]
        return None


class Solver:
    """Single-use CDCL solver instance for one theory."""

    def __init__(self, theory: DefnfTheory, config: SolverConfig | None = None,
                 setup: JustifiedTheory | None = None,
                 assert_constraint: bool = True) -> None:
        self.theory = theory
        self.cfg = config or SolverConfig()
        self.setup = setup = setup or build_justification_maps(theory)
        n_atoms = theory.n_atoms
        self.values = [0] * (n_atoms + 1)  # 0 unknown, 1 true, -1 false
        self.levels = [0] * (n_atoms + 1)
        # the clause that implied each atom, None for a decision
        self.reasons: list[list[int] | None] = [None] * (n_atoms + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.flipped: list[bool] = []
        # CPython 3.11 lets the instances of a class share one key table
        # for at most 29 attributes set here.  Past that, each Solver carries
        # a dict of its own and every attribute read slows, by about 15% of
        # `solve()` time on the small theories of the `random` benchmark.
        self.qhead = 0  # where unit propagation reads the trail next
        self.clauses = clauses = completion_clauses(theory.definition)
        # unit clauses are enqueued at the root instead of watched
        self.watches: dict[int, list[list[int]]] = {}
        # in clause order; built here, since a scan of the clauses at each
        # solve took about 7% of `solve()` time on the `random` benchmark
        self._root_units: list[list[int]] = []
        unit = self._root_units.append
        watch = self.watches.setdefault
        for clause in clauses:
            if len(clause) == 1:
                unit(clause)
            else:
                watch(clause[0], []).append(clause)
                watch(clause[1], []).append(clause)
        if assert_constraint:
            clauses.append([theory.theory_atom])
            unit(clauses[-1])
        self.n_problem_clauses = len(clauses)
        self.phase = [False] * (n_atoms + 1)
        self.stats = SolveStats()
        self.order = ActivityOrder(n_atoms)
        self.loop = LoopPart(setup, self.values, self.trail)
        cfg = self.cfg
        # only the early stop and the filter read justified status
        self.justifier = (Justifier(setup)
                          if cfg.relevance_filter or cfg.stop_on_justified else None)
        # the tracker reads the justifier's graph and statuses in place
        self.tracker = (RelevanceTracker.for_theory(theory, setup.graph, debug=cfg.debug,
                                                    values=self.justifier.values)
                        if cfg.relevance_filter else None)

    # -- assignment primitives ----------------------------------------------

    def lit_value(self, lit: int) -> int:
        value = self.values[abs(lit)]
        return value if lit > 0 else -value

    def interpretation(self) -> PartialInterpretation:
        return PartialInterpretation.from_literals(
            [atom if value > 0 else -atom
             for atom, value in enumerate(self.values) if value])

    @property
    def level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        # `propagate_unit` inlines this for the literals it implies
        values = self.values
        atom = abs(lit)
        if values[atom]:
            return values[atom] == (1 if lit > 0 else -1)
        values[atom] = 1 if lit > 0 else -1
        self.levels[atom] = len(self.trail_lim)
        self.reasons[atom] = reason
        self.trail.append(lit)
        if reason is not None:
            self.stats.propagations += 1
        return True

    def _enqueue_root_units(self) -> bool:
        """Assign the literal of each unit clause of the problem, in clause
        order, with the clause as its reason; False when one is false."""
        for unit in self._root_units:
            if not self._enqueue(unit[0], unit):
                return False
        return True

    def _backtrack(self, target_level: int) -> None:
        if target_level < len(self.trail_lim) and self.justifier is not None:
            self.justifier.backtrack(target_level, self.trail_lim[target_level])
        values = self.values
        order = self.order
        order.restore_side()
        key = order.key
        activity = order.activity
        heap = order.heap
        while len(self.trail_lim) > target_level:
            start = self.trail_lim.pop()
            self.flipped.pop()
            while len(self.trail) > start:
                lit = self.trail.pop()
                atom = abs(lit)
                value = values[atom]
                if key[atom] is None:
                    key[atom] = -activity[atom]
                    heappush(heap, (key[atom], atom))
                self.phase[atom] = value > 0
                values[atom] = 0
                self.reasons[atom] = None
        self.qhead = self.loop.head = len(self.trail)

    def _sync_justifier(self) -> Justifier:
        """Bring the justifier up to date with the trail; with `debug=True`,
        check its set against a fresh justifier's."""
        justifier = self.justifier or Justifier(self.setup)
        justifier.sync(self.trail, self.trail_lim)
        if self.cfg.debug:
            fresh = Justifier(self.setup)
            fresh.sync(self.trail, [])  # the trail's open literals, at level 0
            if fresh.justified_literals() != justifier.justified_literals():
                raise AssertionError(
                    f"the justifier has {sorted(justifier.justified_literals())}, "
                    f"a fresh one {sorted(fresh.justified_literals())}")
        return justifier

    def _sync_tracker(self) -> None:
        """Note to the tracker the statuses that may have changed since the
        last sync (`Justifier.take_changed`)."""
        self.tracker.note_changed(self.justifier.take_changed())

    # -- clause database ------------------------------------------------------

    def _add_learned_clause(self, clause: list[int]) -> list[int]:
        """Store and watch a learned clause; returns it."""
        self.clauses.append(clause)
        self.stats.learned_clauses += 1
        if len(clause) >= 2:
            watch = self.watches.setdefault
            watch(clause[0], []).append(clause)
            watch(clause[1], []).append(clause)
        return clause

    # -- propagation ----------------------------------------------------------

    def propagate_unit(self) -> list[int] | None:
        """Unit propagation from `qhead` to a fixpoint; returns the
        conflicting clause if any.  A conflict ends the call with literals
        left unread; the backjump that follows resets the head.

        It simplifies at the root on the way: a visited clause whose first
        literal is true at level 0 is dropped from the watch list, and the
        search for a new watch deletes each literal at position 2 or later
        that is false at level 0.  See the module docstring for why that
        changes no counter.

        The hottest loop of the search, so it reads values and assigns the
        implied literals inline instead of calling `lit_value` and
        `_enqueue`, with the solver's state bound to locals.
        """
        trail = self.trail
        start = len(trail)
        watches = self.watches
        values = self.values
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        conflict = None
        # a list iterator, started at the head, also yields the literals
        # appended while it runs
        reading = iter(trail)
        reading.__setstate__(self.qhead)
        for falsified in map(neg, reading):
            watchlist = watches.get(falsified)
            if not watchlist:
                continue
            kept: list[list[int]] = []
            for i, clause in enumerate(watchlist):
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                value = values[first] if first > 0 else -values[-first]
                if value == 1:
                    # a clause true at the root is true for good
                    if levels[first if first > 0 else -first]:
                        kept.append(clause)
                    continue
                k = 2
                end = len(clause)
                while k < end:
                    lit = clause[k]
                    if (values[lit] if lit > 0 else -values[-lit]) != -1:
                        clause[1] = lit
                        clause[k] = falsified
                        watches.setdefault(lit, []).append(clause)
                        break
                    if levels[lit if lit > 0 else -lit]:
                        k += 1
                    else:  # false at the root, so false for good
                        del clause[k]
                        end -= 1
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

    def propagate_unfounded(self) -> list[int] | None:
        """Falsify the greatest unfounded set that `LoopPart.unfounded`
        finds, in rule order, each atom with an external-bodies reason: its
        negation and every false literal that blocks the set's bodies."""
        values = self.values
        rules = self.loop.rules
        unfounded = self.loop.unfounded()
        conflict = None
        if unfounded:
            self.stats.unfounded_sets += 1
            blockers: list[int] = []
            for atom in unfounded:
                _, conjunctive, body = rules[atom]
                for lit in body:
                    if (values[lit] if lit > 0 else -values[-lit]) == -1:
                        if lit not in blockers:
                            blockers.append(lit)
                        if conjunctive:
                            break
            for atom in unfounded:
                clause = self._add_learned_clause(
                    [-atom] + [b for b in blockers if b != -atom])
                if not self._enqueue(-atom, clause):
                    conflict = clause
                    break
        if self.cfg.debug and conflict is None:
            self.loop.check(self.levels)
        return conflict

    def propagate(self) -> list[int] | None:
        """Interleave unit and unfounded-set propagation to a joint fixpoint."""
        while True:
            conflict = self.propagate_unit()
            if conflict is not None or not self.loop.rules:
                return conflict
            before = len(self.trail)
            conflict = self.propagate_unfounded()
            if conflict is not None:
                return conflict
            if len(self.trail) == before:
                return None

    # -- conflict analysis ------------------------------------------------------

    def analyze_conflict(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to: the
        highest level among the other literals, taken from the first literal
        at that level, which goes to position 1."""
        levels = self.levels
        trail = self.trail
        reasons = self.reasons
        current = len(self.trail_lim)
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        p: int | None = None
        reason = conflict
        index = len(trail) - 1
        bump = self.order.bump
        while True:
            for lit in reason:
                if p is not None and lit == p:
                    continue
                atom = abs(lit)
                if atom not in seen and levels[atom] > 0:
                    seen.add(atom)
                    bump(atom)
                    if levels[atom] == current:
                        counter += 1
                    else:
                        learned.append(lit)
            while abs(trail[index]) not in seen:
                index -= 1
            p = trail[index]
            index -= 1
            seen.remove(abs(p))
            counter -= 1
            if counter == 0:
                break
            reason = reasons[abs(p)]
            assert reason is not None, "non-UIP literal without a reason"
        learned.insert(0, -p)
        if len(learned) == 1:
            return learned, 0
        best = 1
        backjump = levels[abs(learned[1])]
        for i in range(2, len(learned)):
            level = levels[abs(learned[i])]
            if level > backjump:
                best, backjump = i, level
        learned[1], learned[best] = learned[best], learned[1]
        return learned, backjump

    # -- decisions ----------------------------------------------------------------

    def _pick_atom(self, restrict_relevant: bool) -> tuple[int, bool, bool] | None:
        """Best unassigned decidable atom by activity (ties: lowest id),
        relevant in some polarity when `restrict_relevant` is set.

        Returns (atom, positive_relevant, negative_relevant); None when no
        atom qualifies.  A filtered pick asks the tracker only about the
        atoms it pops, and leaves those irrelevant in both polarities on
        the order's side list; an unfiltered one first puts the side list
        back into the heap.
        """
        order = self.order
        if not restrict_relevant:
            order.restore_side()
            return order.pop(self.values, None)
        if self.cfg.debug:
            self._check_order()
            self._check_watches()
        return order.pop(self.values, self.tracker)

    def _check_watches(self) -> None:
        """Watch invariant, checked at each filtered pick in debug mode;
        raises AssertionError on breakage.  A clause of two or more literals
        is watched only on its first two.  A clause that is not true at
        level 0 is watched on both.  Every watch holds a stored clause."""
        root = set(self.trail[:self.trail_lim[0] if self.trail_lim else None])
        # the id of each watched clause -> the literal of the first watch
        # seen, or 0 once both are seen
        watched: dict[int, int] = {}
        for lit, watchlist in self.watches.items():
            for clause in watchlist:
                key = id(clause)
                seen = watched.get(key)
                if seen == lit or seen == 0 or lit not in clause[:2]:
                    raise AssertionError(f"clause {clause} is watched on {lit}")
                watched[key] = lit if seen is None else 0
        for clause in self.clauses:
            seen = watched.pop(id(clause), None)
            if seen == 0 or len(clause) < 2 and seen is None:
                continue
            if len(clause) < 2 or root.isdisjoint(clause):
                raise AssertionError(f"clause {clause} is not watched on both "
                                     "of its first two literals")
        if watched:
            raise AssertionError("a watch holds a clause that is not stored")

    def _check_order(self) -> None:
        """Order and relevance invariants, checked at each filtered pick in
        debug mode; raises AssertionError on breakage.  The tracker's
        relevant literals are exactly those reachable from the unjustified
        theory atom through unjustified literals.  Each side-listed atom is
        irrelevant in both polarities, and each other unassigned atom has a
        live heap entry.  Reads `relevant_literals`, which the
        query count leaves out."""
        order = self.order
        tracker = self.tracker
        relevant = tracker.relevant_literals()
        reachable = tracker.graph.reachable(self.theory.theory_atom,
                                            tracker.justified_literals())
        if relevant != reachable:
            raise AssertionError(
                f"tracker misses {sorted(reachable - relevant)} "
                f"and adds {sorted(relevant - reachable)}")
        side = set(order.side)
        for atom in side:
            if atom in relevant or -atom in relevant:
                raise AssertionError(f"side-listed atom {atom} is relevant")
        entries = set(order.heap)
        for atom in range(1, len(self.values)):
            if self.values[atom] or atom in side:
                continue
            key = order.key[atom]
            if key != -order.activity[atom] or (key, atom) not in entries:
                raise AssertionError(f"unassigned atom {atom} has no live heap entry")

    def _decision_literal(self, atom: int, pos_relevant: bool, neg_relevant: bool) -> int:
        if pos_relevant != neg_relevant:
            return atom if pos_relevant else -atom
        return atom if self.phase[atom] else -atom

    def _decide(self, lit: int, flipped: bool = False) -> None:
        self.trail_lim.append(len(self.trail))
        self.flipped.append(flipped)
        self.stats.decisions += 1
        self._enqueue(lit, None)

    def _flip_most_recent_decision(self) -> bool:
        """The solver's answer to an empty relevant set: revisit the deepest
        not-yet-flipped decision with its other polarity (no learned clause).
        False when every decision is flipped already."""
        for index in range(len(self.trail_lim) - 1, -1, -1):
            if not self.flipped[index]:
                decision = self.trail[self.trail_lim[index]]
                self._backtrack(index)
                self._decide(-decision, flipped=True)
                return True
        return False

    def report_justified_log2(self) -> int:
        """The n of the 2^n models represented by the current justifying
        assignment: the number of unassigned open atoms."""
        if self._sync_justifier().values[self.theory.theory_atom] != 1:
            raise ValueError("theory atom is not justified in the current state")
        return sum(1 for atom in self.theory.opens if self.values[atom] == 0)

    # -- main loop ------------------------------------------------------------------

    def solve(self) -> SolveResult:
        start = time.monotonic()
        try:
            status, witness = self._search(start)
        finally:
            self.stats.wall_ms = int((time.monotonic() - start) * 1000)
            if self.tracker is not None:
                self.stats.relevance_queries = self.tracker.query_count
        return SolveResult(status, witness, self.stats)

    def _search(self, start: float) -> tuple[str, PartialInterpretation | None]:
        cfg = self.cfg
        theory_atom = self.theory.theory_atom
        if not self._enqueue_root_units():
            return "unsat", None
        luby_index = 1
        restart_limit = LUBY_UNIT * _luby(luby_index)
        conflicts_here = 0
        while True:
            conflict = self.propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if self.level == 0:
                    return "unsat", None
                if (cfg.max_conflicts is not None
                        and self.stats.conflicts > cfg.max_conflicts):
                    raise BudgetExhausted("conflict budget exhausted", self.stats)
                learned, backjump_level = self.analyze_conflict(conflict)
                self._backtrack(backjump_level)
                self._enqueue(learned[0], self._add_learned_clause(learned))
                self.order.inc /= VSIDS_DECAY
                if conflicts_here >= restart_limit:
                    luby_index += 1
                    restart_limit = LUBY_UNIT * _luby(luby_index)
                    conflicts_here = 0
                    if self.level > 0:
                        self.stats.restarts += 1
                        self._backtrack(0)
                continue
            if (cfg.time_limit is not None
                    and time.monotonic() - start > cfg.time_limit):
                raise BudgetExhausted("time budget exhausted", self.stats)
            justified = (self.justifier is not None
                         and self._sync_justifier().values[theory_atom] == 1)
            if cfg.stop_on_justified and justified:
                self.stats.stopped_early = True
                self.stats.models_represented_log2 = self.report_justified_log2()
                return "sat", self.interpretation()
            use_filter = cfg.relevance_filter and not justified
            if use_filter:
                self._sync_tracker()
            picked = self._pick_atom(restrict_relevant=use_filter)
            if picked is not None:
                atom, pos, neg = picked
                self._decide(self._decision_literal(atom, pos, neg))
                continue
            if not self.order.side:  # every decidable atom is assigned
                return "sat", self.interpretation()
            # nothing is relevant, yet atoms remain and the theory atom is
            # not justified: flip the deepest unflipped decision, and answer
            # unsat when none is left
            if not self._flip_most_recent_decision():
                return "unsat", None


def _luby(i: int) -> int:
    """Luby restart sequence 1 1 2 1 1 2 4 ..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << k) - 1  # drop the completed block
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


def solve(theory: DefnfTheory, config: SolverConfig | None = None) -> SolveResult:
    """Solve a theory with a fresh solver instance."""
    return Solver(theory, config).solve()


def defined_fixpoint(theory: DefnfTheory,
                     open_literals: list[int]) -> dict[int, TruthValue]:
    """Values of the original defined atoms at the propagation fixpoint when
    only the given open literals are set (no constraint asserted, nothing
    decided).  This is the propagation side of the propagation/justifiedness
    correspondence."""
    solver = Solver(theory,
                    SolverConfig(relevance_filter=False, stop_on_justified=False),
                    assert_constraint=False)
    if not solver._enqueue_root_units():
        raise ValueError("definition is contradictory at the root")
    opens = theory.opens
    for lit in open_literals:
        if abs(lit) not in opens:
            raise ValueError(f"literal {lit} is not over an open atom")
        if not solver._enqueue(lit, None):
            raise ValueError(f"contradictory open literal {lit}")
    conflict = solver.propagate()
    if conflict is not None:
        raise ValueError("propagation conflict from open literals alone")
    return {atom: TruthValue(solver.values[atom]) for atom in sorted(theory.defined)}

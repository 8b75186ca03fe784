"""CDCL search over rule completions plus unfounded-set propagation.

The solver works on the original rules and their justification copy, never
built as rules: unit propagation runs on their completion clauses with two
watched literals, unfounded-set propagation falsifies defined atoms that lost
external support, and conflicts are analyzed to the first unique implication
point.  Justification atoms are never decided, so their values are produced
by propagation alone and track justified status exactly.  With the relevance
filter on, decisions are restricted to atoms that are relevant in at least
one polarity, and search can stop as soon as the theory atom's justification
atom becomes true.

Unit propagation runs the cheap clauses before the costly ones, the order
in which clasp runs its propagators (Gebser, Kaufmann and Schaub, AIJ 2012).
The base table watches the base rules' completion clauses and every
learned clause; the copy table watches the copy's completion clauses.
Watch lists and reasons hold the clauses themselves.  Each table has its
own queue head over the one trail.  The base phase runs to its fixpoint
first, and the copy phase reads the trail only after a base fixpoint
without a conflict, so a level that ends in a base conflict reads no copy
clause and assigns no justification literal.  Whenever the copy phase
assigns a literal, the base phase runs again and reads it too, since a
learned clause may watch a justification literal and a copy clause may
imply an open one.  So every call ends at a joint fixpoint of both tables
or at a conflict.

The phases leave the decisions, conflicts and learned clauses as they were,
and change only the `propagations` count, because the copy mirrors the base.
Each copy clause is a base clause with every defined atom renamed to its
justification atom, and justification atoms are never decided.  While every
true justification literal's original is true as well, a copy clause turns
unit only on the image of a literal that its base clause has already
implied.  At a base fixpoint without a conflict, the copy then adds only
such images: it neither conflicts nor assigns a base atom.  The base phase
therefore reads the base literals, and visits the base clauses, in the order
that one table for all clauses would, and it reaches the same conflict with
the same reasons.  A joint fixpoint assigns the same set of literals as
well, and decisions, the unfounded-set pass, the tracker's sync and the
early stop read only that set.  What moves is the count: a one-table pass
also assigns the copy's literals on a level before its base conflict shows
up, and the phases assign none of them.  A learned clause that sets a
justification literal ahead of its original can break the mirror.  The
phases still end at a joint fixpoint then, but a conflict could be found in
another order than one table finds it.  The tests compare the two orders on
random, non-total and 3-SAT theories and find the same answers, decisions,
conflicts and learned clauses.

The relevance tracker hears about assignments only right before a filtered
decision, and nothing is recorded per assignment.  The tracked literals are
those whose assignments carry justification information: the keys of the
justifier's event-to-status map (`JustificationMaps.status_change`), which
the tracker reads too.  `_heard` is the trail length at the last sync, and
the trail below it has not changed since.  A backtrack below it moves the
heard literals it undoes to `_unheard`, with one slice, and lowers `_heard`;
no literal enters twice, so `_unheard` holds at most one literal per atom.
`_sync_tracker` then diffs the trail: each tracked literal of `_unheard`
that is not true again becomes unknown, and each tracked literal on the
trail from `_heard` on that was not already heard becomes true.  These are
the net changes since the last sync.  An assignment undone and redone
between two decisions, by a backjump, a restart or a chronological flip, is
never sent, and neither is anything assigned after the last decision.  An
unfiltered solver never syncs, so `_heard` stays 0 and it records nothing.
At each filtered decision the tracker's justified set is exactly the one
the current assignment implies, and the tracker's next read settles the
whole sync as one batch.  After a settle the tracker is exact (see
`relevance`): its relevant set is the set of literals reachable from the
unjustified theory atom through unjustified literals, a function of the
justified set alone, even though its watches depend on the order and
batching of events.  So at every filtered decision deferred and eager
notification give the same relevant set, every relevance query gets the
same answer, and the two make the same decisions.

Decisions come from an activity heap, as in MiniSat (Eén and Sörensson, SAT
2003): the most active unassigned atom that is not a justification atom,
ties broken by the lowest id (`ActivityOrder`).  A filtered pick pops atoms
and asks the tracker only about the one popped.  Assigned atoms are dropped
until a backtrack undoes them, and an atom irrelevant in both polarities
goes to a side list, which the next backtrack or unfiltered pick puts back
into the heap.  That is sound because relevance only shrinks between two
backtracks.  A backtrack empties the side list before the sync that sends
its `notify_becomes_unknown` events, and until the next one the tracker
hears only `notify_becomes_true`.  The justified set then only grows, so the
reachable set, which is the relevant set, only shrinks, and an atom
irrelevant in both polarities stays so until the next backtrack.  The picks
are therefore the ones a scan over all atoms would make.  With `debug=True`
each filtered pick checks that the relevant set is the reachable one, that
every side-listed atom is still irrelevant and that every other unassigned
atom has a live heap entry.  When a pick finds nothing, the side list holds
exactly the unassigned decidable atoms, so an empty side list means that
every one is assigned.

Unfounded-set propagation only ever looks at the loop part of the
definition: the defined atoms that lie on a positive loop or depend
positively on one, and their justification copies, found once at
construction by peeling the loop-free atoms off the positive edges of the
theory's one dependency graph, `JustifiedTheory.graph`, which the relevance
tracker watches too (`DependencyGraph.loop_atoms`).  That is exact at a
unit-propagation fixpoint.  Suppose the unfounded set held peeled atoms, and
take the one peeled first.  None of its positive defined body atoms is in
the set (they were all peeled before it), so its body lacks support only if
the body is false.  The completion clause for that body would then have made
the atom false, and false atoms are never in the set.  A definition without
positive loops therefore never runs the pass.

Within the loop part the check is incremental, with source pointers as in
SAT(ID) (Mariën et al., SAT 2008).  Each founded loop atom keeps a source:
its conjunctive body, or one of its disjuncts.  After every pass that ends
without a conflict, each non-false loop atom has a source with no false
literal, every loop atom in a source has a source itself, and the sources
form no cycle.  The atoms with a source are then exactly the founded ones.
So a pass only has to look again at the atoms whose source lost a literal
that turned false since the last pass, and at the atoms whose sources hold
those.  The first pass finds every source with a worklist.  It runs at
level 0, where search and `defined_fixpoint` start, so the atoms it leaves
without a source stay false for good.

Sources are not restored on backtrack.  A false atom keeps its source when
a literal of it turns false, and an unfounded atom keeps the source it
lost.  Search decides only after a complete pass, and a conflict backjumps
below the current level, so a pass reads only literals of the current level.
An unfounded atom is therefore falsified at the level of the literal that
broke its source.  A literal that turns false after an atom became false
lies at that atom's level or above, because trail levels never decrease
along the trail.  Either way, any backtrack that unassigns a false atom also
unassigns every false literal of its source.  A backtrack makes no literal
false, so each source that was valid stays valid, and the invariant holds
again after it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg

from .core import (DefnfTheory, PartialInterpretation, TruthValue,
                   completion_clauses, cyclic_literals)
from .justifier import JustifiedTheory, build_justification_maps
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

    def witness_restricted(self, theory: DefnfTheory) -> PartialInterpretation | None:
        if self.witness is None:
            return None
        return self.witness.restrict(theory.atoms.atoms())


class BudgetExhausted(RuntimeError):
    """Conflict or time budget ran out before an answer."""

    def __init__(self, message: str, stats: SolveStats) -> None:
        super().__init__(message)
        self.stats = stats


class ActivityOrder:
    """VSIDS activities and a lazy activity heap over the decidable atoms.

    `heap` holds (-activity, atom) entries, so the most active atom comes
    out first and ties go to the lowest id.  `key[atom]` is the key of the
    atom's live entry, or None when it has none: an entry whose key differs
    is stale and skipped when popped.  A bump pushes a fresh entry instead
    of moving the old one, and the heap is rebuilt from the live keys when
    stale entries make up most of it.  `side` holds the atoms a filtered
    pick found irrelevant in both polarities, until the next backtrack or
    unfiltered pick puts them back.
    """

    def __init__(self, n_atoms: int, undecidable: frozenset[int]) -> None:
        self.activity = [0.0] * (n_atoms + 1)
        self.inc = 1.0
        self.key: list[float | None] = [0.0] * (n_atoms + 1)
        self.key[0] = None
        for atom in undecidable:
            self.key[atom] = None
        # in ascending order, which is already a heap
        self.heap = [(0.0, atom) for atom, key in enumerate(self.key)
                     if key is not None]
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
        n_atoms = setup.n_atoms
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
        # where the base phase, the copy phase and the unfounded-set pass
        # read the trail next
        self.qheads = [0, 0, 0]
        # the base rules' clauses, then the copies': each a base one renamed
        self.clauses = clauses = completion_clauses(setup.base.definition)
        copies = setup.maps.translate(clauses)
        # the base table watches every clause but the copies', which the
        # copy table watches; unit clauses are enqueued at the root instead
        self.watches: tuple[dict[int, list[list[int]]], ...] = ({}, {})
        # in clause order; built here, since a scan of the clauses at each
        # solve took about 7% of `solve()` time on the `random` benchmark
        self._root_units: list[list[int]] = []
        unit = self._root_units.append
        for table, group in zip(self.watches, (clauses, copies)):
            watch = table.setdefault
            for clause in group:
                if len(clause) == 1:
                    unit(clause)
                else:
                    watch(clause[0], []).append(clause)
                    watch(clause[1], []).append(clause)
        clauses += copies
        if assert_constraint:
            clauses.append([theory.theory_atom])
            unit(clauses[-1])
        self.n_problem_clauses = len(clauses)
        self.phase = [False] * (n_atoms + 1)
        self.stats = SolveStats()
        self.order = ActivityOrder(n_atoms, setup.maps.just_atoms)
        self._init_loop_part()
        self.tracker = (RelevanceTracker.for_theory(theory, setup,
                                                    debug=self.cfg.debug)
                        if self.cfg.relevance_filter else None)
        # the trail length at the last sync: `trail[:_heard]` has not changed
        # since, and `_unheard` holds the literals the tracker heard as true
        # that a backtrack has undone since
        self._heard = 0
        self._unheard: list[int] = []

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
        # the heard literals this undoes wait in `_unheard` for the next sync
        if target_level < len(self.trail_lim):
            start = self.trail_lim[target_level]
            if start < self._heard:
                self._unheard += self.trail[start:self._heard]
                self._heard = start
        values = self.values
        order = self.order
        order.restore_side()
        key = order.key
        activity = order.activity
        heap = order.heap
        just_atoms = self.setup.maps.just_atoms
        while len(self.trail_lim) > target_level:
            start = self.trail_lim.pop()
            self.flipped.pop()
            while len(self.trail) > start:
                lit = self.trail.pop()
                atom = abs(lit)
                value = values[atom]
                if key[atom] is None and atom not in just_atoms:
                    key[atom] = -activity[atom]
                    heappush(heap, (key[atom], atom))
                self.phase[atom] = value > 0
                values[atom] = 0
                self.reasons[atom] = None
        heads = self.qheads
        heads[0] = heads[1] = heads[2] = len(self.trail)

    def _sync_tracker(self) -> None:
        """Tell the tracker the net change of every tracked literal since the
        last sync, read off the trail.  First each literal of `_unheard`
        becomes unknown unless it is true again; then each literal on the
        trail from `_heard` on becomes true unless it is one of those.
        Assignments undone before a sync are never sent."""
        tracker = self.tracker
        tracked = self.setup.maps.status_change
        values = self.values
        again: set[int] = set()
        for lit in self._unheard:
            if lit in tracked:
                if (values[lit] if lit > 0 else -values[-lit]) == 1:
                    again.add(lit)
                else:
                    tracker.notify_becomes_unknown(lit)
        trail = self.trail
        for lit in trail[self._heard:]:
            if lit in tracked and lit not in again:
                tracker.notify_becomes_true(lit)
        self._heard = len(trail)
        self._unheard.clear()

    # -- clause database ------------------------------------------------------

    def _add_learned_clause(self, clause: list[int]) -> list[int]:
        """Store and watch a learned clause; returns it."""
        self.clauses.append(clause)
        self.stats.learned_clauses += 1
        if len(clause) >= 2:
            watch = self.watches[0].setdefault
            watch(clause[0], []).append(clause)
            watch(clause[1], []).append(clause)
        return clause

    # -- propagation ----------------------------------------------------------

    def propagate_unit(self) -> list[int] | None:
        """Unit propagation to a joint fixpoint of both watch tables; returns
        the conflicting clause if any.

        The base phase reads the trail from `qheads[0]` against the base
        table to its fixpoint, and stops at the first conflict.  Only then
        does the copy phase read the trail from `qheads[1]` against the
        copy table.  When it assigns anything, the base phase runs again
        over what it assigned, and so on until neither phase has a literal
        left to read.  A conflict ends the call with literals left unread;
        the backjump that follows resets both heads.  See the module
        docstring for why the order moves only the `propagations` count.

        The hottest loop of the search, so it reads values and assigns the
        implied literals inline instead of calling `lit_value` and
        `_enqueue`, with the solver's state bound to locals.
        """
        trail = self.trail
        start = len(trail)
        tables = self.watches
        heads = self.qheads
        values = self.values
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        conflict = None
        phase = 0
        while True:
            watches = tables[phase]
            # a list iterator, started at the phase's head, also yields the
            # literals appended while it runs
            reading = iter(trail)
            reading.__setstate__(heads[phase])
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
            heads[phase] = len(trail)
            phase = 1 - phase
            if conflict is not None or heads[phase] == len(trail):
                break
        self.stats.propagations += len(trail) - start
        return conflict

    def _init_loop_part(self) -> None:
        """Index the rules that unfounded-set propagation has to look at.

        `_loop_rules` maps each defined atom that is loop-dependent in the
        original definition, and its copy (whose body is the base body
        renamed), to (position, conjunctive, body).  Its order is rule
        order: the base loop rules, then their copies in the same order.
        That order fixes the order in which unfounded atoms are falsified
        and their reason clauses added.  `_loop_watches` maps each body
        literal of these rules to their heads, once per occurrence: the
        heads whose source can hold the literal.  The sources themselves are
        found by the first pass.
        """
        self._loop_rules: dict[int, tuple[int, bool, tuple[int, ...]]] = {}
        self._loop_watches: dict[int, list[int]] = {}
        # per atom: 0 for a conjunctive head (its source is the whole body),
        # the source literal for a disjunctive one, None for no source; the
        # list is made by the first pass
        self._source: list[int | None] | None = None
        loop = self.setup.graph.loop_atoms()
        if not loop:
            return
        base = [rule for rule in self.setup.base.definition if rule.head in loop]
        rules = self._loop_rules
        for rule in base:
            rules[rule.head] = (len(rules), rule.conjunctive, rule.body)
        to_just = self.setup.maps.to_just
        for rule, copy in zip(base, self.setup.maps.translate(r.body for r in base)):
            rules[to_just[rule.head]] = (len(rules), rule.conjunctive, tuple(copy))
        watches = self._loop_watches
        for head, (_, _, body) in rules.items():
            for lit in body:
                watches.setdefault(lit, []).append(head)

    def propagate_unfounded(self) -> list[int] | None:
        """Falsify one maximal unfounded set, with external-bodies reasons.

        A non-false defined atom is founded when some rule can still support
        it from outside the unfounded candidates: a conjunctive body with no
        false literal and every positive defined atom itself founded, or some
        such disjunct.  Everything left over is propagated false together,
        in `_loop_rules` order: the base rules', then the copies', each in
        rule order.

        Only the loop part of the definition is checked, and only where a
        source literal turned false (see the module docstring for the
        source invariant and why backtracking needs no undo).  The first
        pass finds the sources of the whole loop part.  Every later pass
        reads the trail from `qheads[2]`, the way `propagate_unit`'s phases
        read it from the other two heads, finds the atoms whose sources lost support and looks
        for new sources for just those atoms, bottom-up.  The atoms left
        without one are the greatest unfounded set.  A pass that reads no
        source literal does nothing more.
        """
        values = self.values
        rules = self._loop_rules
        if self._source is None:
            self._source = [None] * len(values)
            self.qheads[2] = len(self.trail)
            # in `_loop_rules` order, and so are the atoms left unfounded
            unfounded = self._find_sources(dict.fromkeys(rules))
        else:
            lost = self._lost_sources()
            unfounded = self._find_sources(lost) if lost else []
            if len(unfounded) > 1:
                unfounded.sort(key=rules.__getitem__)  # by position
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
            self._check_sources()
        return conflict

    def _lost_sources(self) -> dict[int, None]:
        """Read the trail from `qheads[2]`; returns the non-false loop atoms
        whose source holds a literal that turned false, or an atom returned
        before it.  Their `_source` entries are left as they are."""
        values = self.values
        source = self._source
        watches = self._loop_watches
        trail = self.trail
        heads = self.qheads
        unsupported = list(map(neg, trail[heads[2]:]))
        heads[2] = len(trail)
        lost: dict[int, None] = {}
        for lit in unsupported:  # grows while it is walked: the worklist
            for head in watches.get(lit, ()):
                if head not in lost and values[head] != -1:
                    held = source[head]
                    if held == 0 or held == lit:
                        lost[head] = None
                        unsupported.append(head)
        return lost

    def _find_sources(self, lost: dict[int, None]) -> list[int]:
        """Give new sources to as many of the non-false `lost` atoms as can
        have one, bottom-up; returns the others, in the order of `lost`.

        A literal outside `lost` supports when it is not false.  The founded
        atoms grow from a worklist with one counter per rule, so this takes
        time linear in the rules of the `lost` atoms and their parents.
        """
        values = self.values
        source = self._source
        rules = self._loop_rules
        # lost head -> founded body atoms it still needs; 0 marks a
        # conjunctive head with a false body literal, which never gets founded
        need: dict[int, int] = {}
        founded: list[int] = []
        for head in lost:
            if values[head] == -1:
                continue
            _, conjunctive, body = rules[head]
            if conjunctive:
                missing = 0
                for lit in body:
                    if (values[lit] if lit > 0 else -values[-lit]) == -1:
                        need[head] = 0
                        break
                    if lit in lost:
                        missing += 1
                else:
                    if missing:
                        need[head] = missing
                    else:
                        source[head] = 0
                        founded.append(head)
            else:
                for lit in body:
                    if (lit not in lost
                            and (values[lit] if lit > 0 else -values[-lit]) != -1):
                        source[head] = lit
                        founded.append(head)
                        break
                else:
                    need[head] = 1
        watches = self._loop_watches
        for atom in founded:  # grows while it is walked: the worklist
            for head in watches.get(atom, ()):
                missing = need.get(head)
                if missing == 1:
                    del need[head]
                    founded.append(head)
                    source[head] = 0 if rules[head][1] else atom
                elif missing:
                    need[head] = missing - 1
        return list(need)

    def _check_sources(self) -> None:
        """Full-scan source invariant, checked after each pass in debug
        mode; raises AssertionError on breakage.  A loop atom without a
        source is false at level 0.  A non-false atom's source has no false
        literal, and a false atom's has none below the atom's level.  The
        sources form no cycle."""
        values, levels = self.values, self.levels
        rules = self._loop_rules
        needs: dict[int, list[int]] = {}  # head -> the loop atoms in its source
        for head, (_, conjunctive, body) in rules.items():
            held = self._source[head]
            if held is None:
                if values[head] != -1 or levels[head]:
                    raise AssertionError(f"loop atom {head} has no source")
                continue
            if conjunctive != (held == 0) or (held and held not in body):
                raise AssertionError(f"{held} is not a source of {head}")
            lits = body if conjunctive else (held,)
            for lit in lits:
                if self.lit_value(lit) == -1 and (
                        values[head] != -1 or levels[abs(lit)] < levels[head]):
                    raise AssertionError(f"source of {head} has false literal {lit}")
            needs[head] = [lit for lit in lits if lit in rules]
        if cyclic_literals(needs):
            raise AssertionError("the sources form a cycle")

    def propagate(self) -> list[int] | None:
        """Interleave unit and unfounded-set propagation to a joint fixpoint."""
        while True:
            conflict = self.propagate_unit()
            if conflict is not None or not self._loop_rules:
                return conflict
            before = len(self.trail)
            conflict = self.propagate_unfounded()
            if conflict is not None:
                return conflict
            if len(self.trail) == before:
                return None

    # -- conflict analysis ------------------------------------------------------

    def analyze_conflict(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        current = self.level
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        p: int | None = None
        reason = conflict
        index = len(self.trail) - 1
        bump = self.order.bump
        while True:
            for lit in reason:
                if p is not None and lit == p:
                    continue
                atom = abs(lit)
                if atom not in seen and self.levels[atom] > 0:
                    seen.add(atom)
                    bump(atom)
                    if self.levels[atom] == current:
                        counter += 1
                    else:
                        learned.append(lit)
            while abs(self.trail[index]) not in seen:
                index -= 1
            p = self.trail[index]
            index -= 1
            seen.remove(abs(p))
            counter -= 1
            if counter == 0:
                break
            reason = self.reasons[abs(p)]
            assert reason is not None, "non-UIP literal without a reason"
        learned.insert(0, -p)
        if len(learned) == 1:
            return learned, 0
        best = max(range(1, len(learned)), key=lambda i: self.levels[abs(learned[i])])
        learned[1], learned[best] = learned[best], learned[1]
        return learned, self.levels[abs(learned[1])]

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
        return order.pop(self.values, self.tracker)

    def _check_order(self) -> None:
        """Order and relevance invariants, checked at each filtered pick in
        debug mode; raises AssertionError on breakage.  The tracker's
        relevant literals are exactly those reachable from the unjustified
        theory atom through unjustified literals.  Each side-listed atom is
        irrelevant in both polarities, and each other unassigned decidable
        atom has a live heap entry.  Reads `relevant_literals`, which the
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
        just_atoms = self.setup.maps.just_atoms
        for atom in range(1, len(self.values)):
            if self.values[atom] or atom in side or atom in just_atoms:
                continue
            key = order.key[atom]
            if key != -order.activity[atom] or (key, atom) not in entries:
                raise AssertionError(f"unassigned atom {atom} has no live heap entry")

    def _decision_literal(self, atom: int, pos_relevant: bool, neg_relevant: bool) -> int:
        if pos_relevant != neg_relevant:
            return atom if pos_relevant else -atom
        return atom if self.phase[atom] else -atom

    def _decide(self, lit: int, flipped: bool = False) -> None:
        assert abs(lit) not in self.setup.maps.just_atoms, "justification atoms are never decided"
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
        if self.lit_value(self.setup.just_theory_atom) != 1:
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
        j_theory_atom = self.setup.just_theory_atom
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
            if cfg.stop_on_justified and self.lit_value(j_theory_atom) == 1:
                self.stats.stopped_early = True
                self.stats.models_represented_log2 = self.report_justified_log2()
                return "sat", self.interpretation()
            justified_already = self.lit_value(j_theory_atom) == 1
            use_filter = cfg.relevance_filter and not justified_already
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

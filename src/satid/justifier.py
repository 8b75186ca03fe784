"""The justifier: the justified literals of the open literals assigned so far.

They are the literals of the well-founded model of the definition in the
context of those open literals (Van Gelder, Ross and Schlipf, JACM 1991),
the least fixpoint of the W_P operator: a head becomes true when its body
is true, and every atom of the greatest unfounded set becomes false.  The
justifier computes that fixpoint incrementally.  Each head counts the body
literals, per occurrence, still missing before its body is justified true
(all of a conjunction's, one of a disjunction's) and before it is justified
false (one of a conjunction's, all of a disjunction's), found through the
occurrence lists of the one rule index (`DependencyGraph.occurs`), and is
set when a count reaches 0; an empty body sets its head at once.  Once the
counts are at their fixpoint, `LoopPart` finds the unfounded atoms that only
a positive loop could support, with the source pointers that the solver
runs over its own values (SAT(ID), Mariën et al., SAT 2008); every other
unfounded atom has a false body, which the counts have already seen.

The justifier reads the open literals of the solver's trail level by level,
when it is synced, and closes each level that read one before it reads the
next.  Each status goes on its stack, tagged with the level it was read at
(`lim`), so every status tagged L or lower follows from open literals of
levels L and below alone.  A backtrack to level L pops exactly the statuses
tagged above L and undoes their counts; what stays is the fixpoint of the
trail that stays, and since a monotone operator's least fixpoint does not
depend on the order its consequences are drawn in, each sync ends at the
well-founded model.  `take_changed` gives the solver the statuses that may
have changed since, for the relevance tracker (see `engine`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DefnfTheory, DependencyGraph, cyclic_literals, peel


@dataclass
class JustifiedTheory:
    """A theory and the one static rule index that the justifier, the loop
    part and the relevance tracker read, built in one walk over the rules
    (`build_justification_maps`).  `graph` is the base definition's
    dependency graph, which `satid solve --dot` renders too; its `occurs`
    lists, for each body literal, the heads whose bodies hold it, once per
    occurrence.  Head atom p needs `need_true[p]` (`need_false[p]`) of its
    body literals justified true (false) to be; the counts of atoms that
    head no rule are 0 and never read.  `loop_rules` maps each loop head to
    (position, conjunctive, body), in rule order, and `loop_watches` each of
    their body literals to their heads, once per occurrence; both are empty
    when the definition has no loop.  That is `graph.occurs` cut down to
    the loop heads, kept apart so that the loop part's passes never walk
    the other heads: reading `graph.occurs` keeps every counter but makes
    search on the `random` benchmark about 3% slower.  `facts` holds the
    literal each empty body justifies at once, in rule order: p for a
    conjunctive rule, ~p for a disjunctive one; a justifier's stack starts
    with them."""

    base: DefnfTheory
    graph: DependencyGraph
    need_true: list[int]
    need_false: list[int]
    loop_rules: dict[int, tuple[int, bool, tuple[int, ...]]]
    loop_watches: dict[int, list[int]]
    facts: list[int]


def build_justification_maps(theory: DefnfTheory) -> JustifiedTheory:
    """Index a theory for the justifier, the loop part and the tracker.

    One walk over the rules fills the graph's `bodies` and `occurs`, the
    need counts and the loop peel's count per head: its positive body
    literals that some rule defines (`DependencyGraph.loop_atoms` counts
    only those that head a body, and the heads of empty bodies, which seed
    the peel here, make up the difference).  A second walk, over the rules
    of the loop heads alone, runs only when the peel leaves some."""
    definition = theory.definition
    defined = definition.defined_atoms  # no negative literal is in it
    bodies: dict[int, tuple[int, ...]] = {}
    occurs: dict[int, list[int]] = {}
    need_true = [0] * (theory.n_atoms + 1)
    need_false = need_true.copy()
    missing: dict[int, int] = {}  # the peel's unpeeled heads
    ready: list[int] = []
    facts: list[int] = []
    for rule in definition:
        head = rule.head
        body = rule.body
        if rule.conjunctive:
            need_true[head] = len(body)
            need_false[head] = 1
        else:
            need_true[head] = 1
            need_false[head] = len(body)
        if body:
            bodies[head] = body
            n_deps = 0
            for lit in body:
                if lit in occurs:
                    occurs[lit].append(head)
                else:
                    occurs[lit] = [head]
                if lit in defined:
                    n_deps += 1
            if n_deps:
                missing[head] = n_deps
                continue
        else:
            facts.append(head if rule.conjunctive else -head)
        ready.append(head)
    graph = DependencyGraph(bodies, occurs)
    loop_rules: dict[int, tuple[int, bool, tuple[int, ...]]] = {}
    loop_watches: dict[int, list[int]] = {}
    loop = peel(missing, ready, occurs) if missing else ()
    if loop:
        for rule in definition:
            if rule.head in loop:
                loop_rules[rule.head] = (len(loop_rules), rule.conjunctive, rule.body)
                for lit in rule.body:
                    loop_watches.setdefault(lit, []).append(rule.head)
    return JustifiedTheory(theory, graph, need_true, need_false,
                           loop_rules, loop_watches, facts)


class LoopPart:
    """Unfounded sets of the loop part, the defined atoms on a positive loop
    or depending positively on one, over a values array and the list of
    literals that became true in it: the solver's trail, or the justifier's
    stack.  `head` is how far the passes have read that list; whoever
    shortens it lowers `head`.

    Each founded loop atom keeps a source: its conjunctive body, or one of
    its disjuncts.  After every pass each non-false loop atom has a source
    with no false literal, every loop atom in a source has a source itself,
    and the sources form no cycle, so the atoms with a source are exactly
    the founded ones.  A pass therefore looks again only at the atoms whose
    source lost a literal that turned false since the last pass, and at the
    atoms whose sources hold those.  See `engine` for why backtracking
    needs no undo.
    """

    def __init__(self, setup: JustifiedTheory, values: list[int],
                 trail: list[int]) -> None:
        self.rules = setup.loop_rules
        self.watches = setup.loop_watches
        self.values = values
        self.trail = trail
        self.head = 0
        # per atom: 0 for a conjunctive head (its source is the whole body),
        # the source literal for a disjunctive one, None for no source; the
        # list is made by the first pass
        self.source: list[int | None] | None = None

    def unfounded(self) -> list[int]:
        """The non-false atoms of the greatest unfounded set, in `rules`
        order, for the caller to make false; exact at a fixpoint where each
        false body has made its head false (see `engine`)."""
        rules = self.rules
        if self.source is None:
            self.source = [None] * len(self.values)
            self.head = len(self.trail)
            # in `rules` order, and so are the atoms left unfounded
            return self._find_sources(dict.fromkeys(rules))
        lost = self._lost_sources()
        unfounded = self._find_sources(lost) if lost else []
        if len(unfounded) > 1:
            unfounded.sort(key=rules.__getitem__)  # by position
        return unfounded

    def _lost_sources(self) -> dict[int, None]:
        """Read the trail from `head`; returns the non-false loop atoms
        whose source holds a literal that turned false, or an atom returned
        before it.  Their `source` entries are left as they are."""
        values = self.values
        source = self.source
        watches = self.watches
        trail = self.trail
        unsupported = [-lit for lit in trail[self.head:]]
        self.head = len(trail)
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
        source = self.source
        rules = self.rules
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
        watches = self.watches
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

    def check(self, levels: list[int]) -> None:
        """Full-scan source invariant; raises AssertionError on breakage.  A
        loop atom without a source is false at level 0.  A non-false atom's
        source has no false literal, and a false atom's has none below the
        atom's level.  The sources form no cycle."""
        values = self.values
        rules = self.rules
        needs: dict[int, list[int]] = {}  # head -> the loop atoms in its source
        for head, (_, conjunctive, body) in rules.items():
            held = self.source[head]
            if held is None:
                if values[head] != -1 or levels[head]:
                    raise AssertionError(f"loop atom {head} has no source")
                continue
            if conjunctive != (held == 0) or (held and held not in body):
                raise AssertionError(f"{held} is not a source of {head}")
            lits = body if conjunctive else (held,)
            for lit in lits:
                if (values[lit] if lit > 0 else -values[-lit]) == -1 and (
                        values[head] != -1 or levels[abs(lit)] < levels[head]):
                    raise AssertionError(f"source of {head} has false literal {lit}")
            needs[head] = [lit for lit in lits if lit in rules]
        if cyclic_literals(needs):
            raise AssertionError("the sources form a cycle")


class Justifier:
    """The justified literals of the open literals read off a trail, kept
    incrementally across backtracks (see the module docstring).

    `values[atom]` is 1 when the atom is justified true, -1 when its
    negation is justified and 0 otherwise.  `stack` holds the justified
    literals in the order they were set, and `lim[L - 1]` the stack length
    where the statuses tagged L begin.  `read` is the trail position up to
    which the open literals have been read.
    """

    def __init__(self, setup: JustifiedTheory) -> None:
        self.setup = setup
        self.opens = setup.base.opens
        self.values = values = [0] * (setup.base.n_atoms + 1)
        # the empty bodies justify their heads' literals at once
        self.stack: list[int] = setup.facts.copy()
        for lit in self.stack:
            values[lit if lit > 0 else -lit] = 1 if lit > 0 else -1
        self.lim: list[int] = []
        self.read = 0
        # per head atom, the body literals still missing for each status,
        # counted up to stack position `_counted`
        self._to_true = setup.need_true.copy()
        self._to_false = setup.need_false.copy()
        self._counted = 0
        self._synced = False
        self.loop = LoopPart(setup, self.values, self.stack)
        # the stack length at the last `take_changed`: `stack[:_heard]` has
        # not changed since, and `_unheard` holds the literals taken as
        # justified that a backtrack has popped since
        self._heard = 0
        self._unheard: list[int] = []

    def justified_literals(self) -> set[int]:
        return set(self.stack)

    def sync(self, trail: list[int], trail_lim: list[int]) -> None:
        """Read the open literals of the trail from `read` on, closing each
        level (`trail_lim` as in the solver) before the next.  The stack is
        at its fixpoint after a close, and a backtrack pops it back to one,
        so only the first sync and a level that read an open literal need a
        close."""
        lim = self.lim
        opens = self.opens
        values = self.values
        stack = self.stack
        while True:
            level = len(lim)
            end = trail_lim[level] if level < len(trail_lim) else len(trail)
            for lit in trail[self.read:end]:
                if (lit if lit > 0 else -lit) in opens:
                    values[lit if lit > 0 else -lit] = 1 if lit > 0 else -1
                    stack.append(lit)
            self.read = end
            if self._counted < len(stack) or not self._synced:
                self._synced = True
                self._close()
            if level == len(trail_lim):
                return
            lim.append(len(stack))

    def _close(self) -> None:
        """Count the new statuses and falsify unfounded loop atoms until
        neither sets a status."""
        stack = self.stack
        values = self.values
        occurs = self.setup.graph.occurs.get
        to_true = self._to_true
        to_false = self._to_false
        loop = self.loop
        while True:
            # a list iterator also yields the literals appended while it runs
            reading = iter(stack)
            reading.__setstate__(self._counted)
            for lit in reading:
                for head in occurs(lit, ()):
                    to_true[head] -= 1
                    if not to_true[head] and not values[head]:
                        values[head] = 1
                        stack.append(head)
                for head in occurs(-lit, ()):
                    to_false[head] -= 1
                    if not to_false[head] and not values[head]:
                        values[head] = -1
                        stack.append(-head)
            self._counted = len(stack)
            if not loop.rules:
                return
            unfounded = loop.unfounded()
            if not unfounded:
                return
            for atom in unfounded:
                values[atom] = -1
                stack.append(-atom)

    def backtrack(self, level: int, position: int) -> None:
        """Pop the statuses tagged above `level`; `position` is where the
        trail is cut, the start of level `level + 1`."""
        lim = self.lim
        if level >= len(lim):
            return
        start = lim[level]
        del lim[level:]
        self.read = position
        stack = self.stack
        if start < self._heard:
            self._unheard += stack[start:self._heard]
            self._heard = start
        values = self.values
        occurs = self.setup.graph.occurs.get
        to_true = self._to_true
        to_false = self._to_false
        for lit in stack[start:]:
            values[lit if lit > 0 else -lit] = 0
            for head in occurs(lit, ()):
                to_true[head] += 1
            for head in occurs(-lit, ()):
                to_false[head] += 1
        del stack[start:]
        self._counted = self.loop.head = start

    def take_changed(self) -> list[int]:
        """The literals whose statuses may have changed since the last take:
        those of `_unheard`, then those on the stack from `_heard` on.  A
        literal popped and set again is among them; a relevance tracker
        that reads `values` in place leaves it as it was."""
        changed = self._unheard
        self._unheard = []
        changed += self.stack[self._heard:]
        self._heard = len(self.stack)
        return changed

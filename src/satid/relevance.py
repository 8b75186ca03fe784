"""Incremental relevance tracking over the dependency graph.

The tracker is a module beside the solver, with a narrow interface:

- built once per theory, by `RelevanceTracker.for_theory`, from the
  justifier's setup: the static `core.DependencyGraph` that
  `build_justification_maps` builds (`JustifiedTheory.graph`, which the
  solver's loop peel and `satid solve --dot` read too) and the event-to-status
  map; nothing can be added to the graph afterwards;
- input: `notify_becomes_true` and `notify_becomes_unknown`, the solver's
  literal changes; the event-to-status map says whose justified status each
  one flips, and literals it lacks are ignored;
- output: `is_relevant`, which the solver's decisions ask;
- inspection: `relevant_literals`, `justified_literals`, `watched_parent`
  and `validate` (the debug invariants); these two sets and the `graph`
  attribute are all that `formats.relevance_dot` renders.

A literal is relevant when it is not justified and can still contribute to
justifying the theory atom: the theory atom itself while unjustified, plus
unjustified literals reachable from a relevant literal.  Instead of storing
the full set of candidate parents per literal, the tracker keeps one watched
parent per deep literal, one with a child that has children of its own
(`DependencyGraph.deep_literals`); a deep literal is relevant exactly when
it has a watch, or is the unjustified theory atom, whose relevance is a
stored base case, never a watch.  Watch chains always end at the theory
atom, so the watch graph stays acyclic.  The other literals are shallow:
leaves, with no children, such as open literals, and frontier literals,
whose children are all leaves, such as a 3-SAT clause atom `t <- a | b | c`
and its negation.  A shallow literal is the parent of no deep literal, so
nothing but its own queries would read a watch of it, and it gets none.
The frontier rule gives its relevance instead: a shallow literal other than
the theory atom is relevant when it is unjustified and one of its parents
is, and its `watched_parent` is the first such parent in `parents_of`
order.  The parents of a frontier literal are deep, and those of a leaf
are deep or frontier, so a query looks at most two levels up.

A notification only updates the justified set and, when the flipped
literal is deep, notes it; a shallow literal's flip moves no watch.  The
watches catch up in one settle, which every read of them runs first when
literals changed since the last one (`is_relevant`, `relevant_literals`,
`watched_parent` and `validate`), so observers only ever see settled
states.  Construction only records state: no watches, nothing justified,
no deep literals yet, so that no flip is noted, and the theory atom as the
first changed literal.  The first read computes the deep literals and
settles the theory atom alone, with the justified set that the events sent
before it left; a tracker that is never read never walks the graph.  A
settle takes the changed literals as one batch:

- shrink: each changed literal that is now justified and has a watch, or is
  the now justified theory atom, loses it, and so does every literal whose
  watch chain runs through it;
- regrow: each changed or dropped literal that is unjustified, unwatched
  and not the theory atom takes its first relevant parent, if it has one.
  A breadth-first walk then attaches the unjustified, unwatched deep
  children of each literal that got a watch, and of the theory atom if it
  became unjustified.

A new watch points at a relevant parent, whose chain reaches the theory atom
without passing the unwatched literal, so no watch closes a cycle.

After a settle the relevant set is exact: it is the set of literals
reachable from the unjustified theory atom through unjustified literals, so
it depends on the justified set alone, not on the order or batching of the
events.  On a path that ends at a literal with children, every literal
before the last has a child with children, the next one, and so is deep.
The paths from the theory atom to a deep literal therefore pass only
through deep literals, and so do those to a frontier literal but for their
last step; those to a leaf end with one step from a deep literal, or two
through a frontier one.  The argument below therefore runs on the graph of
the deep literals alone, where watches live, and shows that the watched
literals, with the unjustified theory atom, are exactly the reachable deep
literals.  A shallow literal other than the theory atom is then reachable
exactly when it is unjustified and one of its parents is: that is the
frontier rule.  A query reads a deep parent's watch, and a frontier
parent's relevance by the same rule, one level further up.

The first settle is exact.  It starts with no watches, so shrink drops
none, and the theory atom is its whole batch.  If that atom is
unjustified, the walk from it attaches the unjustified deep children of
each literal it reaches: exactly the reachable deep literals.  If it is
justified, nothing is reachable, and nothing gets a watch.

For a later settle, assume the one before it left the watches exact.
There are no extras: shrink leaves only chains of unjustified literals that
end at the theory atom, and regrow adds only edges from relevant parents to
unjustified literals (`validate` checks both).  Nothing is missed.
Otherwise take a path from the theory atom to a missed deep literal: its
first missed literal `m` is not the theory atom and has a relevant parent
`p`.  If `p` got its watch in regrow, or is the theory atom and became
unjustified, the walk from `p` gave `m` a watch, since regrow removes none.
So `p` was relevant before the batch and stayed so throughout.  If `m` was
relevant before too, shrink dropped it; if not, it was unreachable then
while its parent `p` was relevant, so it was justified and has changed,
and its flip was noted, since it is deep.
Either way regrow offered `m` its parents while `p` was relevant, and `m`
got a watch, a contradiction.
"""

from __future__ import annotations

from itertools import chain
from typing import AbstractSet, Mapping

from .core import DefnfTheory, DependencyGraph
from .justifier import JustifiedTheory, build_justification_maps


class RelevanceTracker:
    """Watched-parent relevance tracker for one static theory.

    It is built from the theory atom, the theory's `DependencyGraph` and the
    event-to-status map (`JustificationMaps.status_change`), and has no API
    for adding rules later.  Construction settles nothing: the first read
    builds the watches.  Notifications are batched until the next read,
    which settles them; the result does not depend on how the caller
    batches its calls.
    """

    def __init__(self, theory_atom: int, graph: DependencyGraph,
                 status_change: Mapping[int, int], debug: bool = False) -> None:
        self._pt = theory_atom
        self.graph = graph
        self._status_change = status_change
        self._debug = debug
        # the literals whose flips are noted: empty until the first settle
        # computes them, since that settle walks from the theory atom alone
        self._deep: AbstractSet[int] = frozenset()
        self._watched: dict[int, int] = {}
        self._justified: set[int] = set()
        self.query_count = 0
        # deep literals flipped since the last settle; the first settle, at
        # the first read, starts from the theory atom and builds the watches
        self._changed = [theory_atom]

    @classmethod
    def for_theory(cls, theory: DefnfTheory, setup: JustifiedTheory | None = None,
                   debug: bool = False) -> "RelevanceTracker":
        if setup is None:
            setup = build_justification_maps(theory)
        return cls(theory.theory_atom, setup.graph, setup.maps.status_change,
                   debug=debug)

    # -- queries -----------------------------------------------------------

    def is_relevant(self, lit: int) -> bool:
        self.query_count += 1
        if self._changed:
            self._settle()
        return self._relevant(lit)

    def watched_parent(self, lit: int) -> int | None:
        """The watch of a deep literal; for a shallow one, its first
        relevant parent.  None when the literal is not relevant, and for
        the theory atom."""
        if self._changed:
            self._settle()
        return None if lit == self._pt else self._parent(lit)

    def relevant_literals(self) -> set[int]:
        if self._changed:
            self._settle()
        result = set(self._watched)
        justified = self._justified
        if self._pt not in justified:
            result.add(self._pt)
        children_of = self.graph.children_of
        deep = self._deep
        shallow = [child for lit in result for child in children_of(lit)
                   if child not in justified and child not in deep]
        result.update(shallow)
        result.update([child for lit in shallow for child in children_of(lit)
                       if child not in justified])
        return result

    def justified_literals(self) -> set[int]:
        return set(self._justified)

    def _relevant(self, lit: int) -> bool:
        if lit == self._pt:
            return lit not in self._justified
        return self._parent(lit) is not None

    def _parent(self, lit: int) -> int | None:
        """The watch or, by the frontier rule, the first relevant parent of
        a literal other than the theory atom."""
        watched = self._watched
        if lit in watched:
            return watched[lit]
        justified = self._justified
        deep = self._deep
        if lit in justified or lit in deep:
            return None
        pt = self._pt
        pt_relevant = pt not in justified
        parents_of = self.graph.parents_of
        for parent in parents_of(lit):
            if parent in watched or parent == pt and pt_relevant:
                return parent
            if parent not in deep and parent not in justified:
                # a frontier parent of a leaf: its own parents are deep
                for grand in parents_of(parent):
                    if grand in watched or grand == pt and pt_relevant:
                        return parent
        return None

    # -- solver events ------------------------------------------------------

    def notify_becomes_true(self, lit: int) -> None:
        """A literal became true in the solver.  The event-to-status map says
        whose justified status that flips; literals it lacks (those of
        original defined atoms) are ignored."""
        flipped = self._status_change.get(lit)
        if flipped is not None:
            if flipped in self._justified:
                raise ValueError(f"literal {flipped} is already justified")
            self._justified.add(flipped)
            if flipped in self._deep:
                self._changed.append(flipped)

    def notify_becomes_unknown(self, lit: int) -> None:
        """The mirror of notify_becomes_true for backtracked literals."""
        flipped = self._status_change.get(lit)
        if flipped is not None:
            if flipped not in self._justified:
                raise ValueError(f"literal {flipped} is not justified")
            self._justified.remove(flipped)
            if flipped in self._deep:
                self._changed.append(flipped)

    # -- settling -----------------------------------------------------------

    def _settle(self) -> None:
        """Bring the watches up to date with the changed literals: shrink,
        then regrow (see the module docstring).  Only deep literals get
        watches."""
        if not self._deep:
            # the first settle; with no deep literals nothing is ever noted,
            # so no later settle computes them again
            self._deep = self.graph.deep_literals()
        changed = self._changed
        watched = self._watched
        justified = self._justified
        deep = self._deep
        children_of = self.graph.children_of
        pt = self._pt
        dropped: list[int] = []
        stack: list[int] = []
        for lit in changed:
            if lit in justified and (lit in watched or lit == pt):
                watched.pop(lit, None)
                stack.append(lit)
                while stack:
                    node = stack.pop()
                    for child in children_of(node):
                        if watched.get(child) == node:
                            del watched[child]
                            dropped.append(child)
                            stack.append(child)
        pt_unjustified = pt not in justified
        parents_of = self.graph.parents_of
        queue: list[int] = []
        head = 0
        for lit in chain(changed, dropped):
            if lit == pt:
                if pt_unjustified:
                    queue.append(pt)
            elif lit not in watched and lit not in justified:
                for parent in parents_of(lit):
                    if parent in watched or parent == pt and pt_unjustified:
                        watched[lit] = parent
                        queue.append(lit)
                        break
            while head < len(queue):
                node = queue[head]
                head += 1
                for child in children_of(node):
                    if (child in deep and child not in watched
                            and child not in justified and child != pt):
                        watched[child] = node
                        queue.append(child)
        changed.clear()
        if self._debug:
            self.validate()

    # -- debug invariants ----------------------------------------------------

    def validate(self) -> None:
        """Full-scan structural invariants; raises AssertionError on breakage."""
        if self._changed:
            self._settle()
        watched = self._watched
        if self._pt in watched:
            raise AssertionError("the theory atom must never have a watch")
        for lit, parent in watched.items():
            if lit in self._justified:
                raise AssertionError(f"justified literal {lit} has a watch")
            if lit not in self._deep:
                raise AssertionError(f"shallow literal {lit} has a watch")
            if not self._relevant(parent):
                raise AssertionError(f"watch {lit} -> {parent} has an irrelevant parent")
            if parent not in self.graph.parents_of(lit):
                raise AssertionError(f"watch {lit} -> {parent} is not a dependency edge")
        resolved: set[int] = set()
        for lit in watched:
            path = []
            node = lit
            on_path = set()
            while node in watched and node not in resolved:
                if node in on_path:
                    raise AssertionError(f"watch cycle through {node}")
                on_path.add(node)
                path.append(node)
                node = watched[node]
            if node not in resolved and node != self._pt:
                raise AssertionError(f"watch chain from {lit} ends at {node}, "
                                     "not at the theory atom")
            resolved.update(path)
        for lit in self._justified:
            if -lit in self._justified:
                raise AssertionError(f"both {lit} and {-lit} justified")

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
- inspection: `relevant_literals`, `justified_literals`, `watched_parent`,
  `find_noncyclic_watch` and `validate` (the debug invariants); these two
  sets and the `graph` attribute are all that `formats.relevance_dot`
  renders.

A literal is relevant when it is not justified and can still contribute to
justifying the theory atom: the theory atom itself while unjustified, plus
unjustified literals reachable from a relevant literal.  Instead of storing
the full set of candidate parents per literal, the tracker keeps one watched
parent; a literal is relevant exactly when it has a watch (or is the
unjustified theory atom, whose relevance is a stored base case, never a
watch).

Watch chains always terminate at the theory atom, so the watch graph stays
acyclic.  When a watch is removed, a replacement is searched among the
literal's other parents; a candidate is rejected when following watch
pointers from it leads back to the literal being repaired (which would close
a self-supporting loop, the relevance analogue of an unfounded set).  Loops
that lose outside support are dismantled by the resulting cascade, literal by
literal.

Each input runs through a FIFO queue of internal events (a literal becomes
justified, unjustified, relevant or irrelevant; a candidate parent is
offered or withdrawn), drained before the call returns, so observers only
ever see quiescent states.  The internal events are valid only inside such
a cascade and are not part of the interface.  When the queue runs dry, each
literal that lost its watch with no replacement during the drain and is
still unwatched is offered every parent again, and the queue is drained
once more.

At quiescence the relevant set is exact: it is the set of literals
reachable from the unjustified theory atom through unjustified literals, so
it depends on the justified set alone, not on the order of the events.  It
has no extras, because every watch is a dependency edge from a relevant
parent to an unjustified literal and every watch chain ends at the theory
atom (`validate`).  It misses nothing.  Otherwise take a path from the
theory atom to a missed literal: its first missed literal `m` is not the
theory atom and has a relevant parent `p`.  Take the last step of the
cascades at which "`p` relevant, `m` unjustified and unwatched" became
true; it was false after the initial breadth-first watches.  It became true
in one of three ways, and each queues an `_ADD` of `m` from `p` in the same
call.  `p` got a watch, or is the theory atom and became unjustified: its
`_RELEVANT` event offers it to every child.  `m` became unjustified: that
offers `m` every parent.  `m` lost its watch, which leaves it unjustified
only when `_REMOVE` found no replacement: the re-offer at quiescence offers
it every parent again.  The condition still holds when that `_ADD` runs, so
all its criteria hold and `m` gets a watch, a contradiction.  The drain a
re-offer starts runs only `_ADD` and `_RELEVANT` events, which add watches
and never remove one, so it ends.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from .core import DefnfTheory, DependencyGraph
from .justifier import JustifiedTheory, build_justification_maps

_JUSTIFIED = 0
_UNJUSTIFIED = 1
_RELEVANT = 2
_IRRELEVANT = 3
_ADD = 4
_REMOVE = 5


class RelevanceTracker:
    """Watched-parent relevance tracker for one static theory.

    It is built from the theory atom, the theory's `DependencyGraph` and the
    event-to-status map (`JustificationMaps.status_change`), and has no API
    for adding rules later.  The FIFO and quiescence contract holds per call:
    every notification is drained before its call returns, however the
    caller batches its calls.
    """

    def __init__(self, theory_atom: int, graph: DependencyGraph,
                 status_change: Mapping[int, int], debug: bool = False) -> None:
        self._pt = theory_atom
        self.graph = graph
        self._status_change = status_change
        self._debug = debug
        self._watched: dict[int, int] = {}
        self._justified: set[int] = set()
        self._queue: deque = deque()
        self.query_count = 0
        # initial watches, breadth-first from the theory atom; the
        # first-visited parent wins, which keeps chains acyclic
        visited = {theory_atom}
        queue = deque((theory_atom,))
        while queue:
            lit = queue.popleft()
            for child in graph.children_of(lit):
                if child not in visited:
                    visited.add(child)
                    self._watched[child] = lit
                    queue.append(child)
        if debug:
            self.validate()

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
        return self._relevant(lit)

    def watched_parent(self, lit: int) -> int | None:
        return self._watched.get(lit)

    def relevant_literals(self) -> set[int]:
        result = set(self._watched)
        if self._pt not in self._justified:
            result.add(self._pt)
        return result

    def justified_literals(self) -> set[int]:
        return set(self._justified)

    def _relevant(self, lit: int) -> bool:
        if lit == self._pt:
            return lit not in self._justified
        return lit in self._watched

    # -- solver events ------------------------------------------------------

    def notify_becomes_true(self, lit: int) -> None:
        """A literal became true in the solver.  The event-to-status map says
        whose justified status that flips; literals it lacks (those of
        original defined atoms) are ignored."""
        flipped = self._status_change.get(lit)
        if flipped is not None:
            self._run(_JUSTIFIED, flipped)

    def notify_becomes_unknown(self, lit: int) -> None:
        """The mirror of notify_becomes_true for backtracked literals."""
        flipped = self._status_change.get(lit)
        if flipped is not None:
            self._run(_UNJUSTIFIED, flipped)

    # -- internals ----------------------------------------------------------

    def _run(self, tag: int, lit: int) -> None:
        self._queue.append((tag, lit, 0))
        self._drain()
        if self._debug:
            self.validate()

    def _drain(self) -> None:
        queue = self._queue
        watched = self._watched
        justified = self._justified
        children_of = self.graph.children_of
        parents_of = self.graph.parents_of
        pt = self._pt
        dropped: list[int] = []  # literals whose watch found no replacement
        while queue:
            while queue:
                tag, lit, other = queue.popleft()
                if tag == _ADD:
                    # all four criteria must hold; failure is a silent no-op
                    if (lit != pt and lit not in watched and lit not in justified
                            and (other == pt and pt not in justified
                                 or other in watched)
                            and other in parents_of(lit)):
                        watched[lit] = other
                        queue.append((_RELEVANT, lit, 0))
                elif tag == _REMOVE:
                    if watched.get(lit) == other:
                        del watched[lit]
                        replacement = self.find_noncyclic_watch(lit, other)
                        if replacement is not None:
                            watched[lit] = replacement
                        else:
                            dropped.append(lit)
                            queue.append((_IRRELEVANT, lit, 0))
                elif tag == _RELEVANT:
                    for child in children_of(lit):
                        queue.append((_ADD, child, lit))
                elif tag == _IRRELEVANT:
                    for child in children_of(lit):
                        queue.append((_REMOVE, child, lit))
                elif tag == _JUSTIFIED:
                    if lit in justified:
                        raise ValueError(f"literal {lit} is already justified")
                    was_relevant = self._relevant(lit)
                    justified.add(lit)
                    watched.pop(lit, None)
                    if was_relevant:
                        queue.append((_IRRELEVANT, lit, 0))
                else:  # _UNJUSTIFIED
                    if lit not in justified:
                        raise ValueError(f"literal {lit} is not justified")
                    justified.remove(lit)
                    if lit == pt:
                        queue.append((_RELEVANT, pt, 0))
                    else:
                        for parent in parents_of(lit):
                            queue.append((_ADD, lit, parent))
            # at quiescence, offer each dropped literal still unwatched all
            # of its parents again; the drain this starts queues only _ADD
            # and _RELEVANT events, so it drops nothing and ends
            for lit in dropped:
                if lit not in watched:
                    for parent in parents_of(lit):
                        queue.append((_ADD, lit, parent))
            dropped.clear()

    def find_noncyclic_watch(self, lit: int, excluded: int) -> int | None:
        """A replacement watched parent for `lit`: another relevant parent
        whose watch chain does not lead back to `lit`.  None when every
        candidate fails, which makes `lit` irrelevant."""
        if lit in self._justified:
            return None
        watched = self._watched
        for candidate in self.graph.parents_of(lit):
            if candidate == excluded or not self._relevant(candidate):
                continue
            # walk the candidate's watch chain; hitting `lit` (or an already
            # visited literal) would close a cycle
            node = candidate
            seen = set()
            while node != lit and node not in seen:
                seen.add(node)
                nxt = watched.get(node)
                if nxt is None:
                    return candidate
                node = nxt
            if node != lit:
                return candidate
        return None

    # -- debug invariants ----------------------------------------------------

    def validate(self) -> None:
        """Full-scan structural invariants; raises AssertionError on breakage."""
        watched = self._watched
        if self._pt in watched:
            raise AssertionError("the theory atom must never have a watch")
        for lit, parent in watched.items():
            if lit in self._justified:
                raise AssertionError(f"justified literal {lit} has a watch")
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

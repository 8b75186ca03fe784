"""Incremental relevance tracking over the dependency graph.

The tracker is a module beside the solver, with a narrow interface:

- built once per theory, by `RelevanceTracker.for_theory`, from a static
  `core.DependencyGraph`, and needing nothing but `core`: the solver hands
  it the graph its justifier counts over, and a standalone tracker builds
  its own; nothing can be added to it afterwards;
- input: a status array, which the tracker reads in place
  (`values[atom]` is 1 when the atom is justified true, -1 when its
  negation is, and 0 otherwise), and `note_changed`, naming literals whose
  status may have changed in it since the last settle.  The solver's
  tracker reads its justifier's `values`, and the solver notes what
  `justifier.Justifier.take_changed` returns.  A standalone tracker owns
  its array, and `notify_becomes_true` and `notify_becomes_unknown`, each
  naming a literal whose justified status flipped, refuse a flip that
  cannot happen, then write it and note the literal;
- output: `is_relevant`, which the solver's decisions ask;
- inspection: `relevant_literals`, `justified_literals`, `watched_parent`
  and `validate` (the debug invariants); these two sets and the `graph`
  attribute are all that `formats.relevance_dot` renders.

A literal is relevant when it is not justified and can still contribute to
justifying the theory atom: the theory atom itself while unjustified, plus
unjustified literals reachable from a relevant literal.  Instead of storing
the full set of candidate parents per literal, the tracker keeps one map,
`_watch`.  Its keys are the deep literals, those with a child that has
children of its own (`DependencyGraph.deep_literals`), and the theory atom.
A key's value is its watched parent; the root `0`, which is no literal, for
the unjustified theory atom; and None when the key is irrelevant.  A key is
therefore relevant exactly when its value is not None.  Every watch chain
ends at the root, so the watch graph stays acyclic.

The other literals are shallow: leaves, with no children, such as open
literals, and frontier literals, whose children are all leaves, such as a
3-SAT clause atom `t <- a | b | c` and its negation.  A shallow literal is
the parent of no deep literal, so nothing but its own queries would read a
watch of it, and unless it is the theory atom it has no key.  The parent
rule gives its relevance instead: a literal outside the map is relevant
when it is unjustified and one of its parents is, and its `watched_parent`
is the first such parent in `parents_of` order.  The parents of a frontier
literal are deep, and those of a leaf are deep or frontier, so a query
looks at most two levels up.

A note keeps only the keys among the literals it names; a shallow
literal's flip moves no watch.  It may name literals whose status did not
change, such as a key popped and set again between two calls of
`Justifier.take_changed`: a settle leaves such a key as it was.  The
watches catch up in one settle, which every read of them runs first when
keys were noted since the last one (`is_relevant`, `relevant_literals`,
`watched_parent` and `validate`), so observers only ever see settled
states.  A read must therefore come only after every status change since
the last settle is noted.  Construction only records state: an empty map,
so that nothing is noted, and the theory atom as the first changed literal.  The first read builds the map with
every key irrelevant, then settles the theory atom like any later batch,
with the statuses that the array holds then; a tracker that is never read
never walks the graph.  A settle takes the noted keys as one batch:

- shrink: each noted key that is now justified and relevant becomes
  irrelevant, and so does every key whose watch chain runs through it;
- regrow: each noted or dropped key that is unjustified and irrelevant
  takes a watch: the theory atom takes the root, and any other key its
  first relevant parent, if it has one.  A breadth-first walk then attaches
  the unjustified, irrelevant deep children of each key that got a watch.

A new watch points at the root or at a relevant parent, whose chain reaches
the root without passing the key that takes the watch, so no watch closes a
cycle.

After a settle the relevant set is exact: it is the set of literals
reachable from the unjustified theory atom through unjustified literals, so
it depends on the justified set alone, not on the order or batching of the
events.  In the solver that set is the justifier's, the well-founded model
of the trail's open literals, so relevance is read against exact status.
On a path that ends at a literal with children, every literal before the
last has a child with children, the next one, and so is deep.  The paths
from the theory atom to a key therefore pass only through keys, and so do
those to a frontier literal but for their last step; those to a leaf end
with one step from a key, or two through a frontier literal.  The argument
below therefore runs on the keys alone, where watches live, and shows that
the relevant keys are exactly the reachable ones.  A literal outside the
map is then reachable exactly when it is unjustified and one of its parents
is: that is the parent rule, which a query applies to a frontier parent in
turn, and which reads a key's relevance from the map.

Each settle starts from a map that was exact for the justified set that the
settle before it saw, and its batch holds every key whose status changed
since, perhaps among others; nothing below assumes that a key of the batch
changed.  For the first settle, take that set to be the present one with the
theory atom added: nothing is reachable then, so the map with every key
irrelevant is exact for it, and only the theory atom's status can differ
from it, which is the first batch.  There are no extras: shrink leaves only
chains of unjustified keys that end at the root, and regrow adds only edges
from the root or a relevant parent to unjustified keys (`validate` checks
both).  Nothing is missed either.  The unjustified theory atom is not: if
it changed, regrow gave it the root if it had none, and if not, it was
relevant before, and only its own justification drops the root.  Otherwise
take a path from the theory atom to a missed key: its first missed key `m`
is not the theory atom and has a relevant parent `p`, which is a key.  If
`p` got its watch in regrow, the walk from `p` gave `m` a watch, if it had
none by then, since regrow removes none.  So `p` was relevant before the
batch and stayed so throughout.  If `m` was relevant before too, shrink
dropped it; if not, it was unreachable then while its parent `p` was
relevant, so it was justified and has changed, and its flip was noted,
since it is a key.  Either way regrow offered `m` its parents while `p` was
relevant, and `m` got a watch, a contradiction.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from .core import DefnfTheory, DependencyGraph, build_dependency_graph


class RelevanceTracker:
    """Watched-parent relevance tracker for one static theory.

    It is built from the theory atom, the theory's `DependencyGraph` and a
    status array (the layout of `justifier.Justifier.values`), and has no API
    for adding rules later.  Construction settles nothing: the first read
    builds the watches.  Notes are batched until the next read, which
    settles them; the result does not depend on how the caller batches its
    calls.
    """

    def __init__(self, theory_atom: int, graph: DependencyGraph, values: list[int],
                 debug: bool = False) -> None:
        self._pt = theory_atom
        self.graph = graph
        self._values = values
        self._debug = debug
        # each deep literal and the theory atom to its watched parent, the
        # root 0 or None; empty until the first settle builds it, so that
        # nothing is noted before then
        self._watch: dict[int, int | None] = {}
        self.query_count = 0
        # keys noted since the last settle; the first settle, at the first
        # read, builds the map and settles the theory atom
        self._changed = [theory_atom]

    @classmethod
    def for_theory(cls, theory: DefnfTheory, graph: DependencyGraph | None = None,
                   debug: bool = False,
                   values: list[int] | None = None) -> "RelevanceTracker":
        """A tracker over `graph` and `values`; when none is given, over the
        definition's own graph, or over an array of its own with nothing
        justified."""
        if graph is None:
            graph = build_dependency_graph(theory.definition)
        if values is None:
            values = [0] * (theory.n_atoms + 1)
        return cls(theory.theory_atom, graph, values, debug=debug)

    # -- queries -----------------------------------------------------------

    def is_relevant(self, lit: int) -> bool:
        self.query_count += 1
        if self._changed:
            self._settle()
        return self._parent(lit) is not None

    def watched_parent(self, lit: int) -> int | None:
        """The watch of a deep literal; for a shallow one, its first
        relevant parent.  None when the literal is not relevant, and for
        the theory atom, whose watch is the root."""
        if self._changed:
            self._settle()
        return self._parent(lit) or None

    def relevant_literals(self) -> set[int]:
        if self._changed:
            self._settle()
        watch = self._watch
        values = self._values
        children_of = self.graph.children_of
        result = {lit for lit, parent in watch.items() if parent is not None}
        stack = list(result)
        while stack:
            for child in children_of(stack.pop()):
                if (child not in watch and child not in result
                        and (values[child] if child > 0 else -values[-child]) != 1):
                    result.add(child)
                    stack.append(child)
        return result

    def justified_literals(self) -> set[int]:
        return {atom if value > 0 else -atom
                for atom, value in enumerate(self._values) if value}

    def _parent(self, lit: int) -> int | None:
        """A key's value in the map; for any other literal, by the parent
        rule, its first relevant parent, or None.  A parent outside the map
        is a frontier literal, whose parents are all keys, so the walk goes
        at most two levels up."""
        watch = self._watch
        if lit in watch:
            return watch[lit]
        values = self._values
        if (values[lit] if lit > 0 else -values[-lit]) == 1:
            return None
        occurs = self.graph.occurs
        for sign in (1, -1):  # `parents_of` order, without its iterators
            for parent in occurs.get(sign * lit, ()):
                parent *= sign
                if parent in watch:
                    if watch[parent] is not None:
                        return parent
                elif (values[parent] if parent > 0 else -values[-parent]) != 1:
                    for grandparent in self.graph.parents_of(parent):
                        if watch[grandparent] is not None:
                            return parent
        return None

    # -- status events --------------------------------------------------------

    def notify_becomes_true(self, lit: int) -> None:
        """The literal became justified: written to the status array."""
        values = self._values
        atom = lit if lit > 0 else -lit
        if values[atom]:
            # this literal or its negation
            justified = lit if values[atom] == (1 if lit > 0 else -1) else -lit
            raise ValueError(f"literal {justified} is already justified")
        values[atom] = 1 if lit > 0 else -1
        self.note_changed((lit,))

    def notify_becomes_unknown(self, lit: int) -> None:
        """The literal is no longer justified: cleared in the status array."""
        values = self._values
        atom = lit if lit > 0 else -lit
        if values[atom] != (1 if lit > 0 else -1):
            raise ValueError(f"literal {lit} is not justified")
        values[atom] = 0
        self.note_changed((lit,))

    def note_changed(self, lits: Iterable[int]) -> None:
        """The statuses of `lits` may have changed in the status array since
        the last settle: keep the keys among them for the next one.  A
        superset is allowed, since the settle leaves a key whose status did
        not change as it was; before the first settle nothing is kept."""
        watch = self._watch
        if watch:
            self._changed += filter(watch.__contains__, lits)

    # -- settling -----------------------------------------------------------

    def _settle(self) -> None:
        """Bring the watches up to date with the changed keys: shrink, then
        regrow (see the module docstring)."""
        watch = self._watch
        if not watch:
            # the first settle builds the map with every key irrelevant
            watch = self._watch = dict.fromkeys(self.graph.deep_literals())
            watch[self._pt] = None
        changed = self._changed
        values = self._values
        children_of = self.graph.children_of
        dropped: list[int] = []
        stack: list[int] = []
        for lit in changed:
            if (watch[lit] is not None
                    and (values[lit] if lit > 0 else -values[-lit]) == 1):
                watch[lit] = None
                stack.append(lit)
                while stack:
                    node = stack.pop()
                    for child in children_of(node):
                        if watch.get(child) == node:
                            watch[child] = None
                            dropped.append(child)
                            stack.append(child)
        parents_of = self.graph.parents_of
        queue: list[int] = []
        head = 0
        for lit in chain(changed, dropped):
            if (watch[lit] is None
                    and (values[lit] if lit > 0 else -values[-lit]) != 1):
                if lit == self._pt:
                    watch[lit] = 0   # the root
                    queue.append(lit)
                else:
                    for parent in parents_of(lit):
                        if watch[parent] is not None:
                            watch[lit] = parent
                            queue.append(lit)
                            break
            while head < len(queue):
                node = queue[head]
                head += 1
                for child in children_of(node):
                    # an irrelevant key; a literal outside the map gives 0
                    if (watch.get(child, 0) is None
                            and (values[child] if child > 0 else -values[-child]) != 1):
                        watch[child] = node
                        queue.append(child)
        changed.clear()
        if self._debug:
            self.validate()

    # -- debug invariants ----------------------------------------------------

    def validate(self) -> None:
        """Full-scan structural invariants; raises AssertionError on breakage."""
        if self._changed:
            self._settle()
        watch = self._watch
        justified = self.justified_literals()
        pt = self._pt
        if watch.keys() != self.graph.deep_literals() | {pt}:
            raise AssertionError("the watch map's keys are not the deep literals "
                                 "and the theory atom")
        if (watch[pt] is None) != (pt in justified):
            raise AssertionError("the theory atom is relevant exactly when unjustified")
        for lit, parent in watch.items():
            if parent is None:
                continue
            if lit in justified:
                raise AssertionError(f"justified literal {lit} has a watch")
            if (parent == 0) != (lit == pt):
                raise AssertionError(f"watch {lit} -> {parent}: the root is the "
                                     "theory atom's watch alone")
            if parent and parent not in self.graph.parents_of(lit):
                raise AssertionError(f"watch {lit} -> {parent} is not a dependency edge")
            if parent and self._parent(parent) is None:
                raise AssertionError(f"watch {lit} -> {parent} has an irrelevant parent")
        # every watched parent is a relevant key, so a chain that has no
        # cycle ends at the root
        resolved: set[int] = set()
        for lit in watch:
            on_path: set[int] = set()
            node = lit
            while node not in resolved and watch[node]:
                if node in on_path:
                    raise AssertionError(f"watch cycle through {node}")
                on_path.add(node)
                node = watch[node]
            resolved |= on_path

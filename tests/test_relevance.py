import ast
import random
from pathlib import Path

import pytest

from satid import (Justifier, PartialInterpretation, RelevanceTracker, Rule,
                   build_justification_maps)
from satid import justifier, oracle, relevance
from satid.replay import TraceReplayer

import theory_gen


def fresh_tracker(theory, debug=True):
    return RelevanceTracker.for_theory(theory, build_justification_maps(theory).graph,
                                       debug=debug)


# -- initialization ------------------------------------------------------------

def test_initial_watches_loop(loop):
    tracker = fresh_tracker(loop)
    p_T, a, p, q = 1, 2, 3, 4
    assert tracker.watched_parent(p) == p_T   # q would close a cycle
    assert tracker.watched_parent(q) == p
    assert tracker.watched_parent(a) == p_T
    assert tracker.watched_parent(p_T) is None
    assert tracker.relevant_literals() == {p_T, a, p, q}


def test_initial_relevance_matches_oracle():
    # literals justified even in the empty state (negative loops) reach the
    # tracker through justification notifications, as root propagation would
    # deliver them in a solver
    rng = random.Random(21)
    for _ in range(40):
        theory = theory_gen.random_total_theory(rng)
        tracker = fresh_tracker(theory)
        empty_justified = oracle.justified_literals(theory, PartialInterpretation())
        for lit in sorted(empty_justified):
            tracker.notify_becomes_true(lit)
        assert tracker.relevant_literals() == oracle.relevant_set(
            theory, PartialInterpretation())


# -- the loop cascade -----------------------------------------------------------

def test_loop_collapses_when_theory_atom_justified(loop):
    tracker = fresh_tracker(loop)
    tracker.notify_becomes_true(2)                       # open a true
    tracker.notify_becomes_true(1)   # j(p_T) true
    assert tracker.relevant_literals() == set()
    assert not tracker.is_relevant(3) and not tracker.is_relevant(4)


def test_loop_restores_on_backtrack(loop):
    tracker = fresh_tracker(loop)
    before = tracker.relevant_literals()
    tracker.notify_becomes_true(2)
    tracker.notify_becomes_true(1)
    tracker.notify_becomes_unknown(1)
    tracker.notify_becomes_unknown(2)
    assert tracker.relevant_literals() == before
    assert tracker.justified_literals() == set()


def test_intro_prunes_negated_defined_literal(intro):
    tracker = fresh_tracker(intro)
    d = intro.atoms.id_of("d")
    e = intro.atoms.id_of("e")
    a = intro.atoms.id_of("a")
    tracker.notify_becomes_true(d)
    tracker.notify_becomes_true(a)
    assert not tracker.is_relevant(-e)
    assert not tracker.is_relevant(a)
    assert tracker.is_relevant(intro.atoms.id_of("h"))
    assert tracker.relevant_literals() == oracle.relevant_set(
        intro, PartialInterpretation.from_literals([d]))


def test_defined_original_assignments_are_ignored(intro):
    # the solver's assignments of defined atoms reach the tracker only
    # through the statuses that the justifier derives from open literals,
    # which the tracker reads in place
    setup = build_justification_maps(intro)
    justifier = Justifier(setup)
    tracker = RelevanceTracker.for_theory(intro, setup.graph, debug=True,
                                          values=justifier.values)
    p_T, a, b, d = (intro.atoms.id_of(name) for name in ("p_T", "a", "b", "d"))
    before = tracker.relevant_literals()
    justifier.sync([p_T, a, b], [])   # original defined atoms, assigned at the root
    tracker.note_changed(justifier.take_changed())
    assert tracker.justified_literals() == set()
    assert tracker.relevant_literals() == before
    justifier.sync([p_T, a, b, d], [3])   # the open d decided: a <- d | ~e | f
    tracker.note_changed(justifier.take_changed())
    assert tracker.justified_literals() == {d, a}
    assert tracker.relevant_literals() == oracle.relevant_set(
        intro, PartialInterpretation.from_literals([d]))


# -- watch repair ------------------------------------------------------------------

def diamond_theory():
    # p_T <- x | y ; x <- y  gives y the parents {p_T, x}
    return theory_gen.build_theory(
        "p_T x y z", "p_T",
        [("p_T", "d", ["x", "y"]), ("x", "d", ["y"])])


def fork_theory():
    # p_T <- x | w | z, z, x, w <- y, y <- v and v <- u: breadth-first from
    # p_T, y first watches x, but its parents come in rule order z, x, w.  y
    # needs its grandchild u to get a watch at all; the frontier literal v
    # and the leaf u have none, and each takes its one parent whenever that
    # parent is relevant
    return theory_gen.build_theory(
        "p_T x y z w v u", "p_T",
        [("z", "d", ["y"]), ("x", "d", ["y"]), ("w", "d", ["y"]),
         ("p_T", "d", ["x", "w", "z"]), ("y", "d", ["v"]), ("v", "d", ["u"])])


def test_watch_swaps_to_alternative_parent():
    theory = fork_theory()
    tracker = fresh_tracker(theory)
    p_T, x, y, z, w, v, u = 1, 2, 3, 4, 5, 6, 7
    assert tracker.watched_parent(y) == x
    assert tracker.watched_parent(v) == y and tracker.is_relevant(v)
    assert tracker.watched_parent(u) == v and tracker.is_relevant(u)
    # the frontier v and the leaf u are no keys of the watch map
    assert tracker._watch.keys() == {p_T, x, y, z, w, -p_T, -x, -y, -z, -w}
    assert {lit for lit, parent in tracker._watch.items() if parent} == {x, w, z, y}
    tracker.notify_becomes_true(x)   # x justified
    assert tracker.watched_parent(y) == z
    assert tracker.watched_parent(v) == y
    assert tracker.relevant_literals() == {p_T, w, z, y, v, u}
    tracker.notify_becomes_true(y)   # y justified
    assert tracker.watched_parent(v) is None and not tracker.is_relevant(v)
    assert tracker.watched_parent(u) is None and not tracker.is_relevant(u)
    assert tracker.relevant_literals() == {p_T, w, z}
    tracker.notify_becomes_true(v)                     # the frontier v justified
    tracker.notify_becomes_unknown(y)
    assert tracker.watched_parent(y) == z
    assert tracker.watched_parent(v) is None and not tracker.is_relevant(v)
    assert tracker.watched_parent(u) is None and not tracker.is_relevant(u)
    tracker.notify_becomes_unknown(v)
    assert tracker.watched_parent(v) == y and tracker.is_relevant(v)
    assert tracker.watched_parent(u) == v and tracker.is_relevant(u)
    tracker.notify_becomes_true(u)                       # the leaf justified
    assert tracker.watched_parent(u) is None and not tracker.is_relevant(u)
    assert tracker.relevant_literals() == {p_T, w, z, y, v}


def test_lost_watches_regrow_without_cycles():
    # y's parents come in rule order x, p_T
    theory = theory_gen.build_theory(
        "p_T x y", "p_T", [("x", "d", ["y"]), ("p_T", "d", ["x", "y"])])
    tracker = fresh_tracker(theory)
    p_T, x, y = 1, 2, 3
    tracker.notify_becomes_true(y)
    assert not tracker.is_relevant(y)
    tracker.notify_becomes_unknown(y)
    assert tracker.watched_parent(y) == x   # the chain y -> x -> p_T
    tracker.notify_becomes_true(x)
    assert tracker.watched_parent(y) == p_T
    # x's only parent is p_T
    tracker.notify_becomes_unknown(x)
    tracker.notify_becomes_true(p_T)
    assert tracker.watched_parent(x) is None
    assert tracker.relevant_literals() == set()
    # p's other parent q is relevant, but q's watch chain leads back to p:
    # once p's support x is justified, the loop p <-> q keeps no watch
    theory = theory_gen.build_theory(
        "p_T a x p q", "p_T",
        [("p_T", "d", ["a", "x"]), ("x", "d", ["p"]),
         ("p", "d", ["q"]), ("q", "d", ["p"])])
    tracker = fresh_tracker(theory)
    p_T, a, x, p, q = 1, 2, 3, 4, 5
    assert tracker.watched_parent(p) == x
    assert tracker.watched_parent(q) == p
    tracker.notify_becomes_true(x)
    assert tracker.watched_parent(p) is None
    assert tracker.watched_parent(q) is None
    assert tracker.relevant_literals() == {p_T, a}


def test_add_criteria_no_ops():
    theory = diamond_theory()
    tracker = fresh_tracker(theory)
    p_T, x, y = 1, 2, 3
    tracker.notify_becomes_true(x)
    tracker.notify_becomes_unknown(x)    # x offered to y, already watched
    assert tracker.watched_parent(y) == p_T
    assert tracker.watched_parent(x) == p_T
    tracker.notify_becomes_true(y)         # open y justified
    tracker.notify_becomes_true(x)
    tracker.notify_becomes_unknown(x)    # x offered to justified y
    assert tracker.watched_parent(y) is None
    tracker.notify_becomes_unknown(y)
    assert tracker.watched_parent(y) is not None    # relevant parents re-add


def test_remove_of_non_watch_is_no_op():
    theory = fork_theory()
    tracker = fresh_tracker(theory)
    x, y, w, v, u = 2, 3, 5, 6, 7
    tracker.notify_becomes_true(w)   # w withdrawn from y
    # y keeps x; a repair would have picked z, its first relevant parent
    assert tracker.watched_parent(y) == x
    assert tracker.watched_parent(v) == y
    assert tracker.watched_parent(u) == v


def test_relevant_offers_to_watched_children_are_ignored(loop):
    tracker = fresh_tracker(loop)
    p_T, p, q = 1, 3, 4
    assert tracker.watched_parent(q) == p   # the first read builds the watches
    before = dict(tracker._watch)
    tracker.notify_becomes_true(p)
    assert tracker.watched_parent(p) is None and tracker.watched_parent(q) is None
    # p relevant again: p takes p_T, its first relevant parent, and q, which
    # already has a watch by then, is not offered to p
    tracker.notify_becomes_unknown(p)
    assert tracker.watched_parent(p) == p_T
    assert tracker._watch == before


def test_irrelevant_on_childless_literal_is_no_op(loop):
    tracker = fresh_tracker(loop)
    before = tracker.relevant_literals()
    tracker.notify_becomes_true(2)  # open leaf; no children to notify
    assert tracker.relevant_literals() == before - {2}


def test_unjustify_theory_atom_restores_base_relevance(loop):
    tracker = fresh_tracker(loop)
    tracker.notify_becomes_true(2)
    tracker.notify_becomes_true(1)
    assert tracker.relevant_literals() == set()
    tracker.notify_becomes_unknown(1)
    assert tracker.is_relevant(1)
    # a is still true, hence still justified and not relevant
    assert tracker.relevant_literals() == {1, 3, 4}
    tracker.notify_becomes_unknown(2)
    assert tracker.relevant_literals() == {1, 2, 3, 4}


def test_double_justify_rejected(loop):
    tracker = fresh_tracker(loop)
    tracker.notify_becomes_true(2)
    with pytest.raises(ValueError, match="literal 2 is already justified"):
        tracker.notify_becomes_true(2)
    # one status per atom: its negation cannot be justified beside it
    with pytest.raises(ValueError, match="literal 2 is already justified"):
        tracker.notify_becomes_true(-2)
    assert tracker.justified_literals() == {2}


def test_unjustify_requires_justified(loop):
    tracker = fresh_tracker(loop)
    with pytest.raises(ValueError, match="not justified"):
        tracker.notify_becomes_unknown(2)


# -- randomized quiescent exactness --------------------------------------------------

def test_quiescent_exactness_on_random_traces():
    rng = random.Random(22)
    traces = 0
    checks = 0
    while traces < 40:
        theory = theory_gen.random_total_theory(rng, max_atoms=6, max_rules=5)
        if not oracle.is_total(theory.definition, theory.atoms.atoms()):
            continue
        traces += 1
        events, _ = theory_gen.random_trace(rng, theory, min_events=30)
        replayer = TraceReplayer(theory, check_oracle=True, debug=True)
        report = replayer.run(events)
        checks += report.oracle_checks
        assert report.ok, [m.message for m in report.mismatches]
    assert checks > 200


def test_reversibility_of_random_traces():
    rng = random.Random(23)
    for _ in range(25):
        theory = theory_gen.random_total_theory(rng, max_atoms=6, max_rules=5)
        events, unwind = theory_gen.random_trace(rng, theory, min_events=30)
        replayer = TraceReplayer(theory, debug=True)
        replayer.run(events + unwind)
        fresh = RelevanceTracker.for_theory(theory)
        assert replayer.tracker.relevant_literals() == fresh.relevant_literals()
        assert replayer.tracker.justified_literals() == set()


def send_random_event(rng, tracker, tracked, assigned):
    """Assign an unassigned tracked atom or unassign an assigned one, at
    random, and notify the tracker; returns the literal sent.  `assigned`
    maps each assigned tracked atom to the literal last sent true."""
    unassigned = [atom for atom in tracked if atom not in assigned]
    if unassigned and (not assigned or rng.random() < 0.5):
        atom = rng.choice(unassigned)
        lit = assigned[atom] = rng.choice((atom, -atom))
        tracker.notify_becomes_true(lit)
    else:
        lit = assigned.pop(rng.choice(sorted(assigned)))
        tracker.notify_becomes_unknown(lit)
    return lit


def test_tracker_against_reachability_under_solver_events():
    # Random assignments of the tracked atoms, reached only through the
    # solver events, with a read after each one.  The tracker's relevant
    # set is exactly the reachable one: it never adds a literal and never
    # misses one.
    rng = random.Random(0)
    states = missed_states = 0
    for _ in range(1000):
        theory = theory_gen.random_theory(rng)
        tracker = fresh_tracker(theory)
        tracked = list(theory.atoms.atoms())
        assigned = {}
        for _ in range(50):
            send_random_event(rng, tracker, tracked, assigned)
            want = tracker.graph.reachable(theory.theory_atom,
                                           tracker.justified_literals())
            got = tracker.relevant_literals()
            assert got <= want, (theory.definition.rules, sorted(got - want))
            states += 1
            missed_states += got != want
    assert states == 50_000
    assert missed_states == 0, missed_states


def test_tracker_against_reachability_under_batched_events():
    # The same with 1-8 events between reads, so that one settle takes the
    # whole batch.  Batches include a status flipped and flipped back, and
    # flips of the theory atom's status.
    rng = random.Random(1)
    states = missed_states = extra_states = 0
    flipped_back = theory_atom_flips = 0
    for _ in range(1000):
        theory = theory_gen.random_theory(rng)
        tracker = fresh_tracker(theory)
        tracked = list(theory.atoms.atoms())
        assigned = {}
        for _ in range(20):
            flips = [send_random_event(rng, tracker, tracked, assigned)
                     for _ in range(rng.randint(1, 8))]
            flipped_back += len(set(flips)) < len(flips)
            theory_atom_flips += theory.theory_atom in flips
            want = tracker.graph.reachable(theory.theory_atom,
                                           tracker.justified_literals())
            got = tracker.relevant_literals()
            states += 1
            missed_states += not want <= got
            extra_states += not got <= want
    assert states == 20_000
    assert flipped_back > 10_000 and theory_atom_flips > 5_000, (
        flipped_back, theory_atom_flips)
    assert (missed_states, extra_states) == (0, 0)


def test_noting_unchanged_keys_keeps_the_relevant_set_exact():
    # `note_changed` may name literals whose status did not change, as
    # `Justifier.take_changed` names a key popped and set again; the settle leaves
    # such keys as they were.  Batches of 0-3 events each come with a random
    # sample of literals noted on top, and after each read the relevant set
    # is exactly the reachable one.  Counted are the unchanged keys noted.
    rng = random.Random(2)
    states = unchanged_keys = 0
    for _ in range(500):
        theory = theory_gen.random_theory(rng)
        tracker = fresh_tracker(theory)
        tracked = list(theory.atoms.atoms())
        literals = [lit for atom in range(1, theory.n_atoms + 1) for lit in (atom, -atom)]
        assigned = {}
        assert tracker.is_relevant(theory.theory_atom)   # the first read
        for _ in range(20):
            flips = {send_random_event(rng, tracker, tracked, assigned)
                     for _ in range(rng.randint(0, 3))}
            noted = rng.sample(literals, rng.randint(1, len(literals)))
            unchanged_keys += sum(lit in tracker._watch and lit not in flips
                                  for lit in noted)
            tracker.note_changed(noted)
            want = tracker.graph.reachable(theory.theory_atom,
                                           tracker.justified_literals())
            assert tracker.relevant_literals() == want, theory.definition.rules
            states += 1
    assert states == 10_000 and unchanged_keys > 20_000, (states, unchanged_keys)


def test_first_read_settles_the_events_sent_before_it(monkeypatch):
    # Building a tracker runs no settle: its first read runs one, from the
    # theory atom, with the justified set that every event sent before that
    # read left.  After it every literal is relevant exactly when reachable.
    # Counted are the batches that flip a status and flip it back, that flip
    # the theory atom's status, and that leave the theory atom justified.
    settles = []
    settle = RelevanceTracker._settle
    monkeypatch.setattr(RelevanceTracker, "_settle",
                        lambda tracker: settles.append(tracker) or settle(tracker))
    rng = random.Random(4)
    flipped_back = theory_atom_flips = theory_atom_justified = 0
    for _ in range(1500):
        theory = theory_gen.random_theory(rng, max_atoms=10, max_rules=8)
        tracker = fresh_tracker(theory)
        tracked = list(theory.atoms.atoms())
        assigned = {}
        flips = [send_random_event(rng, tracker, tracked, assigned)
                 for _ in range(rng.randint(1, 12))]
        assert settles == []
        justified = tracker.justified_literals()
        want = tracker.graph.reachable(theory.theory_atom, justified)
        for atom in range(1, theory.n_atoms + 1):
            for lit in (atom, -atom):
                assert tracker.is_relevant(lit) == (lit in want), (
                    theory.definition.rules, flips, lit)
        assert settles == [tracker]
        settles.clear()
        flipped_back += len(set(flips)) < len(flips)
        theory_atom_flips += theory.theory_atom in flips
        theory_atom_justified += theory.theory_atom in justified
    assert (flipped_back > 1000 and theory_atom_flips > 400
            and theory_atom_justified > 200), (
        flipped_back, theory_atom_flips, theory_atom_justified)


def test_every_literal_is_relevant_exactly_when_reachable():
    # `is_relevant` and `watched_parent` on every literal, not only the
    # relevant set: a shallow literal (a leaf, or a frontier literal whose
    # children are all leaves), which has no watch, is relevant exactly when
    # it is unjustified and some parent is relevant, and `watched_parent`
    # names its first such parent.  Counted are the checks of a relevant
    # leaf and of a relevant frontier literal, each with two or more
    # parents whose first parent is irrelevant, and of an irrelevant
    # unjustified leaf with two or more parents.
    rng = random.Random(2)
    states = skipped_first = skipped_first_frontier = all_parents_irrelevant = 0
    for _ in range(600):
        theory = theory_gen.random_theory(rng, max_atoms=10, max_rules=8)
        tracker = fresh_tracker(theory)
        graph = tracker.graph
        deep = graph.deep_literals()
        tracked = list(theory.atoms.atoms())
        literals = [lit for atom in range(1, theory.n_atoms + 1) for lit in (atom, -atom)]
        assigned = {}
        for _ in range(15):
            for _ in range(rng.randint(1, 4)):
                send_random_event(rng, tracker, tracked, assigned)
            justified = tracker.justified_literals()
            want = graph.reachable(theory.theory_atom, justified)
            for lit in literals:
                assert tracker.is_relevant(lit) == (lit in want), (
                    theory.definition.rules, sorted(justified), lit)
                parent = tracker.watched_parent(lit)
                if lit in want and lit != theory.theory_atom:
                    assert parent in graph.parents_of(lit) and parent in want
                else:
                    assert parent is None
                parents = list(graph.parents_of(lit))
                if lit in deep or lit == theory.theory_atom or len(parents) < 2:
                    continue
                if lit in want:
                    assert parent == next(p for p in parents if p in want)
                    if graph.children_of(lit):
                        skipped_first_frontier += parent != parents[0]
                    else:
                        skipped_first += parent != parents[0]
                elif lit not in justified and not graph.children_of(lit):
                    all_parents_irrelevant += 1
            states += 1
    assert states == 9000
    assert (skipped_first > 400 and skipped_first_frontier > 20
            and all_parents_irrelevant > 2500), (
        skipped_first, skipped_first_frontier, all_parents_irrelevant)


def test_clause_atoms_of_a_3sat_theory_get_no_watch():
    # Every child of a normalized 3-SAT theory's clause atom is open, so
    # only the theory atom is deep: no clause atom or its negation gets a
    # watch, and flips of their statuses note nothing for the settle
    rng = random.Random(5)
    flips = 0
    for _ in range(20):
        theory = theory_gen.three_sat_theory(rng, 20, 85)
        tracker = fresh_tracker(theory)
        pt = theory.theory_atom
        clause_atoms = sorted(theory.defined - {pt})
        assert tracker.graph.deep_literals() == {pt, -pt}
        assert tracker.relevant_literals() >= set(clause_atoms)
        assert tracker._watch == {pt: 0, -pt: None}
        for atom in clause_atoms:
            assert tracker.watched_parent(atom) == pt
            assert tracker.watched_parent(-atom) is None   # ~pt is unreachable
        for atom in rng.sample(clause_atoms, 40):
            tracker.notify_becomes_true(rng.choice((atom, -atom)))
            flips += 1
            assert tracker._changed == []
        want = tracker.graph.reachable(pt, tracker.justified_literals())
        for atom in range(1, theory.n_atoms + 1):
            for lit in (atom, -atom):
                assert tracker.is_relevant(lit) == (lit in want)
        assert tracker._watch == {pt: 0, -pt: None}
    assert flips == 800


def shallow_theory_atom_theory(rng):
    """A random theory whose theory atom 1 is shallow: its rule's body holds
    only open literals, so it is a frontier literal, or nothing, so it is a
    leaf.  The other rules are as in `theory_gen.random_theory` and may read
    the theory atom."""
    n = rng.randint(3, 8)
    defined = rng.sample(range(2, n + 1), rng.randint(0, n - 2))
    opens = [atom for atom in range(2, n + 1) if atom not in defined]
    body = tuple(rng.choice((atom, -atom))
                 for atom in rng.sample(opens, rng.randint(0, min(3, len(opens)))))
    rules = [Rule(1, rng.random() < 0.5, body)]
    for head in defined:
        atoms = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        rules.append(Rule(head, rng.random() < 0.5,
                          tuple(-atom if rng.random() < 0.3 else atom for atom in atoms)))
    return theory_gen.DefnfTheory(theory_gen.AtomTable([None] * n), 1,
                                  theory_gen.Definition(rules))


def test_a_shallow_theory_atom_flips_after_the_first_read():
    # A shallow theory atom is a key of the watch map all the same: its
    # flips after the first read are noted and settled, and it takes the
    # root, never a parent, so `watched_parent` gives None for it.  After
    # each batch every literal is relevant exactly when reachable.  Counted
    # are the batches that justify the theory atom and those that take its
    # justification back, each after the first read, and the theories whose
    # theory atom has an empty body.
    rng = random.Random(6)
    justifying = unjustifying = empty_bodies = 0
    for _ in range(600):
        theory = shallow_theory_atom_theory(rng)
        tracker = fresh_tracker(theory)
        graph = tracker.graph
        pt = theory.theory_atom
        assert pt not in graph.deep_literals()
        empty_bodies += not graph.children_of(pt)
        tracked = list(theory.atoms.atoms())
        literals = [lit for atom in range(1, theory.n_atoms + 1) for lit in (atom, -atom)]
        assigned = {}
        assert tracker.is_relevant(pt)   # the first read
        for _ in range(12):
            before = pt in tracker.justified_literals()
            for _ in range(rng.randint(1, 4)):
                send_random_event(rng, tracker, tracked, assigned)
            justified = tracker.justified_literals()
            justifying += not before and pt in justified
            unjustifying += before and pt not in justified
            want = graph.reachable(pt, justified)
            for lit in literals:
                assert tracker.is_relevant(lit) == (lit in want), (
                    theory.definition.rules, sorted(justified), lit)
            assert tracker.watched_parent(pt) is None
    assert justifying > 500 and unjustifying > 400 and empty_bodies > 150, (
        justifying, unjustifying, empty_bodies)


# -- performance shape ------------------------------------------------------------------

def test_chain_notifications_are_local():
    # toggling justification near the tail of a long chain must not touch the
    # head: a few thousand toggles, each settled by a read, complete
    # instantly at depth 1
    size = 2000
    rules = [Rule(1, False, (2,))]
    rules += [Rule(a, False, (a + 1,)) for a in range(2, size)]
    theory = theory_gen.DefnfTheory(
        theory_gen.AtomTable([None] * size), 1,
        theory_gen.Definition(rules))
    setup = build_justification_maps(theory)
    tracker = RelevanceTracker.for_theory(theory, setup.graph)
    tail = size - 1
    for _ in range(3000):
        tracker.notify_becomes_true(tail)
        assert not tracker.is_relevant(size)
        tracker.notify_becomes_unknown(tail)
        assert tracker.is_relevant(size)
    assert tracker.is_relevant(2)
    assert tracker.query_count == 6001


# -- module boundary ----------------------------------------------------------------


def package_imports(module):
    """The `satid` modules that a module's source imports, wherever the
    import stands, `if TYPE_CHECKING:` blocks included."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if name in ("", "satid"):   # `from . import x`, `from satid import x`
                if node.level or name:
                    found.update(alias.name for alias in node.names)
            elif node.level or name.startswith("satid."):
                found.add(name.removeprefix("satid.").split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("satid."))
    return found


def test_the_tracker_and_the_justifier_do_not_import_each_other():
    # the solver wires the two together; the tracker stands on `core` alone
    assert package_imports(relevance) == {"core"}
    assert "relevance" not in package_imports(justifier)

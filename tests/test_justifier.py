import random

from satid import (AtomTable, DefnfTheory, Definition, Justifier, PartialInterpretation,
                   RelevanceTracker, Rule, build_justification_maps)
from satid import oracle

import theory_gen


def test_justification_definition_structure(justdef):
    # each head's body and count thresholds, indexed by atom, and the heads
    # each body literal occurs in; the definition has no positive loop, so
    # no loop rules
    setup = build_justification_maps(justdef)
    ids = justdef.atoms.id_of
    p_T, c1, c2, c3, c4, f = (ids(name) for name in ("p_T", "c1", "c2", "c3", "c4", "f"))
    assert list(setup.graph.bodies) == [p_T, c1, c2, c3, c4, f]
    # p_T <- c1 & c2 & c3 & c4 needs all four for true and one for false;
    # each disjunction needs one for true and all for false; the open
    # atoms a..e head no rule and count 0
    assert setup.need_true == [0, 4, 1, 1, 1, 1, 1] + [0] * 5
    assert setup.need_false == [0, 1, 2, 3, 3, 3, 2] + [0] * 5
    occurs = setup.graph.occurs
    b, d = ids("b"), ids("d")
    assert occurs[-b] == [c1, c3]     # c1 <- ~b | ~d, c3 <- ~b | e | ~f
    assert occurs[b] == [c2, f]       # c2 <- a | b | ~c, f <- b | d
    assert occurs[f] == [c4] and occurs[-f] == [c3]
    assert occurs[d] == [c4, f] and occurs[-d] == [c1]
    assert setup.loop_rules == {} and setup.loop_watches == {}


def test_empty_bodies_set_their_heads_at_the_root():
    # an empty conjunction is true and an empty disjunction false, before
    # any open literal is read; a head reading only such heads follows
    rules = [Rule(1, True, (2, -3)), Rule(2, True, ()), Rule(3, False, ())]
    theory = DefnfTheory(AtomTable([None] * 3), 1, Definition(rules))
    justifier = Justifier(build_justification_maps(theory))
    assert justifier.stack == [2, -3]
    justifier.sync([], [])
    assert justifier.stack == [2, -3, 1]


def test_take_changed_returns_the_literals_set_or_popped(justdef):
    # `take_changed` returns, for one note, the literals set since the last
    # take and the heard ones popped since; the tracker keeps the watch keys
    # among them, including a key popped and set again, whose status is the
    # same
    ids = justdef.atoms.id_of
    b, d, f, c1, c4, p_T = (ids(name) for name in ("b", "d", "f", "c1", "c4", "p_T"))
    setup = build_justification_maps(justdef)
    justifier = Justifier(setup)
    tracker = RelevanceTracker.for_theory(justdef, setup.graph, values=justifier.values)
    noted = []
    original = tracker.note_changed

    def note_changed(lits):
        noted.append(list(lits))
        original(noted[-1])

    tracker.note_changed = note_changed
    assert tracker.is_relevant(p_T)   # the first read builds the watch map
    assert set(tracker._watch) == {p_T, -p_T, ids("c3"), -ids("c3"), c4, -c4}
    # level 1 decides b, level 2 decides d
    trail, trail_lim = [b, d], [0, 1]
    justifier.sync(trail, trail_lim)
    tracker.note_changed(justifier.take_changed())
    # b justifies c2 and f, and f c4; b and d leave c1 <- ~b | ~d false
    level_1 = [b, ids("c2"), f, c4]
    level_2 = [d, -c1, -p_T]
    assert noted == [level_1 + level_2]
    assert tracker._changed == [c4, -p_T]
    assert tracker.relevant_literals() == tracker.graph.reachable(
        p_T, set(level_1 + level_2))
    assert justifier.lim == [0, len(level_1)]
    justifier.backtrack(0, 0)   # both levels undone
    assert justifier.stack == [] and justifier._unheard == level_1 + level_2
    justifier.sync([b], [0])    # b again, at level 1
    tracker.note_changed(justifier.take_changed())
    assert noted[1:] == [level_1 + level_2 + level_1]
    assert tracker._changed == [c4, -p_T, c4]
    assert not justifier._unheard and justifier._heard == len(level_1)
    justified = tracker.justified_literals()
    assert justified == justifier.justified_literals() == set(level_1)
    assert tracker.relevant_literals() == tracker.graph.reachable(p_T, justified)
    assert tracker.is_relevant(p_T) and not tracker.is_relevant(c4)
    assert tracker.is_relevant(c1)   # its negation no longer justified


def test_backtrack_pops_exactly_the_levels_above():
    # statuses tagged with a level come only from open literals of that
    # level and below: after each pop the set is the one of the trail that
    # is left, as a fresh justifier reads it, and as the oracle has it
    rng = random.Random(20)
    pops = 0
    for _ in range(300):
        theory = theory_gen.random_theory(rng, max_atoms=8, max_rules=8)
        setup = build_justification_maps(theory)
        opens = theory_gen.random_open_literals(rng, theory, density=0.9)
        rng.shuffle(opens)
        trail_lim = sorted(rng.sample(range(len(opens) + 1), rng.randint(0, len(opens))))
        justifier = Justifier(setup)
        justifier.sync(opens, trail_lim)
        while True:
            want = oracle.justified_literals(
                theory, PartialInterpretation.from_literals(opens))
            fresh = Justifier(setup)
            fresh.sync(opens, [])
            assert justifier.justified_literals() == fresh.justified_literals() == want
            if not trail_lim:
                break
            level = rng.randrange(len(trail_lim))
            justifier.backtrack(level, trail_lim[level])
            del opens[trail_lim[level]:], trail_lim[level:]
            justifier.sync(opens, trail_lim)
            pops += 1
    assert pops > 150, pops


def test_the_index_needs_no_atom_names():
    # the index is built from ids: named and unnamed tables give the same
    # one, and the table does not grow
    rules = [Rule(1, False, (2, 3)), Rule(3, True, (-2,))]
    named = AtomTable(["a", "j(a)", "b"])
    unnamed = AtomTable([None] * 3)
    indexes = []
    for table in (named, unnamed):
        setup = build_justification_maps(DefnfTheory(table, 1, Definition(rules)))
        assert len(table) == 3
        indexes.append((setup.graph.bodies, setup.need_true, setup.need_false,
                        setup.graph.occurs))
    assert indexes[0] == indexes[1] == ({1: (2, 3), 3: (-2,)}, [0, 1, 0, 1],
                                        [0, 2, 0, 1], {2: [1], 3: [1], -2: [3]})


def test_the_index_peels_through_empty_bodies():
    # the index's one walk counts each positive body literal that some rule
    # defines, and seeds its peel with the heads of empty bodies, which may
    # come after the rules that read them; `DependencyGraph.loop_atoms`
    # counts only the literals that head a body.  Both find the same loop
    # heads, and the loop index holds their rules in rule order
    cases = [
        ([Rule(1, True, (3,)), Rule(3, True, ())], []),
        ([Rule(1, True, (2, 3)), Rule(3, False, (2, -1)), Rule(2, True, ())], []),
        ([Rule(1, False, (2, 4)), Rule(2, False, (1,)), Rule(4, False, ())], [1, 2]),
        ([Rule(1, False, (2, 3)), Rule(2, True, (2, 5)), Rule(3, False, (4,)),
          Rule(4, True, ())], [1, 2]),
        ([Rule(3, False, (1, 1)), Rule(1, True, (2, 2, -5)), Rule(4, True, (2, 2)),
          Rule(2, False, (4, 5))], [3, 1, 4, 2]),
    ]
    for rules, want in cases:
        definition = Definition(rules)
        setup = build_justification_maps(DefnfTheory(AtomTable([None] * 5),
                                                     rules[0].head, definition))
        assert setup.graph.loop_atoms() == set(want), rules
        assert setup.loop_rules == {
            head: (position, definition.rule_for(head).conjunctive,
                   definition.rule_for(head).body)
            for position, head in enumerate(want)}, rules
        watches = {}
        for head in want:
            for lit in definition.rule_for(head).body:
                watches.setdefault(lit, []).append(head)
        assert setup.loop_watches == watches, rules


def test_the_justifier_reads_only_open_literals(intro):
    # the solver's values of defined atoms say nothing of their status: a
    # trail of defined literals, at any level, justifies nothing, and a sync
    # with nothing new to read changes nothing
    ids = intro.atoms.id_of
    p_T, a, b, e, d = (ids(name) for name in ("p_T", "a", "b", "e", "d"))
    justifier = Justifier(build_justification_maps(intro))
    trail, trail_lim = [p_T, a, b, -e], [2, 3]
    justifier.sync(trail, trail_lim)
    assert justifier.stack == [] and justifier.lim == [0, 0]
    assert justifier.read == len(trail)
    trail.append(d)   # the open d, at level 2: a <- d | ~e | f
    justifier.sync(trail, trail_lim)
    assert justifier.stack == [d, a] and justifier.lim == [0, 0]
    justifier.sync(trail, trail_lim)
    assert justifier.stack == [d, a] and justifier.read == len(trail)


def test_a_sync_closes_only_the_levels_it_reads_into():
    # the stack is at its fixpoint after each close, and a backtrack pops it
    # back to one: the first sync closes, even over an empty trail, for the
    # loop part's first pass, and after it a level closes only when it has
    # read an open literal, so a second sync over an unchanged trail runs no
    # close and no loop pass
    rng = random.Random(23)
    theory = theory_gen.shuffled_loops_theory(rng, 4, 16)
    setup = build_justification_maps(theory)
    assert setup.loop_rules
    justifier = Justifier(setup)
    calls = []

    def counted(name, method):
        def call():
            calls.append(name)
            return method()
        return call

    justifier._close = counted("close", justifier._close)
    justifier.loop.unfounded = counted("loop", justifier.loop.unfounded)

    def sync(trail, trail_lim):
        calls.clear()
        justifier.sync(trail, trail_lim)
        fresh = Justifier(setup)
        fresh.sync(trail, [])
        assert justifier.justified_literals() == fresh.justified_literals()
        return list(calls)

    assert sync([], []) == ["close", "loop"]
    assert sync([], []) == []
    opens = [rng.choice((atom, -atom)) for atom in sorted(theory.opens)]
    # level 0 reads one open literal, level 1 a defined one only, level 2
    # two open ones
    trail, trail_lim = [opens[0], theory.theory_atom, *opens[1:3]], [1, 2]
    # (a loop pass that falsifies atoms is followed by another)
    assert sync(trail, trail_lim).count("close") == 2
    assert sync(trail, trail_lim) == []
    justifier.backtrack(1, 2)
    assert sync(trail[:2], [1]) == []
    assert sync(trail[:2] + [opens[3]], [1])[:2] == ["close", "loop"]


def test_loop_statuses_follow_the_open_supports():
    # T <- p_1 & ... & p_n, p_i <- q_i | o_i, q_i <- p_i: p_i and q_i are
    # justified true once o_i is true, and false, as an unfounded set, once
    # o_i is false; T follows.  Checked against the well-founded model after
    # each level and after each pop
    rng = random.Random(21)
    unfounded = 0
    for _ in range(20):
        theory = theory_gen.shuffled_loops_theory(rng, 12, 40)
        setup = build_justification_maps(theory)
        opens = [rng.choice((atom, -atom)) for atom in sorted(theory.opens)]
        trail_lim = sorted(rng.sample(range(1, len(opens)), 6))
        justifier = Justifier(setup)
        for level in range(len(trail_lim) + 1):
            trail = opens[:trail_lim[level] if level < len(trail_lim) else None]
            justifier.sync(trail, trail_lim[:level])
            want = oracle.well_founded_model(
                theory.definition, PartialInterpretation.from_literals(trail))
            assert justifier.justified_literals() == set(want.true_literals())
        unfounded += sum(1 for lit in justifier.stack
                         if lit < 0 and -lit in setup.loop_rules)
        for level in reversed(range(len(trail_lim))):
            justifier.backtrack(level, trail_lim[level])
            trail = opens[:trail_lim[level]]
            justifier.sync(trail, trail_lim[:level])
            want = oracle.well_founded_model(
                theory.definition, PartialInterpretation.from_literals(trail))
            assert justifier.justified_literals() == set(want.true_literals())
    assert unfounded > 100, unfounded


def test_justifier_matches_the_well_founded_model_on_3sat():
    # past the oracle's search guard: normalized 3-SAT theories at random
    # open assignments spread over levels, against the alternating fixpoint
    rng = random.Random(22)
    justified_clauses = 0
    for _ in range(30):
        theory = theory_gen.three_sat_theory(rng, 20, 85)
        opens = theory_gen.random_open_literals(rng, theory, density=0.6)
        rng.shuffle(opens)
        trail_lim = sorted(rng.sample(range(len(opens) + 1), 5))
        justifier = Justifier(build_justification_maps(theory))
        justifier.sync(opens, trail_lim)
        want = oracle.well_founded_model(
            theory.definition, PartialInterpretation.from_literals(opens))
        assert justifier.justified_literals() == set(want.true_literals())
        justified_clauses += sum(1 for lit in justifier.stack
                                 if abs(lit) in theory.defined)
    assert justified_clauses > 1500, justified_clauses

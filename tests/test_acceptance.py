"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import itertools
import random
import time

from satid import (PartialInterpretation, RelevanceTracker, Rule, Solver,
                   SolverConfig, UNKNOWN, atom_of, build_justification_maps,
                   defined_fixpoint)
from satid.core import AtomTable, DefnfTheory, Definition
from satid.formats import BECOMES_TRUE, BECOMES_UNKNOWN, TraceEvent
from satid.replay import TraceReplayer
from satid import oracle

import theory_gen
from test_engine import FilteredPickRecorder, NoFlipSolver

ALL_CONFIGS = [
    SolverConfig(relevance_filter=filt, stop_on_justified=stop, debug=True)
    for filt, stop in itertools.product((True, False), (True, False))
]


@functools.lru_cache(maxsize=None)
def solver_corpus() -> tuple:
    rng = random.Random(202608)
    theories = []
    while len(theories) < 500:
        theory = theory_gen.random_total_theory(rng, max_atoms=8, max_rules=8)
        if oracle.is_total(theory.definition, theory.atoms.atoms()):
            theories.append(theory)
    return tuple(theories)


@functools.lru_cache(maxsize=None)
def trace_corpus() -> tuple:
    rng = random.Random(54188)
    corpus = []
    while len(corpus) < 200:
        theory = theory_gen.random_total_theory(rng, max_atoms=6, max_rules=5)
        if not oracle.is_total(theory.definition, theory.atoms.atoms()):
            continue
        setup = build_justification_maps(theory)
        events, unwind = theory_gen.random_trace(rng, theory, setup,
                                                 min_events=50)
        corpus.append((theory, setup, tuple(events), tuple(unwind)))
    return tuple(corpus)


def test_criterion_1_solver_matches_oracle_on_500_theories():
    start = time.monotonic()
    theories = solver_corpus()
    disagreements = 0
    for theory in theories:
        want = "sat" if oracle.enumerate_models(theory) else "unsat"
        for config in ALL_CONFIGS:
            # NoFlipSolver raises if the relevant set ever runs empty
            result = NoFlipSolver(theory, config).solve()
            if result.status != want:
                disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 solver/oracle equivalence: PASS "
          f"(500 theories x {len(ALL_CONFIGS)} configs, 0 disagreements, "
          f"{elapsed:.1f}s)")


def test_criterion_2_propagation_equals_justified_status():
    rng = random.Random(90125)
    mismatches = 0
    checked = 0
    for _ in range(300):
        while True:
            theory = theory_gen.random_total_theory(rng, max_atoms=14,
                                                    max_rules=12)
            if len(theory.defined) <= 12 and oracle.is_total(
                    theory.definition, theory.atoms.atoms()):
                break
        opens = theory_gen.random_open_literals(rng, theory)
        fixpoint = defined_fixpoint(theory, opens)
        state = PartialInterpretation.from_literals(opens)
        for atom in sorted(theory.defined):
            checked += 1
            if fixpoint[atom] != oracle.justified_status(theory, state, atom):
                mismatches += 1
    assert mismatches == 0
    print(f"ACCEPTANCE 2 propagation = justifiedness: PASS "
          f"(300 definitions, {checked} defined atoms, 0 mismatches)")


def test_criterion_3_relevance_quiescent_exactness():
    mismatches = 0
    quiescent_checks = 0
    backtracks = 0
    for theory, setup, events, _ in trace_corpus():
        assert len(events) >= 50
        backtracks += sum(1 for e in events if e.kind == BECOMES_UNKNOWN)
        replayer = TraceReplayer(theory, setup=setup, check_oracle=True,
                                 debug=True)
        report = replayer.run(list(events))
        quiescent_checks += report.oracle_checks
        mismatches += len(report.mismatches)
    assert backtracks > 0
    assert mismatches == 0
    print(f"ACCEPTANCE 3 relevance quiescent exactness: PASS "
          f"(200 traces, {quiescent_checks} quiescent comparisons, "
          f"{backtracks} backtrack events, 0 mismatches)")


def test_criterion_4_golden_examples():
    # (a) structure of the justification copy
    justdef = theory_gen.justdef_theory()
    setup = build_justification_maps(justdef)
    ids = {name: justdef.atoms.id_of(name) for name in "abcde"}
    j = {name: setup.maps.to_just[justdef.atoms.id_of(name)]
         for name in ("p_T", "c1", "c2", "c3", "c4", "f")}
    copy = theory_gen.combined_definition(setup)
    by_name = {name: copy.rule_for(j_atom) for name, j_atom in j.items()}
    assert by_name["p_T"].conjunctive
    assert by_name["p_T"].body == (j["c1"], j["c2"], j["c3"], j["c4"])
    assert by_name["c1"].body == (-ids["b"], -ids["d"])
    assert by_name["c2"].body == (ids["a"], ids["b"], -ids["c"])
    assert by_name["c3"].body == (-ids["b"], ids["e"], -j["f"])
    assert by_name["c4"].body == (ids["d"], j["f"], -ids["a"])
    assert by_name["f"].body == (ids["b"], ids["d"])

    # (b) justified prefix and pruned negated literal
    intro = theory_gen.intro_theory()
    names = intro.atoms
    prefix = PartialInterpretation.from_literals(
        [names.id_of(x) for x in ("p_T", "a", "b", "c", "d")])
    assert oracle.justified(intro, prefix, names.id_of("p_T"))
    intro_setup = build_justification_maps(intro)
    tracker = RelevanceTracker.for_theory(intro, intro_setup, debug=True)
    tracker.notify_becomes_true(names.id_of("d"))
    tracker.notify_becomes_true(intro_setup.maps.to_just[names.id_of("a")])
    assert not tracker.is_relevant(-names.id_of("e"))

    # (c) loop theory: initial candidate parents, then collapse after support
    loop = theory_gen.loop_theory()
    loop_setup = build_justification_maps(loop)
    loop_tracker = RelevanceTracker.for_theory(loop, loop_setup, debug=True)
    p_T, a, p, q = 1, 2, 3, 4
    assert loop_tracker.graph.parents_of(p) == {p_T, q}
    assert loop_tracker.graph.parents_of(q) == {p}
    assert loop_tracker.watched_parent(p) == p_T
    assert loop_tracker.watched_parent(q) == p
    loop_tracker.notify_becomes_true(a)
    loop_tracker.notify_becomes_true(loop_setup.maps.to_just[p_T])
    loop_tracker.notify_becomes_true(-loop_setup.maps.to_just[p])
    loop_tracker.notify_becomes_true(-loop_setup.maps.to_just[q])
    for lit in (p_T, a, p, q):
        assert not loop_tracker.is_relevant(lit)
    # p's other parent q keeps no watch that would close the loop p <-> q
    assert loop_tracker.watched_parent(p) is None
    assert loop_tracker.watched_parent(q) is None
    print("ACCEPTANCE 4 golden examples: PASS "
          "(justification copy, justified prefix, loop collapse)")


def test_criterion_5_early_stop_counts_match_oracle():
    early_stops = 0
    for theory in solver_corpus():
        for config in ALL_CONFIGS:
            solver = Solver(theory, config)
            result = solver.solve()
            if result.status == "sat" and result.stats.stopped_early:
                early_stops += 1
                witness = result.witness_restricted(theory)
                assert oracle.justified(theory, witness, theory.theory_atom)
                count = oracle.count_models_extending(theory, witness)
                assert count == result.stats.models_represented
                assert count == solver.report_justified_count()
    assert early_stops > 0
    print(f"ACCEPTANCE 5 early-stop model counts: PASS "
          f"({early_stops} early stops, all counts equal 2^n)")


def test_criterion_6_irrelevant_flips_preserve_justification():
    # a literal is flippable when its atom is unknown and irrelevant in both
    # polarities (the atom the relevance filter would never decide); flipping
    # it either way must keep the theory atom justified in any justifying
    # extension
    checked_states = 0
    flips = 0
    violations = 0
    for theory, setup, events, _ in trace_corpus()[:80]:
        for state in _batch_states(theory, setup, events)[:3]:
            extension = _justifying_extension(theory, state)
            if extension is None:
                continue
            checked_states += 1
            relevant = oracle.relevant_set(theory, state)
            for atom in theory.atoms.atoms():
                if state.value(atom) is not UNKNOWN:
                    continue
                if atom in relevant or -atom in relevant:
                    continue
                flips += 1
                for value in (atom, -atom):
                    flipped = extension.with_literal(value)
                    if not oracle.justified(theory, flipped,
                                            theory.theory_atom):
                        violations += 1
    assert checked_states > 0 and flips > 0
    assert violations == 0
    print(f"ACCEPTANCE 6 irrelevant flips keep justification: PASS "
          f"({checked_states} states, {flips} undecidable atoms flipped "
          f"both ways, 0 violations)")


def _batch_states(theory, setup, events):
    """Interpretations at batch boundaries (tracker flags match the oracle)."""
    states = []
    interp = PartialInterpretation()
    tracker_justified: set[int] = set()
    for event in events:
        if event.kind == BECOMES_TRUE:
            interp.set_literal(event.literal)
            change = setup.maps.status_change.get(event.literal)
            if change is not None:
                tracker_justified.add(change)
        elif event.kind == BECOMES_UNKNOWN:
            change = setup.maps.status_change.get(event.literal)
            if change is not None:
                tracker_justified.discard(change)
            interp.unset(atom_of(event.literal))
        else:
            continue
        original = interp.restrict(theory.atoms.atoms())
        if oracle.justified_literals(theory, original) == tracker_justified:
            states.append(original)
    return states


def _justifying_extension(theory, state):
    unassigned = [a for a in sorted(theory.opens)
                  if state.value(a) is UNKNOWN]
    for signs in itertools.product((1, -1), repeat=len(unassigned)):
        extension = state.copy()
        for sign, atom in zip(signs, unassigned):
            extension.set_literal(sign * atom)
        if oracle.justified(theory, extension, theory.theory_atom):
            return extension
    return None


def test_criterion_7_structural_invariants():
    # watch acyclicity and watch validity: full-scan validation after every
    # notification, on the whole trace corpus
    for theory, setup, events, unwind in trace_corpus()[:100]:
        replayer = TraceReplayer(theory, setup=setup, debug=True)
        for event in [*events, *unwind]:
            replayer.apply(event)
            replayer.tracker.validate()
        # trace reversibility: the unwound state equals a fresh tracker
        fresh = RelevanceTracker.for_theory(theory, setup)
        assert replayer.tracker.relevant_literals() == fresh.relevant_literals()
        assert replayer.tracker.justified_literals() == set()

    # justification atoms never decided, and filtered decisions are relevant
    # for the oracle at the moment of the decision
    decisions_checked = 0
    for theory in solver_corpus()[:150]:
        for stop in (True, False):
            config = SolverConfig(relevance_filter=True, stop_on_justified=stop,
                                  debug=True)
            solver = FilteredPickRecorder(theory, config)
            solver.solve()
            for start in solver.trail_lim:
                assert abs(solver.trail[start]) not in solver._just_atoms
            for atom, state in solver.filtered:
                relevant = oracle.relevant_set(theory, state)
                assert atom in relevant or -atom in relevant
                decisions_checked += 1
    print(f"ACCEPTANCE 7 structural invariants: PASS "
          f"(100 traces validated and reversed, {decisions_checked} filtered "
          f"decisions oracle-relevant, no justification atom decided)")


def test_criterion_8_incremental_tracker_performance():
    size = 10_000
    rules = [Rule(1, False, (2,))]
    rules += [Rule(atom, False, (atom + 1,)) for atom in range(2, size)]
    theory = DefnfTheory(AtomTable([None] * size), 1, Definition(rules))
    setup = build_justification_maps(theory)
    to_just = setup.maps.to_just

    events = [TraceEvent(BECOMES_TRUE, size)]
    events += [TraceEvent(BECOMES_TRUE, to_just[a]) for a in range(size - 1, 0, -1)]
    events += [TraceEvent(BECOMES_UNKNOWN, to_just[a]) for a in range(1, size)]
    events.append(TraceEvent(BECOMES_UNKNOWN, size))
    rng = random.Random(0)
    while len(events) < 100_000:
        depth = rng.randint(2, 12)
        tail = range(size - 1, size - 1 - depth, -1)
        events += [TraceEvent(BECOMES_TRUE, to_just[a]) for a in tail]
        events.append(TraceEvent("query_relevant", rng.randint(1, size)))
        events += [TraceEvent(BECOMES_UNKNOWN, to_just[a]) for a in reversed(tail)]
        events.append(TraceEvent("query_relevant", rng.randint(1, size)))
    events = events[:100_000]

    start = time.monotonic()
    replayer = TraceReplayer(theory, setup=setup)
    replayer.run(events)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 8 incremental tracker performance: PASS "
          f"({len(events)} events over a {size}-atom chain in {elapsed:.2f}s)")

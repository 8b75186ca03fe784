"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import itertools
import random
import time

from satid import (Justifier, PartialInterpretation, RelevanceTracker, Rule,
                   Solver, SolverConfig, UNKNOWN, atom_of, build_justification_maps,
                   defined_fixpoint, parse_cid)
from satid.core import AtomTable, DefnfTheory, Definition
from satid.formats import BECOMES_TRUE, BECOMES_UNKNOWN, TraceEvent
from satid.replay import TraceReplayer
from satid import oracle

import theory_gen
from test_engine import (FilteredPickRecorder, NoFlipSolver,
                         has_cycle_through_negation)

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
        events, unwind = theory_gen.random_trace(rng, theory, min_events=80)
        corpus.append((theory, tuple(events), tuple(unwind)))
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
    # (a) on total definitions without a cycle through negation, propagation
    # from the open literals alone derives exactly the justified statuses
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

    # (b) the justifier's justified set is the oracle's, on both generators,
    # non-total definitions and cycles through negation included, at a
    # random open assignment spread over levels and again after each random
    # pop to a lower level
    rng = random.Random(90126)
    sets = pops = unstratified = 0
    for generate in (theory_gen.random_total_theory, theory_gen.random_theory):
        for _ in range(300):
            while True:
                theory = generate(rng, max_atoms=14, max_rules=12)
                if len(theory.defined) <= 12:
                    break
            unstratified += has_cycle_through_negation(theory)
            setup = build_justification_maps(theory)
            opens = theory_gen.random_open_literals(rng, theory)
            rng.shuffle(opens)
            trail_lim = sorted(rng.sample(range(len(opens) + 1),
                                          rng.randint(0, len(opens))))
            justifier = Justifier(setup)
            justifier.sync(opens, trail_lim)
            while True:
                sets += 1
                want = oracle.justified_literals(
                    theory, PartialInterpretation.from_literals(opens))
                if justifier.justified_literals() != want:
                    mismatches += 1
                if not trail_lim:
                    break
                level = rng.randrange(len(trail_lim))
                justifier.backtrack(level, trail_lim[level])
                del opens[trail_lim[level]:], trail_lim[level:]
                justifier.sync(opens, trail_lim)
                pops += 1
    assert mismatches == 0
    assert unstratified > 100 and pops > 300, (unstratified, pops)
    print(f"ACCEPTANCE 2 propagation = justifiedness: PASS "
          f"(300 definitions, {checked} defined atoms; justifier on {sets} "
          f"justified sets of 600 definitions, {unstratified} with a cycle "
          f"through negation, {pops} pops; 0 mismatches)")


def test_criterion_3_relevance_quiescent_exactness():
    mismatches = 0
    quiescent_checks = 0
    backtracks = 0
    for theory, events, _ in trace_corpus():
        assert len(events) >= 50
        backtracks += sum(1 for e in events if e.kind == BECOMES_UNKNOWN)
        replayer = TraceReplayer(theory, check_oracle=True, debug=True)
        report = replayer.run(list(events))
        quiescent_checks += report.oracle_checks
        mismatches += len(report.mismatches)
    assert backtracks > 0
    assert mismatches == 0
    print(f"ACCEPTANCE 3 relevance quiescent exactness: PASS "
          f"(200 traces, {quiescent_checks} quiescent comparisons, "
          f"{backtracks} backtrack events, 0 mismatches)")


def test_criterion_4_golden_examples():
    # (a) the justifier on the four checks: b and e justify every check but
    # c1 <- ~b | ~d, and with d false the theory atom
    justdef = theory_gen.justdef_theory()
    setup = build_justification_maps(justdef)
    ids = {name: justdef.atoms.id_of(name)
           for name in ("p_T", "c1", "c2", "c3", "c4", "f", "b", "d", "e")}
    # per atom: p_T, c1, c2, c3, c4 and f head rules, the opens a..e none
    assert setup.need_true == [0, 4, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    assert setup.need_false == [0, 1, 2, 3, 3, 3, 2, 0, 0, 0, 0, 0]
    justifier = Justifier(setup)
    justifier.sync([ids["b"], ids["e"], -ids["d"]], [2])
    level_0 = {ids[name] for name in ("b", "e", "c2", "c3", "c4", "f")}
    assert justifier.lim == [len(level_0)]
    assert set(justifier.stack[:len(level_0)]) == level_0
    assert justifier.stack[len(level_0):] == [-ids["d"], ids["c1"], ids["p_T"]]
    justifier.backtrack(0, 2)
    assert justifier.values[ids["p_T"]] == justifier.values[ids["c1"]] == 0

    # (b) justified prefix and pruned negated literal
    intro = theory_gen.intro_theory()
    names = intro.atoms
    prefix = PartialInterpretation.from_literals(
        [names.id_of(x) for x in ("p_T", "a", "b", "c", "d")])
    assert oracle.justified(intro, prefix, names.id_of("p_T"))
    intro_setup = build_justification_maps(intro)
    tracker = RelevanceTracker.for_theory(intro, intro_setup.graph, debug=True)
    tracker.notify_becomes_true(names.id_of("d"))
    tracker.notify_becomes_true(names.id_of("a"))
    assert not tracker.is_relevant(-names.id_of("e"))

    # (c) loop theory: initial candidate parents, then collapse after support
    loop = theory_gen.loop_theory()
    loop_setup = build_justification_maps(loop)
    loop_tracker = RelevanceTracker.for_theory(loop, loop_setup.graph, debug=True)
    p_T, a, p, q = 1, 2, 3, 4
    assert list(loop_tracker.graph.parents_of(p)) == [p_T, q]
    assert list(loop_tracker.graph.parents_of(q)) == [p]
    assert loop_tracker.watched_parent(p) == p_T
    assert loop_tracker.watched_parent(q) == p
    loop_tracker.notify_becomes_true(a)
    loop_tracker.notify_becomes_true(p_T)
    loop_tracker.notify_becomes_true(-p)
    loop_tracker.notify_becomes_true(-q)
    for lit in (p_T, a, p, q):
        assert not loop_tracker.is_relevant(lit)
    # p's other parent q keeps no watch that would close the loop p <-> q
    assert loop_tracker.watched_parent(p) is None
    assert loop_tracker.watched_parent(q) is None
    print("ACCEPTANCE 4 golden examples: PASS "
          "(justifier, justified prefix, loop collapse)")


# `random` benchmark seed 1 no. 223: the total definition 1 <- ~1 | 2 | ~3,
# 2 <- 3, whose completion makes atom 1 true at the root although 1 is not
# justified before 3 is assigned
NEGATIVE_CYCLE_CID = "p cid 3\nt 1\nr 1 d -1 2 -3 0\nr 2 d 3 0\n"


@functools.lru_cache(maxsize=None)
def unstratified_total_corpus() -> tuple:
    """No. 223 and total `random_theory` definitions with a cycle through
    negation."""
    rng = random.Random(202609)
    theories = [parse_cid(NEGATIVE_CYCLE_CID)]
    while len(theories) < 150:
        theory = theory_gen.random_theory(rng, max_atoms=8, max_rules=8)
        if has_cycle_through_negation(theory) and oracle.is_total(
                theory.definition, theory.atoms.atoms()):
            theories.append(theory)
    return tuple(theories)


def test_criterion_5_early_stop_counts_match_oracle():
    early_stops = unstratified = 0
    for theory in solver_corpus() + unstratified_total_corpus():
        for config in ALL_CONFIGS:
            solver = Solver(theory, config)
            result = solver.solve()
            if result.status == "sat" and result.stats.stopped_early:
                early_stops += 1
                unstratified += has_cycle_through_negation(theory)
                witness = result.witness
                assert oracle.justified(theory, witness, theory.theory_atom)
                count = oracle.count_models_extending(theory, witness)
                assert count == result.stats.models_represented
                assert count == 2 ** solver.report_justified_log2()
    assert early_stops > 0 and unstratified > 100, (early_stops, unstratified)
    # no. 223 stops once 3 is assigned, not at the root
    for config in ALL_CONFIGS:
        result = Solver(parse_cid(NEGATIVE_CYCLE_CID), config).solve()
        assert result.stats.stopped_early == config.stop_on_justified
        assert result.stats.decisions == 1
    print(f"ACCEPTANCE 5 early-stop model counts: PASS "
          f"({early_stops} early stops, {unstratified} on total definitions with "
          f"a cycle through negation, all counts equal 2^n)")


def test_criterion_6_irrelevant_flips_preserve_justification():
    # a literal is flippable when its atom is unknown and irrelevant in both
    # polarities (the atom the relevance filter would never decide); flipping
    # it either way must keep the theory atom justified in any justifying
    # extension
    checked_states = 0
    flips = 0
    violations = 0
    for theory, events, _ in trace_corpus()[:80]:
        for state in _batch_states(theory, events)[:4]:
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


def _batch_states(theory, events):
    """Open-atom interpretations at batch boundaries (the events' justified
    set matches the oracle's)."""
    states = []
    interp = PartialInterpretation()
    tracker_justified: set[int] = set()
    for event in events:
        if event.kind == BECOMES_TRUE:
            interp.set_literal(event.literal)
            tracker_justified.add(event.literal)
        elif event.kind == BECOMES_UNKNOWN:
            tracker_justified.discard(event.literal)
            interp.unset(atom_of(event.literal))
        else:
            continue
        opens = interp.restrict(theory.opens)
        if oracle.justified_literals(theory, opens) == tracker_justified:
            states.append(opens)
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
    for theory, events, unwind in trace_corpus()[:100]:
        replayer = TraceReplayer(theory, debug=True)
        for event in [*events, *unwind]:
            replayer.apply(event)
            replayer.tracker.validate()
        # trace reversibility: the unwound state equals a fresh tracker
        fresh = RelevanceTracker.for_theory(theory)
        assert replayer.tracker.relevant_literals() == fresh.relevant_literals()
        assert replayer.tracker.justified_literals() == set()

    # every decision is over one of the theory's atoms, and filtered
    # decisions are relevant for the oracle at the moment of the decision
    decisions_checked = 0
    for theory in solver_corpus()[:150]:
        for stop in (True, False):
            config = SolverConfig(relevance_filter=True, stop_on_justified=stop,
                                  debug=True)
            solver = FilteredPickRecorder(theory, config)
            solver.solve()
            for start in solver.trail_lim:
                assert 1 <= abs(solver.trail[start]) <= theory.n_atoms
            for atom, state in solver.filtered:
                relevant = oracle.relevant_set(theory, state)
                assert atom in relevant or -atom in relevant
                decisions_checked += 1
    print(f"ACCEPTANCE 7 structural invariants: PASS "
          f"(100 traces validated and reversed, {decisions_checked} filtered "
          f"decisions oracle-relevant, every decision over a theory atom)")


def test_criterion_8_incremental_tracker_performance():
    size = 10_000
    rules = [Rule(1, False, (2,))]
    rules += [Rule(atom, False, (atom + 1,)) for atom in range(2, size)]
    theory = DefnfTheory(AtomTable([None] * size), 1, Definition(rules))

    events = [TraceEvent(BECOMES_TRUE, size)]
    events += [TraceEvent(BECOMES_TRUE, a) for a in range(size - 1, 0, -1)]
    events += [TraceEvent(BECOMES_UNKNOWN, a) for a in range(1, size)]
    events.append(TraceEvent(BECOMES_UNKNOWN, size))
    rng = random.Random(0)
    while len(events) < 100_000:
        depth = rng.randint(2, 12)
        tail = range(size - 1, size - 1 - depth, -1)
        events += [TraceEvent(BECOMES_TRUE, a) for a in tail]
        events.append(TraceEvent("query_relevant", rng.randint(1, size)))
        events += [TraceEvent(BECOMES_UNKNOWN, a) for a in reversed(tail)]
        events.append(TraceEvent("query_relevant", rng.randint(1, size)))
    events = events[:100_000]

    start = time.monotonic()
    replayer = TraceReplayer(theory)
    replayer.run(events)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 8 incremental tracker performance: PASS "
          f"({len(events)} events over a {size}-atom chain in {elapsed:.2f}s)")

"""Run one benchmark workload against the satid library and print its metrics.

    python3 bench/run.py --workload {chain,loops,3sat,random} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from `src/`, and
nothing is installed.  The seed fixes a batch of generated instances
(`families.py`); the run answers the whole batch in rounds, single-threaded
with the default `SolverConfig` plus a conflict budget, for as many rounds
as fit in `--seconds` (at least two).  Every instance goes text -> parse
(-> normalize) -> justification copy -> `Solver` -> `solve()`, and the
calls into each layer are timed from here, outside the library.

`--trace 0` reports the end-to-end metrics from untraced rounds.
`--trace 1` runs untraced rounds for the first half of the time and traced
rounds for the rest, and reports per-layer self times and counts, the
tracing overhead, and the part of the traced wall time no layer accounts
for; the spans of the first traced round are written to
`.bench_out/<workload>.spans.json`.

Answers from the first round are checked afterwards against references that
share no code with the solver (`answers.py`).  Every later round, traced or
not, must reproduce the first round's answers and counters exactly.  The
last line of output is one JSON object: `correct` (all counts reproduced,
and no wrong answer outside the known defect on definitions with a cycle
through negation), `attempted` and `failed` (the batch's instances, and those
answered wrongly or out of budget; counted once, not per round, so that they
repeat for a seed) and `metrics`.  The lines before it
name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import operator
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import families
import spans

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# Far above what any generated instance needs; running out counts as a failure.
MAX_CONFLICTS = 20_000

# A shared host runs the same Python code 10-40% faster or slower for
# seconds to tens of seconds at a time, so raw times of equal runs scatter
# by more than any useful regression bound.  A fixed pure-Python loop that
# shares no code with the library is therefore timed before a round and
# after every eighth of it, and each instance's times are reported scaled by
# REFERENCE_CALIBRATION_S / (the mean of the two loop timings around it):
# seconds on a machine whose loop takes exactly that long, about the quiet
# speed of the 2-vCPU 2.1 GHz host the baselines in README.md come from.
# Unscaled times are printed beside them.
CALIBRATION_LOOP = 50_000
REFERENCE_CALIBRATION_S = 0.0035
CALIBRATION_POINTS = 8

COUNTERS = ("decisions", "conflicts", "propagations", "unfounded_sets",
            "relevance_queries", "learned_clauses", "restarts", "early_stops")
SOLVER_SPANS = (("engine.unit", "propagate_unit"),
                ("engine.unfounded", "propagate_unfounded"),
                ("engine.analyze", "analyze_conflict"),
                ("engine.pick", "_pick_atom"),
                ("engine.backtrack", "_backtrack"))
TRACKER_SPANS = (("relevance.notify", "notify_becomes_true"),
                 ("relevance.notify", "notify_becomes_unknown"),
                 ("relevance.query", "is_relevant"))
LAYERS = ("formats.parse", "normalize", "justifier.build", "relevance.init",
          "engine.init", "engine.search", "engine.unit", "engine.unfounded",
          "engine.analyze", "engine.pick", "engine.backtrack",
          "relevance.notify", "relevance.query")
SPAN_CALLS = ("engine.unfounded", "relevance.notify", "relevance.query")
# Self times of layers that some workload never enters (normalize runs only
# on 3sat; chain makes no decisions, chain and loops no conflicts).  They are
# printed on every workload but left out of the JSON result, whose metrics
# must be measured on every run.
PRINTED_ONLY = ("normalize.self_s", "engine.analyze.self_s", "engine.pick.self_s",
                "engine.backtrack.self_s", "relevance.query.self_s")


class Outcome(NamedTuple):
    """What one solve produced; must repeat exactly for the same instance."""

    status: str  # "sat" | "unsat" | "budget"
    counts: tuple[int, ...]  # in COUNTERS order
    models_represented: int | None
    witness: tuple[int, ...]  # true literals over the input's own atoms

    @property
    def early_stop(self) -> bool:
        return self.counts[COUNTERS.index("early_stops")] == 1


@dataclass
class Round:
    setup_s: array  # per instance, seconds
    solve_s: array
    wall_s: float
    scales: array  # per instance, reference seconds per measured second
    traced: bool
    mismatch: str | None  # first outcome that differs from round 1


class Layers:
    """The library entry points a round calls, each wrapped in a span when a
    tracer is given and called directly otherwise."""

    def __init__(self, satid, tracer: spans.Tracer | None = None) -> None:
        wrap = tracer.wrap if tracer is not None else (lambda name, fn: fn)
        self.tracer = tracer
        self.parse_cid = wrap("formats.parse", satid.parse_cid)
        self.parse_pcid = wrap("formats.parse", satid.parse_pcid)
        self.normalize = wrap("normalize", satid.normalize_to_defnf)
        self.justify = wrap("justifier.build", satid.build_justification_maps)
        self.new_solver = wrap("engine.init", satid.Solver)
        self.solve = wrap("engine.search", satid.Solver.solve)

    def instrument(self, solver) -> None:
        """Shadow the solver's and tracker's methods with traced ones on the
        instance; `propagate()` and `_enqueue` call them through it."""
        if self.tracer is None:
            return
        targets = [(solver, SOLVER_SPANS)]
        if solver.tracker is not None:
            targets.append((solver.tracker, TRACKER_SPANS))
        for obj, methods in targets:
            for name, method in methods:
                setattr(obj, method, self.tracer.wrap(name, getattr(obj, method)))


@contextmanager
def traced_tracker_init(satid, tracer: spans.Tracer):
    """Time `RelevanceTracker.for_theory`, which `Solver.__init__` calls."""
    cls = satid.RelevanceTracker
    original = cls.__dict__["for_theory"]
    cls.for_theory = staticmethod(
        tracer.wrap("relevance.init", original.__get__(None, cls)))
    try:
        yield
    finally:
        cls.for_theory = original


def answer(satid, layers: Layers, inst: families.Instance, config):
    """Answer one instance from its text; returns the outcome, setup seconds
    (parse, normalize, `Solver` construction) and `solve()` seconds."""
    start = time.perf_counter()
    if inst.fmt == "cid":
        theory = layers.parse_cid(inst.text)
        names = None
    else:
        theory, names = layers.normalize(layers.parse_pcid(inst.text))
    solver = layers.new_solver(theory, config, setup=layers.justify(theory))
    ready = time.perf_counter()
    layers.instrument(solver)
    begin = time.perf_counter()
    try:
        result = layers.solve(solver)
        status, stats, witness = result.status, result.stats, result.witness
    except satid.BudgetExhausted as exc:
        status, stats, witness = "budget", exc.stats, None
    done = time.perf_counter()

    counts = (stats.decisions, stats.conflicts, stats.propagations,
              stats.unfounded_sets, stats.relevance_queries,
              len(solver.clauses) - solver.n_problem_clauses, stats.restarts,
              int(stats.stopped_early))
    true_lits: tuple[int, ...] = ()
    if witness is not None:
        if names is None:
            true_lits = tuple(lit for lit in witness.true_literals()
                              if abs(lit) <= theory.n_atoms)
        else:  # 3sat: report over the CNF's variables v1..vn
            var_of = {atom: int(name[1:]) for name, atom in names.items()
                      if name.startswith("v")}
            true_lits = tuple(var_of[abs(lit)] * (1 if lit > 0 else -1)
                              for lit in witness.true_literals() if abs(lit) in var_of)
    outcome = Outcome(status, counts, stats.models_represented, true_lits)
    return outcome, ready - start, done - begin


def run_round(satid, layers: Layers, batch: list[families.Instance], config,
              expected: list[Outcome] | None = None) -> tuple[Round, list[Outcome]]:
    """Answer the whole batch once.  The first round returns its outcomes;
    later ones compare theirs with `expected` as they go and keep only the
    first difference, so memory does not grow with the number of rounds."""
    gc.collect()
    tracer = layers.tracer
    solve_one = (tracer.wrap("instance", answer) if tracer is not None else answer)
    outcomes: list[Outcome] = []
    setups, solves = array("d"), array("d")
    mismatch = None
    stride = -(-len(batch) // CALIBRATION_POINTS)
    marks = [calibration_s()]
    start = time.perf_counter()
    for number, inst in enumerate(batch):
        if tracer is not None:
            tracer.instance = number
        outcome, setup_s, solve_s = solve_one(satid, layers, inst, config)
        if expected is None:
            outcomes.append(outcome)
        elif mismatch is None and outcome != expected[number]:
            mismatch = _difference(number, expected[number], outcome)
        setups.append(setup_s)
        solves.append(solve_s)
        if (number + 1) % stride == 0 or number + 1 == len(batch):
            paused = time.perf_counter()
            marks.append(calibration_s())
            start += time.perf_counter() - paused
    wall = time.perf_counter() - start
    scales = array("d", (2 * REFERENCE_CALIBRATION_S
                         / (marks[i // stride] + marks[i // stride + 1])
                         for i in range(len(batch))))
    return Round(setups, solves, wall, scales, tracer is not None, mismatch), outcomes


def calibration_s() -> float:
    """Best of two timings of a fixed pure-Python loop: the machine's
    current speed, measured without the library."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def _room(deadline: float, rounds: list[Round]) -> bool:
    """Whether one more round as long as the last one ends by the deadline."""
    return time.perf_counter() + rounds[-1].wall_s <= deadline


def _difference(number: int, first: Outcome, now: Outcome) -> str:
    changed = [name for name, a, b in zip(COUNTERS, first.counts, now.counts) if a != b]
    return f"instance {number}: {', '.join(changed) or 'answer'} differ from round 1"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Nearest-rank percentile with exactly ten samples beyond it (the
    highest such percentile); returns (percentile, value, samples beyond)."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered) - rank


def end_to_end(rounds: list[Round], n_failed: int,
               rss_mb: float) -> tuple[dict, list[str]]:
    """Medians over rounds of the batch's summed setup and solve times, and
    each instance's median answer time (text to result); all scaled to the
    reference speed round by round."""
    n, k = len(rounds[0].setup_s), len(rounds)
    setups = [sum(map(operator.mul, r.scales, r.setup_s)) for r in rounds]
    solves = [sum(map(operator.mul, r.scales, r.solve_s)) for r in rounds]
    answer_s = [statistics.median(r.scales[i] * (r.setup_s[i] + r.solve_s[i])
                                  for r in rounds) for i in range(n)]
    pct, tail_value, beyond = tail(answer_s)
    per_round = f"median of {k} rounds, each summed over {n} instances"
    per_instance = f"each instance's median of {k} rounds"
    raw = (f"unscaled: setup {statistics.median(sum(r.setup_s) for r in rounds):.4f} s, "
           f"solve {statistics.median(sum(r.solve_s) for r in rounds):.4f} s")
    rows = [
        ("setup_s", statistics.median(setups), "s", per_round),
        ("solve_s", statistics.median(solves), "s", per_round),
        ("instances_per_s",
         statistics.median(n / (a + b) for a, b in zip(setups, solves)), "1/s",
         f"median of {k} rounds of {n} instances, setup included"),
        ("answer_p50_ms", 1e3 * statistics.median(answer_s), "ms",
         f"p50 of {n} instances, {per_instance}"),
        ("answer_tail_ms", 1e3 * tail_value, "ms",
         f"p{pct:.2f} of {n} instances ({beyond} beyond), {per_instance}"),
        ("ok_frac", 1 - n_failed / n, "ratio",
         f"{n - n_failed} of {n} instances answered right within budget"),
        ("peak_rss_mb", rss_mb, "MB", "peak RSS of this process after the rounds, 1 sample"),
    ]
    return _metrics(rows), [_speed_line(rounds) + "; " + raw] + [_line(*row) for row in rows]


def _speed_line(rounds: list[Round]) -> str:
    scales = [x for r in rounds for x in r.scales]
    return (f"time scale to reference speed: median {statistics.median(scales):.3f} "
            f"(min {min(scales):.3f}, max {max(scales):.3f}) over {len(rounds)} rounds")


def _round_scale(r: Round) -> float:
    return statistics.median(r.scales)


def per_layer(untraced: list[Round], traced: list[Round],
              aggregated: list[tuple[dict, Counter]],
              first: list[Outcome]) -> tuple[dict, list[str]]:
    """Layer metrics from the first round's counters and from one traced
    round, the one with the median wall time: its scaled self times plus the
    unattributed remainder add up to its wall time exactly."""
    k = len(traced)
    middle = sorted(range(k), key=lambda i: traced[i].wall_s)[(k - 1) // 2]
    scale = _round_scale(traced[middle])
    times = aggregated[middle][0]
    rows = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", scale * times.get(layer, 0.0), "s",
                     f"self time in the traced round with the median wall (of {k})"))
    calls = aggregated[0][1]
    for layer in SPAN_CALLS:
        rows.append((f"{layer}.calls", calls[layer], "count", "calls in one traced round"))
    count = dict(zip(COUNTERS, map(sum, zip(*(o.counts for o in first)))))
    for name in ("decisions", "conflicts", "propagations", "unfounded_sets",
                 "learned_clauses", "restarts", "early_stops"):
        rows.append((f"engine.{name}", count[name], "count",
                     f"SolveStats summed over {len(first)} instances"))
    unfounded_calls = calls["engine.unfounded"]
    rows.append(("engine.unfounded.yield",
                 count["unfounded_sets"] / unfounded_calls if unfounded_calls else 0.0,
                 "ratio", "unfounded_sets / engine.unfounded.calls"))
    traced_wall = scale * traced[middle].wall_s
    untraced_wall = statistics.median(_round_scale(r) * r.wall_s for r in untraced)
    attributed = sum(row[1] for row in rows[:len(LAYERS)])
    rows.append(("trace.overhead_frac", traced_wall / untraced_wall - 1, "ratio",
                 f"that round's wall over the median of {len(untraced)} untraced "
                 "rounds, minus 1"))
    rows.append(("trace.wall_s", traced_wall, "s", "wall time of that traced round"))
    rows.append(("trace.unattributed_s", traced_wall - attributed, "s",
                 "that wall minus the layer self times above (harness, loop)"))
    metrics = _metrics(row for row in rows if row[0] not in PRINTED_ONLY)
    return metrics, [_speed_line(traced)] + [_line(*row) for row in rows]


def _metrics(rows) -> dict:
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


def _line(name: str, value: float, unit: str, note: str) -> str:
    shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
    return f"{name:<28} {shown} {unit:<6} {note}"


def load_library():
    """Import satid from this checkout's `src/`, never from elsewhere."""
    if not (SOURCE / "satid" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source under {SOURCE}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SOURCE))
    import satid
    if Path(satid.__file__).resolve().parent != SOURCE / "satid":
        raise SystemExit(f"bench: satid imported from {satid.__file__}, not {SOURCE}")
    return satid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(families.FAMILIES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    satid = load_library()
    import answers

    batch = families.batch(args.workload, args.seed)
    config = satid.SolverConfig(max_conflicts=MAX_CONFLICTS)
    plain = Layers(satid)
    start = time.perf_counter()
    deadline = start + args.seconds
    untraced_until = start + args.seconds / 2 if args.trace else deadline
    first_round, first = run_round(satid, plain, batch, config)
    untraced = [first_round]
    while len(untraced) < 2 or _room(untraced_until, untraced):
        untraced.append(run_round(satid, plain, batch, config, first)[0])
    traced: list[Round] = []
    aggregated: list[tuple[dict, Counter]] = []
    first_spans: list[list] = []
    while args.trace and (not traced or _room(deadline, traced)):
        tracer = spans.Tracer()
        with traced_tracker_init(satid, tracer):
            traced.append(run_round(satid, Layers(satid, tracer), batch, config, first)[0])
        aggregated.append(spans.self_times(tracer.spans))
        first_spans = first_spans or tracer.spans
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = [f"round {number} ({'traced' if r.traced else 'untraced'}): {r.mismatch}"
              for number, r in enumerate(untraced + traced, start=1) if r.mismatch]
    if any(a[1][name] != aggregated[0][1][name]
           for a in aggregated for name in SPAN_CALLS):
        errors.append("traced rounds made different numbers of layer calls")
    budget = [i for i, outcome in enumerate(first) if outcome.status == "budget"]
    wrong = [(i, reason) for i, (inst, outcome) in enumerate(zip(batch, first))
             if outcome.status != "budget"
             and (reason := answers.check(args.workload, inst, outcome)) is not None]
    # Wrong answers on definitions with a cycle through negation are a known
    # defect and count as failures; any other wrong answer makes the run
    # incorrect.
    known: Counter = Counter()
    unexpected = []
    for i, reason in wrong:
        if answers.negative_cycle(batch[i]):
            known[reason.split(":")[0]] += 1
        else:
            unexpected.append((i, reason))
    for reason, count in sorted(known.items()):
        print(f"wrong on a definition with a negative cycle: {count} x {reason}")
    for i, reason in unexpected:
        print(f"wrong: instance {i}: {reason}")
    for i in budget:
        print(f"failed: instance {i}: conflict budget of {MAX_CONFLICTS} exhausted")
    digest = hashlib.sha256(repr(first).encode()).hexdigest()[:16]
    print(f"workload={args.workload} seed={args.seed} instances={len(batch)} "
          f"rounds={len(untraced)} untraced, {len(traced)} traced; outcomes {digest}")
    n_failed = len(wrong) + len(budget)
    print(_line("fail_frac", n_failed / len(batch), "ratio",
                f"{n_failed} of {len(batch)} instances: {len(wrong)} wrong "
                f"({len(unexpected)} outside the negative-cycle defect), "
                f"{len(budget)} out of budget"))

    if args.trace:
        metrics, lines = per_layer(untraced, traced, aggregated, first)
        queries = sum(o.counts[COUNTERS.index("relevance_queries")] for o in first)
        if metrics["relevance.query.calls"]["value"] != queries:
            errors.append("traced is_relevant calls differ from relevance_queries")
        spans.write(SPANS_DIR / f"{args.workload}.spans.json", first_spans,
                    {"workload": args.workload, "seed": args.seed})
    else:
        metrics, lines = end_to_end(untraced, n_failed, rss_mb)
    for error in errors:
        print(f"nondeterministic: {error}")
    for line in lines:
        print(line)
    # Counted over the batch, not over rounds: every round must reproduce the
    # first one's answers, and the number of rounds depends on the machine's
    # speed, so only these counts repeat for a seed.
    print(json.dumps({
        "correct": not errors and not unexpected,
        "attempted": len(batch),
        "failed": n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

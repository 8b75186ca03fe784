"""Command line surface: solve theories, replay traces, run reference-oracle
checks, normalize general input, and emit graphs and stats.

Exit codes follow the SAT competition convention for `solve` (10
satisfiable, 20 unsatisfiable, 0 unknown because the conflict or time budget
ran out) and use 2 for parse/usage errors everywhere; `replay` exits 1 on
expectation or oracle mismatches, `oracle` exits 1 when the reference
semantics fails its own cross-check (such as a model count that is not 2^n
on a definition that is not total), and both exit 3 when an oracle guard
refuses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import oracle
from .core import DefnfTheory, PartialInterpretation
from .engine import BudgetExhausted, Solver, SolverConfig, SolveStats
from .formats import (FormatError, parse_cid, parse_pcid, parse_trace,
                      relevance_dot, to_dot, write_cid)
from .normalize import normalize_to_defnf
from .replay import ReplayOrderError, TraceReplayer

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 1
EXIT_GUARD = 3

STATS_SCHEMA = {
    "type": "object",
    "properties": {
        "result": {"enum": ["sat", "unsat", "unknown"]},
        "decisions": {"type": "integer", "minimum": 0},
        "conflicts": {"type": "integer", "minimum": 0},
        "propagations": {"type": "integer", "minimum": 0},
        "unfounded_sets": {"type": "integer", "minimum": 0},
        "learned_clauses": {"type": "integer", "minimum": 0},
        "restarts": {"type": "integer", "minimum": 0},
        "relevance_queries": {"type": "integer", "minimum": 0},
        "stopped_early": {"type": "boolean"},
        "models_represented_log2": {"type": ["integer", "null"], "minimum": 0},
        "wall_ms": {"type": "integer", "minimum": 0},
    },
    "required": ["result", "decisions", "conflicts", "propagations",
                 "unfounded_sets", "learned_clauses", "restarts",
                 "relevance_queries", "stopped_early", "models_represented_log2",
                 "wall_ms"],
    "additionalProperties": False,
}


def load_theory(path: str) -> DefnfTheory:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".pcid"):
        theory, _ = normalize_to_defnf(parse_pcid(text))
        return theory
    return parse_cid(text)


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")
    return value == "on"


def _literals(value: str) -> list[int]:
    try:
        lits = [int(f) for f in value.split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected signed literals, got {value!r}")
    if any(l == 0 for l in lits):
        raise argparse.ArgumentTypeError("0 is not a literal")
    return lits


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--relevance", type=_onoff, default=True,
                        metavar="on|off", help="filter decisions by relevance")
    parser.add_argument("--stop-on-justified", type=_onoff, default=True,
                        metavar="on|off", help="stop once the theory atom is justified")
    parser.add_argument("--max-conflicts", type=int, default=None, metavar="N")
    parser.add_argument("--time-limit", type=float, default=None, metavar="S")


def _config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(relevance_filter=args.relevance,
                        stop_on_justified=args.stop_on_justified,
                        max_conflicts=args.max_conflicts,
                        time_limit=args.time_limit)


def _write_stats(args: argparse.Namespace, status: str, stats: SolveStats) -> None:
    if args.stats_json:
        payload = {"result": status, **dataclasses.asdict(stats)}
        Path(args.stats_json).write_text(json.dumps(payload, indent=2) + "\n",
                                         encoding="utf-8")


def cmd_solve(args: argparse.Namespace) -> int:
    theory = load_theory(args.theory)
    solver = Solver(theory, _config(args))
    if args.dot:  # the graph is static, so every outcome gets it
        Path(args.dot).write_text(to_dot(solver.setup.graph, theory.name_of),
                                  encoding="utf-8")
    try:
        result = solver.solve()
    except BudgetExhausted as exc:
        _write_stats(args, "unknown", exc.stats)
        print(f"UNKNOWN ({exc})")
        return EXIT_UNKNOWN
    _write_stats(args, result.status, result.stats)
    if result.status == "sat":
        print("SATISFIABLE")
        lits = " ".join(str(l) for l in result.witness.true_literals())
        print(f"v{' ' + lits if lits else ''} 0")
        if result.stats.stopped_early:
            print(f"models_represented: 2^{result.stats.models_represented_log2}")
        return EXIT_SAT
    print("UNSATISFIABLE")
    return EXIT_UNSAT


def cmd_replay(args: argparse.Namespace) -> int:
    theory = load_theory(args.theory)
    events = parse_trace(Path(args.trace).read_text(encoding="utf-8"))
    replayer = TraceReplayer(theory, check_oracle=args.check_oracle)
    report = replayer.run(events)
    for line in report.outputs:
        print(line)
    if args.dot:
        Path(args.dot).write_text(
            relevance_dot(replayer.tracker, theory.name_of), encoding="utf-8")
    if report.mismatches:
        for miss in report.mismatches:
            print(f"MISMATCH at event {miss.event_index}: {miss.message}",
                  file=sys.stderr)
        return EXIT_MISMATCH
    checked = f", {report.oracle_checks} oracle checks" if args.check_oracle else ""
    print(f"OK ({report.events} events{checked})")
    return 0


def _parse_assignment(theory: DefnfTheory, option: str, lits: list[int] | None,
                      opens_only: bool = False) -> PartialInterpretation:
    lits = lits or []
    given = set(lits)
    opens = theory.opens if opens_only else None
    for lit in lits:
        _check_atom(theory, option, abs(lit))
        if opens is not None and abs(lit) not in opens:
            raise ValueError(f"{option}: atom {abs(lit)} is defined, not open")
        if -lit in given:
            raise ValueError(f"{option}: both {abs(lit)} and -{abs(lit)} given")
    return PartialInterpretation.from_literals(lits)


def _check_atom(theory: DefnfTheory, option: str, atom: int) -> None:
    if not 1 <= atom <= theory.n_atoms:
        raise ValueError(f"{option}: atom {atom} outside the atom table "
                         f"(1..{theory.n_atoms})")


def cmd_oracle(args: argparse.Namespace) -> int:
    theory = load_theory(args.theory)
    interp = _parse_assignment(theory, "--assign", args.assign)
    sub = args.oracle_cmd
    if sub == "total":
        print("total" if oracle.is_total(theory.definition,
                                         theory.atoms.atoms()) else "not total")
    elif sub == "wfm":
        context = _parse_assignment(theory, "--context", args.context,
                                    opens_only=True)
        wfm = oracle.well_founded_model(theory.definition, context)
        for atom in theory.atoms.atoms():
            print(f"{theory.name_of(atom)} {wfm.value(atom).symbol}")
    elif sub == "models":
        models = oracle.enumerate_models(theory)
        print(len(models))
        for model in models:
            print(" ".join(str(l) for l in model.true_literals()))
    elif sub == "justified":
        atoms = theory.atoms.atoms()
        if args.atom is not None:
            _check_atom(theory, "--atom", args.atom)
            atoms = [args.atom]
        for atom in atoms:
            status = oracle.justified_status(theory, interp, atom)
            label = {"t": "true", "f": "false", "u": "unknown"}[status.symbol]
            print(f"{theory.name_of(atom)} {label}")
    elif sub == "relevant":
        lits = sorted(oracle.relevant_set(theory, interp),
                      key=lambda l: (abs(l), l < 0))
        for lit in lits:
            print(theory.literal_name(lit))
    elif sub == "count":
        print(oracle.count_models_extending(theory, interp))
    else:
        raise AssertionError(sub)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    text = Path(args.theory).read_text(encoding="utf-8")
    theory, name_map = normalize_to_defnf(parse_pcid(text))
    output = write_cid(theory)
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    if args.name_map:
        Path(args.name_map).write_text(json.dumps(name_map, indent=2) + "\n",
                                       encoding="utf-8")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    theory = load_theory(args.theory)
    rows = []
    statuses = []
    for label, relevance in (("relevance=on", True), ("relevance=off", False)):
        config = _config(args)
        config.relevance_filter = relevance
        try:
            result = Solver(theory, config).solve()
            statuses.append(result.status)
            stats = result.stats
            rows.append((label, result.status, stats.decisions, stats.conflicts,
                         stats.propagations))
        except BudgetExhausted:
            statuses.append("budget")
            rows.append((label, "budget", "-", "-", "-"))
    header = f"{'config':<14} {'status':<8} {'decisions':>9} {'conflicts':>9} {'props':>9}"
    print(header)
    for label, status, dec, conf, props in rows:
        print(f"{label:<14} {status:<8} {dec:>9} {conf:>9} {props:>9}")
    agree = len(set(statuses)) == 1 and statuses[0] != "budget"
    print(f"status agreement: {'yes' if agree else 'no'}")
    return 0 if agree else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satid",
        description="Ground PC(ID) solver with justification-based relevance tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide satisfiability of a theory")
    p_solve.add_argument("theory")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--stats-json", metavar="PATH")
    p_solve.add_argument("--dot", metavar="PATH",
                         help="write the dependency graph as DOT")
    p_solve.set_defaults(func=cmd_solve)

    p_replay = sub.add_parser("replay", help="replay a notification trace")
    p_replay.add_argument("theory")
    p_replay.add_argument("trace")
    p_replay.add_argument("--check-oracle", action="store_true",
                          help="verify quiescent states against the reference fixpoint")
    p_replay.add_argument("--dot", metavar="PATH",
                          help="write the final relevance graph as DOT")
    p_replay.set_defaults(func=cmd_replay)

    p_oracle = sub.add_parser("oracle", help="brute-force reference checks")
    p_oracle.add_argument("oracle_cmd",
                          choices=("wfm", "models", "justified", "relevant",
                                   "count", "total"))
    p_oracle.add_argument("theory")
    p_oracle.add_argument("--assign", type=_literals, default=None,
                          metavar="LITS", help="partial assignment, e.g. '1 -3'")
    p_oracle.add_argument("--context", type=_literals, default=None,
                          metavar="LITS", help="open-atom context for wfm")
    p_oracle.add_argument("--atom", type=int, default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_norm = sub.add_parser("normalize", help="flatten a .pcid theory to .cid")
    p_norm.add_argument("theory")
    p_norm.add_argument("-o", "--output", metavar="PATH")
    p_norm.add_argument("--name-map", metavar="PATH",
                        help="write the name-to-atom map as JSON")
    p_norm.set_defaults(func=cmd_normalize)

    p_cmp = sub.add_parser("compare", help="run with the relevance filter on and off")
    p_cmp.add_argument("theory")
    _add_solver_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, ReplayOrderError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except oracle.GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except oracle.OracleError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

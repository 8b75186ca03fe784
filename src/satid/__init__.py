"""satid: a ground PC(ID) / SAT(ID) solver library.

The package provides the domain model for definitional-normal-form theories
(`core`), file formats and normalization (`formats`, `normalize`), brute-force
reference semantics (`oracle`), incremental justified status (`justifier`),
the incremental relevance tracker (`relevance`), the CDCL engine (`engine`),
trace replay (`replay`), and a command line front end (`cli`).
"""

from .core import (FALSE, TRUE, UNKNOWN, And, AtomTable, DefnfTheory,
                   Definition, DependencyGraph, Not, Or, PartialInterpretation,
                   Rule, TruthValue, atom_of, build_dependency_graph,
                   completion_clauses, direct_justifications, eval_formula)
from .engine import (BudgetExhausted, SolveResult, Solver, SolverConfig,
                     SolveStats, defined_fixpoint, solve)
from .formats import (FormatError, PcidAst, TraceEvent, parse_cid, parse_pcid,
                      parse_trace, relevance_dot, to_dot, write_cid,
                      write_trace)
from .justifier import Justifier, JustifiedTheory, build_justification_maps
from .normalize import normalize_to_defnf
from .relevance import RelevanceTracker
from .replay import ReplayOrderError, ReplayReport, TraceReplayer

__version__ = "0.1.0"

__all__ = [
    "And", "AtomTable", "BudgetExhausted", "DefnfTheory", "Definition",
    "DependencyGraph", "FALSE", "FormatError", "Justifier",
    "JustifiedTheory", "Not", "Or", "PartialInterpretation", "PcidAst",
    "RelevanceTracker", "ReplayOrderError", "ReplayReport", "Rule",
    "SolveResult", "SolveStats", "Solver", "SolverConfig", "TRUE",
    "TraceEvent", "TraceReplayer", "TruthValue", "UNKNOWN", "atom_of",
    "build_dependency_graph", "build_justification_maps", "completion_clauses",
    "defined_fixpoint", "direct_justifications", "eval_formula",
    "normalize_to_defnf", "parse_cid", "parse_pcid", "parse_trace",
    "relevance_dot", "solve", "to_dot", "write_cid", "write_trace",
]

"""Solving with early termination on justified theory atoms.

Instead of completing a total assignment, the solver can stop as soon as the
theory atom is justified: the partial assignment then stands for 2^n models,
one per assignment of the n untouched open atoms.
"""

from pathlib import Path

from satid import Solver, SolverConfig, parse_cid
from satid import oracle

# p_T <- a & b with three-way disjunctive support for a and b, plus a defined
# atom e nothing forces: justifying a and b settles satisfiability while six
# open atoms are still (partly) free.
intro = parse_cid(Path(__file__).with_name("data").joinpath("intro.cid").read_text())

result = Solver(intro).solve()
print("status:", result.status)
print("witness:", result.witness.true_literals())
print("stopped early:", result.stats.stopped_early)
print("models represented:", result.stats.models_represented)

# the oracle confirms the count by enumerating the open extensions
print("oracle count:", oracle.count_models_extending(intro, result.witness))

# the same run without the relevance filter and without early stopping walks
# all the way to a total model
blind = SolverConfig(relevance_filter=False, stop_on_justified=False)
full = Solver(intro, blind).solve()
print("\nblind run status:", full.status)
print("blind witness:", full.witness.true_literals())
for label, r in (("filtered", result), ("blind", full)):
    print(f"{label:>9}: decisions={r.stats.decisions} "
          f"conflicts={r.stats.conflicts} propagations={r.stats.propagations}")

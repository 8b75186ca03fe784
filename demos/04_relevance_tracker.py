"""The incremental relevance tracker, step by step.

Relevance is tracked in one map from each deep literal, one with a child
that has children of its own, such as p and q here, and from the theory
atom to its watched parent: a key is relevant exactly when it has a watch,
and the unjustified theory atom's watch is the root, which is no literal.
The other literals, such as the open a, have no key: one is relevant when
it is unjustified and one of its parents is.  Notifications are settled at
the next read.  When support arrives, a literal's watch goes, and so does
every watch chain through it; the dropped literals then take a relevant
parent if they have one.  A loop that lost its connection to the theory
atom has none, so it stays unwatched.
"""

from pathlib import Path

from satid import RelevanceTracker, parse_cid, parse_trace, relevance_dot
from satid.replay import TraceReplayer

theory = parse_cid(Path(__file__).with_name("data").joinpath("loop.cid").read_text())
tracker = RelevanceTracker.for_theory(theory)

p_T, a, p, q = 1, 2, 3, 4
print("dependency parents of p:", sorted(tracker.graph.parents_of(p)))
print("initial watches: p ->", tracker.watched_parent(p),
      " q ->", tracker.watched_parent(q))
print("initially relevant:", sorted(tracker.relevant_literals(), key=abs))

# open atom a becomes true, and the justifier then finds the theory atom
# justified, so those notifications follow
tracker.notify_becomes_true(a)
tracker.notify_becomes_true(p_T)
print("\nafter a is true and the theory atom is justified:")
print("relevant:", sorted(tracker.relevant_literals(), key=abs))
print("watches: p ->", tracker.watched_parent(p),
      " q ->", tracker.watched_parent(q))

# undo in reverse order: the initial state comes back
tracker.notify_becomes_unknown(p_T)
tracker.notify_becomes_unknown(a)
print("\nafter backtracking:", sorted(tracker.relevant_literals(), key=abs))

# the same interaction as a replayable trace file with expectations
trace = parse_trace(Path(__file__).with_name("data").joinpath("loop.trc").read_text())
replayer = TraceReplayer(theory, check_oracle=True)
report = replayer.run(trace)
print(f"\ntrace replay: {report.events} events, "
      f"{report.oracle_checks} oracle checks, ok={report.ok}")

print("\nfinal relevance graph as DOT:")
print(relevance_dot(replayer.tracker, theory.name_of))

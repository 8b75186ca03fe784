"""Replay of notification traces against the relevance tracker.

A trace scripts the solver-side events (literals whose justified status
becomes true or unknown, over the theory's atoms), relevance queries, and
expectations.  The replayer forwards notifications to a standalone tracker,
whose own checks are the one test of event order, and optionally
cross-checks every quiescent state against the reference relevance fixpoint
whenever the tracker's justified set agrees with the reference statuses of
its open literals (mid-batch states, where scripted defined-literal events
lag the open ones, are skipped).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import DefnfTheory, PartialInterpretation, atom_of
from .formats import (BECOMES_TRUE, BECOMES_UNKNOWN, EXPECT_RELEVANT,
                      QUERY_RELEVANT, TraceEvent)
from .relevance import RelevanceTracker
from . import oracle


class ReplayOrderError(ValueError):
    """Event applied in an impossible order (e.g. retracting an unset atom):
    the tracker's refusal, prefixed with the event's index."""


@dataclass
class ReplayMismatch:
    event_index: int
    kind: str  # "expect" | "oracle-relevance"
    message: str


@dataclass
class ReplayReport:
    outputs: list[str] = field(default_factory=list)
    mismatches: list[ReplayMismatch] = field(default_factory=list)
    events: int = 0
    oracle_checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


class TraceReplayer:
    def __init__(self, theory: DefnfTheory, *, check_oracle: bool = False,
                 debug: bool = False) -> None:
        self.theory = theory
        self.tracker = RelevanceTracker.for_theory(theory, debug=debug)
        self.check_oracle = check_oracle
        self.report = ReplayReport()

    def run(self, events: list[TraceEvent]) -> ReplayReport:
        for event in events:
            self.apply(event)
        return self.report

    def apply(self, event: TraceEvent) -> str | None:
        index = self.report.events
        self.report.events += 1
        output = None
        if event.kind in (BECOMES_TRUE, BECOMES_UNKNOWN):
            self._check_literal(event.literal)
            notify = (self.tracker.notify_becomes_true if event.kind == BECOMES_TRUE
                      else self.tracker.notify_becomes_unknown)
            try:
                notify(event.literal)
            except ValueError as exc:
                raise ReplayOrderError(f"event {index}: {exc}") from exc
            self._maybe_check_oracle(index)
        elif event.kind == QUERY_RELEVANT:
            self._check_literal(event.literal)
            answer = self.tracker.is_relevant(event.literal)
            output = f"{event.literal} {1 if answer else 0}"
            self.report.outputs.append(output)
        elif event.kind == EXPECT_RELEVANT:
            self._check_literal(event.literal)
            answer = self.tracker.is_relevant(event.literal)
            if answer != event.expected:
                self.report.mismatches.append(ReplayMismatch(
                    index, "expect",
                    f"isRelevant({event.literal}) = {int(answer)}, "
                    f"expected {int(bool(event.expected))}"))
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")
        return output

    def _check_literal(self, lit: int) -> None:
        n_atoms = self.theory.n_atoms
        if not 1 <= atom_of(lit) <= n_atoms:
            raise ReplayOrderError(f"literal {lit} outside atoms 1..{n_atoms}")

    def _maybe_check_oracle(self, index: int) -> None:
        if not self.check_oracle:
            return
        justified = self.tracker.justified_literals()
        opens = PartialInterpretation.from_literals(
            lit for lit in justified if atom_of(lit) in self.theory.opens)
        reference_justified = oracle.justified_literals(self.theory, opens)
        if reference_justified != justified:
            return  # mid-batch: scripted defined-literal events lag the opens
        self.report.oracle_checks += 1
        reference = oracle.relevant_set(self.theory, opens)
        actual = self.tracker.relevant_literals()
        if reference != actual:
            missing = sorted(reference - actual)
            extra = sorted(actual - reference)
            self.report.mismatches.append(ReplayMismatch(
                index, "oracle-relevance",
                f"relevant set differs (missing {missing}, extra {extra})"))

"""Replay of notification traces against the relevance tracker.

A trace scripts the solver-side events (literals whose justified status
becomes true or unknown, over the theory's atoms), relevance queries, and
expectations.  The replayer validates event ordering, forwards notifications
to the tracker, and optionally cross-checks every quiescent state against the
reference relevance fixpoint whenever the tracker's justified set agrees with
the reference statuses of the trace's open literals (mid-batch states, where
scripted defined-literal events lag the open ones, are skipped).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import TRUE, UNKNOWN, DefnfTheory, PartialInterpretation, atom_of
from .formats import (BECOMES_TRUE, BECOMES_UNKNOWN, EXPECT_RELEVANT,
                      QUERY_RELEVANT, TraceEvent)
from .justifier import JustifiedTheory
from .relevance import RelevanceTracker
from . import oracle


class ReplayOrderError(ValueError):
    """Event applied in an impossible order (e.g. retracting an unset atom)."""


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
    def __init__(self, theory: DefnfTheory, *, setup: JustifiedTheory | None = None,
                 check_oracle: bool = False, debug: bool = False) -> None:
        self.theory = theory
        self.tracker = RelevanceTracker.for_theory(theory, setup, debug=debug)
        self.assignment = PartialInterpretation()
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
        if event.kind == BECOMES_TRUE:
            self._check_literal(event.literal)
            if self.assignment.value(atom_of(event.literal)) is not UNKNOWN:
                raise ReplayOrderError(
                    f"event {index}: atom {atom_of(event.literal)} is already assigned")
            self.assignment.set_literal(event.literal)
            self.tracker.notify_becomes_true(event.literal)
            self._maybe_check_oracle(index)
        elif event.kind == BECOMES_UNKNOWN:
            self._check_literal(event.literal)
            if self.assignment.literal_value(event.literal) is not TRUE:
                raise ReplayOrderError(
                    f"event {index}: literal {event.literal} is not currently true")
            self.assignment.unset(atom_of(event.literal))
            self.tracker.notify_becomes_unknown(event.literal)
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
        opens = self.assignment.restrict(self.theory.opens)
        reference_justified = oracle.justified_literals(self.theory, opens)
        if reference_justified != self.tracker.justified_literals():
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

"""File formats: `.cid` theories, `.pcid` s-expression theories, `.trc` traces,
and DOT rendering of a dependency graph (`to_dot`) or of a relevance
tracker's state (`relevance_dot`).

`.cid` (line based, `%` comments):
    p cid <natoms>
    t <atom>
    r <head> <c|d> <lit>... 0
Its integers, and those of a `.trc`, are ASCII digits with an optional
leading '-'.

`.pcid` (`;` comments): s-expressions `(theory (constraint F)* (define (rule
<name> F)...)*)` with F ::= <name> | (not F) | (and F...) | (or F...).  Each
`define` block is a definition of its own: the atoms it defines are open to
the other blocks, which may not define them too.

`.trc`: `+ <lit>` (becomes justified), `- <lit>` (no longer), `? <lit>`
(query relevance), `# expect <lit> <0|1>` (assert relevance).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (And, AtomTable, DefnfTheory, Definition, DependencyGraph,
                   Formula, Not, Or, Rule, atom_of, cyclic_literals)


class FormatError(ValueError):
    """Malformed input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# .cid theories

def parse_cid(text: str) -> DefnfTheory:
    """Parse a `.cid` theory.  Each fault raises a `FormatError` with its
    line; on a line with several, the first in this order wins: a rule
    line's shape, its head, its connective, a second rule for the head, and
    its body literals from left to right."""
    n_atoms = 0  # until the header is read
    theory_atom: int | None = None
    rules: list[Rule] = []
    heads: dict[int, int] = {}  # head -> the line of its rule

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "r" and n_atoms:
            size = len(fields)
            if size < 4 or fields[-1] != "0":
                raise FormatError("expected 'r <head> <c|d> <lit>... 0'", lineno)
            # on a line with no '+', '_' or non-ASCII character, `int` takes
            # exactly the fields that `_cid_int` takes
            to_int = int if raw.isascii() and "_" not in raw and "+" not in raw else _cid_int
            try:
                head = to_int(fields[1])
            except ValueError:
                raise FormatError(f"bad atom {fields[1]!r}", lineno) from None
            if not 0 < head <= n_atoms:
                raise FormatError(f"atom {head} out of range 1..{n_atoms}", lineno)
            connective = fields[2]
            if connective != "c" and connective != "d":
                raise FormatError(f"connective must be 'c' or 'd', got {connective!r}", lineno)
            if head in heads:
                raise FormatError(
                    f"atom {head} defined twice (first rule on line {heads[head]})", lineno)
            heads[head] = lineno
            try:
                if size == 5:
                    lit = to_int(fields[3])
                    if not lit or not -n_atoms <= lit <= n_atoms:
                        raise ValueError
                    body = (lit,)
                elif size > 5:
                    lits = dict.fromkeys(map(to_int, fields[3:-1]))
                    if 0 in lits or max(lits) > n_atoms or min(lits) < -n_atoms:
                        raise ValueError
                    body = tuple(lits)
                else:
                    body = ()
            except ValueError:
                raise _literal_error(fields, to_int, n_atoms, lineno) from None
            rules.append(Rule(head, connective == "c", body))
        elif tag[0] == "%":
            continue
        elif not n_atoms:
            if len(fields) != 3 or tag != "p" or fields[1] != "cid":
                raise FormatError(
                    f"expected header 'p cid <natoms>', got {raw.strip()!r}", lineno)
            try:
                n_atoms = _cid_int(fields[2])
            except ValueError:
                raise FormatError(f"bad atom count {fields[2]!r}", lineno) from None
            if n_atoms < 1:
                raise FormatError("atom count must be at least 1", lineno)
            try:
                names = [None] * n_atoms
            except (OverflowError, MemoryError):
                raise FormatError(f"atom count {n_atoms} is too large", lineno) from None
        elif tag == "t":
            if theory_atom is not None:
                raise FormatError("duplicate theory-atom line", lineno)
            if len(fields) != 2:
                raise FormatError("expected 't <atom>'", lineno)
            try:
                theory_atom = _cid_int(fields[1])
            except ValueError:
                raise FormatError(f"bad atom {fields[1]!r}", lineno) from None
            if not 0 < theory_atom <= n_atoms:
                raise FormatError(f"atom {theory_atom} out of range 1..{n_atoms}", lineno)
        else:
            raise FormatError(f"unrecognized line {raw.strip()!r}", lineno)

    if not n_atoms:
        raise FormatError("missing 'p cid' header")
    if theory_atom is None:
        raise FormatError("missing theory-atom line 't <atom>'")
    if theory_atom not in heads:
        raise FormatError(f"theory atom {theory_atom} is not defined by any rule")
    return DefnfTheory(AtomTable(names), theory_atom, Definition(rules))


def _cid_int(field: str) -> int:
    """The integer a field of ASCII digits, with an optional leading '-',
    spells; ValueError for the other fields that `int` takes (a '+', a '_'
    or a non-ASCII digit)."""
    if field.isascii() and "_" not in field and field[:1] != "+":
        return int(field)
    raise ValueError(f"not a .cid integer: {field!r}")


def _literal_error(fields: list[str], to_int, n_atoms: int, lineno: int) -> FormatError:
    """The error for the first bad body literal of a rule line."""
    for field in fields[3:-1]:
        try:
            lit = to_int(field)
        except ValueError:
            return FormatError(f"bad literal {field!r}", lineno)
        if lit == 0 or abs(lit) > n_atoms:
            return FormatError(f"literal {lit} out of range", lineno)
    raise AssertionError(f"no bad literal on line {lineno}")


def write_cid(theory: DefnfTheory) -> str:
    lines = [f"p cid {theory.n_atoms}", f"t {theory.theory_atom}"]
    for rule in theory.definition:
        connective = "c" if rule.conjunctive else "d"
        body = " ".join(str(lit) for lit in rule.body)
        lines.append(f"r {rule.head} {connective}{' ' + body if body else ''} 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# .pcid general theories

# Deepest parenthesis nesting a `.pcid` may have.  It keeps the recursion of
# negation normal form and flattening well inside Python's default limit.
MAX_NESTING = 200


@dataclass
class PcidAst:
    """A general ground PC(ID) theory before normalization."""

    atoms: AtomTable
    constraints: list[Formula]
    definitions: list[list[tuple[int, Formula]]]


# The lists of a `.pcid`, by what their tokens so far make them: a _HEAD list
# waits for its first token, _ONE_FORMULA lists take one formula and
# _MANY_FORMULAS lists any number.  _START and _DONE are the top level around
# the theory.
(_DONE, _START, _THEORY_HEAD, _THEORY, _ITEM_HEAD, _DEFINE, _RULE_HEAD, _FORMULA_HEAD,
 _RULE_NAME, _CONSTRAINT, _RULE, _NOT, _AND, _OR) = range(14)
_ONE_FORMULA = frozenset((_CONSTRAINT, _RULE, _NOT))
_MANY_FORMULAS = frozenset((_AND, _OR))
_HEADS = {(_THEORY_HEAD, "theory"): _THEORY, (_ITEM_HEAD, "constraint"): _CONSTRAINT,
          (_ITEM_HEAD, "define"): _DEFINE, (_RULE_HEAD, "rule"): _RULE_NAME,
          (_FORMULA_HEAD, "not"): _NOT, (_FORMULA_HEAD, "and"): _AND,
          (_FORMULA_HEAD, "or"): _OR}
_SUBLISTS = {_START: _THEORY_HEAD, _THEORY: _ITEM_HEAD, _DEFINE: _RULE_HEAD}
# The error for a token that a list cannot take, by kind (_AND and _OR take
# every token), and the few that depend on the token too.
_RULE_ERROR = "expected (rule <name> F), got {!r}"
_ITEM_ERROR = "expected (constraint ...) or (define ...), got {!r}"
_ERRORS = {_DONE: "trailing input after theory", _START: "expected '(theory ...)'",
           _THEORY_HEAD: "expected '(theory ...)'", _THEORY: _ITEM_ERROR,
           _ITEM_HEAD: "unknown theory item {!r}", _DEFINE: _RULE_ERROR,
           _RULE_HEAD: _RULE_ERROR, _FORMULA_HEAD: "unknown formula head {!r}",
           _RULE_NAME: _RULE_ERROR, _CONSTRAINT: "'constraint' takes exactly one formula",
           _RULE: _RULE_ERROR, _NOT: "'not' takes exactly one argument"}
_TOKEN_ERRORS = {(_START, ")"): "unbalanced ')'", (_ITEM_HEAD, "("): _ITEM_ERROR,
                 (_ITEM_HEAD, ")"): "empty theory item '()'",
                 (_FORMULA_HEAD, ")"): "empty formula '()'"}


def parse_pcid(text: str) -> PcidAst:
    """Parse a `.pcid` theory in one pass, with the open lists on a stack.
    Atom ids follow the order in which names first appear, and the first
    error in text order is raised, with its line."""
    ids: dict[str, int] = {}
    stack: list[tuple[int, list, int]] = []  # the enclosing lists
    kind, items, opened, head, theory = _START, [], 0, 0, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for token in raw.split(";", 1)[0].replace("(", " ( ").replace(")", " ) ").split():
            if token == "(":
                if len(stack) == MAX_NESTING:
                    raise FormatError(f"nesting deeper than {MAX_NESTING} levels", lineno)
                new = (_FORMULA_HEAD if kind in _MANY_FORMULAS
                       or (kind in _ONE_FORMULA and not items) else _SUBLISTS.get(kind))
                if new is None:
                    raise _misplaced(kind, token, lineno)
                stack.append((kind, items, opened))
                kind, items, opened = new, [], lineno
            elif token == ")":
                if kind in _MANY_FORMULAS:
                    value = (And if kind == _AND else Or)(tuple(items))
                elif kind in _ONE_FORMULA and items:
                    value = items[0]
                    if kind == _NOT:
                        value = -value if value.__class__ is int else Not(value)
                    elif kind == _RULE:
                        value = (head, value)
                elif kind == _DEFINE:
                    value = items
                elif kind == _THEORY:
                    kind, theory = _DONE, items
                    continue
                else:
                    raise _misplaced(kind, token, lineno)
                kind, items, opened = stack.pop()
                items.append(value)
            elif kind in _MANY_FORMULAS or (kind in _ONE_FORMULA and not items):
                items.append(ids.setdefault(token, len(ids) + 1))
            elif kind == _RULE_NAME:
                kind, head = _RULE, ids.setdefault(token, len(ids) + 1)
            elif (kind, token) in _HEADS:
                kind = _HEADS[kind, token]
            else:
                raise _misplaced(kind, token, lineno)
    if kind != _DONE:
        raise FormatError("empty input" if kind == _START else "unbalanced '('", opened or None)
    return PcidAst(AtomTable(ids), [item for item in theory if item.__class__ is not list],
                   [item for item in theory if item.__class__ is list])


def _misplaced(kind: int, token: str, lineno: int) -> FormatError:
    message = _TOKEN_ERRORS.get((kind, token)) or _ERRORS[kind]
    return FormatError(message.format(token), lineno)


# ---------------------------------------------------------------------------
# .trc traces

BECOMES_TRUE = "becomes_true"
BECOMES_UNKNOWN = "becomes_unknown"
QUERY_RELEVANT = "query_relevant"
EXPECT_RELEVANT = "expect_relevant"


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    literal: int
    expected: bool | None = None


def parse_trace(text: str) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        fields = line.split()
        if fields[0] == "#":
            if len(fields) >= 2 and fields[1] == "expect":
                if len(fields) != 4 or fields[3] not in ("0", "1"):
                    raise FormatError("expected '# expect <lit> <0|1>'", lineno)
                lit = _parse_trace_literal(fields[2], lineno)
                events.append(TraceEvent(EXPECT_RELEVANT, lit, fields[3] == "1"))
            continue  # other '#' lines are comments
        if fields[0] in ("+", "-", "?"):
            if len(fields) != 2:
                raise FormatError(f"expected '{fields[0]} <lit>'", lineno)
            lit = _parse_trace_literal(fields[1], lineno)
            kind = {"+": BECOMES_TRUE, "-": BECOMES_UNKNOWN, "?": QUERY_RELEVANT}[fields[0]]
            events.append(TraceEvent(kind, lit))
            continue
        raise FormatError(f"unrecognized trace line {line!r}", lineno)
    return events


def _parse_trace_literal(field: str, lineno: int) -> int:
    try:
        lit = _cid_int(field)
    except ValueError:
        raise FormatError(f"bad literal {field!r}", lineno) from None
    if lit == 0:
        raise FormatError("0 is not a literal", lineno)
    return lit


def write_trace(events: list[TraceEvent]) -> str:
    lines = []
    for event in events:
        if event.kind == BECOMES_TRUE:
            lines.append(f"+ {event.literal}")
        elif event.kind == BECOMES_UNKNOWN:
            lines.append(f"- {event.literal}")
        elif event.kind == QUERY_RELEVANT:
            lines.append(f"? {event.literal}")
        elif event.kind == EXPECT_RELEVANT:
            lines.append(f"# expect {event.literal} {1 if event.expected else 0}")
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# DOT rendering

def _literal_order(lit: int) -> tuple[int, bool]:
    return atom_of(lit), lit < 0


def _label(lit: int, name_of) -> str:
    base = name_of(atom_of(lit)) if name_of is not None else f"x{atom_of(lit)}"
    return base if lit > 0 else "~" + base


def to_dot(graph: DependencyGraph, name_of=None) -> str:
    """Render a dependency graph as a DOT digraph, edges in
    `DependencyGraph.edges` order."""
    lines = ["digraph dependencies {"]
    for src, dst in graph.edges():
        lines.append(f'  "{_label(src, name_of)}" -> "{_label(dst, name_of)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def relevance_dot(tracker, name_of=None) -> str:
    """Render a relevance tracker's quiescent state as a DOT digraph.

    The relevant subgraph is solid; cycle remnants among unjustified
    irrelevant literals are dashed (loops that can no longer support
    themselves).
    """
    relevant = tracker.relevant_literals()
    justified = tracker.justified_literals()
    graph = tracker.graph
    children_of = graph.children_of
    floating = {lit for lit in graph.literals()
                if lit not in relevant and lit not in justified}
    cyclic = cyclic_literals({lit: [d for d in children_of(lit) if d in floating]
                              for lit in floating})

    def edges_within(lits):  # one edge however often a body repeats a literal
        return [(src, dst) for src in sorted(lits, key=_literal_order)
                for dst in sorted(set(children_of(src)), key=_literal_order) if dst in lits]

    solid = edges_within(relevant)
    dashed = edges_within(cyclic)

    lines = ["digraph relevance {"]
    for lit in sorted(relevant, key=_literal_order):
        lines.append(f'  "{_label(lit, name_of)}";')
    for src, dst in solid:
        lines.append(f'  "{_label(src, name_of)}" -> "{_label(dst, name_of)}";')
    for src, dst in dashed:
        lines.append(f'  "{_label(src, name_of)}" -> "{_label(dst, name_of)}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"

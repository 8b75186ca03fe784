"""Tracking justified status with the justifier.

A literal is justified when the open literals assigned so far settle it
whatever the other open atoms are: its status in the well-founded model of
the definition in the context of those literals.  The justifier keeps that
set incrementally.  Each head atom counts the body literals of its rule
still missing before its body is justified true or false, reading the
dependency graph's occurrence lists, and source pointers find the atoms
that only a positive loop could support.  It reads the open literals of the
solver's trail level by level, and a backtrack pops exactly the statuses
the undone levels gave.
"""

from satid import Justifier, build_justification_maps, parse_cid
from satid import oracle
from satid.core import PartialInterpretation

text = """\
% p_T <- c1 & c2 & c3 & c4 ; the checks range over opens a b c d e and
% defined atom f <- b | d
p cid 11
t 1
r 1 c 2 3 4 5 0
r 2 d -8 -10 0
r 3 d 7 8 -9 0
r 4 d -8 11 -6 0
r 5 d 10 6 -7 0
r 6 d 8 10 0
"""
theory = parse_cid(text)
setup = build_justification_maps(theory)
# .cid files have no names; these follow the comment above
NAMES = dict(enumerate("p_T c1 c2 c3 c4 f a b c d e".split(), start=1))


def name(lit):
    return NAMES[abs(lit)] if lit > 0 else "~" + NAMES[-lit]


def names(lits):
    return sorted(map(name, lits), key=lambda n: n.lstrip("~"))


print("count thresholds per head (body literals needed for true / false):")
for rule in theory.definition:
    connective = " & " if rule.conjunctive else " | "
    body = connective.join(map(name, rule.body))
    head = rule.head
    print(f"  {name(head)} <- {body}: "
          f"{setup.need_true[head]} / {setup.need_false[head]}")
print("heads each literal of b and d occurs in:")
for lit in (8, -8, 10, -10):
    print(f"  {name(lit)}: {names(setup.graph.occurs[lit])}")

# a trail with b at level 1, e at level 2 and ~d at level 3
b, d, e = 8, 10, 11
trail, trail_lim = [b, e, -d], [0, 1, 2]
justifier = Justifier(setup)
justifier.sync(trail, trail_lim)
for level, start in enumerate(justifier.lim, start=1):
    end = justifier.lim[level] if level < len(justifier.lim) else len(justifier.stack)
    print(f"\nlevel {level} justifies {names(justifier.stack[start:end])}")


def check():
    state = PartialInterpretation.from_literals(trail)
    assert justifier.justified_literals() == oracle.justified_literals(theory, state)
    print(f"\nopens {names(trail)} justify {names(justifier.justified_literals())}")
    print("  as the justification-search oracle finds")


check()
# back to level 1: the statuses that levels 2 and 3 gave are popped
justifier.backtrack(1, trail_lim[1])
del trail[trail_lim[1]:], trail_lim[1:]
justifier.sync(trail, trail_lim)
check()

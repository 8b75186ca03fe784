"""Tracking justified status through a duplicated definition.

For every defined atom p a justification atom j(p) is added, numbered after
the theory's atoms and defined by a copy of the rules in which defined atoms
are replaced by their copies and open atoms stay.  The copies have ids but no
names; the j(p) labels below are made from the base names.  The solver never
decides on the copies, so their values come from propagation alone, and j(p)
is true/false exactly when p / ~p is justified by the current open-atom
assignment.
"""

from satid import build_justification_maps, defined_fixpoint, parse_cid
from satid import oracle
from satid.core import TruthValue, PartialInterpretation

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


def label(lit):
    """A literal of the copy, named j(p) for the copy of p after p's name."""
    if abs(lit) not in setup.maps.just_atoms:
        return theory.literal_name(lit)  # an open atom's literal
    base = setup.maps.status_change[lit]
    name = f"j({theory.name_of(abs(base))})"
    return name if base > 0 else "~" + name


print("justification copy:")
for rule, copy in zip(theory.definition, setup.maps.translate(
        rule.body for rule in theory.definition)):
    connective = " & " if rule.conjunctive else " | "
    body = connective.join(label(lit) for lit in copy)
    print(f"  {label(setup.maps.to_just[rule.head])} <- {body}")

# propagation from open literals alone derives exactly the justified atoms
for opens in ([8], [10], [-8, -10]):
    fixpoint = defined_fixpoint(theory, opens)
    state = PartialInterpretation.from_literals(opens)
    derived = {a: v.symbol for a, v in fixpoint.items() if v is not TruthValue.UNKNOWN}
    print(f"\nopens {opens}: propagation derives {derived}")
    for atom in sorted(theory.defined):
        assert fixpoint[atom] == oracle.justified_status(theory, state, atom)
    print("  matches the justification-search oracle for every defined atom")

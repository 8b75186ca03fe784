"""Answer checks, run outside the timed region.

Every reference here is independent of the code under test: the `.cid`
families are rebuilt from the generator's rule triples (not from the
library's parser) and judged by `satid.oracle`; `3sat` is judged by a small
DPLL on the generating CNF (`families.dpll`).  A check returns None for a
right answer and a one-line reason for a wrong one.
"""

from __future__ import annotations

from satid import (TRUE, UNKNOWN, AtomTable, DefnfTheory, Definition,
                   PartialInterpretation, Rule, oracle)

from families import Instance


def reference_theory(inst: Instance) -> DefnfTheory:
    rules = [Rule(head, conjunctive, body) for head, conjunctive, body in inst.rules]
    return DefnfTheory(AtomTable([None] * inst.n_atoms), inst.theory_atom,
                       Definition(rules))


def negative_cycle(inst: Instance) -> bool:
    """Whether some rule body uses `~a` while `a` depends back on the rule's
    head: the definitions on which justification atoms are known to part
    from justified status."""
    depends = {head: {abs(lit) for lit in body} for head, _, body in inst.rules}

    def reaches(start: int, goal: int) -> bool:
        seen, stack = set(), [start]
        while stack:
            atom = stack.pop()
            if atom == goal:
                return True
            if atom not in seen:
                seen.add(atom)
                stack.extend(depends.get(atom, ()))
        return False

    return any(lit < 0 and reaches(-lit, head)
               for head, _, body in inst.rules for lit in body)


def check(workload: str, inst: Instance, record) -> str | None:
    """Judge one answer that finished within the budget."""
    if workload == "3sat":
        return _check_cnf(inst, record)
    theory = reference_theory(inst)
    if workload == "random":
        try:
            return _check_exhaustive(theory, record)
        except oracle.OracleError as exc:
            return f"oracle cross-check failed: {exc}"
    return _check_well_founded(theory, record)


def _check_well_founded(theory: DefnfTheory, record) -> str | None:
    """Satisfiable-by-construction families: the well-founded model of the
    witness's open part (each completion of it, after an early stop) must be
    two-valued, make the theory atom true and agree with the witness."""
    if record.status != "sat":
        return f"answered {record.status} on a satisfiable theory"
    witness = dict((abs(lit), lit > 0) for lit in record.witness)
    unassigned = [a for a in sorted(theory.opens) if a not in witness]
    if record.early_stop:
        if record.models_represented != 2 ** len(unassigned):
            return (f"models_represented {record.models_represented} with "
                    f"{len(unassigned)} unassigned open atoms")
    elif unassigned:
        return "complete answer leaves open atoms unassigned"
    assigned_opens = [lit for lit in record.witness if abs(lit) in theory.opens]
    for sign in ((-1, 1) if unassigned else (1,)):
        context = PartialInterpretation.from_literals(
            assigned_opens + [sign * a for a in unassigned])
        wfm = oracle.well_founded_model(theory.definition, context)
        for atom in theory.defined:
            value = wfm.value(atom)
            if value is UNKNOWN:
                return f"well-founded model leaves atom {atom} undefined"
            if atom in witness and witness[atom] != (value is TRUE):
                return f"witness disagrees with the well-founded model on atom {atom}"
        if wfm.value(theory.theory_atom) is not TRUE:
            return "theory atom false in the well-founded model"
    return None


def _check_exhaustive(theory: DefnfTheory, record) -> str | None:
    """Small theories: enumerate models for unsat, test the witness for sat,
    and recount the represented models after an early stop."""
    if record.status == "unsat":
        if oracle.enumerate_models(theory):
            return "answered unsat on a theory with models"
        return None
    interp = PartialInterpretation.from_literals(record.witness)
    if not record.early_stop:
        if not interp.two_valued_on(theory.atoms.atoms()):
            return "complete answer is not two-valued"
        if not oracle.is_model(interp, theory):
            return "witness is not a model"
        return None
    if not oracle.justified(theory, interp, theory.theory_atom):
        return "early stop although the theory atom is not justified"
    count = oracle.count_models_extending(theory, interp)
    if count != record.models_represented:
        return f"models_represented {record.models_represented}, oracle counts {count}"
    return None


def _check_cnf(inst: Instance, record) -> str | None:
    """3-SAT: the status must match the reference DPLL run at generation,
    and every clause must have a true literal under the (possibly partial)
    witness, so that each of the 2^n completions is a model."""
    if record.status == "unsat":
        return "answered unsat on a satisfiable CNF" if inst.satisfiable else None
    if not inst.satisfiable:
        return "answered sat on an unsatisfiable CNF"
    true_lits = set(record.witness)
    for clause in inst.clauses:
        if not true_lits.intersection(clause):
            return f"witness leaves clause {clause} unsatisfied"
    variables = {abs(x) for clause in inst.clauses for x in clause}
    unassigned = len(variables - {abs(x) for x in record.witness})
    if record.early_stop:
        if record.models_represented != 2 ** unassigned:
            return (f"models_represented {record.models_represented} with "
                    f"{unassigned} unassigned variables")
    elif unassigned:
        return "complete answer leaves variables unassigned"
    return None

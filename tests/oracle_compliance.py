"""Reference compliance audit, independent of the shared branch pass.

reference_check_compliance is the audit as first written: it evaluates every
refinement branch on its own, in choice-log order, runs the four one-atom
detectors on each decision atom of that branch's sorted view, with rule ids
from that branch's own model, and stops at the first branch without
conflicts; otherwise it reports the nearest miss (fewest conflicts, then
choice-log order). It builds each model's sorted view itself and shares
the single-branch pieces (evaluate, obligation_status, the detectors and the
branch statistics) with the engine, so a comparison tests the shared pass,
the integer walk over it and the report's per-atom recomputation. The module
also hosts the random audit generator used by the equivalence test.
"""

from __future__ import annotations

from polcheck.compliance import (
    ComplianceReport,
    Conflict,
    _branch_stats,
    detect_modal_authorization_violation,
    detect_modal_capability_conflict,
    detect_obligation_violation,
    detect_resource_capability_conflict,
    obligation_status,
)
from polcheck.datalog import evaluate
from polcheck.errors import PolicyError
from polcheck.loading import parse_facts, parse_ontology, parse_patterns, parse_state
from polcheck.policy import parse_policy, validate_high_level
from polcheck.refinement import refine_policy
from polcheck.terms import render

from oracle_datalog import error_witnesses


class _View:
    """A model's do and mustdo atoms, each sorted by render."""

    def __init__(self, model):
        self.do_atoms = tuple(sorted((a for a in model.atoms if a.pred == "do"), key=render))
        self.mustdo_atoms = tuple(sorted((a for a in model.atoms if a.pred == "mustdo"), key=render))


def reference_check_compliance(
    ph, pl, ds, patterns, sigma, onto, mode="dispensation-precedence", max_branches=1024
) -> ComplianceReport:
    hl = validate_high_level(ph)
    if hl:
        raise PolicyError(f"high-level policy authors positive authorizations: {hl[0].message}")

    def counts():
        return (("branches_examined", examined), ("atoms_derived", atoms_derived))

    examined = 0
    model_l = evaluate(pl, ds, onto)
    atoms_derived = len(model_l.atoms) - len(ds.base_atoms)
    if error_witnesses(model_l):
        detail = "low-level policy is inconsistent (error derivable)"
        return ComplianceReport("inconsistent-input", stats=counts(), detail=detail)
    view_l = _View(model_l)
    M_l = set(view_l.mustdo_atoms)

    result = refine_policy(ph, patterns, onto, ds, mode=mode, max_branches=max_branches)
    per_branch = []
    for branch, model_h, conflicts, stats_extra in _audits(result, ds, sigma, onto, view_l, M_l):
        examined += 1
        atoms_derived += len(model_h.atoms) - len(ds.base_atoms)
        if conflicts is None:
            detail = "high-level policy is inconsistent (error derivable in a refinement branch)"
            return ComplianceReport("inconsistent-input", stats=counts(), detail=detail)
        if not conflicts:
            return ComplianceReport("compliant", branch.choice_log, (), counts() + stats_extra)
        per_branch.append((len(conflicts), branch.choice_log, conflicts, stats_extra))

    _, nearest_log, nearest_conflicts, stats_extra = min(per_branch, key=lambda x: x[:2])
    return ComplianceReport("non-compliant", nearest_log, nearest_conflicts, counts() + stats_extra)


def _audits(result, ds, sigma, onto, view_l, M_l):
    """(branch, model, sorted conflicts or None when error is derivable,
    branch statistics) for each branch in turn, each evaluated on its own."""
    status: dict = {}
    low = set(view_l.do_atoms)
    for branch in result.branches:
        model_h = evaluate(branch.policy, ds, onto)
        if error_witnesses(model_h):
            yield branch, model_h, None, ()
            continue
        view_h = _View(model_h)
        for m in view_h.mustdo_atoms:
            if m not in status:
                status[m] = obligation_status(m, sigma, onto, ds)
        conflicts = []
        for a in view_h.do_atoms:
            conflicts += _with_rule_ids(model_h, a, detect_modal_authorization_violation(a, low))
        for m in view_h.mustdo_atoms:
            if status[m] == "unsatisfied":
                found = detect_obligation_violation(m, M_l)
                found += detect_resource_capability_conflict(m, ds, onto)
                found += detect_modal_capability_conflict(m, low)
                conflicts += _with_rule_ids(model_h, m, found)
        conflicts.sort(key=Conflict.sort_key)
        yield branch, model_h, tuple(conflicts), _branch_stats(view_h.mustdo_atoms, status, M_l)


def _with_rule_ids(model, atom, conflicts) -> list:
    """The conflicts of one high atom, each with the ids of the rules that
    derive the atom in the branch's model."""
    rule_ids = tuple(sorted({rule_id for rule_id, _ in model.supports_of(atom)}))
    return [Conflict(c.category, c.witness, rule_ids) for c in conflicts]


def branch_outcomes(ph, pl, ds, patterns, sigma, onto) -> list:
    """Every branch's outcome, past the one the audit stops at: "error" or
    its conflict count. The low policy must be consistent."""
    view_l = _View(evaluate(pl, ds, onto))
    result = refine_policy(ph, patterns, onto, ds)
    return [
        "error" if conflicts is None else len(conflicts)
        for _, _, conflicts, _ in _audits(
            result, ds, sigma, onto, view_l, set(view_l.mustdo_atoms)
        )
    ]


def random_audit(rng):
    """(high, low, ds, patterns, sigma, onto): 1-4 obligation rules, rule j
    refined by a flexible choice between A<j> and B<j>, over 1-3 subjects.
    Actions may declare an effect the state may entail, and a resource the
    data system may lack. The low policy grants and enforces a drawn option
    per (subject, rule), sometimes both or neither. Now and then the high
    policy makes error derivable in the branches that choose a drawn option
    of a drawn rule, and the low policy derives error outright."""
    k = rng.randint(1, 4)
    subjects = [f"u{i}" for i in range(rng.randint(1, 3))]
    asset = {s: f"x{i}" for i, s in enumerate(subjects)}
    onto = [
        "class Entity",
        "class Employee subclassOf Entity",
        "class Asset subclassOf Entity",
        "prop type dom Entity range Entity",
    ]
    state = []
    for j in range(1, k + 1):
        onto.append(f"prop duty{j} dom Employee range Asset")
        onto.append(f"action Task{j}(target) init {{}} final {{}}")
        for opt in "AB":
            onto.append(f"prop done{opt}{j} dom Asset range Entity")
            line = f"action {opt}{j}(target) init {{}} final {{}}"
            if rng.random() < 0.7:
                line += f" effect done{opt}{j}($target, $v)"
                if rng.random() < 0.15:
                    state.append(f"done{opt}{j}({rng.choice(list(asset.values()))}, yes).")
            if rng.random() < 0.1:
                line += f" resource {rng.choice(('tape1', 'tape2'))}"
            onto.append(line)
    facts = ["obj tape1 : Asset"]
    facts += [f"obj {x} : Asset" for x in asset.values()]
    facts += [f"obj {s} : Employee" for s in subjects]
    facts += [f"duty{j}({s}, {asset[s]})." for j in range(1, k + 1) for s in subjects]
    high = [
        f"hasObligation($s, Task{j}((target,$x)), true) :- type($s, Employee) & duty{j}($s, $x)."
        for j in range(1, k + 1)
    ]
    high.append("mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).")
    if rng.random() < 0.25:
        j = rng.randint(1, k)
        opt = rng.choice("AB")
        high.append(f"error :- mustdo($s, {opt}{j}((target,$x)), true) & duty{j}($s, $x).")
    patterns = [
        f"refine Task{j}(target:$x) := A{j}(target:$x) \\/ B{j}(target:$x) type=basic-flex-choice"
        for j in range(1, k + 1)
    ]
    low = []
    for j in range(1, k + 1):
        for s in subjects:
            roll = rng.random()
            options = "AB" if roll < 0.1 else "" if roll < 0.15 else rng.choice("AB")
            for opt in options:
                act = f"{opt}{j}((target,{asset[s]}))"
                if rng.random() < 0.9:
                    low.append(f"cando({act}, {s}, +execute) :- duty{j}({s}, {asset[s]}).")
                if rng.random() < 0.9:
                    low.append(f"mustdo({s}, {act}, true) :- duty{j}({s}, {asset[s]}).")
    low.append("do($o, $s, +$a) :- cando($o, $s, +$a).")
    if rng.random() < 0.05:
        low.append(f"error :- duty1({subjects[0]}, {asset[subjects[0]]}).")
    o = parse_ontology("\n".join(onto) + "\n")
    return (
        parse_policy("\n".join(high) + "\n", o),
        parse_policy("\n".join(low) + "\n", o),
        parse_facts("\n".join(facts) + "\n", o),
        parse_patterns("\n".join(patterns) + "\n", o),
        parse_state("\n".join(state) + "\n", o),
        o,
    )

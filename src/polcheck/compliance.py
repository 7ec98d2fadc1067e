"""Compliance auditing: compare a low-level policy's ground decision view
against every refinement branch of the high-level policy.

A branch matches when its signed do atoms all appear in the low-level view
and every branch obligation is either enforced by the low-level view,
released (its action's initial-space assumptions no longer hold in the
current state), or already satisfied in the current state (postcondition and
action effect both entailed). The first matching branch decides compliance;
otherwise the nearest-miss branch (fewest conflicts, then choice-log order)
is reported with its conflicts, one per detector category.

Each ground obligation is classified once per audit: its status depends
only on the atom, the current state, the ontology and the data system, so
check_compliance keeps one table shared by every branch. The obligation
detectors take a branch's pending (unsatisfied) obligations from it.

Entailment against the current state is closed-world atom lookup over the
state's atoms plus the data system's base atoms; no rule inference runs
inside the state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .datalog import DecisionView, Model, decision_view, evaluate
from .errors import EntailmentError, PolicyError
from .ontology import DataSystem, Ontology, State, feasible_in
from .policy import Policy, validate_high_level
from .refinement import refine_policy
from .terms import ActionTerm, Atom, Const, Formula, Signed, match_atom, render, substitute

SCHEMA_VERSION = 1

CATEGORY_MODAL_AUTH = "modal-authorization-violation"
CATEGORY_OBLIGATION = "obligation-violation"
CATEGORY_RESOURCE = "resource-capability-conflict"
CATEGORY_MODAL_CAP = "modal-capability-conflict"


@dataclass(frozen=True)
class CurrentState:
    atoms: frozenset = frozenset()  # ground rel/done atoms observed now
    state: State = None  # optional variable-table assignment


@dataclass(frozen=True)
class Conflict:
    category: str
    witness: tuple  # atoms (and constants) that exhibit the conflict
    rule_ids: tuple = ()

    def sort_key(self):
        return (self.category, tuple(render(w) for w in self.witness))


@dataclass(frozen=True)
class ComplianceReport:
    verdict: str  # 'compliant' | 'non-compliant' | 'inconsistent-input'
    matched_branch: tuple = None  # choice log of the matching branch
    conflicts: tuple = ()
    stats: tuple = ()  # ((key, value), ...)
    detail: str = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "verdict": self.verdict,
            "matched_branch": (
                [list(entry) for entry in self.matched_branch]
                if self.matched_branch is not None
                else None
            ),
            "conflicts": [
                {
                    "category": c.category,
                    "witness": [render(w) for w in c.witness],
                    "rule_ids": list(c.rule_ids),
                }
                for c in self.conflicts
            ],
            "stats": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.stats},
            "detail": self.detail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.detail:
            lines.append(f"detail: {self.detail}")
        if self.matched_branch is not None:
            if self.matched_branch:
                lines.append("matched branch:")
                for rid, pid, tag in self.matched_branch:
                    lines.append(f"  {rid} via {pid}: {tag}")
            else:
                lines.append("matched branch: (no refinement choices)")
        if self.conflicts:
            lines.append("conflicts:")
            for c in self.conflicts:
                witness = ", ".join(render(w) for w in c.witness)
                rules = f" [{', '.join(c.rule_ids)}]" if c.rule_ids else ""
                lines.append(f"  {c.category}: {witness}{rules}")
        for k, v in self.stats:
            if isinstance(v, (tuple, list)):
                lines.append(f"{k}:")
                lines.extend(f"  {item}" for item in v)
            else:
                lines.append(f"{k}: {v}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------


def entails(sigma: CurrentState, ds: DataSystem, formula: Formula, onto: Ontology = None) -> bool:
    """Existential satisfaction of a conjunction by the current state's atoms
    plus the data system's base atoms: some binding of the formula's
    variables makes every positive conjunct an atom of that pool and no
    negated conjunct one."""
    pool = frozenset(sigma.atoms) | ds.base_atoms
    if formula.is_false:
        return False
    if onto is not None:
        known = {a.pred for a in pool}
        known.update(onto.properties)
        known.update(("done", "done_act", "over", "over_AS", "over_AO"))
        for c in formula.conjuncts:
            if c.atom.pred not in known:
                raise EntailmentError(
                    f"cannot resolve predicate {c.atom.pred!r} in a postcondition"
                )
    positives = [c.atom for c in formula.conjuncts if not c.negated]
    negatives = [c.atom for c in formula.conjuncts if c.negated]
    by_pred: dict = {}
    for a in pool:
        by_pred.setdefault(a.pred, []).append(a)

    def search(i: int, theta: dict) -> bool:
        if i == len(positives):
            for neg in negatives:
                pat = substitute(neg, theta)
                if any(match_atom(pat, ga, {}) is not None for ga in by_pred.get(pat.pred, ())):
                    return False
            return True
        pat = substitute(positives[i], theta)
        for ga in by_pred.get(pat.pred, ()):
            theta2 = match_atom(pat, ga, theta)
            if theta2 is not None and search(i + 1, theta2):
                return True
        return False

    return search(0, {})


def effect_formula(action: ActionTerm, onto: Ontology) -> Formula:
    """The action class's declared effect with the term's property bindings
    substituted in; unbound effect variables stay existential."""
    acd = onto.action_classes.get(action.name)
    if acd is None:
        return Formula(())
    theta = {prop: value for prop, value in action.bindings}
    return substitute(acd.effect, theta)


# ---------------------------------------------------------------------------
# Obligation satisfaction
# ---------------------------------------------------------------------------


def obligation_status(m: Atom, sigma: CurrentState, onto: Ontology, ds: DataSystem) -> str:
    """'released' | 'satisfied' | 'unsatisfied' for a ground mustdo atom."""
    action = m.args[1]
    if isinstance(action, ActionTerm) and sigma.state is not None:
        acd = onto.action_classes.get(action.name)
        if acd is not None and not feasible_in(acd.init_space, sigma.state, onto):
            return "released"
    q = m.args[2]
    if not isinstance(q, Formula):
        raise EntailmentError(f"mustdo postcondition is not a formula: {render(q)}")
    e_a = effect_formula(action, onto) if isinstance(action, ActionTerm) else Formula(())
    if entails(sigma, ds, q, onto) and entails(sigma, ds, e_a, onto):
        return "satisfied"
    return "unsatisfied"


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


def detect_modal_authorization_violation(
    view_h: DecisionView, view_l: DecisionView, model_h: Model = None
) -> tuple:
    """Two shapes: a do(+) grant in the low view directly contradicted by a
    do(-) in the refined high view, and any high-view do atom missing from
    the low view (the subset check of the compliance definition)."""
    conflicts = []
    low = set(view_l.do_atoms)
    for atom in view_h.do_atoms:
        sign = atom.args[2]
        if isinstance(sign, Signed) and sign.sign == "-":
            flipped = Atom("do", (atom.args[0], atom.args[1], Signed("+", sign.term)))
            if flipped in low:
                conflicts.append(
                    Conflict(CATEGORY_MODAL_AUTH, (flipped, atom), _rule_ids(model_h, atom))
                )
        if atom not in low:
            conflicts.append(Conflict(CATEGORY_MODAL_AUTH, (atom,), _rule_ids(model_h, atom)))
    return tuple(conflicts)


def detect_obligation_violation(pending, M_l, model_h: Model = None) -> tuple:
    """Pending obligations (neither satisfied nor released in the current
    state) missing from M_l, the set of the low-level view's mustdo atoms."""
    return tuple(
        Conflict(CATEGORY_OBLIGATION, (m,), _rule_ids(model_h, m)) for m in pending if m not in M_l
    )


def detect_resource_capability_conflict(
    pending, ds: DataSystem, onto: Ontology, model_h: Model = None
) -> tuple:
    """Pending obligations whose action class declares a resource object that
    the data system does not contain."""
    conflicts = []
    for m in pending:
        action = m.args[1]
        if not isinstance(action, ActionTerm):
            continue
        acd = onto.action_classes.get(action.name)
        if acd is None:
            continue
        for obj in acd.resources:
            if not ds.has_object(obj):
                conflicts.append(
                    Conflict(CATEGORY_RESOURCE, (m, Const(obj)), _rule_ids(model_h, m))
                )
    return tuple(conflicts)


def detect_modal_capability_conflict(
    pending, view_l: DecisionView, model_h: Model = None
) -> tuple:
    """Pending obligations with no +execute grant in the low-level view."""
    low = set(view_l.do_atoms)
    conflicts = []
    for m in pending:
        subject, action = m.args[0], m.args[1]
        grant = Atom("do", (action, subject, Signed("+", Const("execute"))))
        if grant not in low:
            conflicts.append(Conflict(CATEGORY_MODAL_CAP, (m, grant), _rule_ids(model_h, m)))
    return tuple(conflicts)


def _rule_ids(model: Model, atom: Atom) -> tuple:
    if model is None:
        return ()
    return tuple(sorted({rule_id for rule_id, _ in model.supports_of(atom)}))


# ---------------------------------------------------------------------------
# Algorithm: full audit
# ---------------------------------------------------------------------------


def check_compliance(
    ph: Policy,
    pl: Policy,
    ds: DataSystem,
    patterns,
    sigma: CurrentState,
    onto: Ontology,
    mode: str = "dispensation-precedence",
    max_branches: int = 1024,
) -> ComplianceReport:
    hl = validate_high_level(ph)
    if hl:
        raise PolicyError(f"high-level policy authors positive authorizations: {hl[0].message}")

    def counts():
        return (("branches_examined", examined), ("atoms_derived", atoms_derived))

    examined = 0
    model_l = evaluate(pl, ds, onto)
    atoms_derived = len(model_l.atoms) - len(ds.base_atoms)
    if model_l.error_witnesses:
        detail = "low-level policy is inconsistent (error derivable)"
        return ComplianceReport("inconsistent-input", stats=counts(), detail=detail)
    view_l = decision_view(model_l)
    M_l = set(view_l.mustdo_atoms)

    result = refine_policy(ph, patterns, onto, ds, mode=mode, max_branches=max_branches)
    status: dict = {}  # ground mustdo atom -> obligation_status, for every branch
    per_branch = []
    for branch in result.branches:
        examined += 1
        model_h = evaluate(branch.policy, ds, onto)
        atoms_derived += len(model_h.atoms) - len(ds.base_atoms)
        if model_h.error_witnesses:
            detail = "high-level policy is inconsistent (error derivable in a refinement branch)"
            return ComplianceReport("inconsistent-input", stats=counts(), detail=detail)
        view_h = decision_view(model_h)
        for m in view_h.mustdo_atoms:
            if m not in status:
                status[m] = obligation_status(m, sigma, onto, ds)
        pending = tuple(m for m in view_h.mustdo_atoms if status[m] == "unsatisfied")
        conflicts = list(detect_modal_authorization_violation(view_h, view_l, model_h))
        conflicts.extend(detect_obligation_violation(pending, M_l, model_h))
        conflicts.extend(detect_resource_capability_conflict(pending, ds, onto, model_h))
        conflicts.extend(detect_modal_capability_conflict(pending, view_l, model_h))
        conflicts.sort(key=Conflict.sort_key)
        stats_extra = _branch_stats(view_h, status, M_l)
        if not conflicts:
            return ComplianceReport("compliant", branch.choice_log, (), counts() + stats_extra)
        per_branch.append((len(conflicts), branch.choice_log, tuple(conflicts), stats_extra))

    # the nearest miss: fewest conflicts, then choice-log order
    _, nearest_log, nearest_conflicts, stats_extra = min(per_branch, key=lambda x: x[:2])
    return ComplianceReport("non-compliant", nearest_log, nearest_conflicts, counts() + stats_extra)


def _branch_stats(view_h, status, M_l) -> tuple:
    released = []
    enforced = []
    for m in view_h.mustdo_atoms:
        if m in M_l:
            enforced.append(render(m))
        elif status[m] == "released":
            released.append(render(m))
    out = []
    if enforced:
        out.append(("enforced_by_low_view", tuple(sorted(enforced))))
    if released:
        out.append(("released_obligations", tuple(sorted(released))))
    return tuple(out)

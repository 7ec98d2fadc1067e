"""Compliance auditing: compare a low-level policy's ground decision view
against every refinement branch of the high-level policy.

A branch matches when its signed do atoms all appear in the low-level view
and every branch obligation is either enforced by the low-level view,
released (its action's initial-space assumptions no longer hold in the
current state), or already satisfied in the current state (postcondition and
action effect both entailed). The first matching branch in choice-log order
decides compliance; otherwise the nearest-miss branch (fewest conflicts, then
choice-log order) is reported with its conflicts, one per detector category.

All branches are evaluated in one shared pass (`datalog.evaluate_branches`)
over refinement's rule table, which gives each atom the mask of the branches
whose model holds it; no branch policy is built. Every conflict belongs to
one decision atom of the high view, and each detector judges one such atom
against the low model's do and mustdo atoms. The branches are walked in
choice-log order with integers only: each atom is judged when the walk
reaches the first branch that holds it, and a branch's conflict count is the
sum over the masks its bit is in. The report recomputes the conflicts of its
branch's atoms, and projects that branch's model for their rule ids only when
there is one.

Each ground obligation is classified once per audit, when the walk reaches
the first branch that holds it: its status depends only on the atom, the
current state, the ontology and the data system.

Entailment against the current state is closed-world atom lookup over the
state's atoms plus the data system's base atoms; no rule inference runs
inside the state. Those atoms go into one read-only pool (`datalog._Atoms`)
per (state, data system) pair, kept on the state; each postcondition keeps
its join plans. The evaluator's compiled join (`datalog._join`) matches the
positive conjuncts, then each negated conjunct from each of their bindings:
a conjunct they make ground is a membership probe, with no index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .datalog import _Atoms, _join, _join_plan, evaluate, evaluate_branches
from .errors import EntailmentError, PolicyError
from .ontology import DataSystem, Ontology, State, feasible_in
from .policy import Policy, validate_high_level
from .refinement import MAX_BRANCHES, refine_policy
from .terms import (
    ActionTerm,
    Atom,
    Const,
    Formula,
    Signed,
    render,
    sort_key,
    substitute,
)

SCHEMA_VERSION = 1

CATEGORY_MODAL_AUTH = "modal-authorization-violation"
CATEGORY_OBLIGATION = "obligation-violation"
CATEGORY_RESOURCE = "resource-capability-conflict"
CATEGORY_MODAL_CAP = "modal-capability-conflict"


@dataclass(frozen=True)
class CurrentState:
    atoms: frozenset = frozenset()  # ground rel/done atoms observed now
    state: State = None  # optional variable-table assignment
    # (base atoms, _Atoms of atoms | base atoms) last read
    _pool: tuple = field(default=(None, None), init=False, compare=False, repr=False)


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


# Predicates a postcondition may name besides the ontology's properties and
# the predicates of the atoms in the pool.
_STATE_PREDICATES = frozenset(("done", "done_act", "over", "over_AS", "over_AO"))


def entails(sigma: CurrentState, ds: DataSystem, formula: Formula, onto: Ontology = None) -> bool:
    """Existential satisfaction of a conjunction by the current state's atoms
    plus the data system's base atoms: some binding of the formula's
    variables makes every positive conjunct an atom of that pool and no
    negated conjunct one. The pool is indexed once per (state, data system)
    pair; the sets are frozen, so the same objects mean the same atoms."""
    if formula.is_false:
        return False
    base, store = sigma._pool
    if base is not ds.base_atoms:
        store = _Atoms(dict.fromkeys(sigma.atoms | ds.base_atoms, 1))
        object.__setattr__(sigma, "_pool", (ds.base_atoms, store))
    if onto is not None:
        for c in formula.conjuncts:
            pred = c.atom.pred
            if not (
                pred in onto.properties
                or pred in _STATE_PREDICATES
                or any(shape[1] == pred for shape in store.lists)
            ):
                raise EntailmentError(f"cannot resolve predicate {pred!r} in a postcondition")
    plan = getattr(formula, "_cache", None)  # a formula caches its join plans
    if plan is None:
        positives = [c.atom for c in formula.conjuncts if not c.negated]
        # a negated conjunct's step after the positives, which bind its variables
        negatives = [_join_plan(positives + [c.atom])[-1:] for c in formula.conjuncts if c.negated]
        plan = (_join_plan(positives), negatives)
        object.__setattr__(formula, "_cache", plan)
    positive, negatives = plan
    return any(
        not any(_join(negative, store, store, 1, theta) for negative in negatives)
        for theta, _ in _join(positive, store, store, 1)
    )


def effect_formula(action: ActionTerm, onto: Ontology) -> Formula:
    """The action class's declared effect with the term's property bindings
    substituted in; unbound effect variables stay existential. The term
    keeps its last result with the declared effect it came from, so each
    action term substitutes an ontology's effect once."""
    acd = onto.action_classes.get(action.name)
    if acd is None:
        return Formula(())
    effect, result = getattr(action, "_cache", (None, None))
    if effect is not acd.effect:
        result = substitute(acd.effect, dict(action.bindings))
        object.__setattr__(action, "_cache", (acd.effect, result))
    return result


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


def detect_modal_authorization_violation(atom: Atom, low: set) -> tuple:
    """The conflicts of one high-view do atom against `low`, the low view's
    do atoms. Two shapes: a do(-) whose do(+) twin the low view grants
    (the pair is the witness), and a do atom missing from the low view (the
    subset check of the compliance definition)."""
    conflicts = ()
    sign = atom.args[2]
    if isinstance(sign, Signed) and sign.sign == "-":
        flipped = Atom("do", (atom.args[0], atom.args[1], Signed("+", sign.term)))
        if flipped in low:
            conflicts = (Conflict(CATEGORY_MODAL_AUTH, (flipped, atom)),)
    if atom not in low:
        conflicts += (Conflict(CATEGORY_MODAL_AUTH, (atom,)),)
    return conflicts


def detect_obligation_violation(m: Atom, M_l: set) -> tuple:
    """A pending obligation (neither satisfied nor released in the current
    state) missing from M_l, the low view's mustdo atoms."""
    return () if m in M_l else (Conflict(CATEGORY_OBLIGATION, (m,)),)


def detect_resource_capability_conflict(m: Atom, ds: DataSystem, onto: Ontology) -> tuple:
    """A pending obligation whose action class declares a resource object
    that the data system does not contain, once per such object."""
    action = m.args[1]
    acd = onto.action_classes.get(action.name) if isinstance(action, ActionTerm) else None
    resources = acd.resources if acd is not None else ()
    return tuple(Conflict(CATEGORY_RESOURCE, (m, Const(obj))) for obj in resources if not ds.has_object(obj))


def detect_modal_capability_conflict(m: Atom, low: set) -> tuple:
    """A pending obligation with no +execute grant among `low`, the low
    view's do atoms."""
    grant = Atom("do", (m.args[1], m.args[0], Signed("+", Const("execute"))))
    return () if grant in low else (Conflict(CATEGORY_MODAL_CAP, (m, grant)),)


def _conflicts(atom: Atom, status: dict, low: set, M_l: set, ds: DataSystem, onto: Ontology) -> tuple:
    """Every detector's conflicts for one high-view decision atom: the
    authorization detector for a do atom, the three obligation detectors for
    a mustdo atom whose status is unsatisfied."""
    if atom.pred == "do":
        return detect_modal_authorization_violation(atom, low)
    if status[atom] != "unsatisfied":
        return ()
    return (
        detect_obligation_violation(atom, M_l)
        + detect_resource_capability_conflict(atom, ds, onto)
        + detect_modal_capability_conflict(atom, low)
    )


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
    max_branches: int = MAX_BRANCHES,
) -> ComplianceReport:
    hl = validate_high_level(ph)
    if hl:
        raise PolicyError(f"high-level policy authors positive authorizations: {hl[0].message}")

    def counts():
        """The statistics so far: each examined branch's derived atoms are
        those its bit holds, less the base atoms every branch holds."""
        derived = len(model_l.atoms) - len(ds.base_atoms)
        if examined:
            bits = (1 << examined) - 1
            held = sum((mask & bits).bit_count() for mask in shared.masks.values())
            derived += held - examined * len(ds.base_atoms)
        return (("branches_examined", examined), ("atoms_derived", derived))

    examined = 0
    model_l = evaluate(pl, ds, onto)
    if model_l.error_mask():
        detail = "low-level policy is inconsistent (error derivable)"
        return ComplianceReport("inconsistent-input", stats=counts(), detail=detail)
    low = {a for a in model_l.atoms if a.pred == "do"}
    M_l = {a for a in model_l.atoms if a.pred == "mustdo"}

    result = refine_policy(ph, patterns, onto, ds, mode=mode, max_branches=max_branches)
    shared = evaluate_branches(result.rules, result.count, ds, onto)
    error_mask = shared.error_mask()
    # The decision atoms of the high views by the first branch that holds
    # them, mustdo atoms sorted: the walk audits each when it reaches that
    # branch, and classifies the obligations in the order one branch's view
    # lists them.
    first_held: dict = {}  # branch index -> [(atom, mask), ...]
    mustdo = []
    for atom, mask in shared.masks.items():
        if atom.pred == "do":
            first_held.setdefault((mask & -mask).bit_length() - 1, []).append((atom, mask))
        elif atom.pred == "mustdo":
            mustdo.append((atom, mask))
    for atom, mask in sorted(mustdo, key=lambda pair: sort_key(pair[0])):
        first_held.setdefault((mask & -mask).bit_length() - 1, []).append((atom, mask))

    status: dict = {}  # ground mustdo atom -> obligation_status, for every branch
    conflict_count: dict = {}  # branch mask -> conflicts of the atoms with that mask, if any
    nearest = None  # (conflicts, branch index): fewest conflicts, then choice-log order

    def report(verdict, i):
        """The report on branch i: the conflicts of the atoms it holds, with
        the rule ids of the branch's own model, projected only when there is
        a conflict to attach them to."""
        bit = 1 << i
        held = [a for a, mask in shared.masks.items() if mask & bit and a.pred in ("do", "mustdo")]
        conflicts = []
        model_h = None
        for atom in held:
            if found := _conflicts(atom, status, low, M_l, ds, onto):
                if model_h is None:
                    model_h = shared.project(i)
                rule_ids = tuple(sorted({rule_id for rule_id, _ in model_h.supports_of(atom)}))
                conflicts.extend(Conflict(c.category, c.witness, rule_ids) for c in found)
        conflicts.sort(key=Conflict.sort_key)
        stats_extra = _branch_stats([a for a in held if a.pred == "mustdo"], status, M_l)
        return ComplianceReport(verdict, result.choice_log(i), tuple(conflicts), counts() + stats_extra)

    for i in range(result.count):
        bit = 1 << i
        examined += 1
        if error_mask & bit:
            detail = "high-level policy is inconsistent (error derivable in a refinement branch)"
            return ComplianceReport("inconsistent-input", stats=counts(), detail=detail)
        # a mask's lowest bit is i, so no other branch's walk meets its atoms
        for atom, mask in first_held.get(i, ()):
            if atom.pred == "mustdo":
                status[atom] = obligation_status(atom, sigma, onto, ds)
            if found := len(_conflicts(atom, status, low, M_l, ds, onto)):
                conflict_count[mask] = conflict_count.get(mask, 0) + found
        n = sum(c for mask, c in conflict_count.items() if mask & bit)
        if n == 0:
            return report("compliant", i)
        if nearest is None or n < nearest[0]:
            nearest = (n, i)
    return report("non-compliant", nearest[1])


def _branch_stats(mustdo, status, M_l) -> tuple:
    released = []
    enforced = []
    for m in mustdo:
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

"""Compliance auditing: entailment, obligation status, the four conflict
detectors, and the full audit over the document-handling sample domain.

The end-to-end tests mutate the sample low-level policy (or its inputs) one
line at a time; each mutation must flip the verdict through exactly one
detector category.
"""

import random
import types
from collections import Counter
from pathlib import Path

import pytest

import polcheck.compliance
import polcheck.datalog
import polcheck.refinement
from polcheck.compliance import (
    CATEGORY_MODAL_AUTH,
    CATEGORY_MODAL_CAP,
    CATEGORY_OBLIGATION,
    CATEGORY_RESOURCE,
    CurrentState,
    check_compliance,
    detect_modal_authorization_violation,
    detect_modal_capability_conflict,
    detect_obligation_violation,
    detect_resource_capability_conflict,
    effect_formula,
    entails,
    obligation_status,
)
from polcheck.errors import EntailmentError, PolcheckError, PolicyError
from polcheck.loading import parse_facts, parse_ontology, parse_patterns, parse_state
from polcheck.ontology import DataSystem
from polcheck.policy import Policy, Rule, parse_policy
from polcheck.refinement import RefinementResult
from polcheck.terms import (
    ActionTerm,
    Atom,
    Const,
    Signed,
    TokenStream,
    Var,
    parse_formula,
    render,
)

import oracle_compliance
from oracle_compliance import branch_outcomes, random_audit, reference_check_compliance

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def F(text):
    return parse_formula(TokenStream(text))


def A(pred, *args):
    return Atom(pred, tuple(args))


BOB = Const("bob")
BACKUP = ActionTerm("Backup", (("target", Const("report1")),))
ENCRYPT = ActionTerm("Encrypt", (("target", Const("report1")),))
M_BACKUP = A("mustdo", BOB, BACKUP, F("archived(report1, $t)"))


@pytest.fixture(scope="module")
def audit():
    onto = parse_ontology((SAMPLES / "audit.onto").read_text())
    ds = parse_facts((SAMPLES / "audit.facts").read_text(), onto)
    ph = parse_policy((SAMPLES / "audit_high.pol").read_text(), onto)
    pl = parse_policy((SAMPLES / "audit_low.pol").read_text(), onto)
    patterns = parse_patterns((SAMPLES / "audit.rp").read_text(), onto)
    sigma = parse_state((SAMPLES / "audit.state").read_text(), onto)
    return onto, ds, ph, pl, patterns, sigma


# ---------------------------------------------------------------------------
# Entailment against the current state
# ---------------------------------------------------------------------------


POOL = CurrentState(
    frozenset(
        {
            A("archived", Const("report1"), Const("tape1")),
            A("cipherOf", Const("key1"), Const("report1")),
        }
    )
)
EMPTY_DS = DataSystem()


def test_entails_is_existential():
    assert entails(POOL, EMPTY_DS, F("archived(report1, $t)"))
    assert entails(POOL, EMPTY_DS, F("archived(report1, $t) & cipherOf($c, report1)"))
    assert not entails(POOL, EMPTY_DS, F("archived(report2, $t)"))


def test_entails_binds_shared_variables_consistently():
    assert entails(POOL, EMPTY_DS, F("archived($d, $t) & cipherOf($c, $d)"))
    # $d cannot be both report1 and tape1
    assert not entails(POOL, EMPTY_DS, F("archived($d, $t) & cipherOf($d, report1)"))


def test_entails_negation_is_closed_world():
    assert entails(POOL, EMPTY_DS, F("archived(report1, $t) & ~cipherOf(key2, report1)"))
    assert not entails(POOL, EMPTY_DS, F("archived(report1, $t) & ~cipherOf(key1, report1)"))
    # a negated conjunct reads the positive conjuncts' bindings; its own
    # variables stay existential
    assert not entails(POOL, EMPTY_DS, F("archived($d, $t) & ~cipherOf(key1, $d)"))
    assert entails(POOL, EMPTY_DS, F("archived($d, $t) & ~cipherOf(key2, $d)"))
    assert not entails(POOL, EMPTY_DS, F("archived($d, $t) & ~cipherOf($k, $d)"))


def test_entails_truth_constants():
    assert entails(POOL, EMPTY_DS, F("true"))
    assert not entails(POOL, EMPTY_DS, F("false"))


def test_entails_pools_state_and_base_atoms(audit):
    onto, ds = audit[0], audit[1]
    # guards(bob, report1) lives in the facts, not the state
    assert entails(CurrentState(), ds, F("guards(bob, report1)"), onto)


def test_entails_indexes_each_state_and_data_system_once(audit):
    onto, ds = audit[0], audit[1]

    def index():
        return POOL._pool[1]

    assert entails(POOL, ds, F("guards(bob, report1) & archived(report1, $t)"), onto)
    first = index()
    for _ in range(3):
        assert not entails(POOL, ds, F("guards(zoe, report1)"), onto)
        with pytest.raises(EntailmentError, match="audited"):
            entails(POOL, ds, F("audited(report1, bob)"), onto)
    assert index() is first
    # the same atoms in another set object are indexed anew
    other = DataSystem(ds.objects, frozenset(set(ds.base_atoms)))
    assert entails(POOL, other, F("guards(bob, report1) & archived(report1, $t)"), onto)
    assert index() is not first


def test_an_audit_leaves_no_state_atoms_in_module_globals(audit):
    # the pool that entailment indexes lives on the state, so the module
    # keeps nothing of one audit's state. Terms are interned, so a module
    # table may hold an atom equal to a state atom; the pool's own objects
    # are what must not be reachable, and they are found by identity
    onto, ds, ph, pl, patterns, sigma = audit
    check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert sigma.atoms
    _, store = sigma._pool
    assert store is not None and store.indexes  # entailment read and indexed the pool
    pool = [sigma.atoms, store, store.masks, store.lists, store.indexes, *store.lists.values()]
    for by_positions in store.indexes.values():
        pool.append(by_positions)
        for index in by_positions.values():
            pool += [index, *index.values()]
    pool = {id(v) for v in pool}
    seen = set()
    stack = [
        v
        for v in vars(polcheck.compliance).values()
        if not (callable(v) or isinstance(v, types.ModuleType))
    ]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        assert id(v) not in pool, type(v).__name__
        if isinstance(v, dict):
            stack.extend(v)
            stack.extend(v.values())
        elif isinstance(v, (tuple, list, set, frozenset)):
            stack.extend(v)
        elif hasattr(v, "__dict__"):
            stack.extend(vars(v).values())


def test_a_second_audit_reuses_the_entailment_plans(audit, monkeypatch):
    # plans live on the interned postconditions, not on the state
    onto, ds, ph, pl, patterns, _ = audit
    text = (SAMPLES / "audit.state").read_text()
    check_compliance(ph, pl, ds, patterns, parse_state(text, onto), onto)
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return join_plan(*args, **kwargs)

    join_plan = polcheck.compliance._join_plan
    monkeypatch.setattr(polcheck.compliance, "_join_plan", counting)
    entailed = []
    monkeypatch.setattr(polcheck.compliance, "entails", lambda *a: entailed.append(a) or entails(*a))
    check_compliance(ph, pl, ds, patterns, parse_state(text, onto), onto)
    assert entailed and not built


def test_entails_rejects_unresolvable_predicates(audit):
    onto = audit[0]
    with pytest.raises(EntailmentError, match="audited"):
        entails(POOL, EMPTY_DS, F("audited(report1, bob)"), onto)
    # a predicate the pool holds resolves, declared or not
    audited = CurrentState(frozenset({A("audited", Const("report1"), BOB)}))
    assert entails(audited, EMPTY_DS, F("audited(report1, bob)"), onto)


def test_entails_declared_predicate_without_atoms_is_false(audit):
    onto = audit[0]
    assert not entails(POOL, EMPTY_DS, F("guards(zoe, report1)"), onto)


def test_effect_formula_substitutes_term_bindings(audit):
    onto = audit[0]
    assert render(effect_formula(BACKUP, onto)) == "archived(report1, $t)"
    assert render(effect_formula(ENCRYPT, onto)) == "cipherOf($c, report1)"


def test_effect_formula_for_unknown_action_is_true(audit):
    onto = audit[0]
    assert render(effect_formula(ActionTerm("Nonesuch", ()), onto)) == "true"


# ---------------------------------------------------------------------------
# Obligation status
# ---------------------------------------------------------------------------


REBOOT_ONTO = """
class Entity
class Agent subclassOf Entity
class Box subclassOf Entity

prop type dom Entity range Entity family hie
prop owns dom Agent range Box
prop rebooted dom Box range Entity

var pw maps box1.power range {up, down}

action Reboot(target) init {pw=up} final {pw=down}
"""

M_REBOOT = A(
    "mustdo",
    Const("al"),
    ActionTerm("Reboot", (("target", Const("box1")),)),
    F("rebooted(box1, $w)"),
)


def test_obligation_released_when_assumptions_break():
    onto = parse_ontology(REBOOT_ONTO)
    sigma = parse_state("state {pw=down}.", onto)
    assert obligation_status(M_REBOOT, sigma, onto, DataSystem()) == "released"


def test_obligation_pending_while_assumptions_hold():
    onto = parse_ontology(REBOOT_ONTO)
    sigma = parse_state("state {pw=up}.", onto)
    assert obligation_status(M_REBOOT, sigma, onto, DataSystem()) == "unsatisfied"


def test_obligation_never_released_without_a_state_table():
    onto = parse_ontology(REBOOT_ONTO)
    assert obligation_status(M_REBOOT, CurrentState(), onto, DataSystem()) == "unsatisfied"


def test_obligation_satisfied_needs_postcondition_and_effect(audit):
    onto, ds = audit[0], audit[1]
    done = CurrentState(frozenset({A("archived", Const("report1"), Const("tape1"))}))
    assert obligation_status(M_BACKUP, done, onto, ds) == "satisfied"
    assert obligation_status(M_BACKUP, CurrentState(), onto, ds) == "unsatisfied"
    # postcondition alone is not enough when the effect names another relation
    m = A("mustdo", BOB, ENCRYPT, F("archived(report1, $t)"))
    assert obligation_status(m, done, onto, ds) == "unsatisfied"


def _effect_onto(effect):
    return parse_ontology(
        "class Entity\n"
        "prop marked dom Entity range Entity\n"
        "prop sealed dom Entity range Entity\n"
        f"action A(p) init {{}} final {{}}\n    effect {effect}\n"
    )


def test_each_ontology_audits_an_obligation_by_its_own_effect():
    # One interned action term meets two ontologies whose A differs only in
    # its effect; a result kept on the term alone would leak between them.
    marks, seals = _effect_onto("marked($p, $x)"), _effect_onto("sealed($p, $x)")
    m = A("mustdo", Const("s"), ActionTerm("A", (("p", Const("v")),)), F("true"))
    sigma = CurrentState(frozenset({A("marked", Const("v"), Const("w"))}))
    for _ in range(2):
        assert obligation_status(m, sigma, marks, DataSystem()) == "satisfied"
        assert obligation_status(m, sigma, seals, DataSystem()) == "unsatisfied"
    assert render(effect_formula(m.args[1], seals)) == "sealed(v, $x)"


def test_obligation_status_wants_a_formula(audit):
    onto, ds = audit[0], audit[1]
    bad = A("mustdo", BOB, BACKUP, Const("oops"))
    with pytest.raises(EntailmentError, match="not a formula"):
        obligation_status(bad, CurrentState(), onto, ds)


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


DENY_READ = A("do", Const("report1"), Const("eve"), Signed("-", Const("read")))
GRANT_READ = A("do", Const("report1"), Const("eve"), Signed("+", Const("read")))
GRANT_BACKUP = A("do", BACKUP, BOB, Signed("+", Const("execute")))


def test_contradicted_denial_yields_pair_and_missing_conflicts():
    conflicts = detect_modal_authorization_violation(DENY_READ, {GRANT_READ})
    assert [c.category for c in conflicts] == [CATEGORY_MODAL_AUTH] * 2
    assert conflicts[0].witness == (GRANT_READ, DENY_READ)
    assert conflicts[1].witness == (DENY_READ,)


def test_high_view_atom_missing_from_low_view():
    conflicts = detect_modal_authorization_violation(GRANT_BACKUP, set())
    assert len(conflicts) == 1
    assert conflicts[0].witness == (GRANT_BACKUP,)


def test_matching_views_raise_no_authorization_conflicts():
    low = {DENY_READ, GRANT_BACKUP}
    for atom in low:
        assert detect_modal_authorization_violation(atom, low) == ()


def test_obligation_detector_skips_enforced():
    hits = detect_obligation_violation(M_BACKUP, set())
    assert len(hits) == 1
    assert hits[0].category == CATEGORY_OBLIGATION
    assert hits[0].witness == (M_BACKUP,)
    assert detect_obligation_violation(M_BACKUP, {M_BACKUP}) == ()


def test_resource_detector_wants_declared_objects_present(audit):
    onto, ds = audit[0], audit[1]
    facts = (SAMPLES / "audit.facts").read_text()
    ds_short = parse_facts(
        "\n".join(ln for ln in facts.splitlines() if "tape1" not in ln), onto
    )
    hits = detect_resource_capability_conflict(M_BACKUP, ds_short, onto)
    assert len(hits) == 1
    assert hits[0].category == CATEGORY_RESOURCE
    assert hits[0].witness == (M_BACKUP, Const("tape1"))
    assert detect_resource_capability_conflict(M_BACKUP, ds, onto) == ()


def test_capability_detector_wants_an_execute_grant():
    assert detect_modal_capability_conflict(M_BACKUP, {GRANT_BACKUP}) == ()
    hits = detect_modal_capability_conflict(M_BACKUP, set())
    assert len(hits) == 1
    assert hits[0].category == CATEGORY_MODAL_CAP
    assert hits[0].witness == (M_BACKUP, GRANT_BACKUP)


# ---------------------------------------------------------------------------
# Full audit over the sample domain
# ---------------------------------------------------------------------------


ENFORCED = "mustdo(bob, Backup((target,report1)), archived(report1, $t))"


def test_audit_baseline_is_compliant(audit):
    onto, ds, ph, pl, patterns, sigma = audit
    report = check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert report.verdict == "compliant"
    assert report.matched_branch == ()
    assert report.conflicts == ()
    assert report.stats == (
        ("branches_examined", 1),
        ("atoms_derived", 16),
        ("enforced_by_low_view", (ENFORCED,)),
    )


def test_a_conflict_free_report_builds_no_branch_model(audit, monkeypatch):
    # the report recomputes its branch's conflicts atom by atom and projects
    # the branch's model only for the rule ids of a conflict
    def refuse(*args, **kwargs):
        raise AssertionError("a branch model was built")

    monkeypatch.setattr(polcheck.datalog.Model, "project", refuse)
    onto, ds, ph, pl, patterns, sigma = audit
    report = check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert (report.verdict, report.conflicts) == ("compliant", ())
    assert ("enforced_by_low_view", (ENFORCED,)) in report.stats


def test_audit_report_text_layout(audit):
    onto, ds, ph, pl, patterns, sigma = audit
    report = check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert report.to_text() == (
        "verdict: compliant\n"
        "matched branch: (no refinement choices)\n"
        "branches_examined: 1\n"
        "atoms_derived: 16\n"
        "enforced_by_low_view:\n"
        f"  {ENFORCED}\n"
    )


def _drop_line(text, needle):
    lines = text.splitlines()
    kept = [ln for ln in lines if needle not in ln]
    assert len(kept) == len(lines) - 1, f"expected exactly one line matching {needle!r}"
    return "\n".join(kept) + "\n"


MUTATIONS = [
    (
        "drop-denial-from-low",
        CATEGORY_MODAL_AUTH,
        ["do(report1, eve, -read)"],
        ("r4",),
    ),
    (
        "drop-backup-grant",
        CATEGORY_MODAL_CAP,
        [ENFORCED, "do(Backup((target,report1)), bob, +execute)"],
        ("r3",),
    ),
    (
        "forget-current-state",
        CATEGORY_OBLIGATION,
        ["mustdo(bob, Encrypt((target,report1)), cipherOf($c, report1))"],
        ("r3",),
    ),
    (
        "remove-backup-tape",
        CATEGORY_RESOURCE,
        [ENFORCED, "tape1"],
        ("r3",),
    ),
]


@pytest.mark.parametrize(
    "label,category,witnesses,rule_ids", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_audit_mutations_flip_one_detector_each(audit, label, category, witnesses, rule_ids):
    onto, ds, ph, pl, patterns, sigma = audit
    if label == "drop-denial-from-low":
        pl = parse_policy(
            _drop_line((SAMPLES / "audit_low.pol").read_text(), "do(report1, eve, -read)"),
            onto,
        )
    elif label == "drop-backup-grant":
        pl = parse_policy(
            _drop_line((SAMPLES / "audit_low.pol").read_text(), "cando(Backup"), onto
        )
    elif label == "forget-current-state":
        sigma = CurrentState()
    elif label == "remove-backup-tape":
        ds = parse_facts(
            _drop_line((SAMPLES / "audit.facts").read_text(), "obj tape1"), onto
        )
    report = check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert report.verdict == "non-compliant"
    assert len(report.conflicts) == 1
    conflict = report.conflicts[0]
    assert conflict.category == category
    assert [render(w) for w in conflict.witness] == witnesses
    assert conflict.rule_ids == rule_ids


def test_satisfied_obligation_is_not_flagged_by_the_audit(audit):
    # Without the backup tape, the backup duty and the backup grant, every
    # obligation detector names M_BACKUP while it is pending; once the state
    # shows report1 archived, none does.
    onto, _, ph, _, patterns, sigma = audit
    ds = parse_facts(_drop_line((SAMPLES / "audit.facts").read_text(), "obj tape1"), onto)
    pl = parse_policy(
        "cando(Encrypt((target,report1)), bob, +execute) :- type(report1, Document).\n"
        "do($o, $s, +$a) :- cando($o, $s, +$a).\n"
        "do(report1, eve, -read) :- ~do(report1, eve, +read).\n",
        onto,
    )

    pending = check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert pending.verdict == "non-compliant"
    assert {c.category for c in pending.conflicts if M_BACKUP in c.witness} == {
        CATEGORY_OBLIGATION,
        CATEGORY_RESOURCE,
        CATEGORY_MODAL_CAP,
    }

    archived = A("archived", Const("report1"), Const("tape1"))
    done = CurrentState(sigma.atoms | {archived}, sigma.state)
    report = check_compliance(ph, pl, ds, patterns, done, onto)
    assert report.verdict == "compliant"
    assert not [c for c in report.conflicts if M_BACKUP in c.witness]


def test_reports_are_deterministic(audit):
    onto, ds, ph, pl, patterns, sigma = audit
    first = check_compliance(ph, pl, ds, patterns, sigma, onto)
    second = check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert first.to_text() == second.to_text()
    assert first.to_json() == second.to_json()
    doc = first.to_dict()
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "compliant"
    assert doc["stats"]["enforced_by_low_view"] == [ENFORCED]
    assert doc["matched_branch"] == []


def test_inconsistent_low_policy_short_circuits(audit):
    onto, ds, ph, _, patterns, sigma = audit
    low = parse_policy(
        (SAMPLES / "audit_low.pol").read_text()
        + "\nerror :- do(report1, eve, -read) & guards(bob, report1).\n",
        onto,
    )
    report = check_compliance(ph, low, ds, patterns, sigma, onto)
    assert report.verdict == "inconsistent-input"
    assert report.detail == "low-level policy is inconsistent (error derivable)"
    assert report.conflicts == ()
    assert ("branches_examined", 0) in report.stats


def test_inconsistent_high_branch_is_reported(audit):
    onto, ds, _, pl, patterns, sigma = audit
    high = parse_policy(
        (SAMPLES / "audit_high.pol").read_text()
        + "\nerror :- do(report1, eve, -read) & guards(bob, report1).\n",
        onto,
    )
    report = check_compliance(high, pl, ds, patterns, sigma, onto)
    assert report.verdict == "inconsistent-input"
    assert report.detail == (
        "high-level policy is inconsistent (error derivable in a refinement branch)"
    )
    assert ("branches_examined", 1) in report.stats


def test_high_policy_with_authored_grants_is_rejected(audit):
    onto, ds, _, pl, patterns, sigma = audit
    high = parse_policy(
        (SAMPLES / "audit_high.pol").read_text()
        + "\ncando(Audit((target,report1)), bob, +execute) :- type(report1, Document).\n",
        onto,
    )
    with pytest.raises(PolicyError, match="positive authorizations"):
        check_compliance(high, pl, ds, patterns, sigma, onto)


# ---------------------------------------------------------------------------
# Branch selection
# ---------------------------------------------------------------------------


FIX_ONTO = """
class Entity
class Agent subclassOf Entity
class Item subclassOf Entity

prop type dom Entity range Entity family hie
prop owns dom Agent range Item
prop fixed dom Item range Entity

action Fix(target) init {} final {}
action FixA(target) init {} final {} effect fixed($target, $w)
action FixB(target) init {} final {} effect fixed($target, $w)
"""

FIX_HIGH = """
hasObligation($s, Fix((target,$x)), fixed($x, $w))
    :- type($s, Agent) & owns($s, $x) & type($x, Item).
mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).
"""

FIX_PATTERNS = "refine Fix(target:$x) := FixA(target:$x) \\/ FixB(target:$x) type=basic-flex-choice"

FIX_FACTS = "obj al : Agent\nobj it : Item\nowns(al, it).\n"


def _fix_setup(low_text):
    onto = parse_ontology(FIX_ONTO)
    ds = parse_facts(FIX_FACTS, onto)
    ph = parse_policy(FIX_HIGH, onto)
    pl = parse_policy(low_text, onto)
    patterns = parse_patterns(FIX_PATTERNS, onto)
    return check_compliance(ph, pl, ds, patterns, CurrentState(), onto)


def test_first_conflict_free_branch_wins():
    report = _fix_setup(
        "cando(FixB((target,it)), al, +execute) :- type(it, Item).\n"
        "mustdo(al, FixB((target,it)), fixed(it, $w)) :- type(it, Item).\n"
        "do($o, $s, +$a) :- cando($o, $s, +$a).\n"
    )
    assert report.verdict == "compliant"
    assert report.matched_branch == (("r1", "p1", "choice.2"),)
    assert ("branches_examined", 2) in report.stats


def test_nearest_miss_has_fewest_conflicts():
    # enforcing the FixB duty without granting it leaves one conflict on the
    # second branch against two on the first
    report = _fix_setup("mustdo(al, FixB((target,it)), fixed(it, $w)) :- type(it, Item).\n")
    assert report.verdict == "non-compliant"
    assert report.matched_branch == (("r1", "p1", "choice.2"),)
    assert [c.category for c in report.conflicts] == [CATEGORY_MODAL_CAP]
    assert [render(w) for w in report.conflicts[0].witness] == [
        "mustdo(al, FixB((target,it)), fixed(it, $w))",
        "do(FixB((target,it)), al, +execute)",
    ]


def test_nearest_miss_ties_break_on_choice_log():
    report = _fix_setup("")
    assert report.verdict == "non-compliant"
    assert report.matched_branch == (("r1", "p1", "choice.1"),)
    assert [c.category for c in report.conflicts] == [
        CATEGORY_MODAL_CAP,
        CATEGORY_OBLIGATION,
    ]


def test_each_obligation_is_classified_once_per_audit(monkeypatch):
    # FixA is owed directly and, in the first branch, through the refined Fix
    # duty too; FixB only in the second branch. Both branches are examined.
    calls = Counter()
    classify = polcheck.compliance.obligation_status

    def counted(m, *args):
        calls[m] += 1
        return classify(m, *args)

    monkeypatch.setattr(polcheck.compliance, "obligation_status", counted)
    onto = parse_ontology(FIX_ONTO)
    ph = parse_policy(
        FIX_HIGH
        + "hasObligation($s, FixA((target,$x)), fixed($x, $w))\n"
        "    :- type($s, Agent) & owns($s, $x) & type($x, Item).\n",
        onto,
    )
    report = check_compliance(
        ph,
        parse_policy("", onto),
        parse_facts(FIX_FACTS, onto),
        parse_patterns(FIX_PATTERNS, onto),
        CurrentState(),
        onto,
    )
    assert ("branches_examined", 2) in report.stats
    assert sorted(render(m) for m in calls) == [
        "mustdo(al, FixA((target,it)), fixed(it, $w))",
        "mustdo(al, FixB((target,it)), fixed(it, $w))",
    ]
    assert set(calls.values()) == {1}


def test_the_audit_builds_no_policy_per_branch(monkeypatch):
    # k copies of the Fix duty refine into 2^k branches, all examined; the
    # audit reads the rule table and the reported branch's choice log only,
    # so it builds as many policies for 16 branches as for 2, and no branch
    onto = parse_ontology(FIX_ONTO)
    duty, decide = FIX_HIGH.strip().rsplit("\n", 1)
    inputs = {k: parse_policy(f"{duty}\n" * k + decide, onto) for k in (1, 4)}
    low, ds = parse_policy("", onto), parse_facts(FIX_FACTS, onto)
    patterns = parse_patterns(FIX_PATTERNS, onto)
    built = Counter()
    init = Policy.__init__

    def counted(self, *args, **kwargs):
        built[k] += 1
        init(self, *args, **kwargs)

    def no_branch(*args):
        raise AssertionError("a branch policy was built")

    monkeypatch.setattr(Policy, "__init__", counted)
    monkeypatch.setattr(polcheck.refinement, "RefinementBranch", no_branch)
    for k, ph in inputs.items():
        report = check_compliance(ph, low, ds, patterns, CurrentState(), onto)
        assert ("branches_examined", 2**k) in report.stats
        assert report.matched_branch == tuple((f"r{i}", "p1", "choice.1") for i in range(1, k + 1))
    assert built[1] == built[4] > 0, built


def test_released_obligations_show_up_in_stats():
    onto = parse_ontology(REBOOT_ONTO)
    ds = parse_facts("obj al : Agent\nobj box1 : Box\nowns(al, box1).\n", onto)
    ph = parse_policy(
        "hasObligation($s, Reboot((target,$x)), rebooted($x, $w))\n"
        "    :- type($s, Agent) & owns($s, $x) & type($x, Box).\n"
        "mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).\n",
        onto,
    )
    pl = parse_policy("", onto)
    sigma = parse_state("state {pw=down}.", onto)
    report = check_compliance(ph, pl, ds, (), sigma, onto)
    assert report.verdict == "compliant"
    assert (
        "released_obligations",
        ("mustdo(al, Reboot((target,box1)), rebooted(box1, $w))",),
    ) in report.stats


# ---------------------------------------------------------------------------
# The shared branch pass against the per-branch reference audit
# ---------------------------------------------------------------------------


def _audit_shapes(report, outcomes) -> set:
    """The cases of the search order a random audit exercises."""
    shapes = set()
    stats = dict(report.stats)
    stop = stats["branches_examined"] - 1
    if report.verdict == "compliant" and stop > 0:
        shapes.add("match after branch 1")
    if report.verdict == "compliant" and "error" in outcomes[stop + 1 :]:
        shapes.add("error after the match")
    if report.detail and "refinement branch" in report.detail and 0 in outcomes[stop + 1 :]:
        shapes.add("error before a match")
    if report.verdict == "non-compliant":
        fewest = min(outcomes)
        if outcomes.count(fewest) > 1:
            shapes.add("tied nearest miss")
        if outcomes.index(fewest) > 0:
            shapes.add("nearest miss after branch 1")
    return shapes


def test_shared_pass_audit_matches_the_per_branch_reference():
    rng = random.Random("compliance-oracle")
    seen = set()
    for _ in range(250):
        ph, pl, ds, patterns, sigma, onto = random_audit(rng)
        reports = []
        for audit in (check_compliance, reference_check_compliance):
            try:
                reports.append(audit(ph, pl, ds, patterns, sigma, onto))
            except PolcheckError as exc:
                reports.append((type(exc), str(exc)))
        fast, slow = reports
        if isinstance(slow, tuple):
            assert fast == slow
            continue
        assert fast.to_json() == slow.to_json()
        seen.add(slow.verdict)
        if slow.detail != "low-level policy is inconsistent (error derivable)":
            seen |= _audit_shapes(slow, branch_outcomes(ph, pl, ds, patterns, sigma, onto))
    assert seen >= {
        "compliant",
        "non-compliant",
        "inconsistent-input",
        "match after branch 1",
        "error after the match",
        "error before a match",
        "tied nearest miss",
        "nearest miss after branch 1",
    }, seen


def test_a_later_branch_that_cannot_be_evaluated_fails_the_audit_after_a_match(
    audit, monkeypatch
):
    # Decided: the shared pass evaluates every branch, so a rule that makes
    # `evaluate` raise in any branch fails the audit, even when an earlier
    # branch complies. The per-branch reference stops at the match. Parsed
    # rules and refinement's rules pass the safety check, so only a policy
    # built in code can do this.
    onto, ds, ph, pl, patterns, sigma = audit
    real = polcheck.compliance.refine_policy(ph, patterns, onto, ds)
    assert check_compliance(ph, pl, ds, patterns, sigma, onto).verdict == "compliant"
    first = real.branches[0]
    unsafe = Rule("unsafe", Atom("hasDispensation", (Var("s"), Var("a"))))
    # branch 1 is branch 0 plus the unsafe rule, as a product and as a table
    outcomes = (((first.policy.rules, first.choice_log),), (((), ()), ((unsafe,), (("r", "p", "x"),))))
    table = tuple((rule, 0b11) for rule in first.policy.rules) + ((unsafe, 0b10),)
    forked = RefinementResult(real.policy, outcomes, table, real.warnings)
    assert [b.policy.rules for b in forked.branches] == [first.policy.rules, first.policy.rules + (unsafe,)]
    for module in (polcheck.compliance, oracle_compliance):
        monkeypatch.setattr(module, "refine_policy", lambda *args, **kwargs: forked)
    assert reference_check_compliance(ph, pl, ds, patterns, sigma, onto).verdict == "compliant"
    with pytest.raises(PolicyError, match=r"^unsafe: ungrounded head hasDispensation\(\$s, \$a\)$"):
        check_compliance(ph, pl, ds, patterns, sigma, onto)

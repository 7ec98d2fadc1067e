"""Refinement: the derivation-rule templates, action-refinement of obligation
rules through sequence, choice, and conjunction, branch enumeration, and
choice-log replay."""

import random
import time

import pytest

import polcheck.refinement
from polcheck.actions import (
    CHOICE,
    CONJ,
    SEQ,
    ActionClassDef,
    ActionLeaf,
    EMPTY,
    ActionNode,
    RefinementPattern,
)
from polcheck.datalog import evaluate
from polcheck.errors import (
    BranchLimitError,
    CycleError,
    PatternError,
    PolcheckError,
    PolicyError,
    StructuralError,
)
from polcheck.loading import parse_ontology, parse_patterns
from polcheck.ontology import (
    ENTIRE,
    ClassDef,
    DataSystem,
    Ontology,
    PropertyDef,
    State,
    StateSpace,
    VariableDef,
)
from polcheck.policy import Rule, parse_policy, render_rule, to_text
from polcheck.refinement import (
    compile_meet_formula,
    derive_authorizations,
    enumerate_refinements,
    install_conflict_resolution,
    propagate_hierarchy,
    refine_policy,
    replay,
)
from polcheck.terms import ActionTerm, Atom, Const, Formula, Var, render

from oracle_refinement import random_instance, reference_refinements

TRUE = Formula()


def tleaf(name):
    return ActionLeaf(name, (("target", Var("x")),))


_REL_PROPS = ("type", "owns", "hasRole", "oncall")


def simple_onto(*names) -> Ontology:
    onto = Ontology(properties={p: PropertyDef(p) for p in _REL_PROPS})
    for n in names:
        onto.action_classes[n] = ActionClassDef(n, ENTIRE, ENTIRE, params=("target",))
    return onto


def pat(pid, root, body):
    from polcheck.actions import taxonomy_of

    return RefinementPattern(pid, root, (("target", Var("x")),), body, taxonomy_of(body))


# ---------------------------------------------------------------------------
# The worked protection example
# ---------------------------------------------------------------------------

PROTECT_POLICY = """
hasObligation($s, Protect((target, $x)), true)
    :- type($s, Employee) & owns($s, $x) & type($x, Computer).
hasDispensation($s, InstallFirewall((target, $x)))
    :- type($s, Employee) & owns($s, $x) & type($x, Computer) & hasRole($s, Manager).
mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).
"""


def protect_pattern():
    return pat(
        "protect",
        "Protect",
        ActionNode(CONJ, tleaf("InstallFirewall"), tleaf("InstallAntiVirus")),
    )


def alice_facts() -> DataSystem:
    def atom(text):
        p, rest = text.split("(", 1)
        args = tuple(Const(a.strip()) for a in rest.rstrip(")").split(","))
        return Atom(p, args)

    return DataSystem(
        base_atoms=frozenset(
            {
                atom("type(Alice, Employee)"),
                atom("hasRole(Alice, Manager)"),
                atom("owns(Alice, NB1)"),
                atom("type(NB1, Computer)"),
            }
        )
    )


def test_conjunction_refinement_forks_into_both_orders():
    onto = simple_onto("Protect", "InstallFirewall", "InstallAntiVirus")
    result = refine_policy(parse_policy(PROTECT_POLICY), (protect_pattern(),), onto)
    assert result.warnings == ()
    assert len(result.branches) == 2
    assert [b.choice_log for b in result.branches] == [
        (("r1", "protect", "conj.1"),),
        (("r1", "protect", "conj.2"),),
    ]
    first = result.branches[0].policy
    rendered = {r.rule_id: render_rule(r) for r in first.rules}
    assert rendered["r1.o1.s1"] == (
        "derhasObligation($s, InstallFirewall((target,$x)), true) :- "
        "type($s, Employee) & owns($s, $x) & type($x, Computer) & "
        "~done_act($s, Protect__ord2((target,$x)))."
    )
    assert rendered["r1.o1.s2"] == (
        "derhasObligation($s, InstallAntiVirus((target,$x)), true) :- "
        "type($s, Employee) & owns($s, $x) & type($x, Computer) & "
        "~done_act($s, Protect__ord2((target,$x))) & "
        "done_act($s, InstallFirewall((target,$x)))."
    )
    assert "r1" not in rendered  # the source obligation is replaced


def test_protection_example_obliges_antivirus_only():
    onto = simple_onto("Protect", "InstallFirewall", "InstallAntiVirus")
    result = refine_policy(parse_policy(PROTECT_POLICY), (protect_pattern(),), onto)
    mustdo = set()
    for branch in result.branches:
        model = evaluate(branch.policy, alice_facts())
        mustdo |= {render(a) for a in model.atoms if a.pred == "mustdo"}
    assert mustdo == {"mustdo(Alice, InstallAntiVirus((target,NB1)), true)"}


def test_replay_reproduces_each_branch_byte_for_byte():
    onto = simple_onto("Protect", "InstallFirewall", "InstallAntiVirus")
    staged = install_conflict_resolution(
        derive_authorizations(propagate_hierarchy(parse_policy(PROTECT_POLICY), onto), onto)
    )
    result = enumerate_refinements(staged, (protect_pattern(),), onto)
    for branch in result.branches:
        replayed = replay(staged, (protect_pattern(),), branch.choice_log, onto)
        assert to_text(replayed) == to_text(branch.policy)


def test_replay_rejects_logs_that_do_not_fit():
    onto = simple_onto("Protect", "InstallFirewall", "InstallAntiVirus")
    p = parse_policy(PROTECT_POLICY)
    patterns = (protect_pattern(),)
    with pytest.raises(PolicyError, match="exhausted"):
        replay(p, patterns, (), onto)
    with pytest.raises(PolicyError, match="expects rule"):
        replay(p, patterns, (("r9", "protect", "conj.1"),), onto)
    with pytest.raises(PolicyError, match="names pattern"):
        replay(p, patterns, (("r1", "ghost", "conj.1"),), onto)
    with pytest.raises(PolicyError, match="matches no outcome"):
        replay(p, patterns, (("r1", "protect", "conj.9"),), onto)
    with pytest.raises(PolicyError, match="unused"):
        replay(
            p,
            patterns,
            (("r1", "protect", "conj.1"), ("r1", "protect", "conj.2")),
            onto,
        )


# ---------------------------------------------------------------------------
# Sequence refinement (the two derivation rules)
# ---------------------------------------------------------------------------


def seq_onto():
    onto = Ontology(
        classes={c: ClassDef(c) for c in ("Up", "Down")},
        properties={p: PropertyDef(p) for p in _REL_PROPS},
        variables={"st": VariableDef("st", "srv", "power", ("Up", "Down"))},
    )
    up = StateSpace.explicit((State.make({"st": "Up"}),))
    for name, (init, final) in {
        "Deploy": (ENTIRE, ENTIRE),
        "Provision": (ENTIRE, up),
        "Configure": (up, ENTIRE),
    }.items():
        onto.action_classes[name] = ActionClassDef(name, init, final, params=("target",))
    return onto


def test_sequence_refinement_of_an_authored_rule_keeps_the_source():
    onto = seq_onto()
    p = parse_policy("hasObligation($s, Deploy((target, $x)), true) :- owns($s, $x).")
    pattern = pat("deploy", "Deploy", ActionNode(SEQ, tleaf("Provision"), tleaf("Configure")))
    result = enumerate_refinements(p, (pattern,), onto)
    assert len(result.branches) == 1
    source, first, second = result.branches[0].policy.rules
    assert [source.rule_id, first.rule_id, second.rule_id] == ["r1", "r1.s1", "r1.s2"]
    assert source == p.rules[0]
    # the first sub-obligation's postcondition is the meet of Provision's
    # final space with Configure's initial space
    assert render_rule(first) == (
        "derhasObligation($s, Provision((target,$x)), power(srv, Up)) :- owns($s, $x)."
    )
    assert render_rule(second) == (
        "derhasObligation($s, Configure((target,$x)), true) :- "
        "done_act($s, Provision((target,$x))) & "
        "hasObligation($s, Deploy((target,$x)), true)."
    )


def test_sequence_refinement_of_a_derived_rule_inlines_the_body():
    onto = seq_onto()
    onto.action_classes["Fetch"] = ActionClassDef("Fetch", ENTIRE, ENTIRE, params=("target",))
    onto.action_classes["Unpack"] = ActionClassDef("Unpack", ENTIRE, ENTIRE, params=("target",))
    p = parse_policy("hasObligation($s, Deploy((target, $x)), true) :- owns($s, $x).")
    patterns = (
        pat("deploy", "Deploy", ActionNode(SEQ, tleaf("Provision"), tleaf("Configure"))),
        pat("provision", "Provision", ActionNode(SEQ, tleaf("Fetch"), tleaf("Unpack"))),
    )
    result = enumerate_refinements(p, patterns, onto)
    assert len(result.branches) == 1
    rendered = {r.rule_id: render_rule(r) for r in result.branches[0].policy.rules}
    assert set(rendered) == {"r1", "r1.s1.s1", "r1.s1.s2", "r1.s2"}
    # no hasObligation on Provision exists, so the second Fetch/Unpack rule
    # repeats the first rule's body instead of referencing one
    assert rendered["r1.s1.s2"] == (
        "derhasObligation($s, Unpack((target,$x)), power(srv, Up)) :- "
        "owns($s, $x) & done_act($s, Fetch((target,$x)))."
    )


def test_sequence_refinement_needs_declared_actions():
    onto = seq_onto()
    p = parse_policy("hasObligation($s, Deploy((target, $x)), true) :- owns($s, $x).")
    for body in (
        ActionNode(SEQ, tleaf("Provision"), tleaf("Ghost")),
        ActionNode(CONJ, tleaf("Ghost"), tleaf("Provision")),
    ):
        with pytest.raises(PatternError) as err:
            enumerate_refinements(p, (pat("deploy", "Deploy", body),), onto)
        assert str(err.value) == "undeclared action 'Ghost' in a sequence refinement"


def test_patterns_must_unify_with_the_rule_action():
    onto = simple_onto("Deploy", "Provision", "Configure")
    p = parse_policy("hasObligation($s, Deploy((host, pc1)), true) :- owns($s, pc1).")
    pattern = pat("deploy", "Deploy", ActionNode(SEQ, tleaf("Provision"), tleaf("Configure")))
    with pytest.raises(PatternError) as err:
        enumerate_refinements(p, (pattern,), onto)
    assert str(err.value) == "pattern deploy does not unify with the action of rule r1"


# ---------------------------------------------------------------------------
# Choice refinement
# ---------------------------------------------------------------------------


def test_choice_refinement_forks_and_excludes_the_alternative():
    onto = simple_onto("Notify", "Email", "Page")
    p = parse_policy("hasObligation($s, Notify((target, $x)), true) :- oncall($s, $x).")
    pattern = pat("notify", "Notify", ActionNode(CHOICE, tleaf("Email"), tleaf("Page")))
    branches = enumerate_refinements(p, (pattern,), onto).branches
    assert [b.choice_log for b in branches] == [
        (("r1", "notify", "choice.1"),),
        (("r1", "notify", "choice.2"),),
    ]
    one = {r.rule_id: render_rule(r) for r in branches[0].policy.rules}
    assert one == {
        "r1.c1": "derhasObligation($s, Email((target,$x)), true) :- "
        "oncall($s, $x) & ~done_act($s, Page((target,$x)))."
    }
    two = {r.rule_id: render_rule(r) for r in branches[1].policy.rules}
    assert two == {
        "r1.c2": "derhasObligation($s, Page((target,$x)), true) :- "
        "oncall($s, $x) & ~done_act($s, Email((target,$x)))."
    }
    both = pat("notify", "Notify", ActionNode(CONJ, tleaf("Email"), tleaf("Page")))
    assert [b.choice_log for b in enumerate_refinements(p, (both,), onto).branches] == [
        (("r1", "notify", "conj.1"),),
        (("r1", "notify", "conj.2"),),
    ]


def test_guarded_patterns_refine_as_basic_with_a_warning():
    onto = simple_onto("Protect", "InstallFirewall", "InstallAntiVirus")
    guarded = pat(
        "p1",
        "Protect",
        ActionNode(
            CONJ,
            tleaf("InstallFirewall"),
            tleaf("InstallAntiVirus"),
            guard=ENTIRE,
            guard_side="right",
        ),
    )
    result = refine_policy(parse_policy(PROTECT_POLICY), (guarded,), onto)
    assert (
        "p1: guarded composition refined as its basic counterpart (guards do not reach rules)"
        in result.warnings
    )
    assert len(result.branches) == 2


# ---------------------------------------------------------------------------
# Complex patterns and enumeration control
# ---------------------------------------------------------------------------


def test_nested_choices_multiply_the_branches():
    onto = simple_onto("Top", "M", "N", "A", "B", "C", "D")
    inner1 = ActionNode(CHOICE, tleaf("A"), tleaf("B"), label="M")
    inner2 = ActionNode(CHOICE, tleaf("C"), tleaf("D"), label="N")
    complex_pat = pat("p", "Top", ActionNode(SEQ, inner1, inner2))
    p = parse_policy("hasObligation($s, Top((target, $x)), true) :- owns($s, $x).")
    result = enumerate_refinements(p, (complex_pat,), onto)
    assert len(result.branches) == 4
    logs = [b.choice_log for b in result.branches]
    assert logs == sorted(logs)
    picks = {
        tuple(entry[2] for entry in log if entry[2].startswith("choice")) for log in logs
    }
    assert picks == {
        ("choice.1", "choice.1"),
        ("choice.1", "choice.2"),
        ("choice.2", "choice.1"),
        ("choice.2", "choice.2"),
    }
    final_actions = {
        tuple(
            sorted(
                render(r.head.args[1])
                for r in b.policy.rules
                if r.head.pred == "derhasObligation"
            )
        )
        for b in result.branches
    }
    assert final_actions == {
        ("A((target,$x))", "C((target,$x))"),
        ("A((target,$x))", "D((target,$x))"),
        ("B((target,$x))", "C((target,$x))"),
        ("B((target,$x))", "D((target,$x))"),
    }


def test_branch_limit_names_the_multiplying_patterns():
    onto = simple_onto("Top", "M", "N", "A", "B", "C", "D")
    inner1 = ActionNode(CHOICE, tleaf("A"), tleaf("B"), label="M")
    inner2 = ActionNode(CHOICE, tleaf("C"), tleaf("D"), label="N")
    complex_pat = pat("p", "Top", ActionNode(SEQ, inner1, inner2))
    p = parse_policy("hasObligation($s, Top((target, $x)), true) :- owns($s, $x).")
    with pytest.raises(BranchLimitError) as err:
        enumerate_refinements(p, (complex_pat,), onto, max_branches=3)
    assert err.value.limit == 3
    assert "p.M" in err.value.pattern_ids or "p.N" in err.value.pattern_ids


def _choice_rules(k):
    """k obligation rules, each refined by its own choice pattern p1..pk."""
    onto = simple_onto(*(f"{kind}{i}" for i in range(1, k + 1) for kind in "TAB"))
    p = parse_policy(
        "\n".join(f"hasObligation($s, T{i}((target, $x)), true) :- owns($s, $x)." for i in range(1, k + 1))
    )
    patterns = tuple(
        pat(f"p{i}", f"T{i}", ActionNode(CHOICE, tleaf(f"A{i}"), tleaf(f"B{i}"))) for i in range(1, k + 1)
    )
    return p, patterns, onto


def test_branch_limit_names_the_patterns_of_the_rules_before_it_passed():
    # Decided: rules are taken in policy order, and the limit names the
    # multiplying patterns met before the branch count passed it. Two rules
    # make 4 branches, past 3, so p3 is never met; a depth-first walk over
    # whole branches would have reached p3 first.
    p, patterns, onto = _choice_rules(3)
    for enumerate_ in (enumerate_refinements, reference_refinements):
        with pytest.raises(BranchLimitError) as err:
            enumerate_(p, patterns, onto, max_branches=3)
        assert str(err.value) == "refinement exceeded 3 branches; multiplying patterns: p1, p2"
    assert enumerate_refinements(p, patterns, onto, max_branches=8).count == 8
    with pytest.raises(BranchLimitError, match="patterns: p1, p2, p3$"):
        enumerate_refinements(p, patterns, onto, max_branches=7)


def test_errors_are_met_rule_by_rule():
    # Decided: a rule's walk runs to its end before the next rule's starts,
    # so r1's four outcomes pass the limit of 3 before r2's pattern is
    # tried; a depth-first walk over whole branches would reach r2 at once
    onto = simple_onto("T1", "T2", "A", "B", "C", "D")
    patterns = (
        pat("p1", "T1", ActionNode(CHOICE, tleaf("A"), tleaf("B"))),
        pat("p2", "A", ActionNode(CHOICE, tleaf("C"), tleaf("D"))),
        pat("p3", "B", ActionNode(CHOICE, tleaf("C"), tleaf("D"))),
        pat("p4", "T2", ActionNode(SEQ, tleaf("C"), tleaf("D"))),
    )
    p = parse_policy(
        "hasObligation($s, T1((target, $x)), true) :- owns($s, $x).\n"
        "hasObligation($s, T2((host, $x)), true) :- owns($s, $x).\n"
    )
    for enumerate_ in (enumerate_refinements, reference_refinements):
        with pytest.raises(BranchLimitError, match="patterns: p1, p2, p3$"):
            enumerate_(p, patterns, onto, max_branches=3)
        with pytest.raises(PatternError, match="^pattern p4 does not unify with the action of rule r2$"):
            enumerate_(p, patterns, onto, max_branches=4)


def test_warnings_follow_the_rules_in_policy_order():
    # Decided: each rule's own warnings come before the next rule's, so p2's
    # warning, met only in r1's second outcome, comes before p3's from r2
    onto = simple_onto("Top1", "Top2", "A", "B", "C", "D")
    guarded = dict(guard=ENTIRE, guard_side="right")
    patterns = (
        pat("p1", "Top1", ActionNode(CHOICE, tleaf("A"), tleaf("B"))),
        pat("p2", "B", ActionNode(SEQ, tleaf("C"), tleaf("D"), **guarded)),
        pat("p3", "Top2", ActionNode(SEQ, tleaf("C"), tleaf("D"), **guarded)),
    )
    p = parse_policy(
        "hasObligation($s, Top1((target, $x)), true) :- owns($s, $x).\n"
        "hasObligation($s, Top2((target, $x)), true) :- owns($s, $x).\n"
    )
    for enumerate_ in (enumerate_refinements, reference_refinements):
        warned = enumerate_(p, patterns, onto).warnings
        assert [w.split(":")[0] for w in dict.fromkeys(warned)] == ["p2", "p3"]


def test_cyclic_patterns_are_rejected():
    onto = simple_onto("Protect", "Harden", "Audit")
    patterns = (
        pat("p1", "Protect", ActionNode(SEQ, tleaf("Harden"), tleaf("Audit"))),
        pat("p2", "Harden", ActionNode(SEQ, tleaf("Protect"), tleaf("Audit"))),
    )
    p = parse_policy("hasObligation($s, Protect((target, $x)), true) :- owns($s, $x).")
    with pytest.raises(CycleError, match="Harden -> Protect -> Harden"):
        enumerate_refinements(p, patterns, onto)


def test_a_long_sequence_chain_refines_without_recursion():
    n = 1500
    onto = simple_onto(*[f"{kind}{i}" for i in range(n + 1) for kind in "AB"])
    chain = tuple(
        pat(f"p{i}", f"A{i}", ActionNode(SEQ, tleaf(f"A{i + 1}"), tleaf(f"B{i + 1}")))
        for i in range(n)
    )
    p = parse_policy("hasObligation($s, A0((target, $x)), true) :- owns($s, $x).")
    (branch,) = refine_policy(p, chain, onto).branches
    assert [entry[1] for entry in branch.choice_log] == [f"p{i}" for i in range(n)]
    heads = {render(r.head.args[1]) for r in branch.policy.rules if r.head.pred == "derhasObligation"}
    assert f"A{n}((target,$x))" in heads and f"B{n}((target,$x))" in heads
    staged = install_conflict_resolution(derive_authorizations(propagate_hierarchy(p, onto), onto))
    assert to_text(replay(staged, chain, branch.choice_log, onto)) == to_text(branch.policy)

    closing = pat("back", f"A{n}", ActionNode(SEQ, tleaf("A0"), tleaf("B0")))
    with pytest.raises(CycleError) as err:
        refine_policy(p, chain + (closing,), onto)
    trail = " -> ".join(f"A{i}" for i in range(n + 1))
    assert str(err.value) == f"refinement patterns are cyclic: {trail} -> A0"


def test_code_built_patterns_need_labeled_nonempty_operands():
    onto = simple_onto("Top", "A", "B")
    p = parse_policy("hasObligation($s, Top((target, $x)), true) :- owns($s, $x).")
    unlabeled = ActionNode(SEQ, ActionNode(CHOICE, tleaf("A"), tleaf("B")), tleaf("B"))
    with pytest.raises(StructuralError, match="p: inner compositions must be labeled"):
        refine_policy(p, (pat("p", "Top", unlabeled),), onto)
    with pytest.raises(StructuralError, match="p: the empty action cannot appear"):
        refine_policy(p, (pat("p", "Top", ActionNode(SEQ, tleaf("A"), EMPTY)),), onto)


def test_refinement_reports_the_first_pattern_fault_in_preorder():
    # Top := X ; {} with X := A ; (A ; B): the unlabeled composition inside
    # the left operand comes before the empty action on the right
    onto = simple_onto("Top", "X", "A", "B")
    p = parse_policy("hasObligation($s, Top((target, $x)), true) :- owns($s, $x).")
    inner = ActionNode(SEQ, tleaf("A"), ActionNode(SEQ, tleaf("A"), tleaf("B")), label="X")
    with pytest.raises(StructuralError, match="p: inner compositions must be labeled"):
        refine_policy(p, (pat("p", "Top", ActionNode(SEQ, inner, EMPTY)),), onto)


def test_competing_patterns_fork_across_patterns():
    onto = simple_onto("Notify", "Email", "Page", "Call")
    p = parse_policy("hasObligation($s, Notify((target, $x)), true) :- oncall($s, $x).")
    patterns = (
        pat("by_mail", "Notify", ActionNode(SEQ, tleaf("Email"), tleaf("Page"))),
        pat("by_phone", "Notify", ActionNode(SEQ, tleaf("Call"), tleaf("Page"))),
    )
    result = enumerate_refinements(p, patterns, onto)
    assert [b.choice_log for b in result.branches] == [
        (("r1", "by_mail", "seq"),),
        (("r1", "by_phone", "seq"),),
    ]


def test_branches_share_each_pattern_application(monkeypatch):
    # k independent choices make 2^k branches, but each rule meets its
    # pattern once and every branch holds the outcome rules it reaches as
    # the same objects
    k = 5
    p, patterns, onto = _choice_rules(k)
    calls = []
    apply_pattern = polcheck.refinement._apply_pattern

    def counted(rule, pattern, *rest):
        calls.append((rule.rule_id, pattern.pattern_id))
        return apply_pattern(rule, pattern, *rest)

    monkeypatch.setattr(polcheck.refinement, "_apply_pattern", counted)
    result = refine_policy(p, patterns, onto)
    assert len(result.branches) == 2**k
    assert calls == [(f"r{i}", f"p{i}") for i in range(1, k + 1)]
    rules = [r for b in result.branches for r in b.policy.rules]
    assert len({id(r) for r in rules}) == len(set(rules)) == len(result.rules)


def test_an_unstratified_refinement_names_the_first_failing_branch():
    # only the second choice nests $x deeper than the recursive literal, so
    # only branch 2 violates, and the error names its rule
    onto = simple_onto("Top", "Base", "A", "B")
    deeper = ActionLeaf("B", (("target", ActionTerm("Wrap", (("k", Var("x")),))),))
    pattern = pat("p", "Top", ActionNode(CHOICE, tleaf("A"), deeper))
    p = parse_policy(
        "derhasObligation($s, Top((target, $x)), true)"
        " :- owns($s, $x) & derhasObligation($s, Base((target, $x)), true)."
    )
    for enumerate_ in (enumerate_refinements, reference_refinements):
        with pytest.raises(PolicyError) as err:
            enumerate_(p, (pattern,), onto)
        assert str(err.value).startswith("refinement produced an unstratified rule: r1.c2: row 3:")


def test_enumeration_matches_the_reference_on_random_instances():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        p, patterns, onto, limit = random_instance(rng)
        results = []
        for enumerate_ in (enumerate_refinements, reference_refinements):
            try:
                results.append(enumerate_(p, patterns, onto, max_branches=limit))
            except PolcheckError as exc:
                results.append((type(exc), str(exc)))
        fast, slow = results
        if isinstance(slow, tuple):
            assert fast == slow
            outcomes.add(slow[0].__name__)
            continue
        # the reference repeats a warning once per branch; the engine lists it once
        assert fast.warnings == tuple(dict.fromkeys(slow.warnings))
        assert [b.choice_log for b in fast.branches] == [b.choice_log for b in slow.branches]
        assert [to_text(b.policy) for b in fast.branches] == [
            to_text(b.policy) for b in slow.branches
        ]
        assert_table_projects_to_each_branch(fast)
        for branch in fast.branches:
            replayed = replay(p, patterns, branch.choice_log, onto)
            assert to_text(replayed) == to_text(branch.policy)
        outcomes.add(f"{min(len(fast.branches), 4)} branches")
    # the instances reach every outcome the comparison is meant to cover
    assert outcomes >= {
        "1 branches",
        "2 branches",
        "4 branches",
        "BranchLimitError",
        "CycleError",
        "PatternError",
        "PolicyError",
    }


def assert_table_projects_to_each_branch(result):
    """Bit i of the rule table holds exactly branch i's rule objects, the
    table lists each rule object once, in the order the branches taken in
    turn first hold it, and the lazy choice logs are the branches' own."""
    first_held = {id(rule): rule for branch in result.branches for rule in branch.policy.rules}
    assert [id(rule) for rule, _ in result.rules] == list(first_held)
    assert len(result.branches) == result.count
    for i, branch in enumerate(result.branches):
        held = {id(rule) for rule, mask in result.rules if mask >> i & 1}
        assert held == {id(rule) for rule in branch.policy.rules}
        assert result.choice_log(i) == branch.choice_log
    assert all(0 < mask < 1 << result.count for _, mask in result.rules)


def test_rules_are_refined_where_they_stand():
    # a policy built in code may repeat a rule id; each rule is refined by
    # its position, so the second r1 keeps its own action
    onto = simple_onto("Notify", "Email", "Page", "Backup")
    parsed = parse_policy(
        "hasObligation($s, Notify((target, $x)), true) :- oncall($s, $x).\n"
        "hasObligation($s, Backup((target, $x)), true) :- owns($s, $x).\n"
    )
    first, second = parsed.rules
    p = parsed.with_rules((first, Rule("r1", second.head, second.body)))
    pattern = pat("notify", "Notify", ActionNode(SEQ, tleaf("Email"), tleaf("Page")))
    (branch,) = enumerate_refinements(p, (pattern,), onto).branches
    assert [r.rule_id for r in branch.policy.rules] == ["r1", "r1.s1", "r1.s2", "r1", "lift.Backup"]
    assert branch.policy.rules[3].head == second.head


def test_atomic_obligations_are_lifted():
    onto = simple_onto("Backup")
    p = parse_policy("hasObligation($s, Backup((target, $x)), true) :- owns($s, $x).")
    result = enumerate_refinements(p, (), onto)
    (branch,) = result.branches
    lift = branch.policy.rule("lift.Backup")
    assert render_rule(lift) == (
        "derhasObligation($s, Backup((target,$v_target)), $q) :- "
        "hasObligation($s, Backup((target,$v_target)), $q)."
    )


# ---------------------------------------------------------------------------
# Template installation
# ---------------------------------------------------------------------------


def test_hierarchy_templates_walk_the_subject_graph():
    onto = simple_onto("Backup")
    onto.properties["suborg"] = PropertyDef("suborg", family="hie")
    p = propagate_hierarchy(parse_policy("hasObligation(hq, act1, true)."), onto)
    assert {r.rule_id for r in p.rules} == {
        "r1",
        "hier.suborg.obl",
        "hier.suborg.obl.der",
        "hier.suborg.disp",
        "hier.suborg.disp.der",
    }
    ds = DataSystem(
        base_atoms=frozenset(
            {
                Atom("suborg", (Const("branch"), Const("hq"))),
                Atom("suborg", (Const("team"), Const("branch"))),
            }
        )
    )
    model = evaluate(p, ds)
    derived = {render(a) for a in model.atoms if a.pred == "derhasObligation"}
    assert derived == {
        "derhasObligation(branch, act1, true)",
        "derhasObligation(team, act1, true)",
    }


def test_authorization_templates_follow_declared_resources():
    onto = Ontology(
        properties={
            "resource": PropertyDef("resource"),
            "instrument": PropertyDef("instrument"),
        }
    )
    onto.action_classes["Backup"] = ActionClassDef(
        "Backup",
        ENTIRE,
        ENTIRE,
        params=("target",),
        resources=("vault",),
        instruments=("tape_drive",),
    )
    p = derive_authorizations(parse_policy("mustdo(bob, Backup((target, report1)), true)."), onto)
    ids = {r.rule_id for r in p.rules}
    assert {
        "auth.execute",
        "auth.modify",
        "auth.read",
        "auth.modify.Backup.vault",
        "auth.read.Backup.tape_drive",
    } <= ids
    model = evaluate(p, DataSystem())
    cando = {render(a) for a in model.atoms if a.pred == "cando"}
    assert cando == {
        "cando(Backup((target,report1)), bob, +execute)",
        "cando(vault, bob, +modify)",
        "cando(tape_drive, bob, +read)",
    }


def test_generic_resource_templates_need_declared_predicates():
    p = derive_authorizations(parse_policy("mustdo(bob, act1, true)."), None)
    assert {r.rule_id for r in p.rules} == {"r1", "auth.execute"}


def test_conflict_resolution_modes():
    p = parse_policy("hasDispensation(emp1, act1).")
    installed = install_conflict_resolution(p)
    assert {r.rule_id for r in installed.rules} == {"r1", "cr.lift", "cr.mustdo"}
    assert install_conflict_resolution(p, "custom") is p
    with pytest.raises(PolicyError, match="unknown conflict resolution mode"):
        install_conflict_resolution(p, "strict")


def test_templates_are_not_duplicated_over_authored_twins():
    # the authored decision rule is textually the template; installing the
    # templates must not add a second copy
    p = parse_policy(
        "mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).\n"
        "derhasDispensation($s, $a) :- hasDispensation($s, $a).\n"
    )
    installed = install_conflict_resolution(p)
    assert len(installed.rules) == 2


# ---------------------------------------------------------------------------
# Postcondition compilation
# ---------------------------------------------------------------------------


def meet_onto():
    return Ontology(
        classes={c: ClassDef(c) for c in ("A", "B", "C", "D")},
        variables={
            "x1": VariableDef("x1", "pc", "hw", ("A", "B")),
            "x2": VariableDef("x2", "pc", "os", ("C", "D")),
        },
    )


def ms(x1, x2):
    return State.make({"x1": x1, "x2": x2})


def test_meet_formula_is_true_over_the_whole_universe():
    onto = meet_onto()
    formula, warn = compile_meet_formula(ENTIRE, ENTIRE, onto)
    assert formula.is_true and warn is None


def test_meet_formula_is_false_when_empty():
    onto = meet_onto()
    g1 = StateSpace.explicit((ms("A", "C"),))
    d2 = StateSpace.explicit((ms("B", "D"),))
    formula, warn = compile_meet_formula(g1, d2, onto)
    assert formula.is_false
    assert "unsatisfiable" in warn


def test_meet_formula_compiles_a_rectangle_to_atoms():
    onto = meet_onto()
    g1 = StateSpace.explicit((ms("A", "C"), ms("A", "D")))
    formula, warn = compile_meet_formula(g1, ENTIRE, onto)
    assert warn is None
    assert render(formula) == "hw(pc, A)"
    point, warn2 = compile_meet_formula(
        StateSpace.explicit((ms("B", "C"),)), ENTIRE, onto
    )
    assert warn2 is None
    assert render(point) == "hw(pc, B) & os(pc, C)"


def test_meet_formula_weakens_what_it_cannot_express():
    onto = meet_onto()
    diagonal = StateSpace.explicit((ms("A", "C"), ms("B", "D")))
    formula, warn = compile_meet_formula(diagonal, ENTIRE, onto)
    assert formula.is_true
    assert "weakened to true" in warn

    wide = Ontology(
        classes={c: ClassDef(c) for c in ("A", "B", "C")},
        variables={"x1": VariableDef("x1", "pc", "hw", ("A", "B", "C"))},
    )
    two_of_three = StateSpace.explicit(
        (State.make({"x1": "A"}), State.make({"x1": "B"}))
    )
    formula2, warn2 = compile_meet_formula(two_of_three, ENTIRE, wide)
    assert formula2.is_true and "weakened to true" in warn2


def test_multi_valued_blocks_over_40_variables_are_never_enumerated(monkeypatch):
    # 2^40 states: enumerating them would never finish, so fail at once instead
    def no_states(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr("polcheck.ontology._state_product", no_states)
    started = time.perf_counter()
    lines = ["class Entity", "prop owns dom Entity range Entity"]
    lines += [f"prop p{i} dom Entity range Entity" for i in range(40)]
    lines += [f"var v{i} maps box.p{i} range {{lo, hi}}" for i in range(40)]
    lines += [
        "action Top(target) init {v0=lo|hi, v1=lo} final {}",
        "action A1(target) init {v0=hi|lo} final {v1=lo|hi, v2=hi}",
        "action A2(target) init {v2=hi|lo, v3=lo} final {v3=hi}",
        "transform A2 when {v2=lo|hi, v3=lo} set {v3=hi}",
    ]
    onto = parse_ontology("\n".join(lines) + "\n")
    patterns = parse_patterns(
        "refine Top(target:$x) := A1(target:$x) ; [v4=lo|hi]A2(target:$x) type=adv-seq\n", onto
    )
    p = parse_policy("hasObligation($s, Top((target, $x)), true) :- owns($s, $x).")
    result = refine_policy(p, patterns, onto)
    assert time.perf_counter() - started < 1
    assert result.warnings == (
        "p1: guarded composition refined as its basic counterpart (guards do not reach rules)",
    )
    (branch,) = result.branches
    (first,) = [r for r in branch.policy.rules if r.rule_id == "r1.s1"]
    # A1's final box meets A2's initial box at v2=hi and v3=lo; v1 keeps both values
    assert render_rule(first) == (
        "derhasObligation($s, A1((target,$x)), p2(box, hi) & p3(box, lo)) :- owns($s, $x)."
    )

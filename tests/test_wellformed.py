"""Well-formedness of refinement patterns: the symbolic constraint checker
against the trace-simulation reference, plus the structural validation that
runs before either."""

import pytest

from polcheck.actions import (
    CHOICE,
    CONJ,
    EMPTY,
    SEQ,
    ActionClassDef,
    ActionLeaf,
    ActionNode,
    RefinementPattern,
    TransformRule,
    check_well_formed_complex,
    oracle_well_formed,
    taxonomy_of,
    validate_pattern,
)
from polcheck.errors import (
    NameResolutionError,
    OracleScaleError,
    StructuralError,
    TaxonomyError,
)
from polcheck import actions, ontology
from polcheck.ontology import (
    ENTIRE,
    ClassDef,
    Ontology,
    State,
    StateSpace,
    VariableDef,
    expand_space,
)

from wf_gen import _NODE, ROWS, make_satisfying, make_violating

import random


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def grid_onto(**action_specs) -> Ontology:
    """Two independent binary variables, so four states. Actions are given as
    name=(init_states, final_states, constant_target)."""
    onto = Ontology(
        classes={c: ClassDef(c) for c in ("P0", "P1", "Q0", "Q1")},
        variables={
            "x": VariableDef("x", "obj", "p", ("P0", "P1")),
            "y": VariableDef("y", "obj", "q", ("Q0", "Q1")),
        },
    )
    for name, (init, final, target) in action_specs.items():
        onto.action_classes[name] = ActionClassDef(
            name,
            init,
            final,
            transform=(TransformRule(ENTIRE, tuple(sorted(target.items()))),),
        )
    return onto


def gs(x, y) -> State:
    return State.make({"x": x, "y": y})


def gsp(*states) -> StateSpace:
    return StateSpace.explicit(states)


S00, S01, S10, S11 = gs("P0", "Q0"), gs("P0", "Q1"), gs("P1", "Q0"), gs("P1", "Q1")


def pattern(root, body, declared_type) -> RefinementPattern:
    return RefinementPattern("p", root, (), body, declared_type)


def flagged(verdict):
    return {(v.node_path, v.constraint_id) for v in verdict.violations}


# ---------------------------------------------------------------------------
# Satisfying and violating instances, row by example
# ---------------------------------------------------------------------------


def test_sequence_pattern_well_formed_both_ways():
    onto = grid_onto(
        Top=(ENTIRE, gsp(S11), {"x": "P1", "y": "Q1"}),
        A1=(ENTIRE, gsp(S10), {"x": "P1", "y": "Q0"}),
        A2=(gsp(S10), gsp(S11), {"x": "P1", "y": "Q1"}),
    )
    p = pattern("Top", ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2")), "basic-seq")
    assert check_well_formed_complex(p, onto).ok
    assert oracle_well_formed(p, onto).ok


def test_choice_pattern_flags_a_goal_escape():
    onto = grid_onto(
        Top=(ENTIRE, gsp(S11), {"x": "P1", "y": "Q1"}),
        A1=(ENTIRE, gsp(S11), {"x": "P1", "y": "Q1"}),
        A2=(ENTIRE, gsp(S01), {"x": "P0", "y": "Q1"}),
    )
    p = pattern(
        "Top",
        ActionNode(CHOICE, ActionLeaf("A1"), ActionLeaf("A2"), strict=True),
        "basic-strict-choice",
    )
    verdict = check_well_formed_complex(p, onto)
    assert not verdict.ok
    assert flagged(verdict) == {("root", "Γ⊑Γ2")}
    assert verdict.violations[0].witness == S01

    reference = oracle_well_formed(p, onto)
    assert not reference.ok
    assert all(v.constraint_id == "trace[A2] misses Γ" for v in reference.violations)


def test_flexible_choice_needs_an_alternative_everywhere():
    onto = grid_onto(
        Top=(gsp(S00, S11), gsp(S11), {"x": "P1", "y": "Q1"}),
        A1=(gsp(S11), gsp(S11), {"x": "P1", "y": "Q1"}),
        A2=(gsp(S11), gsp(S11), {"x": "P1", "y": "Q1"}),
    )
    p = pattern("Top", ActionNode(CHOICE, ActionLeaf("A1"), ActionLeaf("A2")), "basic-flex-choice")
    verdict = check_well_formed_complex(p, onto)
    assert ("root", "Δ1⊔Δ2⊑Δ") in flagged(verdict)

    reference = oracle_well_formed(p, onto)
    assert ("root", "no alternative feasible") in flagged(reference)
    assert reference.violations[0].witness == S00 or any(
        v.witness == S00 for v in reference.violations
    )


def test_flexible_choice_flags_a_dead_alternative():
    onto = grid_onto(
        Top=(gsp(S00, S11), gsp(S11), {"x": "P1", "y": "Q1"}),
        A1=(gsp(S10), gsp(S11), {"x": "P1", "y": "Q1"}),
        A2=(gsp(S00, S11), gsp(S11), {"x": "P1", "y": "Q1"}),
    )
    p = pattern("Top", ActionNode(CHOICE, ActionLeaf("A1"), ActionLeaf("A2")), "basic-flex-choice")
    assert ("root", "Δ1⊓Δ≠{}") in flagged(check_well_formed_complex(p, onto))
    assert ("root", "A1 is never a feasible alternative") in flagged(oracle_well_formed(p, onto))


def security_onto() -> Ontology:
    """Protecting a machine means a firewall always, antivirus on Windows."""
    onto = Ontology(
        classes={c: ClassDef(c) for c in ("Windows", "Linux", "Installed", "Missing")},
        variables={
            "os": VariableDef("os", "pc", "system", ("Windows", "Linux")),
            "fw": VariableDef("fw", "pc", "firewall", ("Installed", "Missing")),
            "av": VariableDef("av", "pc", "antivirus", ("Installed", "Missing")),
        },
    )

    def sec(os, fw, av):
        return State.make({"os": os, "fw": fw, "av": av})

    protected = StateSpace.explicit(
        (
            sec("Linux", "Installed", "Missing"),
            sec("Linux", "Installed", "Installed"),
            sec("Windows", "Installed", "Installed"),
        )
    )
    onto.action_classes = {
        "Protect": ActionClassDef("Protect", ENTIRE, protected),
        "InstallFirewall": ActionClassDef(
            "InstallFirewall",
            ENTIRE,
            StateSpace.concise({"fw": "Installed"}),
            transform=(TransformRule(ENTIRE, (("fw", "Installed"),)),),
        ),
        "InstallAntiVirus": ActionClassDef(
            "InstallAntiVirus",
            ENTIRE,
            StateSpace.concise({"av": "Installed"}),
            transform=(TransformRule(ENTIRE, (("av", "Installed"),)),),
        ),
    }
    return onto


def test_guarded_conjunction_protection_pattern_is_well_formed():
    onto = security_onto()
    body = ActionNode(
        CONJ,
        ActionLeaf("InstallFirewall"),
        ActionLeaf("InstallAntiVirus"),
        guard=StateSpace.concise({"os": "Windows"}),
        guard_side="right",
    )
    assert taxonomy_of(body) == "adv-flex-conj"
    p = pattern("Protect", body, "adv-flex-conj")
    assert check_well_formed_complex(p, onto).ok
    assert oracle_well_formed(p, onto).ok


def test_guard_side_left_mirrors_the_right_guard():
    onto = security_onto()
    mirrored = ActionNode(
        CONJ,
        ActionLeaf("InstallAntiVirus"),
        ActionLeaf("InstallFirewall"),
        guard=StateSpace.concise({"os": "Windows"}),
        guard_side="left",
    )
    p = pattern("Protect", mirrored, "adv-flex-conj")
    assert check_well_formed_complex(p, onto).ok
    assert oracle_well_formed(p, onto).ok


def test_guarded_conjunction_catches_a_missing_windows_duty():
    # Dropping the antivirus requirement from the goal makes the Windows
    # interleavings overshoot it: the goal no longer covers their end states.
    onto = security_onto()
    onto.action_classes["Protect"] = ActionClassDef(
        "Protect",
        ENTIRE,
        StateSpace.explicit(
            (
                State.make({"os": "Linux", "fw": "Installed", "av": "Missing"}),
                State.make({"os": "Windows", "fw": "Installed", "av": "Missing"}),
            )
        ),
    )
    body = ActionNode(
        CONJ,
        ActionLeaf("InstallFirewall"),
        ActionLeaf("InstallAntiVirus"),
        guard=StateSpace.concise({"os": "Windows"}),
        guard_side="right",
    )
    verdict = check_well_formed_complex(pattern("Protect", body, "adv-flex-conj"), onto)
    assert not verdict.ok
    ids = {v.constraint_id for v in verdict.violations}
    assert "Δ1⊑δ∧Δ'⊑a1(δ)⇒Γ⊑a2(a1(δ))" in ids


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def _valid_onto():
    return grid_onto(
        Top=(ENTIRE, gsp(S11), {"x": "P1", "y": "Q1"}),
        A1=(ENTIRE, gsp(S10), {"x": "P1", "y": "Q0"}),
        A2=(gsp(S10), gsp(S11), {"x": "P1", "y": "Q1"}),
    )


def test_pattern_rejects_a_taxonomy_mismatch():
    onto = _valid_onto()
    body = ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2"))
    with pytest.raises(TaxonomyError):
        validate_pattern(pattern("Top", body, "basic-flex-conj"), onto)
    with pytest.raises(TaxonomyError):
        validate_pattern(pattern("Top", body, "no-such-type"), onto)


def test_pattern_rejects_structural_misuse():
    onto = _valid_onto()
    with pytest.raises(StructuralError):
        validate_pattern(pattern("Top", ActionLeaf("A1"), "basic-seq"), onto)
    with pytest.raises(StructuralError):
        validate_pattern(
            pattern("Top", ActionNode(SEQ, ActionLeaf("A1"), EMPTY), "basic-seq"), onto
        )
    unlabeled_inner = ActionNode(
        SEQ, ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2")), ActionLeaf("A2")
    )
    with pytest.raises(StructuralError):
        validate_pattern(pattern("Top", unlabeled_inner, "basic-seq"), onto)


def test_pattern_resolves_every_name():
    onto = _valid_onto()
    body = ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2"))
    with pytest.raises(NameResolutionError):
        validate_pattern(pattern("Ghost", body, "basic-seq"), onto)
    with pytest.raises(NameResolutionError):
        validate_pattern(
            pattern("Top", ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("Ghost")), "basic-seq"),
            onto,
        )
    labeled = ActionNode(
        SEQ,
        ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2"), label="Ghost"),
        ActionLeaf("A2"),
    )
    with pytest.raises(NameResolutionError):
        validate_pattern(pattern("Top", labeled, "basic-seq"), onto)


def test_pattern_faults_are_reported_in_preorder():
    # two faults each: a node is checked before its operands, and the whole
    # left operand before the right one
    onto = _valid_onto()
    a1, a2, ghost = ActionLeaf("A1"), ActionLeaf("A2"), ActionLeaf("Ghost")
    unlabeled = ActionNode(SEQ, a1, a2)
    must_label = "inner compositions must be labeled with an action"
    no_empty = "the empty action cannot appear in a pattern"
    cases = [
        (ActionNode(SEQ, ghost, unlabeled), NameResolutionError, "undeclared action 'Ghost'"),
        (ActionNode(SEQ, unlabeled, ghost), StructuralError, must_label),
        (ActionNode(SEQ, EMPTY, ghost), StructuralError, no_empty),
        (ActionNode(SEQ, ghost, EMPTY), NameResolutionError, "undeclared action 'Ghost'"),
        (ActionNode(SEQ, ActionNode(SEQ, ghost, a2), a2), StructuralError, must_label),
        (
            ActionNode(SEQ, ActionNode(SEQ, a1, EMPTY, label="Nope"), a2),
            NameResolutionError,
            "undeclared action label 'Nope'",
        ),
        (
            ActionNode(SEQ, ActionNode(SEQ, a1, ActionLeaf("Deep"), label="A1"), unlabeled),
            NameResolutionError,
            "undeclared action 'Deep'",
        ),
    ]
    for body, exc, message in cases:
        with pytest.raises(exc) as err:
            validate_pattern(pattern("Top", body, "basic-seq"), onto)
        assert str(err.value) == f"pattern p: {message}"


# ---------------------------------------------------------------------------
# Complex patterns
# ---------------------------------------------------------------------------


def _nested_onto(mid_final):
    return grid_onto(
        Top=(ENTIRE, gsp(S11), {"x": "P1", "y": "Q1"}),
        Mid=(ENTIRE, mid_final, {"x": "P1", "y": "Q0"}),
        A1=(ENTIRE, gsp(S00), {"x": "P0", "y": "Q0"}),
        A2=(gsp(S00), gsp(S10), {"x": "P1", "y": "Q0"}),
        A3=(gsp(S10), gsp(S11), {"x": "P1", "y": "Q1"}),
    )


def _nested_pattern():
    inner = ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2"), label="Mid")
    return pattern("Top", ActionNode(SEQ, inner, ActionLeaf("A3")), "basic-seq")


def test_complex_check_descends_into_labeled_nodes():
    onto = _nested_onto(gsp(S10))
    p = _nested_pattern()
    assert check_well_formed_complex(p, onto).ok
    assert oracle_well_formed(p, onto).ok


def test_complex_check_reports_the_inner_path():
    # Mid promises S00 but its body ends at S10: the check looks inside the
    # labeled operand as well as at the root.
    onto = _nested_onto(gsp(S00))
    deep = check_well_formed_complex(_nested_pattern(), onto)
    assert ("root", "Δ2⊑Γ1") in flagged(deep)  # Top's own row: A3 cannot start at S00
    assert ("root.left", "Γ⊑Γ2") in flagged(deep)


def test_deeply_nested_code_built_patterns_check_without_recursion():
    # the parser bounds nesting at 100 levels; a pattern built in code has
    # no bound, so the structural walk must not recurse
    every = {"x": "P1", "y": "Q1"}
    onto = grid_onto(
        Top=(ENTIRE, ENTIRE, every), Mid=(ENTIRE, ENTIRE, every), A=(ENTIRE, ENTIRE, every)
    )

    def nested(first_leaf):
        inner = ActionNode(SEQ, ActionLeaf(first_leaf), ActionLeaf("A"), label="Mid")
        for _ in range(1498):
            inner = ActionNode(SEQ, inner, ActionLeaf("A"), label="Mid")
        return pattern("Top", ActionNode(SEQ, inner, ActionLeaf("A")), "basic-seq")

    assert check_well_formed_complex(nested("A"), onto).ok
    with pytest.raises(NameResolutionError, match="undeclared action 'Ghost'"):
        check_well_formed_complex(nested("Ghost"), onto)


# ---------------------------------------------------------------------------
# Edge handling
# ---------------------------------------------------------------------------


def test_empty_initial_space_is_vacuously_well_formed():
    onto = grid_onto(
        Top=(gsp(), gsp(S11), {"x": "P1", "y": "Q1"}),
        A1=(ENTIRE, gsp(S10), {"x": "P1", "y": "Q0"}),
        A2=(gsp(S10), gsp(S11), {"x": "P1", "y": "Q1"}),
    )
    p = pattern("Top", ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2")), "basic-seq")
    for checker in (check_well_formed_complex, oracle_well_formed):
        verdict = checker(p, onto)
        assert verdict.ok
        assert any("vacuously well-formed" in w for w in verdict.warnings)


@pytest.mark.parametrize(
    "node",
    [
        ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2")),
        ActionNode(CHOICE, ActionLeaf("A1"), ActionLeaf("A2")),
        ActionNode(CONJ, ActionLeaf("A1"), ActionLeaf("A2")),
        ActionNode(CONJ, ActionLeaf("A1"), ActionLeaf("A2"), guard=ENTIRE, guard_side="right"),
    ],
    ids=taxonomy_of,
)
def test_a_node_over_forty_variables_checks_without_expanding_the_operands(node, monkeypatch):
    # the operands' spaces, and the flexible rows' joins of them, are {} over
    # 2^40 states: every refinement between them is decided on boxes, and the
    # one space expanded is the parent's one-state initial space
    names = [f"v{i}" for i in range(40)]
    top = {v: ("lo",) for v in names}
    expand = ontology._state_product

    def only_top(variables, choices):
        assert choices == top, "a state space other than Top's initial space was expanded"
        return expand(variables, choices)

    monkeypatch.setattr(ontology, "_state_product", only_top)
    onto = Ontology(
        classes={c: ClassDef(c) for c in ("hi", "lo")},
        variables={v: VariableDef(v, "obj", v, ("hi", "lo")) for v in names},
    )
    onto.action_classes["Top"] = ActionClassDef(
        "Top", StateSpace.concise({v: "lo" for v in names}), ENTIRE
    )
    for name in ("A1", "A2"):
        onto.action_classes[name] = ActionClassDef(name, ENTIRE, ENTIRE)
    verdict = check_well_formed_complex(pattern("Top", node, taxonomy_of(node)), onto)
    assert verdict.ok, verdict.violations


def _explicit_parent_onto(n, operand_init):
    """n binary variables; Top starts from the one explicit state with every
    variable lo, A1 and A2 from operand_init."""
    names = [f"v{i}" for i in range(n)]
    onto = Ontology(
        classes={c: ClassDef(c) for c in ("hi", "lo")},
        variables={v: VariableDef(v, "obj", v, ("hi", "lo")) for v in names},
    )
    top = StateSpace.explicit([State.make({v: "lo" for v in names})])
    onto.action_classes["Top"] = ActionClassDef("Top", top, ENTIRE)
    for name in ("A1", "A2"):
        onto.action_classes[name] = ActionClassDef(name, operand_init, ENTIRE)
    return onto


_OPERAND_NODES = [
    ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2")),
    ActionNode(CHOICE, ActionLeaf("A1"), ActionLeaf("A2")),
    ActionNode(CHOICE, ActionLeaf("A1"), ActionLeaf("A2"), strict=True),
    ActionNode(CONJ, ActionLeaf("A1"), ActionLeaf("A2")),
    ActionNode(CONJ, ActionLeaf("A1"), ActionLeaf("A2"), strict=True),
]


@pytest.mark.parametrize("node", _OPERAND_NODES, ids=taxonomy_of)
def test_box_operands_meet_an_explicit_parent_without_expanding(node, monkeypatch):
    # {} operands over 2^16 states meet Top's one explicit state: the meet
    # keeps the explicit states the box allows and builds no box's states
    calls = []
    expand = ontology._state_product

    def counting(variables, choices):
        calls.append(choices)
        return expand(variables, choices)

    monkeypatch.setattr(ontology, "_state_product", counting)
    onto = _explicit_parent_onto(16, ENTIRE)
    verdict = check_well_formed_complex(pattern("Top", node, taxonomy_of(node)), onto)
    assert verdict.ok, verdict.violations
    assert calls == []


@pytest.mark.parametrize("node", _OPERAND_NODES, ids=taxonomy_of)
@pytest.mark.parametrize("operand_init", [ENTIRE, StateSpace.concise({"v0": "hi"})], ids=["all", "v0=hi"])
def test_box_explicit_meet_keeps_the_expanding_verdicts(node, operand_init, monkeypatch):
    # at 10 variables the verdict, its witnesses and its warnings are those
    # the meet gave when it intersected both expansions
    def check():
        onto = _explicit_parent_onto(10, operand_init)
        return check_well_formed_complex(pattern("Top", node, taxonomy_of(node)), onto)

    verdict = check()
    monkeypatch.setattr(
        actions,
        "space_meet",
        lambda a, b, onto: StateSpace.explicit(expand_space(a, onto) & expand_space(b, onto)),
    )
    assert verdict == check()
    assert verdict.ok == (operand_init is ENTIRE)


def test_state_bound_guards_both_checkers():
    # the checker lists the parent's initial space only for a row that runs
    # transformers from each state; the oracle lists it for every row
    onto = _valid_onto()
    message = "^root: initial space has 4 states, past the bound of 2$"
    for row in ROWS:
        op, strict, guarded = _NODE[row]
        guard = dict(guard=ENTIRE, guard_side="right") if guarded else {}
        p = pattern("Top", ActionNode(op, ActionLeaf("A1"), ActionLeaf("A2"), strict=strict, **guard), row)
        if row in ("basic-seq", "basic-strict-choice", "basic-flex-choice"):
            check_well_formed_complex(p, onto, state_bound=2)
        else:
            with pytest.raises(OracleScaleError, match=message):
                check_well_formed_complex(p, onto, state_bound=2)
        with pytest.raises(OracleScaleError, match=message):
            oracle_well_formed(p, onto, state_bound=2)


# ---------------------------------------------------------------------------
# Generator-driven agreement smoke test (the acceptance suite runs the full
# 200-per-row battery)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("row", ROWS)
def test_generated_instances_behave_per_row(row):
    rng = random.Random(f"wf-{row}")
    for _ in range(10):
        p, onto = make_satisfying(rng, row)
        assert check_well_formed_complex(p, onto).ok, row
        assert oracle_well_formed(p, onto).ok, row
    for _ in range(10):
        p, onto, target = make_violating(rng, row)
        verdict = check_well_formed_complex(p, onto)
        hits = [v for v in verdict.violations if v.constraint_id == target]
        assert hits and hits[0].witness is not None, (row, target)

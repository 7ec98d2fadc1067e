"""Composition algebra: trace semantics, normal form, the identity laws, and
the load-time transformer contract."""

import logging
import random
import re
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck.actions import (
    CHOICE,
    MAX_REGION_BOXES,
    CONJ,
    EMPTY,
    SEQ,
    ActionClassDef,
    ActionLeaf,
    ActionNode,
    ActionTrace,
    Infeasible,
    RefinementPattern,
    TransformRule,
    apply_trace,
    check_well_formed_complex,
    render_composition,
    taxonomy_of,
    traces,
    validate_action_class,
)
from polcheck.cli import main
from polcheck.errors import (
    NameResolutionError,
    OracleScaleError,
    PolcheckError,
    SchemaError,
    StructuralError,
)
from polcheck.loading import parse_ontology
from polcheck.ontology import (
    ENTIRE,
    ClassDef,
    Ontology,
    State,
    StateSpace,
    VariableDef,
    render_state,
)

from oracle_actions import random_transformer, validate_all_pairs, validate_enumerated

a, b, c = ActionLeaf("a"), ActionLeaf("b"), ActionLeaf("c")


def seq(x, y):
    return ActionNode(SEQ, x, y)


def choice(x, y):
    return ActionNode(CHOICE, x, y)


def conj(x, y, strict=False):
    return ActionNode(CONJ, x, y, strict=strict)


def T(comp):
    return {t.steps for t in traces(comp)}


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


def test_operator_shape_rules():
    with pytest.raises(StructuralError):
        ActionNode("par", a, b)
    with pytest.raises(StructuralError):
        ActionNode(SEQ, a, b, strict=True)
    with pytest.raises(StructuralError):
        ActionNode(CHOICE, a, b, guard=ENTIRE, guard_side="right")
    with pytest.raises(StructuralError):
        ActionNode(SEQ, a, b, guard=ENTIRE, guard_side="left")
    with pytest.raises(StructuralError):
        ActionNode(CONJ, a, b, guard=ENTIRE)  # guard without a side
    with pytest.raises(StructuralError):
        ActionNode(CONJ, a, b, guard_side="left")  # side without a guard


def test_taxonomy_covers_all_eight_shapes():
    guard = ENTIRE
    cases = {
        "basic-seq": seq(a, b),
        "adv-seq": ActionNode(SEQ, a, b, guard=guard, guard_side="right"),
        "basic-strict-choice": ActionNode(CHOICE, a, b, strict=True),
        "basic-flex-choice": choice(a, b),
        "basic-strict-conj": conj(a, b, strict=True),
        "basic-flex-conj": conj(a, b),
        "adv-strict-conj": ActionNode(CONJ, a, b, strict=True, guard=guard, guard_side="right"),
        "adv-flex-conj": ActionNode(CONJ, a, b, guard=guard, guard_side="left"),
    }
    for expected, node in cases.items():
        assert taxonomy_of(node) == expected


# ---------------------------------------------------------------------------
# Trace semantics
# ---------------------------------------------------------------------------


def test_basic_trace_sets():
    assert T(a) == {("a",)}
    assert T(EMPTY) == {()}
    assert T(seq(a, b)) == {("a", "b")}
    assert T(choice(a, b)) == {("a",), ("b",)}
    assert T(conj(a, b)) == {("a", "b"), ("b", "a")}
    assert T(conj(a, b, strict=True)) == T(conj(a, b))  # strictness is a feasibility matter


def test_guarded_operand_is_optional_in_traces():
    guarded_seq = ActionNode(SEQ, a, b, guard=ENTIRE, guard_side="right")
    assert T(guarded_seq) == {("a",), ("a", "b")}
    guarded_conj = ActionNode(CONJ, a, b, guard=ENTIRE, guard_side="right")
    assert T(guarded_conj) == {("a", "b"), ("b", "a"), ("a",)}


def test_conjunction_interleaves_compound_operands():
    assert T(conj(seq(a, b), c)) == {
        ("a", "b", "c"),
        ("a", "c", "b"),
        ("c", "a", "b"),
    }


def test_sequence_is_not_commutative():
    assert T(seq(a, b)) != T(seq(b, a))


# ---------------------------------------------------------------------------
# The identity laws
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "c", "d", "e", "f")


@st.composite
def compositions(draw, max_leaves=3, guards=True):
    def build(n):
        if n == 1:
            return ActionLeaf(draw(st.sampled_from(_NAMES)))
        split = draw(st.integers(1, n - 1))
        left, right = build(split), build(n - split)
        op = draw(st.sampled_from((SEQ, CHOICE, CONJ)))
        strict = op != SEQ and draw(st.booleans())
        guard = side = None
        if guards and op != CHOICE and draw(st.booleans()):
            guard = ENTIRE
            side = "right" if op == SEQ else draw(st.sampled_from(("left", "right")))
        return ActionNode(op, left, right, strict=strict, guard=guard, guard_side=side)

    return build(draw(st.integers(1, max_leaves)))


laws_settings = settings(max_examples=120, deadline=None)


@laws_settings
@given(compositions())
def test_choice_is_idempotent(x):
    assert T(choice(x, x)) == T(x)


@laws_settings
@given(compositions(), compositions())
def test_choice_is_commutative(x, y):
    assert T(choice(x, y)) == T(choice(y, x))


@laws_settings
@given(compositions(max_leaves=2), compositions(max_leaves=2), compositions(max_leaves=2))
def test_choice_is_associative(x, y, z):
    assert T(choice(choice(x, y), z)) == T(choice(x, choice(y, z)))


@laws_settings
@given(compositions(max_leaves=2), compositions(max_leaves=2), compositions(max_leaves=2))
def test_sequence_is_associative(x, y, z):
    assert T(seq(seq(x, y), z)) == T(seq(x, seq(y, z)))


@laws_settings
@given(compositions(max_leaves=2), compositions(max_leaves=2), compositions(max_leaves=2))
def test_sequence_distributes_over_choice(x, y, z):
    assert T(seq(x, choice(y, z))) == T(choice(seq(x, y), seq(x, z)))
    assert T(seq(choice(y, z), x)) == T(choice(seq(y, x), seq(z, x)))


@laws_settings
@given(compositions())
def test_empty_action_is_a_sequence_identity(x):
    assert T(seq(x, EMPTY)) == T(x)
    assert T(seq(EMPTY, x)) == T(x)


@laws_settings
@given(compositions(), compositions())
def test_conjunction_is_commutative(x, y):
    assert T(conj(x, y)) == T(conj(y, x))


@laws_settings
@given(compositions(max_leaves=2), compositions(max_leaves=2), compositions(max_leaves=2))
def test_conjunction_is_associative(x, y, z):
    assert T(conj(conj(x, y), z)) == T(conj(x, conj(y, z)))


@laws_settings
@given(compositions(max_leaves=2), compositions(max_leaves=2), compositions(max_leaves=2))
def test_conjunction_distributes_over_choice(x, y, z):
    assert T(conj(choice(y, z), x)) == T(choice(conj(y, x), conj(z, x)))


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def normalize(comp):
    """Choice-of-sequences normal form: conjunctions expand into their
    interleavings, sequence distributes over choice, guards expand into
    optional operands. Preserves the trace set."""
    leaves: dict = {}

    def collect(c):
        if isinstance(c, ActionLeaf):
            leaves.setdefault(c.name, c)
        elif isinstance(c, ActionNode):
            collect(c.left)
            collect(c.right)

    collect(comp)

    def seq_tree(names):
        if not names:
            return EMPTY
        tree = leaves[names[-1]]
        for name in reversed(names[:-1]):
            tree = ActionNode(SEQ, leaves[name], tree)
        return tree

    alternatives = [seq_tree(t.steps) for t in traces(comp)]
    tree = alternatives[-1]
    for alt in reversed(alternatives[:-1]):
        tree = ActionNode(CHOICE, alt, tree)
    return tree


def _is_choice_of_sequences(comp) -> bool:
    def is_seq(n):
        if isinstance(n, (ActionLeaf,)) or n is EMPTY:
            return True
        return isinstance(n, ActionNode) and n.op == SEQ and is_seq(n.left) and is_seq(n.right)

    def walk(n):
        if isinstance(n, ActionNode) and n.op == CHOICE:
            return walk(n.left) and walk(n.right)
        return is_seq(n)

    return walk(comp)


@laws_settings
@given(compositions(max_leaves=4))
def test_normalize_preserves_traces_and_shape(x):
    n = normalize(x)
    assert T(n) == T(x)
    assert _is_choice_of_sequences(n)


@laws_settings
@given(compositions(max_leaves=4))
def test_normalize_is_idempotent(x):
    once = normalize(x)
    assert normalize(once) == once


# ---------------------------------------------------------------------------
# Applying traces
# ---------------------------------------------------------------------------


def _toggle_onto() -> Ontology:
    onto = Ontology(
        classes={"On": ClassDef("On"), "Off": ClassDef("Off")},
        variables={"sw": VariableDef("sw", "box", "power", ("On", "Off"))},
    )
    on, off = State.make({"sw": "On"}), State.make({"sw": "Off"})
    onto.action_classes = {
        # TurnOn needs the switch off and leaves it on
        "TurnOn": ActionClassDef(
            "TurnOn",
            StateSpace.explicit({off}),
            StateSpace.explicit({on}),
            transform=(TransformRule(ENTIRE, (("sw", "On"),)),),
        ),
        "TurnOff": ActionClassDef(
            "TurnOff",
            StateSpace.explicit({on}),
            StateSpace.explicit({off}),
            transform=(TransformRule(ENTIRE, (("sw", "Off"),)),),
        ),
    }
    return onto


def test_apply_trace_runs_transformers_in_order():
    onto = _toggle_onto()
    off = State.make({"sw": "Off"})
    end = apply_trace(ActionTrace(("TurnOn", "TurnOff")), off, onto)
    assert end == off


def test_apply_trace_reports_the_first_infeasible_step():
    onto = _toggle_onto()
    on = State.make({"sw": "On"})
    out = apply_trace(ActionTrace(("TurnOn",)), on, onto)
    assert isinstance(out, Infeasible)
    assert out.step == 1 and out.action == "TurnOn" and out.state == on
    out2 = apply_trace(ActionTrace(("TurnOff", "TurnOff")), on, onto)
    assert isinstance(out2, Infeasible) and out2.step == 2


def test_apply_trace_rejects_unknown_actions():
    with pytest.raises(NameResolutionError):
        apply_trace(ActionTrace(("Ghost",)), State.make({"sw": "On"}), _toggle_onto())


def test_transformer_falls_back_to_final_space_constraints():
    onto = _toggle_onto()
    acd = ActionClassDef("Set", ENTIRE, StateSpace.concise({"sw": "On"}))
    assert acd.apply(State.make({"sw": "Off"}), onto) == State.make({"sw": "On"})


def _two_var_onto() -> Ontology:
    return Ontology(
        classes={c: ClassDef(c) for c in ("A", "B", "C", "D")},
        variables={
            "x1": VariableDef("x1", "pc", "hw", ("A", "B")),
            "x2": VariableDef("x2", "pc", "os", ("C", "D")),
        },
    )


def test_a_final_box_with_alternatives_falls_back_to_its_least_state():
    onto = _two_var_onto()
    final = StateSpace.concise((("x1", "B"), ("x2", "C"), ("x2", "D")))
    acd = ActionClassDef("Set", ENTIRE, final)
    assert acd.apply(State.make({"x1": "A", "x2": "D"}), onto) == State.make({"x1": "B", "x2": "C"})


def test_an_explicit_final_space_falls_back_to_its_least_state():
    # not a product: per-variable minima would give {x1=A, x2=C}, which is outside
    onto = _two_var_onto()
    final = StateSpace.explicit(
        {State.make({"x1": "A", "x2": "D"}), State.make({"x1": "B", "x2": "C"})}
    )
    acd = ActionClassDef("Set", ENTIRE, final)
    assert acd.apply(State.make({"x1": "B", "x2": "C"}), onto) == State.make({"x1": "A", "x2": "D"})


def test_an_empty_final_space_with_no_applicable_rule_is_a_schema_error():
    onto = _two_var_onto()
    acd = ActionClassDef("Stuck", ENTIRE, StateSpace.explicit(()))
    with pytest.raises(SchemaError, match="action Stuck: no transform rule applies"):
        validate_action_class(acd, onto)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_respects_precedence():
    assert render_composition(choice(seq(a, b), c)) == "a ; b \\/ c"
    assert render_composition(seq(choice(a, b), c)) == "(a \\/ b) ; c"
    assert render_composition(conj(a, b, strict=True)) == "a /\\_s b"
    guarded = ActionNode(
        SEQ, a, b, guard=StateSpace.concise({"sw": "On"}), guard_side="right"
    )
    assert render_composition(guarded) == "a ; [sw=On]b"
    box = StateSpace.concise((("sw", "On"), ("sw", "Off"), ("lid", "up")))
    alternatives = ActionNode(SEQ, a, b, guard=box, guard_side="right")
    assert render_composition(alternatives) == "a ; [lid=up, sw=Off|On]b"


# ---------------------------------------------------------------------------
# Load-time transformer contract
# ---------------------------------------------------------------------------

MACHINE = """
class Computer
class Notebook subclassOf Computer
var x maps pc.hw range {Computer, Notebook}
var y maps pc.power range {on, off}
"""

# A Notebook is switched on, any other computer off: on and off are not
# comparable, so the transformer is not monotone.
NOT_MONOTONE = """
transform A when {x=Notebook} set {y=on}
transform A when {} set {y=off}
"""


def test_an_output_outside_the_final_space_is_a_schema_error():
    text = MACHINE + "action A init {} final {y=on}\ntransform A when {} set {y=off}\n"
    with pytest.raises(SchemaError) as err:
        parse_ontology(text)
    assert str(err.value) == (
        "action A: transformer output {x=Computer, y=off} falls outside the final space"
    )


def test_a_transformer_that_breaks_the_order_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        parse_ontology(MACHINE + "action A init {} final {}\n" + NOT_MONOTONE)
    assert str(err.value) == (
        "action A: transformer is not monotone between {x=Computer, y=off} and {x=Notebook, y=off}"
    )


def test_the_final_space_error_comes_first_when_both_faults_hold():
    with pytest.raises(SchemaError) as err:
        parse_ontology(MACHINE + "action A init {} final {y=off}\n" + NOT_MONOTONE)
    assert str(err.value) == (
        "action A: transformer output {x=Notebook, y=on} falls outside the final space"
    )


def test_a_violation_two_variables_apart_is_named_by_one_step():
    text = """
class Computer
class Notebook subclassOf Computer
var x1 maps pc.hw range {Computer, Notebook}
var x2 maps pc.dock range {Computer, Notebook}
var y maps pc.power range {on, off}
action A init {} final {}
transform A when {x1=Notebook, x2=Notebook} set {y=on}
transform A when {} set {y=off}
"""
    with pytest.raises(SchemaError) as err:
        parse_ontology(text)
    assert str(err.value) == (
        "action A: transformer is not monotone between "
        "{x1=Computer, x2=Notebook, y=off} and {x1=Notebook, x2=Notebook, y=off}"
    )


def _error(check, acd, onto):
    """The SchemaError message the check raises, or None."""
    try:
        check(acd, onto)
    except SchemaError as err:
        return str(err)
    return None


def _agree(acd, onto):
    """Run the one-step check and the all-pairs reference, require the same
    verdict and the same error up to the state pair it names, and return
    both messages."""
    fast, slow = _error(validate_action_class, acd, onto), _error(validate_all_pairs, acd, onto)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast.split(" between ")[0] == slow.split(" between ")[0]
    return fast, slow


def _steps_apart(message: str) -> int:
    """How many variables the two states a not-monotone error names differ in."""
    first, second = (
        dict(item.split("=") for item in group.split(", "))
        for group in re.findall(r"\{(.*?)\}", message.split(" between ")[1])
    )
    return sum(first[var] != second[var] for var in first)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_step_check_agrees_with_all_pairs(rng):
    _agree(*random_transformer(rng))


def test_one_step_check_agrees_with_all_pairs_on_seeded_transformers():
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(3000):
        fast, slow = _agree(*random_transformer(rng))
        if fast is None:
            kinds["ok"] += 1
        elif "final space" in fast:
            kinds["final space"] += 1
        else:
            kinds["not monotone"] += 1
            assert _steps_apart(fast) == 1
            kinds["all-pairs names two variables apart"] += _steps_apart(slow) == 2
    assert all(kinds[k] for k in ("ok", "final space", "not monotone", "all-pairs names two variables apart"))


def _outcome(check, acd, onto):
    """(error class, message) of what the check raises, or None."""
    try:
        check(acd, onto)
    except PolcheckError as err:
        return type(err).__name__, str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_region_check_matches_the_enumeration(rng):
    acd, onto = random_transformer(rng)
    assert _outcome(validate_action_class, acd, onto) == _outcome(validate_enumerated, acd, onto)


def test_region_check_matches_the_enumeration_on_seeded_transformers():
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(3000):
        acd, onto = random_transformer(rng)
        outcome = _outcome(validate_action_class, acd, onto)
        assert outcome == _outcome(validate_enumerated, acd, onto), (acd, onto.variables)
        kinds[outcome and re.sub(r"\{.*", "", outcome[1])] += 1
        # a final box with alternatives makes the fallback its least state
        final = acd.final_space
        if final.is_concise and len(dict(final.fixed)) < len(final.fixed):
            kinds["least-state fallback"] += 1
    assert set(kinds) == {
        None,
        "action A: transformer output ",
        "action A: transformer is not monotone between ",
        "action A: no transform rule applies and the final space is empty",
        "least-state fallback",
    }, kinds


def _scale_ontology(transforms: str) -> str:
    """40 variables: 37 binary literals, two class-valued and a switch."""
    lines = ["class Computer", "class Notebook subclassOf Computer"]
    lines += [f"var v{i} maps box.p{i} range {{lo, hi}}" for i in range(37)]
    lines += [
        "var x1 maps pc.hw range {Computer, Notebook}",
        "var x2 maps pc.dock range {Computer, Notebook}",
        "var y maps pc.power range {on, off}",
        "action Top init {} final {}",
        "action A1 init {} final {}",
        "action A2 init {v0=lo} final {v0=hi}",
        "transform A2 when {} set {v0=hi}",
    ]
    return "\n".join(lines) + "\n" + transforms


def test_forty_variables_are_checked_without_building_a_state(monkeypatch, caplog):
    # 2^40 states: enumerating them would never finish
    def no_states(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr("polcheck.ontology._state_product", no_states)
    least = {f"v{i}": "hi" for i in range(37)}  # "hi" sorts before "lo"

    started = time.perf_counter()
    with caplog.at_level(logging.WARNING, logger="polcheck"):
        onto = parse_ontology(_scale_ontology(""))
    assert caplog.records == []
    assert time.perf_counter() - started < 1

    started = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        parse_ontology(_scale_ontology(
            "action A init {} final {}\n"
            "transform A when {x1=Notebook, x2=Notebook} set {y=on}\n"
            "transform A when {} set {y=off}\n"
        ))
    delta = State.make({**least, "x1": "Computer", "x2": "Notebook", "y": "off"})
    lowered = State.make({**least, "x1": "Notebook", "x2": "Notebook", "y": "off"})
    assert str(err.value) == (
        f"action A: transformer is not monotone between {render_state(delta)} and {render_state(lowered)}"
    )
    assert time.perf_counter() - started < 1

    started = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        parse_ontology(_scale_ontology(
            "action B init {v3=lo} final {x2=Notebook}\n"
            "transform B when {x1=Notebook} set {x2=Notebook}\n"
            "transform B when {} set {y=on}\n"
        ))
    gamma = State.make({**least, "v3": "lo", "x1": "Computer", "x2": "Computer", "y": "on"})
    assert str(err.value) == (
        f"action B: transformer output {render_state(gamma)} falls outside the final space"
    )
    assert time.perf_counter() - started < 1

    # basic-seq reads no state, so it is decided on boxes, witness included;
    # basic-strict-conj runs its transformers from each state and is refused
    # past the bound
    seq = ActionNode(SEQ, ActionLeaf("A1"), ActionLeaf("A2"))
    verdict = check_well_formed_complex(RefinementPattern("p1", "Top", (), seq, "basic-seq"), onto)
    assert [v.constraint_id for v in verdict.violations] == ["Δ2⊑Γ1"]
    conj = ActionNode(CONJ, ActionLeaf("A1"), ActionLeaf("A2"), strict=True)
    with pytest.raises(OracleScaleError) as err:
        check_well_formed_complex(RefinementPattern("p2", "Top", (), conj, "basic-strict-conj"), onto)
    assert str(err.value) == f"root: initial space has {2 ** 40} states, past the bound of 4096"


def _guard_regions_ontology(guards: int) -> str:
    """24 variables over {Computer, Notebook} and one transformer whose
    guards each name three variables no other guard names, then a catch-all:
    each guard triples the boxes of the states no earlier guard holds."""
    lines = ["class Computer", "class Notebook subclassOf Computer"]
    lines += [f"var v{i} maps pc{i}.hw range {{Computer, Notebook}}" for i in range(24)]
    lines.append("action A init {} final {}")
    for g in range(guards):
        names = ", ".join(f"v{3 * g + j}=Notebook" for j in range(3))
        lines.append(f"transform A when {{{names}}} set {{}}")
    lines.append("transform A when {} set {}")
    return "\n".join(lines) + "\n"


def test_guard_regions_past_the_box_bound_are_refused(tmp_path, capsys):
    # six guards give 1,093 boxes and load; eight give 9,841, past the bound,
    # and are refused before the contract is checked on any of them
    assert MAX_REGION_BOXES == 4096
    parse_ontology(_guard_regions_ontology(6))

    message = (
        "action A: its first 8 transform guards cut the initial space into 9841 boxes"
        " of declared values, past the bound of 4096"
    )
    started = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        parse_ontology(_guard_regions_ontology(8))
    assert time.perf_counter() - started < 1
    assert str(err.value) == message

    onto = tmp_path / "regions.onto"
    onto.write_text(_guard_regions_ontology(8))
    samples = Path(__file__).resolve().parents[1] / "samples"
    argv = ["validate", "--onto", onto, "--facts", samples / "audit.facts",
            "--high", samples / "audit_high.pol", "--patterns", samples / "audit.rp"]
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")

"""File-format parsing: ontologies, facts, refinement patterns, and current
states, plus the path wrappers that prefix errors with the file name."""

from pathlib import Path

import pytest

from polcheck.actions import CHOICE, CONJ, SEQ, ActionLeaf, TransformRule
from polcheck.errors import (
    NameResolutionError,
    ParseError,
    SchemaError,
    StructuralError,
    TaxonomyError,
)
from polcheck.loading import (
    load_facts,
    load_ontology,
    parse_facts,
    parse_ontology,
    parse_patterns,
    parse_state,
)
from polcheck.ontology import (
    ENTIRE,
    State,
    StateSpace,
    VariableDef,
    expand_space,
    value_refines,
)
from polcheck.policy import parse_policy
from polcheck.terms import ActionTerm, Atom, Const, Var, render

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


# ---------------------------------------------------------------------------
# Ontology files
# ---------------------------------------------------------------------------


def test_compose_ontology_parses_in_full():
    onto = parse_ontology((SAMPLES / "compose.onto").read_text())
    assert set(onto.classes) == {"Entity", "Employee", "Computer"}
    assert value_refines("Employee", "Entity", onto)
    assert not value_refines("Entity", "Employee", onto)
    assert onto.properties["type"].family == "hie"
    assert onto.properties["owns"].family == "rel"
    assert onto.variables["fwv"] == VariableDef("fwv", "nb1", "fwstate", ("none", "installed"))

    protect = onto.action_classes["Protect"]
    assert protect.params == ("target",)
    assert protect.init_space == StateSpace.concise({"fwv": "none", "avv": "none"})
    assert protect.final_space == StateSpace.concise(
        {"fwv": "installed", "avv": "installed"}
    )
    assert render(protect.effect) == "true"

    fw = onto.action_classes["InstallFirewall"]
    assert render(fw.effect) == "fwstate($target, installed)"
    assert fw.transform == (TransformRule(ENTIRE, (("fwv", "installed"),)),)


def test_audit_ontology_keeps_resources():
    onto = parse_ontology((SAMPLES / "audit.onto").read_text())
    assert onto.action_classes["Backup"].resources == ("tape1",)
    assert onto.action_classes["Encrypt"].resources == ()


TWO_VARS = """
class Entity
prop pa dom Entity range Entity
prop pb dom Entity range Entity
var a maps box.pa range {lo, hi}
var b maps box.pb range {on, off}
"""


def test_constraint_block_forms():
    onto = parse_ontology(
        TWO_VARS
        + "action X(t) init {} final {a=lo}\n"
        + "action Y(t) init {a=lo|hi, b=on} final {}\n"
    )
    x = onto.action_classes["X"]
    assert x.init_space == ENTIRE
    assert x.final_space == StateSpace.concise({"a": "lo"})
    # a multi-valued constraint stays a box, with the same two states
    y = onto.action_classes["Y"]
    assert y.init_space == StateSpace.concise((("a", "hi"), ("a", "lo"), ("b", "on")))
    assert expand_space(y.init_space, onto) == {
        State((("a", "lo"), ("b", "on"))),
        State((("a", "hi"), ("b", "on"))),
    }


ONTO_ERRORS = [
    ("class A\nclass A\n", SchemaError, "duplicate class"),
    (
        "class A\nprop p dom A range A\nprop p dom A range A\n",
        SchemaError,
        "duplicate property",
    ),
    ("class A\nprop mustdo dom A range A\n", SchemaError, "reserved"),
    ("class A\nprop p dom A range A family foo\n", ParseError, "family must be hie or rel"),
    (
        TWO_VARS + "var a maps box.pa range {lo}\n",
        SchemaError,
        "duplicate variable",
    ),
    (
        TWO_VARS + "action X init {} final {}\nvar c maps box.pa range {lo}\n",
        ParseError,
        "variable table must be declared before any action",
    ),
    ("action X init {} final {}\naction X init {} final {}\n", SchemaError, "duplicate action"),
    (TWO_VARS + "action X init {c=lo} final {}\n", SchemaError, "undeclared variable 'c'"),
    (TWO_VARS + "action X init {a=zz} final {}\n", SchemaError, "outside the declared range"),
    (
        TWO_VARS + "action X init {a=hi, a=lo} final {}\n",
        SchemaError,
        "'a' is listed twice in one block; write alternatives as a=v1",
    ),
    ("var c maps box.pc range {lo, hi, lo}\n", SchemaError, "'lo' is listed twice in the range"),
    ("transform X when {} set {}\n", SchemaError, "undeclared action"),
    (
        TWO_VARS + "action X init {} final {}\ntransform X when {} set {a=lo|hi}\n",
        SchemaError,
        "takes one value",
    ),
    (
        TWO_VARS + "action X init {} final {}\ntransform X when {} set {c=lo}\n",
        SchemaError,
        "undeclared 'c'",
    ),
    (
        TWO_VARS + "action X init {} final {}\ntransform X when {} set {a=zz}\n",
        SchemaError,
        "outside the range",
    ),
    ("widget A\n", ParseError, "expected a declaration keyword"),
]


@pytest.mark.parametrize("text,exc,needle", ONTO_ERRORS, ids=[e[2] for e in ONTO_ERRORS])
def test_ontology_schema_errors(text, exc, needle):
    with pytest.raises(exc, match=needle):
        parse_ontology(text)


# ---------------------------------------------------------------------------
# Facts files
# ---------------------------------------------------------------------------


def test_facts_emit_type_and_property_atoms():
    onto = parse_ontology((SAMPLES / "compose.onto").read_text())
    ds = parse_facts((SAMPLES / "compose.facts").read_text(), onto)
    assert set(ds.objects) == {"dana", "nb1"}
    assert ds.objects["nb1"].props == (("fwstate", "none"), ("avstate", "none"))
    for atom in (
        Atom("type", (Const("dana"), Const("Employee"))),
        Atom("fwstate", (Const("nb1"), Const("none"))),
        Atom("avstate", (Const("nb1"), Const("none"))),
        Atom("owns", (Const("dana"), Const("nb1"))),
    ):
        assert atom in ds.base_atoms
    assert ds.has_object("nb1")
    assert not ds.has_object("nb2")


def test_done_facts_project_to_done_act():
    ds = parse_facts("done(bob, report1, Backup((target,report1)), t1).")
    action = ActionTerm("Backup", (("target", Const("report1")),))
    assert Atom("done", (Const("bob"), Const("report1"), action, Const("t1"))) in ds.base_atoms
    assert Atom("done_act", (Const("bob"), action)) in ds.base_atoms


def test_facts_are_checked_against_the_ontology():
    onto = parse_ontology("class A\nprop p dom A range A\n")
    with pytest.raises(SchemaError, match="undeclared class"):
        parse_facts("obj x : B\n", onto)
    with pytest.raises(SchemaError, match="undeclared property"):
        parse_facts("obj x : A {q=1}\n", onto)
    # without an ontology the same text is taken at face value
    ds = parse_facts("obj x : B\nobj y : A {q=1}\n")
    assert set(ds.objects) == {"x", "y"}


def test_facts_reject_duplicates_and_open_terms():
    with pytest.raises(SchemaError, match="duplicate object"):
        parse_facts("obj x : A\nobj x : A\n")
    with pytest.raises(ParseError, match="must be ground"):
        parse_facts("owns(x, $y).")


# ---------------------------------------------------------------------------
# Pattern files
# ---------------------------------------------------------------------------


def _compose_onto():
    return parse_ontology((SAMPLES / "compose.onto").read_text())


def test_protect_pattern_round_trip():
    onto = parse_ontology((SAMPLES / "protect.onto").read_text())
    (pat,) = parse_patterns((SAMPLES / "protect.rp").read_text(), onto)
    assert pat.pattern_id == "p1"
    assert pat.root == "Protect"
    assert pat.root_bindings == (("target", Var("x")),)
    assert pat.declared_type == "basic-flex-conj"
    assert pat.body.op == CONJ
    assert pat.body.left == ActionLeaf("InstallFirewall", (("target", Var("x")),))
    assert not pat.body.strict
    assert pat.body.guard is None


def test_pattern_ids_count_up():
    onto = parse_ontology((SAMPLES / "nested.onto").read_text())
    patterns = parse_patterns((SAMPLES / "nested.rp").read_text(), onto)
    assert [p.pattern_id for p in patterns] == ["p1", "p2", "p3"]
    assert [p.root for p in patterns] == ["Audit", "Scan", "Review"]


PREC_ONTO = parse_ontology(
    "class Entity\nprop type dom Entity range Entity family hie\n"
    + "action R(target) init {} final {}\n"
    + "".join(f"action {n} init {{}} final {{}}\n" for n in "ABCDLM")
)


def test_choice_binds_loosest_and_labels_stick():
    (pat,) = parse_patterns(
        "refine R(target:$x) := (A ; B):L \\/ (C ; D):M type=basic-flex-choice", PREC_ONTO
    )
    body = pat.body
    assert body.op == CHOICE and body.label is None
    assert body.left.op == SEQ and body.left.label == "L"
    assert body.left.left == ActionLeaf("A", ())
    assert body.right.op == SEQ and body.right.label == "M"
    assert body.right.right == ActionLeaf("D", ())


def test_strict_operator_suffix():
    (pat,) = parse_patterns("refine R := A \\/_s B type=basic-strict-choice", PREC_ONTO)
    assert pat.body.op == CHOICE and pat.body.strict


def test_guards_attach_to_one_operand():
    onto = _compose_onto()
    (pat,) = parse_patterns((SAMPLES / "compose.rp").read_text(), onto)
    assert pat.body.op == CONJ
    assert pat.body.guard == StateSpace.concise({"avv": "none"})
    assert pat.body.guard_side == "right"

    (pat,) = parse_patterns(
        "refine Protect(target:$x) := [fwv=none] InstallFirewall(target:$x)"
        " /\\ InstallAntiVirus(target:$x) type=adv-flex-conj",
        onto,
    )
    assert pat.body.guard == StateSpace.concise({"fwv": "none"})
    assert pat.body.guard_side == "left"


PATTERN_ERRORS = [
    (
        "refine Protect(target:$x) := [fwv=none] InstallFirewall(target:$x)"
        " /\\ [avv=none] InstallAntiVirus(target:$x) type=adv-flex-conj",
        ParseError,
        "at most one operand",
    ),
    (
        "refine Protect(target:$x) := [fwv=none] (InstallFirewall(target:$x)"
        " ; InstallAntiVirus(target:$x)):Protect type=adv-seq",
        ParseError,
        "guard must attach to an operand",
    ),
    (
        "refine Protect(target:$x) := (InstallFirewall(target:$x)):Protect"
        " ; InstallAntiVirus(target:$x) type=basic-seq",
        ParseError,
        "only a composite operand",
    ),
    (
        "refine Protect(target:$x) := [zz=none] InstallFirewall(target:$x)"
        " /\\ InstallAntiVirus(target:$x) type=adv-flex-conj",
        SchemaError,
        "undeclared variable 'zz'",
    ),
    (
        "refine Protect(target:$x) := InstallFirewall(target:$x)"
        " /\\ InstallAntiVirus(target:$x) type=banana",
        TaxonomyError,
        "unknown composition type",
    ),
    (
        "refine Protect(target:$x) := InstallFirewall(target:$x)"
        " /\\ InstallAntiVirus(target:$x) type=basic-seq",
        TaxonomyError,
        "declared basic-seq but body is",
    ),
    (
        "refine Protect(target:$x) := Reformat(target:$x)"
        " /\\ InstallAntiVirus(target:$x) type=basic-flex-conj",
        NameResolutionError,
        "undeclared action 'Reformat'",
    ),
    (
        "refine Nonesuch(target:$x) := InstallFirewall(target:$x)"
        " /\\ InstallAntiVirus(target:$x) type=basic-flex-conj",
        NameResolutionError,
        "not a declared action",
    ),
]


@pytest.mark.parametrize(
    "text,exc,needle", PATTERN_ERRORS, ids=[e[2] for e in PATTERN_ERRORS]
)
def test_pattern_errors(text, exc, needle):
    with pytest.raises(exc, match=needle):
        parse_patterns(text, _compose_onto())


def test_inner_compositions_must_carry_action_labels():
    with pytest.raises(StructuralError, match="must be labeled"):
        parse_patterns("refine R := (A ; B) \\/ (C ; D):M type=basic-flex-choice", PREC_ONTO)
    with pytest.raises(NameResolutionError, match="undeclared action label"):
        parse_patterns("refine R := (A ; B):Zed \\/ (C ; D):M type=basic-flex-choice", PREC_ONTO)


# ---------------------------------------------------------------------------
# Current-state files
# ---------------------------------------------------------------------------


def test_state_file_holds_atoms_and_one_assignment():
    onto = _compose_onto()
    sigma = parse_state(
        "state {fwv=none, avv=installed}.\nfwstate(nb1, none).\n", onto
    )
    assert sigma.state == State.make({"fwv": "none", "avv": "installed"})
    assert sigma.atoms == frozenset({Atom("fwstate", (Const("nb1"), Const("none")))})

    atoms_only = parse_state("avstate(nb1, installed).", onto)
    assert atoms_only.state is None


STATE_ERRORS = [
    ("state {fwv=none}.", SchemaError, "missing: avv"),
    ("state {zz=none, fwv=none, avv=none}.", SchemaError, "state: assignment to undeclared"),
    ("state {fwv=sideways, avv=none}.", SchemaError, "outside the range"),
    ("state {fwv=none|installed, avv=none}.", SchemaError, "state: an assignment takes one value"),
    ("state {fwv=none, fwv=installed, avv=none}.", SchemaError, "'fwv' is listed twice"),
    (
        "state {fwv=none, avv=none}. state {fwv=none, avv=none}.",
        ParseError,
        "at most one state block",
    ),
]


@pytest.mark.parametrize("text,exc,needle", STATE_ERRORS, ids=[e[2] for e in STATE_ERRORS])
def test_state_file_errors(text, exc, needle):
    with pytest.raises(exc, match=needle):
        parse_state(text, _compose_onto())


def test_state_and_transform_assignments_are_checked_alike():
    onto = _compose_onto()
    cases = {
        "{fwv=none|installed, avv=none}": "{}: an assignment takes one value",
        "{zz=none, fwv=none, avv=none}": "{}: assignment to undeclared 'zz'",
        "{fwv=sideways, avv=none}": "{}: value 'sideways' is outside the range of 'fwv'",
    }
    for block, message in cases.items():
        with pytest.raises(SchemaError) as e:
            parse_state(f"state {block}.", onto)
        assert str(e.value) == message.format("state")
        text = (SAMPLES / "compose.onto").read_text() + f"transform Protect when {{}} set {block}\n"
        with pytest.raises(SchemaError) as e:
            parse_ontology(text)
        assert str(e.value) == message.format("transform Protect")


PROTECT_PATTERN = "refine Protect(target:$x)\n    := {}\n    type=basic-flex-conj\n"

POSITIONED = [
    (parse_policy, "env k (.", "expected a value, found '('", 1, 7),
    (parse_facts, "p($x).\nq(a).\n", "fact p must be ground", 1, 1),
    (lambda text: parse_state(text, _compose_onto()), "owns(a).\n  p($x).\nq(a).\n", "fact p must be ground", 2, 3),
    (parse_ontology, "class A\nprop p dom A range A family foo\nclass B\n", "family must be hie or rel, not 'foo'", 2, 29),
    (
        lambda text: parse_state(text, _compose_onto()),
        "state {fwv=none, avv=none}.\n state {fwv=none, avv=none}.\n",
        "a state file holds at most one state block",
        2,
        2,
    ),
    (
        parse_ontology,
        TWO_VARS + "action X init {} final {}\n  var c maps box.pa range {lo}\n",
        "the variable table must be declared before any action class",
        8,
        3,
    ),
    (
        lambda text: parse_patterns(text, _compose_onto()),
        PROTECT_PATTERN.format("(InstallFirewall(target:$x)):L /\\ InstallAntiVirus(target:$x)"),
        "only a composite operand can carry a label",
        2,
        37,
    ),
    (
        lambda text: parse_patterns(text, _compose_onto()),
        PROTECT_PATTERN.format("[avv=none] InstallFirewall(target:$x) /\\ [avv=none] InstallAntiVirus(target:$x)"),
        "at most one operand of a composition may carry a guard",
        2,
        49,
    ),
    (
        lambda text: parse_patterns(text, _compose_onto()),
        PROTECT_PATTERN.format("[avv=none] InstallFirewall(target:$x)"),
        "a guard must attach to an operand of a composition",
        2,
        8,
    ),
]


@pytest.mark.parametrize(
    "parse,text,message,line,col",
    POSITIONED,
    ids=[
        "env-value",
        "non-ground-fact",
        "non-ground-state-atom",
        "family",
        "second-state-block",
        "late-var",
        "label-on-a-leaf",
        "second-guard",
        "guard-on-the-whole-body",
    ],
)
def test_an_error_points_at_its_offending_token(parse, text, message, line, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.line, e.value.column) == (f"line {line}, col {col}: {message}", line, col)


# ---------------------------------------------------------------------------
# Path wrappers
# ---------------------------------------------------------------------------


def test_load_errors_name_the_file(tmp_path):
    bad = tmp_path / "bad.onto"
    bad.write_text("class A\nclass A\n")
    with pytest.raises(SchemaError, match="bad.onto"):
        load_ontology(bad)
    facts = tmp_path / "bad.facts"
    facts.write_text("obj x : A\nobj x : A\n")
    with pytest.raises(SchemaError, match="bad.facts"):
        load_facts(facts)


def test_load_ontology_reads_samples():
    onto = load_ontology(SAMPLES / "protect.onto")
    assert "Protect" in onto.action_classes

"""Policy parsing, static validation, and the stratification table."""

import re

import pytest

from polcheck.errors import ParseError, PolicyError
from polcheck.ontology import Ontology, PropertyDef
from polcheck.policy import (
    Policy,
    check_stratification,
    head_stratum,
    parse_policy,
    predicate_kind,
    to_text,
    validate_high_level,
)
from polcheck.terms import Atom, Const, Formula, Signed, Var, render

from policy_fixtures import FIXTURE, FIXTURE_ROWS, mutations


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_round_trip_through_text():
    p = parse_policy(FIXTURE)
    assert parse_policy(to_text(p)) == p


def test_scope_env_and_ids():
    p = parse_policy(
        """
        scope acme, branch_two.
        env horizon 30.
        env owner "security team".
        hasDispensation(emp1, Protect((target, pc1))).
        % a comment line
        hasObligation(emp1, Protect((target, pc1)), true).
        """
    )
    assert p.scope == ("acme", "branch_two")
    assert p.environment == (("horizon", "30"), ("owner", "security team"))
    assert [r.rule_id for r in p.rules] == ["r1", "r2"]
    assert not p.rules[0].body  # a fact
    assert p.rule("r2").head.pred == "hasObligation"
    with pytest.raises(PolicyError):
        p.rule("r9")


def test_argument_kinds_parse_into_the_right_ast():
    p = parse_policy(
        'cando(pc1, emp1, +Protect((target, pc1), (level, "high"))).\n'
        "mustdo(emp1, $a, hasInstalled(pc1, $y) & ~broken($y)) :- hasObligation(emp1, $a, $q).\n"
    )
    signed = p.rules[0].head.args[2]
    assert isinstance(signed, Signed) and signed.sign == "+"
    assert signed.term.binding("level") == Const("high", quoted=True)
    formula = p.rules[1].head.args[2]
    assert isinstance(formula, Formula)
    assert [c.negated for c in formula.conjuncts] == [False, True]
    assert render(formula) == "hasInstalled(pc1, $y) & ~broken($y)"
    assert p.rules[1].body[0].atom.args[2] == Var("q")


def test_true_and_false_are_formulas():
    p = parse_policy("hasObligation(emp1, act1, true).\nmustdo(emp1, act1, false).\n")
    assert p.rules[0].head.args[2].is_true
    assert p.rules[1].head.args[2].is_false


@pytest.mark.parametrize(
    "bad",
    [
        "hasObligation(emp1, act1).",  # arity
        "cando(pc1, emp1, Protect((target, pc1))).",  # missing sign
        "mustdo(emp1, +act1, true).",  # sign outside its slot
        "hasDispensation(emp1, hasInstalled(pc1, fw1) & true).",  # stray formula
        "hasObligation(emp1, act1, +fw1).",  # formula slot holds a signed term
        "assigned(emp1, pc1, extra).",  # property predicates are binary
        "over_AS.",  # override needs arguments
        "env horizon &.",  # env value must be a plain token
        "hasObligation(emp1, act1, true)",  # missing terminator
    ],
)
def test_malformed_statements_raise(bad):
    with pytest.raises(ParseError):
        parse_policy(bad)


@pytest.mark.parametrize(
    "text,message",
    [
        ("hasObligation(emp1, act1, archived(+fw1)).", "col 36: expected a term, found '+'"),
        ("mustdo(emp1, act1, archived(pc1, ~lost(pc1))).", "col 34: expected a term, found '~'"),
        ("mustdo(emp1, act1, archived(Backup((target, true & x))))).", "col 50: expected ')', found '&'"),
    ],
    ids=["signed", "formula", "formula-in-an-action-term"],
)
def test_postcondition_atoms_take_plain_terms_where_they_are_written(text, message):
    # a formula's atoms are read as plain terms, so no signed action or
    # formula reaches the shape checks inside one
    with pytest.raises(ParseError, match=rf"^line 1, {re.escape(message)}$"):
        parse_policy(text)


def test_unknown_predicates_need_an_ontology_to_be_rejected():
    onto = Ontology(properties={"assigned": PropertyDef("assigned")})
    text = "hasObligation($e, act1, true) :- helper($e, pc1).\n"
    parse_policy(text)  # lenient without an ontology
    with pytest.raises(ParseError):
        parse_policy(text, onto)


# ---------------------------------------------------------------------------
# Safety
# ---------------------------------------------------------------------------


def test_unsafe_head_variable_is_rejected():
    with pytest.raises(PolicyError, match=r"unsafe head variable\(s\) \$m"):
        parse_policy("hasDispensation(emp1, $m) :- exempt(emp1, pc1).")


def test_formula_variables_are_existential_not_unsafe():
    parse_policy("hasObligation($e, act1, hasInstalled($m, $y)) :- assigned($e, pc1).")


def test_negated_literal_needs_bound_variables():
    with pytest.raises(PolicyError, match=r"negated literal uses unbound"):
        parse_policy("hasDispensation($e, act1) :- assigned($e, pc1) & ~exempt($e, $m).")


def test_negative_do_rule_is_exempt_from_safety():
    parse_policy("do($o, $s, -$a) :- ~do($o, $s, +$a).")


# ---------------------------------------------------------------------------
# Classification helpers
# ---------------------------------------------------------------------------


def test_head_stratum_covers_the_do_split():
    def head(text):
        return parse_policy(text).rules[0].head

    assert head_stratum(head("do(o1, s1, +a1).")) == 7
    assert head_stratum(head("do(o1, s1, -a1).")) == 8
    assert head_stratum(head("mustdo(s1, a1, true).")) == 4
    assert head_stratum(head("assigned(o1, s1).")) == 0


def test_predicate_kind_uses_declared_families():
    onto = Ontology(
        properties={
            "partOf": PropertyDef("partOf", family="hie"),
            "assigned": PropertyDef("assigned", family="rel"),
        }
    )
    assert predicate_kind("partOf", onto) == "hie"
    assert predicate_kind("assigned", onto) == "rel"
    assert predicate_kind("done_act") == "done"
    assert predicate_kind("over_AO") == "over"
    assert predicate_kind("mystery") == "rel"  # lenient without an ontology
    with pytest.raises(ParseError):
        predicate_kind("mystery", onto)


def test_partition_groups_the_three_families():
    # the stratification rows split the rules into the obligation family
    # (rows 1-3), the authorization family (rows 5-8) and the decision and
    # integrity rules (rows 4 and 9)
    p = parse_policy(FIXTURE)
    rows = dict(check_stratification(p).strata)
    families = {}
    for r in p.rules:
        family = "H" if rows[r.rule_id] <= 3 else "A" if 5 <= rows[r.rule_id] <= 8 else "M"
        families.setdefault(family, set()).add(r.head.pred)
    assert families["H"] <= {
        "hasObligation",
        "hasDispensation",
        "derhasObligation",
        "derhasDispensation",
    }
    assert families["A"] == {"cando", "dercando", "do"}
    assert families["M"] == {"mustdo", "error"}
    assert len(rows) == len(p.rules)


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


def test_reference_policy_is_stratified():
    result = check_stratification(parse_policy(FIXTURE))
    assert result.ok
    assert not result.violations
    strata = dict(result.strata)
    for rid, row in FIXTURE_ROWS.items():
        assert strata[rid] == row


@pytest.mark.parametrize(
    "label,text,rule_id,row", list(mutations()), ids=[m[0] for m in mutations()]
)
def test_each_single_edit_is_rejected_with_its_row(label, text, rule_id, row):
    result = check_stratification(parse_policy(text))
    assert not result.ok
    hits = [v for v in result.violations if v.rule_id == rule_id]
    assert hits, f"{label}: no violation reported for {rule_id}"
    assert {v.row for v in hits} == {row}, label


def test_violation_messages_name_the_offender():
    text = FIXTURE.replace(
        "cando($o, $s, +$a) :- mustdo($s, $a, $q) & acts_on($a, $o).",
        "cando($o, $s, +$a) :- mustdo($s, $a, $q) & acts_on($a, $o) & do($o, $s2, +$a2).",
    )
    (v,) = check_stratification(parse_policy(text)).violations
    assert v.row == 5 and "found do" in v.message
    assert v.literal == "do($o, $s2, +$a2)"

    text2 = FIXTURE.replace(
        "do($o, $s, -$a) :- ~do($o, $s, +$a).",
        "do($o, $s, -$a) :- ~do($o, $s, -$a).",
    )
    (v2,) = check_stratification(parse_policy(text2)).violations
    assert "just the one literal" in v2.message


def test_row_nine_message_lists_every_admitted_kind():
    text = FIXTURE.replace(
        "error :- mustdo($s, $a, $q) & do($o, $s, -$a) & acts_on($a, $o).",
        "error :- mustdo($s, $a, $q) & do($o, $s, -$a) & over_AS($o, $s, $a).",
    )
    (v,) = check_stratification(parse_policy(text)).violations
    assert v.message == (
        "row 9 bodies admit mustdo, hasObligation, hasDispensation, derhasObligation, "
        "derhasDispensation, do, cando, dercando, done, hie- and rel- literals; found over_AS"
    )


@pytest.mark.parametrize(
    "text,row,var",
    [
        ("derhasObligation($s, Wrap((inner,$a)), $q) :- derhasObligation($s, $a, $q).", 3, "a"),
        (
            "derhasDispensation($s, Wrap((inner,$a))) :- derhasDispensation($s, Wrap((x,$b))) "
            "& derhasDispensation($s, $a).",
            2,
            "a",
        ),
        ("dercando(Wrap((inner,$o)), $s, +$a) :- dercando($o, $s, +$a).", 6, "o"),
    ],
)
def test_term_growing_recursion_is_a_row_violation(text, row, var):
    (v,) = check_stratification(parse_policy(text)).violations
    assert (v.row, v.message) == (
        row,
        f"row {row}: the head nests ${var} deeper than the recursive "
        f"literal {v.literal} does, so its terms would grow without bound",
    )


def test_recursion_that_keeps_or_shrinks_its_terms_is_stratified():
    text = (
        "derhasObligation($s2, $a, $q) :- derhasObligation($s1, $a, $q) & type($s2, $s1).\n"
        "derhasObligation($s, $b, $q) :- derhasObligation($s, Wrap((inner,$b)), $q).\n"
        "derhasObligation($s, Wrap((inner,$b)), $q) :- derhasObligation($s, Wrap((inner,Wrap((x,$b)))), $q).\n"
        "dercando($o, $s, +$a) :- dercando($o, $s2, +$a) & type($s, $s2).\n"
    )
    assert check_stratification(parse_policy(text)).ok


# ---------------------------------------------------------------------------
# The high-level restriction
# ---------------------------------------------------------------------------


def test_high_level_policies_cannot_author_positive_grants():
    p = parse_policy(
        "hasObligation(emp1, Protect((target, pc1)), true).\n"
        "do($o, $s, -$a) :- ~do($o, $s, +$a).\n"
        "cando(pc1, emp1, +act1).\n"
        "dercando($o, $s, +$a) :- dercando($o2, $s, +$a) & part_of($o, $o2).\n"
    )
    violations = validate_high_level(p)
    assert [v.rule_id for v in violations] == ["r3", "r4"]
    assert "positive grants are derived" in violations[0].message
    assert validate_high_level(Policy()) == ()

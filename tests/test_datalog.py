"""Stratified bottom-up evaluation, grounding, and derivation reporting."""

import random

import pytest

from polcheck.datalog import (
    Model,
    check_integrity,
    decision_view,
    derivation_tree,
    evaluate,
    ground,
    render_derivation,
    render_model,
)
from polcheck.errors import PolicyError
from polcheck.ontology import DataSystem
from polcheck.policy import parse_policy
from polcheck.terms import ActionTerm, Atom, Const, Formula, Literal, Signed, render, sort_key

from oracle_datalog import naive_model, naive_supports, random_program


def C(name):
    return Const(name)


def protect(machine):
    return ActionTerm("Protect", (("target", C(machine)),))


TRUE = Formula()


# ---------------------------------------------------------------------------
# The assignment fixture: one obligation rule, three assignments
# ---------------------------------------------------------------------------

ASSIGN_POLICY = (
    "hasObligation($e, Protect((target, $m)),"
    " hasInstalled($m, $y) & type($y, Firewall)) :- assigned($e, $m).\n"
)

ASSIGN_FACTS = DataSystem(
    base_atoms=frozenset(
        {
            Atom("assigned", (C("emp1"), C("pc1"))),
            Atom("assigned", (C("emp2"), C("pc2"))),
            Atom("assigned", (C("emp1"), C("pc3"))),
        }
    )
)


def test_one_obligation_per_assignment():
    model = evaluate(parse_policy(ASSIGN_POLICY), ASSIGN_FACTS)
    derived = sorted(
        render(a) for a in model.atoms if a.pred == "hasObligation"
    )
    assert derived == [
        "hasObligation(emp1, Protect((target,pc1)), hasInstalled(pc1, $y) & type($y, Firewall))",
        "hasObligation(emp1, Protect((target,pc3)), hasInstalled(pc3, $y) & type($y, Firewall))",
        "hasObligation(emp2, Protect((target,pc2)), hasInstalled(pc2, $y) & type($y, Firewall))",
    ]
    assert model.by_stratum[1] == frozenset(
        a for a in model.atoms if a.pred == "hasObligation"
    )


def test_grounding_instantiates_the_rule_per_assignment():
    p = parse_policy(ASSIGN_POLICY)
    instances = ground(p, ASSIGN_FACTS)
    assert len(instances) == 3
    assert all(r.rule_id == "r1" for r in instances)
    assert [render(r.body[0].atom) for r in instances] == [
        "assigned(emp1, pc1)",
        "assigned(emp1, pc3)",
        "assigned(emp2, pc2)",
    ]


# ---------------------------------------------------------------------------
# A fixture exercising every stratum
# ---------------------------------------------------------------------------

FULL_POLICY = """
hasObligation($e, Protect((target, $m)), true) :- assigned($e, $m).
hasDispensation($e, Protect((target, $m))) :- exempt($e, $m).
derhasObligation($s2, $a, $q) :- hasObligation($s1, $a, $q) & over_AS($s2, $s1, $a).
mustdo($s, $a, $q) :- hasObligation($s, $a, $q) & ~hasDispensation($s, $a).
mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~hasDispensation($s, $a).
cando($o, $s, +$a) :- mustdo($s, $a, $q) & target_of($a, $o).
dercando($g, $s, +$a) :- cando($o, $s, +$a) & part_of($o, $g).
dercando($g2, $s, +$a) :- dercando($g, $s, +$a) & part_of($g, $g2).
do($o, $s, +$a) :- cando($o, $s, +$a).
do($o, $s, -$a) :- ~do($o, $s, +$a).
error :- do($o, $s, -$a) & mustdo($s, $a, $q) & target_of($a, $o).
"""

FULL_FACTS = DataSystem(
    base_atoms=frozenset(
        {
            Atom("assigned", (C("emp1"), C("pc1"))),
            Atom("assigned", (C("emp2"), C("pc2"))),
            Atom("exempt", (C("emp2"), C("pc2"))),
            Atom("over_AS", (C("boss"), C("emp1"), protect("pc1"))),
            Atom("target_of", (protect("pc1"), C("pc1"))),
            Atom("target_of", (protect("pc2"), C("pc2"))),
            Atom("part_of", (C("pc1"), C("lab"))),
            Atom("part_of", (C("lab"), C("site"))),
        }
    )
)


def full_model():
    return evaluate(parse_policy(FULL_POLICY), FULL_FACTS)


def assert_supports_match_the_oracle(p, atoms, model):
    """Each head's supports, as a set, and the error witnesses agree with the
    oracle's grounding of the finished model; heads come in sorted order."""
    expected = naive_supports(p, atoms)
    assert {head: set(sups) for head, sups in model.supports.items()} == expected
    assert list(model.supports) == sorted(model.supports, key=sort_key)
    errors = {sup for head, sups in expected.items() if head.pred == "error" for sup in sups}
    assert set(model.error_witnesses) == errors
    assert len(model.error_witnesses) == len(errors)


def test_every_stratum_derives_what_the_hand_calculation_says():
    model = full_model()
    p1 = protect("pc1")

    def of(pred):
        return {a for a in model.atoms if a.pred == pred}

    assert of("hasObligation") == {
        Atom("hasObligation", (C("emp1"), p1, TRUE)),
        Atom("hasObligation", (C("emp2"), protect("pc2"), TRUE)),
    }
    assert of("hasDispensation") == {Atom("hasDispensation", (C("emp2"), protect("pc2")))}
    assert of("derhasObligation") == {Atom("derhasObligation", (C("boss"), p1, TRUE))}
    # emp2's obligation is dispensed with; the override carries emp1's to boss
    assert of("mustdo") == {
        Atom("mustdo", (C("emp1"), p1, TRUE)),
        Atom("mustdo", (C("boss"), p1, TRUE)),
    }
    assert of("cando") == {
        Atom("cando", (C("pc1"), C("emp1"), Signed("+", p1))),
        Atom("cando", (C("pc1"), C("boss"), Signed("+", p1))),
    }
    assert of("dercando") == {
        Atom("dercando", (C(g), C(s), Signed("+", p1)))
        for g in ("lab", "site")
        for s in ("emp1", "boss")
    }
    # positive do only where cando holds; negative do on every other triple
    assert of("do") == {
        Atom("do", (C("pc1"), C("emp1"), Signed("+", p1))),
        Atom("do", (C("pc1"), C("boss"), Signed("+", p1))),
    } | {
        Atom("do", (C(g), C(s), Signed("-", p1)))
        for g in ("lab", "site")
        for s in ("emp1", "boss")
    }
    assert not model.error_witnesses
    assert check_integrity(model).ok


def test_rule_order_does_not_change_the_model():
    p = parse_policy(FULL_POLICY)
    base = evaluate(p, FULL_FACTS).atoms
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(p.rules)
        rng.shuffle(shuffled)
        assert evaluate(p.with_rules(shuffled), FULL_FACTS).atoms == base


def test_full_fixture_matches_the_naive_oracle():
    p = parse_policy(FULL_POLICY)
    expected = naive_model(p, FULL_FACTS.base_atoms)
    model = evaluate(p, FULL_FACTS)
    assert model.atoms == expected
    assert_supports_match_the_oracle(p, expected, model)


def test_decision_view_collects_both_signs_sorted():
    view = decision_view(full_model())
    assert [render(a) for a in view.mustdo_atoms] == [
        "mustdo(boss, Protect((target,pc1)), true)",
        "mustdo(emp1, Protect((target,pc1)), true)",
    ]
    assert len(view.do_atoms) == 6
    assert list(view.do_atoms) == sorted(view.do_atoms, key=render)


# ---------------------------------------------------------------------------
# Prohibition defaults (row 8)
# ---------------------------------------------------------------------------


def test_negative_do_ranges_over_authorization_triples_only():
    p = parse_policy(
        "cando(o1, s1, +act1).\n"
        "cando(o2, s1, +act2).\n"
        "do(o1, $s, +act1) :- cando(o1, $s, +act1).\n"
        "do($o, $s, -$a) :- ~do($o, $s, +$a).\n"
    )
    model = evaluate(p, DataSystem())
    dos = {render(a) for a in model.atoms if a.pred == "do"}
    assert dos == {"do(o1, s1, +act1)", "do(o2, s1, -act2)"}


def test_ground_negative_do_needs_no_triples():
    p = parse_policy("do(o9, s9, -act9) :- ~do(o9, s9, +act9).")
    model = evaluate(p, DataSystem())
    assert {render(a) for a in model.atoms} == {"do(o9, s9, -act9)"}


def test_error_rule_reports_witnesses():
    p = parse_policy(
        "mustdo(s1, act1, true).\n"
        "cando(o1, s1, +act1).\n"
        "do($o, $s, -$a) :- ~do($o, $s, +$a).\n"
        "error :- mustdo($s, $a, $q) & do($o, $s, -$a).\n"
    )
    model = evaluate(p, DataSystem())
    assert Atom("error", ()) in model.atoms
    assert_supports_match_the_oracle(p, naive_model(p, ()), model)
    result = check_integrity(model)
    assert not result.ok
    (witness,) = result.witnesses
    assert witness[0] == "r4"
    assert [render(l.atom) for l in witness[1]] == [
        "mustdo(s1, act1, true)",
        "do(o1, s1, -act1)",
    ]


def test_unstratified_policies_are_refused():
    p = parse_policy("mustdo($s, $a, $q) :- mustdo($s, $a, $q) & cando($o, $s, +$a).")
    with pytest.raises(PolicyError, match="not stratified"):
        evaluate(p, DataSystem())


# ---------------------------------------------------------------------------
# Derivation trees
# ---------------------------------------------------------------------------


def test_derivation_tree_explains_a_mustdo():
    model = full_model()
    tree = derivation_tree(model, Atom("mustdo", (C("emp1"), protect("pc1"), TRUE)))
    assert render_derivation(tree) == (
        "mustdo(emp1, Protect((target,pc1)), true)\n"
        "  by r4\n"
        "    hasObligation(emp1, Protect((target,pc1)), true)\n"
        "      by r1\n"
        "        assigned(emp1, pc1) [fact]\n"
        "    ~hasDispensation(emp1, Protect((target,pc1))) (absent)"
    )


def test_derivation_tree_marks_absent_and_cyclic_atoms():
    p = parse_policy(
        "cando(o1, s1, +act1).\n"
        "dercando($g, $s, +$a) :- cando($o, $s, +$a) & part_of($o, $g).\n"
        "dercando($g2, $s, +$a) :- dercando($g, $s, +$a) & part_of($g, $g2).\n"
    )
    ds = DataSystem(base_atoms=frozenset({Atom("part_of", (C("o1"), C("o1")))}))
    model = evaluate(p, ds)
    target = Atom("dercando", (C("o1"), C("s1"), Signed("+", C("act1"))))
    tree = derivation_tree(model, target)
    flattened = render_derivation(tree)
    assert "(shown above)" in flattened

    missing = derivation_tree(model, Atom("dercando", (C("zz"), C("s1"), Signed("+", C("act1")))))
    assert missing.status == "absent"
    assert render_derivation(missing).endswith("(absent)")


def _hand_model(supports):
    """A Model over the given head -> ((rule_id, body), ...) table, whose atoms
    are the heads and every positive body atom."""
    atoms = set(supports)
    for sups in supports.values():
        atoms.update(l.atom for _, body in sups for l in body if not l.negated)
    return Model(frozenset(atoms), (), supports, ())


def test_derivation_tree_walks_a_long_chain_without_recursion():
    # chain0 <- chain1 <- ... <- chain2999, a fact: deeper than the
    # interpreter's recursion limit
    chain = [Atom("chain", (C(f"n{i}"),)) for i in range(3000)]
    model = _hand_model(
        {head: (("r1", (Literal(False, body),)),) for head, body in zip(chain, chain[1:])}
    )
    node = derivation_tree(model, chain[0])
    for _ in range(2999):
        assert node.status == "derived"
        ((_, (node,)),) = node.supports
    assert (node.atom, node.status) == (chain[-1], "fact")
    lines = render_derivation(derivation_tree(model, chain[0])).split("\n")
    assert len(lines) == 2 * 2999 + 1
    assert lines[-1] == "    " * 2999 + "chain(n2999) [fact]"


def test_derivation_tree_expands_an_atom_on_two_paths_twice():
    # top <- left & right, both <- shared <- base: shared is not a cycle
    top, left, right, shared, base = (Atom(n, ()) for n in ("top", "left", "right", "shared", "base"))
    pos = lambda a: Literal(False, a)  # noqa: E731
    model = _hand_model(
        {
            top: (("r1", (pos(left), pos(right))),),
            left: (("r2", (pos(shared),)),),
            right: (("r3", (pos(shared),)),),
            shared: (("r4", (pos(base),)),),
        }
    )
    assert render_derivation(derivation_tree(model, top)) == (
        "top\n"
        "  by r1\n"
        "    left\n"
        "      by r2\n"
        "        shared\n"
        "          by r4\n"
        "            base [fact]\n"
        "    right\n"
        "      by r3\n"
        "        shared\n"
        "          by r4\n"
        "            base [fact]"
    )


def test_render_model_is_sorted_and_stable():
    first = render_model(full_model())
    second = render_model(full_model())
    assert first == second
    lines = first.strip().split("\n")
    assert lines == sorted(lines)


# ---------------------------------------------------------------------------
# Randomized agreement with the naive oracle (the acceptance suite runs the
# full 100-program battery)
# ---------------------------------------------------------------------------


def test_random_programs_match_the_oracle():
    rng = random.Random("datalog-smoke")
    for _ in range(20):
        p, base = random_program(rng)
        expected = naive_model(p, base)
        model = evaluate(p, DataSystem(base_atoms=base))
        assert model.atoms == expected
        assert_supports_match_the_oracle(p, expected, model)
        shuffled = list(p.rules)
        rng.shuffle(shuffled)
        assert evaluate(p.with_rules(shuffled), DataSystem(base_atoms=base)).atoms == expected

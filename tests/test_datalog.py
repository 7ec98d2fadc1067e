"""Stratified bottom-up evaluation, grounding, and derivation reporting."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polcheck.compliance
import polcheck.datalog
from polcheck.cli import main
from polcheck.compliance import check_compliance
from polcheck.datalog import (
    derivation_tree,
    evaluate,
    evaluate_branches,
    render_derivation,
)
from polcheck.errors import PolcheckError, PolicyError
from polcheck.loading import parse_facts, parse_ontology, parse_state
from polcheck.ontology import DataSystem
from polcheck.policy import Policy, Rule, head_stratum, parse_policy
from polcheck.refinement import refine_policy
from polcheck.terms import (
    ActionTerm,
    Atom,
    Const,
    Formula,
    Literal,
    Signed,
    Var,
    is_ground,
    render,
    sort_key,
)

from oracle_datalog import (
    error_witnesses,
    naive_model,
    naive_supports,
    random_join_shapes_program,
    random_program,
    random_recursive_program,
)
from oracle_refinement import random_instance


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


def test_grounding_instantiates_the_rule_per_assignment():
    model = evaluate(parse_policy(ASSIGN_POLICY), ASSIGN_FACTS)
    heads = sorted((a for a in model.atoms if a.pred == "hasObligation"), key=sort_key)
    assert len(heads) == 3
    supports = [model.supports_of(head) for head in heads]
    assert all(len(sups) == 1 and sups[0][0] == "r1" for sups in supports)
    assert [[render(l.atom) for l in sups[0][1]] for sups in supports] == [
        ["assigned(emp1, pc1)"],
        ["assigned(emp1, pc3)"],
        ["assigned(emp2, pc2)"],
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
    """Each atom's supports, none for an atom no rule instance derives, and
    the error witnesses agree with the oracle's grounding of the finished
    model; supports_of reads them sorted."""
    expected = naive_supports(p, atoms)
    assert set(expected) <= set(atoms)
    for atom in atoms:
        read = model.supports_of(atom)
        sups = expected.get(atom, set())
        assert set(read) == sups and len(read) == len(sups)
        assert list(read) == sorted(read, key=lambda s: (s[0], [render(l.atom) for l in s[1]]))
    if Atom("error", ()) not in atoms:
        assert model.supports_of(Atom("error", ())) == ()
    errors = {sup for head, sups in expected.items() if head.pred == "error" for sup in sups}
    witnesses = error_witnesses(model)
    assert set(witnesses) == errors and len(witnesses) == len(errors)


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
    assert not error_witnesses(model)


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


def test_supports_of_plans_only_the_rules_of_the_asked_head():
    """Reading one atom's supports plans the joins of the rules that can head
    it, not the whole policy's; supports read afterwards for other heads are
    those a fresh model gives."""
    model, fresh = full_model(), full_model()
    mustdo = min((a for a in model.atoms if a.pred == "mustdo"), key=sort_key)
    assert model.supports_of(mustdo)
    heads = model._index[1]
    assert list(heads) == [("mustdo", 3)]
    planned = [rule.rule_id for rule, *_ in heads[("mustdo", 3)]]
    assert planned == [rule.rule_id for rule, _ in model.rules if rule.head.pred == "mustdo"]
    assert all(model.supports_of(a) == fresh.supports_of(a) for a in sorted(model.atoms, key=sort_key))



def test_supports_of_joins_once_per_atom(monkeypatch):
    """An atom's supports are kept once found: asking again, as each
    detector that flags the same pending obligation does, runs no join."""
    model = full_model()
    mustdo = min((a for a in model.atoms if a.pred == "mustdo"), key=sort_key)
    joins = []
    real = polcheck.datalog._join

    def counting(*args, **kwargs):
        joins.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(polcheck.datalog, "_join", counting)
    first = model.supports_of(mustdo)
    assert first and joins
    joins.clear()
    assert model.supports_of(mustdo) == first
    assert joins == []


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


def test_open_negative_do_also_ranges_over_a_triple_a_closure_rule_adds():
    # the ground rule adds the only (d0, eve, read) triple in the stratum
    # the open rule ranges over, so the head carries both rules' supports
    text = "do(d0, eve, -read) :- ~do(d0, eve, +read).\ndo($o, $s, -$a) :- ~do($o, $s, +$a).\n"
    head = Atom("do", (C("d0"), C("eve"), Signed("-", C("read"))))
    p = parse_policy(text)
    for rules in (p.rules, p.rules[::-1]):
        model = evaluate(p.with_rules(rules), DataSystem())
        assert model.atoms == {head}
        assert [rule_id for rule_id, _ in model.supports_of(head)] == ["r1", "r2"]


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
    (witness,) = error_witnesses(model)
    assert witness[0] == "r4"
    assert [render(l.atom) for l in witness[1]] == [
        "mustdo(s1, act1, true)",
        "do(o1, s1, -act1)",
    ]


def test_unstratified_policies_are_refused():
    p = parse_policy("mustdo($s, $a, $q) :- mustdo($s, $a, $q) & cando($o, $s, +$a).")
    with pytest.raises(PolicyError, match="not stratified"):
        evaluate(p, DataSystem())


def test_term_growing_recursion_is_refused_and_shrinking_recursion_terminates():
    seed = (
        "hasObligation(carol, Audit((target,sys1)), true).\n"
        "derhasObligation($s, $a, $q) :- hasObligation($s, $a, $q).\n"
    )
    grow = seed + "derhasObligation($s, Wrap((inner,$a)), $q) :- derhasObligation($s, $a, $q).\n"
    with pytest.raises(PolicyError, match=r"not stratified: r3: row 3: the head nests \$a deeper"):
        evaluate(parse_policy(grow), DataSystem())

    shrink = seed + "derhasObligation($s, $t, $q) :- derhasObligation($s, Audit((target,$t)), $q).\n"
    model = evaluate(parse_policy(shrink), DataSystem())
    derived = sorted(render(a.args[1]) for a in model.atoms if a.pred == "derhasObligation")
    assert derived == ["Audit((target,sys1))", "sys1"]


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


def test_derivation_tree_walks_a_long_chain_without_recursion():
    # derhasObligation of e3000 <- e2999 <- ... <- e0: deeper than the
    # interpreter's recursion limit
    policy, base = _under_chain(3000)
    model = evaluate(parse_policy(policy), DataSystem(base_atoms=frozenset(base)))
    top = Atom("derhasObligation", (C("e3000"), ActionTerm("Audit", (("target", C("sys1")),)), TRUE))
    node = derivation_tree(model, top)
    for i in range(3000, 0, -1):
        assert (node.atom.args[0], node.status) == (C(f"e{i}"), "derived")
        ((rule_id, (node, under)),) = node.supports
        assert (rule_id, under.status) == ("r3", "fact")
    assert node.atom.args[0] == C("e0")
    ((_, (obliged,)),) = node.supports
    assert obliged.supports == (("r1", ()),)
    lines = render_derivation(derivation_tree(model, top)).split("\n")
    assert len(lines) == 3 * 3000 + 4
    assert lines[6003] == "  " * 6003 + "by r1"
    assert lines[-1] == "    under(e3000, e2999) [fact]"


def test_derivation_tree_expands_an_atom_on_two_paths_twice():
    # error <- mustdo & derhasObligation, both <- one hasObligation <- one
    # assignment: the obligation is not a cycle
    p = parse_policy(
        "hasObligation($e, Protect((target, $m)), true) :- assigned($e, $m).\n"
        "derhasObligation($s, $a, $q) :- hasObligation($s, $a, $q).\n"
        "mustdo($s, $a, $q) :- hasObligation($s, $a, $q).\n"
        "error :- mustdo($s, $a, $q) & derhasObligation($s, $a, $q).\n"
    )
    ds = DataSystem(base_atoms=frozenset({Atom("assigned", (C("emp1"), C("pc1")))}))
    assert render_derivation(derivation_tree(evaluate(p, ds), Atom("error", ()))) == (
        "error\n"
        "  by r4\n"
        "    mustdo(emp1, Protect((target,pc1)), true)\n"
        "      by r3\n"
        "        hasObligation(emp1, Protect((target,pc1)), true)\n"
        "          by r1\n"
        "            assigned(emp1, pc1) [fact]\n"
        "    derhasObligation(emp1, Protect((target,pc1)), true)\n"
        "      by r2\n"
        "        hasObligation(emp1, Protect((target,pc1)), true)\n"
        "          by r1\n"
        "            assigned(emp1, pc1) [fact]"
    )


# ---------------------------------------------------------------------------
# Randomized agreement with the naive oracle (the acceptance suite runs the
# full 100-program battery)
# ---------------------------------------------------------------------------


def test_random_programs_match_the_oracle():
    rng = random.Random("datalog-smoke")
    with_errors = 0
    for _ in range(20):
        p, base = random_program(rng)
        expected = naive_model(p, base)
        model = evaluate(p, DataSystem(base_atoms=base))
        assert model.atoms == expected
        assert_supports_match_the_oracle(p, expected, model)
        with_errors += bool(error_witnesses(model))
        shuffled = list(p.rules)
        rng.shuffle(shuffled)
        assert evaluate(p.with_rules(shuffled), DataSystem(base_atoms=base)).atoms == expected
    assert with_errors  # the error witnesses are compared on some program


def test_recursive_programs_match_the_oracle():
    # rows 2, 3 and 6 recurse through the first, the second or two body
    # literals, so every position a round's delta can reach is exercised
    rng = random.Random("datalog-recursion")
    for _ in range(30):
        p, base = random_recursive_program(rng)
        ds = DataSystem(base_atoms=base)
        expected = naive_model(p, base)
        model = evaluate(p, ds)
        assert model.atoms == expected
        assert_supports_match_the_oracle(p, expected, model)
        shuffled = list(p.rules)
        rng.shuffle(shuffled)
        again = evaluate(p.with_rules(shuffled), ds)
        assert again.atoms == expected
        assert all(again.supports_of(head) == model.supports_of(head) for head in expected)
        assert error_witnesses(again) == error_witnesses(model)


def _step_kinds(policy) -> set:
    """The kinds of compiled join step the policy's rule bodies reach, each
    body planned from every literal."""
    kinds = set()
    for rule in policy.rules:
        positive = [l.atom for l in rule.body if not l.negated]
        for j in range(len(positive)):
            for _, positions, _, (slots, residual) in polcheck.datalog._join_plan(positive, j):
                if positions is None:
                    kinds.add("membership")
                elif positions and slots:
                    kinds.add("slot after index")
                kinds.update(type(pattern).__name__ for _, pattern in residual)
    return kinds


def test_compiled_join_steps_match_the_oracle():
    # ground bodies probe by membership, a repeated variable leaves a residual
    # Var, variables first bound inside an action term or a signed action
    # leave residual ActionTerm and Signed patterns, and a recursive literal
    # keyed by a constant action must read only that action's delta atoms;
    # evaluate, each branch's projection and the supports agree with the oracle
    rng = random.Random("compiled-steps")
    kinds = set()
    for _ in range(40):
        p, base = random_join_shapes_program(rng)
        kinds |= _step_kinds(p)
        ds = DataSystem(base_atoms=base)
        expected = naive_model(p, base)
        model = evaluate(p, ds)
        assert model.atoms == expected
        assert_supports_match_the_oracle(p, expected, model)
        assert_projections_match(_split(rng, p, base), ds)
    assert kinds == {"membership", "slot after index", "Var", "ActionTerm", "Signed"}, kinds



def _grounded(rng, policy, base):
    """The policy refined to ground instances, as a low-level policy is: each
    instance of its rules over its model becomes a ground rule, so recursive
    rows become ground chains whose body atoms only later rounds derive, and
    mustdo and do(o,s,-a) instances keep their ground negated literals. About
    one instance in seven is left out, so some chains stop early; some held
    do(o,s,+a) atoms get a ground closure they block; a few derived atoms
    become body-less rules; and about a third of the policy's own rules stay,
    so a stratum mixes ground and non-ground rules. Rules come shuffled."""
    model = naive_model(policy, base)
    instances = sorted(
        ((head, body) for head, sups in naive_supports(policy, model).items() for _, body in sups),
        key=lambda inst: (render(inst[0]), [(l.negated, render(l.atom)) for l in inst[1]]),
    )
    rules = [Rule(f"g{k}", head, body) for k, (head, body) in enumerate(instances) if rng.random() < 0.85]
    derived = sorted((a for a in model - base if head_stratum(a) != 8), key=sort_key)
    rules += [Rule(f"f{k}", a) for k, a in enumerate(rng.sample(derived, min(3, len(derived))))]
    for k, a in enumerate(sorted(model, key=sort_key)):
        if head_stratum(a) == 7 and rng.random() < 0.5:
            minus = Atom("do", (a.args[0], a.args[1], Signed("-", a.args[2].term)))
            rules.append(Rule(f"c{k}", minus, (Literal(True, a),)))
    rules += [r for r in policy.rules if rng.random() < 0.3]
    rng.shuffle(rules)
    return Policy(tuple(rules))


def test_ground_rules_match_the_oracle():
    # ground rules are decided from their atoms' masks, in their stratum's
    # first round and again whenever a positive body atom gains policies in
    # a recursive stratum's later rounds; evaluate, the supports and each
    # branch's projection agree with the oracle
    rng = random.Random("ground-rules")
    chained = blocked = mixed = 0
    for generate in (random_recursive_program, random_program):
        for _ in range(15):
            p, base = generate(rng)
            ground = _grounded(rng, p, base)
            ds = DataSystem(base_atoms=base)
            expected = naive_model(ground, base)
            model = evaluate(ground, ds)
            assert model.atoms == expected
            assert_supports_match_the_oracle(ground, expected, model)
            assert_projections_match(_split(rng, ground, base), ds)
            for rule in ground.rules:
                if rule.rule_id.startswith("g"):
                    chained += any(l.atom.pred == rule.head.pred for l in rule.body)
                blocked += rule.rule_id.startswith("c") and rule.body[0].atom in expected
            rows = {(head_stratum(r.head), r.rule_id[0] == "r") for r in ground.rules if r.body}
            mixed += any((row, False) in rows and (row, True) in rows for row in (2, 3, 6))
    assert chained >= 50 and blocked >= 10 and mixed >= 5, (chained, blocked, mixed)


def test_a_rule_instance_fires_at_most_once_per_positive_literal(monkeypatch):
    """A later round joins each positive literal whose shape gained atoms
    against the delta and every other literal against all atoms, so an
    instance whose atoms share one delta fires once per such literal. The
    non-linear closure over a 30-node chain puts both dercando atoms of
    the instances that join two equal-length paths into one delta."""
    policy = parse_policy(
        "dercando($x, $y, +read) :- cando($x, $y, +read).\n"
        "dercando($x, $z, +read) :- dercando($x, $y, +read) & dercando($y, $z, +read).\n"
    )
    read = Signed("+", C("read"))
    base = frozenset(Atom("cando", (C(f"n{i}"), C(f"n{i + 1}"), read)) for i in range(29))
    rows = []
    real = polcheck.datalog._join

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(polcheck.datalog, "_join", counting)
    model = evaluate(policy, DataSystem(base_atoms=base))
    monkeypatch.undo()
    expected = naive_model(policy, base)
    assert model.atoms == expected
    assert_supports_match_the_oracle(policy, expected, model)
    instances = {}
    for sups in naive_supports(policy, expected).values():
        for rule_id, _ in sups:
            instances[rule_id] = instances.get(rule_id, 0) + 1
    assert instances == {"r1": 29, "r2": 4060}  # 29 links, C(30, 3) two-path joins
    positive = {rule.rule_id: sum(not l.negated for l in rule.body) for rule in policy.rules}
    assert sum(instances.values()) < sum(rows) <= sum(positive[r] * n for r, n in instances.items())

# ---------------------------------------------------------------------------
# Join work grows linearly: probes are counted, not timed
# ---------------------------------------------------------------------------


def _count_probes(monkeypatch, run) -> int:
    """The join candidates the evaluator and the audit examine during run():
    every one goes through `datalog._extend`, the audit's entailment joins
    included."""
    calls = []
    real = polcheck.datalog._extend

    def counting(ops, atom, theta):
        calls.append(None)
        return real(ops, atom, theta)

    monkeypatch.setattr(polcheck.datalog, "_extend", counting)
    run()
    monkeypatch.undo()
    return len(calls)


def _probes(monkeypatch, policy_text, base) -> int:
    """The join candidates the evaluator examines on one model."""
    policy, ds = parse_policy(policy_text), DataSystem(base_atoms=frozenset(base))
    return _count_probes(monkeypatch, lambda: evaluate(policy, ds))


def test_a_head_instance_substitutes_no_ground_part(monkeypatch):
    # Encrypt((target,d1)) and +execute are ground, so an instance of the
    # first head only looks up $e; the second head's action term holds $d.
    base = frozenset(Atom("guards", (C(f"e{i}"), C(f"d{i % 2}"))) for i in range(20))
    substituted = []
    real = polcheck.datalog.substitute

    def counting(value, theta):
        substituted.append(value)
        return real(value, theta)

    def run(rule):
        return evaluate(parse_policy(rule), DataSystem(base_atoms=base))

    monkeypatch.setattr(polcheck.datalog, "substitute", counting)
    ground = run("cando(Encrypt((target,d1)), $e, +execute) :- guards($e, d1).")
    assert substituted == []
    opened = run("cando(Encrypt((target,$d)), $e, +execute) :- guards($e, $d).")
    monkeypatch.undo()
    assert sum(a.pred == "cando" for a in ground.atoms) == 10
    assert sum(a.pred == "cando" for a in opened.atoms) == 20
    assert substituted == [ActionTerm("Encrypt", (("target", Var("d")),))] * 20


def _under_chain(depth):
    policy = (
        "hasObligation(e0, Audit((target,sys1)), true).\n"
        "derhasObligation($s, $a, $q) :- hasObligation($s, $a, $q).\n"
        "derhasObligation($s2, $a, $q) :- derhasObligation($s1, $a, $q) & under($s2, $s1).\n"
        "mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).\n"
    )
    base = [Atom("under", (C(f"e{i + 1}"), C(f"e{i}"))) for i in range(depth)]
    return policy, base


def _guard_join(n):
    rules = [
        "hasObligation($s, Backup((target,$x)), true)"
        " :- type($s, Employee) & guards($s, $x) & type($x, Document)."
    ]
    base = []
    for i in range(n):
        e, d = f"e{i}", f"d{i}"
        rules.append(
            f"cando(Backup((target,{d})), {e}, +execute) :- type({d}, Document) & guards({e}, {d})."
        )
        base += [
            Atom("type", (C(e), C("Employee"))),
            Atom("type", (C(d), C("Document"))),
            Atom("guards", (C(e), C(d))),
        ]
    return "\n".join(rules) + "\n", base


@pytest.mark.parametrize("workload, size", [(_under_chain, 40), (_guard_join, 50)])
def test_join_probes_grow_linearly_with_the_input(monkeypatch, workload, size):
    small = _probes(monkeypatch, *workload(size))
    large = _probes(monkeypatch, *workload(2 * size))
    assert small > 0
    assert large <= 2.5 * small, (small, large)


def test_ground_rules_fire_without_a_join(monkeypatch):
    # n ground cando rules, one stratum's first round, and a ground chain of
    # n derhasObligation rules, one later round per link: none is planned,
    # templated or joined; the one non-ground rule shows the counting works
    def work(policy_text, base):
        """The model, the join plans and templates built for it, and the
        join candidates examined."""
        built, models = [], []
        for name in ("_join_plan", "_templates"):
            real = getattr(polcheck.datalog, name)
            monkeypatch.setattr(polcheck.datalog, name, lambda *args, real=real: built.append(args) or real(*args))
        policy, ds = parse_policy(policy_text), DataSystem(base_atoms=frozenset(base))
        probes = _count_probes(monkeypatch, lambda: models.append(evaluate(policy, ds)))
        return models[0], len(built), probes

    n, audit = 40, "Audit((target,sys1)), true"
    guarded, base = _guard_join(n)
    join, ground = guarded.split("\n", 1)
    ground += f"derhasObligation(e0, {audit}).\n" + "".join(
        f"derhasObligation(e{i + 1}, {audit}) :- derhasObligation(e{i}, {audit}) & under(e{i + 1}, e{i}).\n"
        for i in range(n)
    )
    base += [Atom("under", (C(f"e{i + 1}"), C(f"e{i}"))) for i in range(n)]
    model, built, probes = work(ground, base)
    assert (built, probes) == (0, 0)
    assert sum(a.pred == "cando" for a in model.atoms) == n
    assert sum(a.pred == "derhasObligation" for a in model.atoms) == n + 1
    _, built, probes = work(join + "\n", base)
    assert built > 0 and probes > 0


def test_derivation_tree_probes_grow_linearly_with_the_depth(monkeypatch):
    # with the head bound, each link's supports start from its one under
    # atom, not from every derhasObligation atom
    def tree_probes(depth):
        policy, base = _under_chain(depth)
        model = evaluate(parse_policy(policy), DataSystem(base_atoms=frozenset(base)))
        top = Atom("mustdo", (C(f"e{depth}"), ActionTerm("Audit", (("target", C("sys1")),)), TRUE))
        assert model.holds(top)
        return _count_probes(monkeypatch, lambda: derivation_tree(model, top))

    small, large = tree_probes(500), tree_probes(1000)
    assert small >= 500
    assert large <= 2.5 * small, (small, large)


_ARCHIVE_ONTO = """\
class Entity
class Employee subclassOf Entity
class Document subclassOf Entity
class Tape subclassOf Entity
class Cipher subclassOf Entity

prop type dom Entity range Entity family hie
prop guards dom Employee range Document
prop cipherOf dom Cipher range Document
prop archived dom Document range Tape

action Backup(target) init {} final {}
    effect archived($target, $t)
action Encrypt(target) init {} final {}
    effect cipherOf($c, $target)
"""


def _audit_probes(monkeypatch, n) -> int:
    """The join candidates of one audit of n employees, each guarding a
    document and obliged to back it up and encrypt it. The current state
    shows every other document archived and encrypted, so each obligation's
    postcondition is looked up in a state that grows with n."""
    onto = parse_ontology(_ARCHIVE_ONTO)
    facts = (f"obj e{i} : Employee\nobj d{i} : Document\nguards(e{i}, d{i}).\n" for i in range(n))
    ds = parse_facts("".join(facts), onto)
    guard = "type($s, Employee) & guards($s, $x) & type($x, Document)"
    high = parse_policy(
        f"hasObligation($s, Backup((target,$x)), archived($x,$t)) :- {guard}.\n"
        f"hasObligation($s, Encrypt((target,$x)), cipherOf($c,$x)) :- {guard}.\n"
        "mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).\n",
        onto,
    )
    low = parse_policy(
        f"cando(Backup((target,$x)), $s, +execute) :- {guard}.\n"
        f"cando(Encrypt((target,$x)), $s, +execute) :- {guard}.\n"
        "do($o, $s, +$a) :- cando($o, $s, +$a).\n",
        onto,
    )
    state = (f"archived(d{i}, tape{i}).\ncipherOf(k{i}, d{i}).\n" for i in range(0, n, 2))
    sigma = parse_state("".join(state), onto)
    return _count_probes(monkeypatch, lambda: check_compliance(high, low, ds, (), sigma, onto))


def test_audit_probes_grow_linearly_with_the_input(monkeypatch):
    small = _audit_probes(monkeypatch, 40)
    large = _audit_probes(monkeypatch, 80)
    assert small > 0
    assert large <= 2.5 * small, (small, large)


# ---------------------------------------------------------------------------
# One shared pass over several policies: each branch's projection is the
# model that evaluating that policy alone gives
# ---------------------------------------------------------------------------


def rule_table(policies) -> tuple:
    """The policies' rule table: each rule object once, in the order the
    policies first hold it, with the mask of the policies that hold it."""
    masks: dict = {}  # id(rule) -> [rule, mask]
    for i, p in enumerate(policies):
        for rule in p.rules:
            masks.setdefault(id(rule), [rule, 0])[1] |= 1 << i
    return tuple(map(tuple, masks.values()))


def evaluate_policies(policies, ds, **kwargs):
    return evaluate_branches(rule_table(policies), len(policies), ds, **kwargs)


def assert_projections_match(policies, ds, table=None):
    """Each projection of the shared pass over the table (by default the
    policies' own) is the model of that policy alone."""
    shared = evaluate_branches(rule_table(policies) if table is None else table, len(policies), ds)
    for i, policy in enumerate(policies):
        alone = evaluate(policy, ds)
        projected = shared.project(i)
        assert projected.masks == alone.masks
        assert all(projected.supports_of(a) == alone.supports_of(a) for a in alone.atoms)
        assert_supports_match_the_oracle(policy, alone.atoms, projected)


def _split(rng, policy, base):
    """The policy's rules dealt over 2-8 branches: each branch keeps each
    rule with probability 0.7, so rules, and the atoms they derive, hold in
    some branches only. Some branches also get a few of the policy's
    recursive atoms as facts, so recursion starts earlier there and the
    other branches reach those atoms rounds later."""
    recursive = [
        a
        for a in sorted(evaluate(policy, DataSystem(base_atoms=base)).atoms, key=sort_key)
        if a.pred in ("derhasDispensation", "derhasObligation", "dercando")
    ]
    seeds = rng.sample(recursive, min(3, len(recursive)))
    return [
        policy.with_rules(
            [r for r in policy.rules if rng.random() < 0.7]
            + [Rule(f"seed{k}", a) for k, a in enumerate(seeds) if rng.random() < 0.3]
        )
        for _ in range(rng.randint(2, 8))
    ]


def _owned(rng):
    return frozenset(
        Atom("owns", (C(f"s{i}"), C(f"x{j}")))
        for i in range(3)
        for j in range(3)
        if rng.random() < 0.5
    )


def test_shared_pass_projects_to_each_branch_model(monkeypatch):
    regrown, partly_blocked = [], []
    real_add, real_unblocked = polcheck.datalog._Store.add, polcheck.datalog._unblocked

    def add(store, gained):
        regrown.extend(a for a in gained if a in store.masks)
        return real_add(store, gained)

    def unblocked(body, store, theta, mask):
        out = real_unblocked(body, store, theta, mask)
        if 0 != out != mask:
            partly_blocked.append(theta)
        return out

    monkeypatch.setattr(polcheck.datalog._Store, "add", add)
    monkeypatch.setattr(polcheck.datalog, "_unblocked", unblocked)
    rng = random.Random("shared-pass")
    for generate in (random_program, random_recursive_program):
        for _ in range(40):
            p, base = generate(rng)
            assert_projections_match(_split(rng, p, base), DataSystem(base_atoms=base))
    branchy = 0
    for _ in range(120):
        p, patterns, onto, limit = random_instance(rng)
        try:
            result = refine_policy(p, patterns, onto, max_branches=limit)
        except PolcheckError:
            continue
        branchy += len(result.branches) > 1
        policies = [b.policy for b in result.branches]
        assert_projections_match(policies, DataSystem(base_atoms=_owned(rng)), result.rules)
    assert branchy >= 10
    # recursive atoms gained branches in a later round than they first
    # held, and negated atoms held in some branches only
    assert len(regrown) >= 10, len(regrown)
    assert len(partly_blocked) >= 10, len(partly_blocked)


def test_shared_pass_ors_the_masks_of_the_atoms_bringing_an_open_do_minus_triple():
    # the (o1, s1, read) triple comes through cando in branch 0, dercando in
    # branch 1 and both in branch 2; branch 3 grants it, so the rule is blocked
    r1, r2, r3, r4 = parse_policy(
        "cando(o1, s1, +read).\n"
        "dercando(o1, s1, +read).\n"
        "do(o1, s1, +read) :- dercando(o1, s1, +read).\n"
        "do($o, $s, -$a) :- ~do($o, $s, +$a).\n"
    ).rules
    policies = [Policy(rules) for rules in ([r1, r4], [r2, r4], [r1, r2, r4], [r2, r3, r4])]
    assert_projections_match(policies, DataSystem())
    shared = evaluate_policies(policies, DataSystem())
    grant, head = (Atom("do", (C("o1"), C("s1"), Signed(sign, C("read")))) for sign in "+-")
    assert shared.mask_of(head) == 0b0111
    support = ("r4", (Literal(True, grant),))
    assert shared.supports_of(head) == (support,)
    assert [shared.project(i).supports_of(head) for i in range(4)] == [(support,)] * 3 + [()]


def test_shared_pass_of_one_policy_twice_holds_everything_in_both():
    p, base = random_recursive_program(random.Random(3))
    ds = DataSystem(base_atoms=base)
    shared = evaluate_policies([p, p], ds)
    assert {shared.mask_of(a) for a in shared.atoms} == {0b11}
    projected, alone = shared.project(1), evaluate(p, ds)
    assert projected.masks == alone.masks
    assert all(projected.supports_of(a) == alone.supports_of(a) for a in alone.atoms)
    # models compare by identity: the same masks from other rules would have
    # other supports
    assert projected != alone and projected == projected


# ---------------------------------------------------------------------------
# Goal-directed evaluation: only the rules the goal predicate depends on
# ---------------------------------------------------------------------------


def _depends_on(rules, goal) -> set:
    """The goal and every predicate it depends on, by a plain fixpoint: the
    body predicates of each rule whose head is in the set, and for an open
    do(-) rule the predicates that bring its (o, s, a) triples."""
    cone, grown = {goal}, True
    while grown:
        grown = False
        for rule in rules:
            if rule.head.pred not in cone:
                continue
            body = {l.atom.pred for l in rule.body}
            if head_stratum(rule.head) == 8 and not is_ground(rule.head):
                body |= {"cando", "dercando", "do"}
            grown |= not body <= cone
            cone |= body
    return cone


def assert_goal_slices_match(policies, ds, every_atom=True):
    """With every predicate as the goal, the goal-directed pass holds the
    full pass's atoms and masks on the goal's cone and derives nothing
    outside it, and on that cone each branch's projection holds the full
    projection's atoms with the oracle's supports, read in the full
    projection's order. Without every_atom, only the goal predicate's own
    atoms have their supports read, and only against the oracle."""
    rules = list({id(r): r for p in policies for r in p.rules}.values())
    preds = {a.pred for a in ds.base_atoms} | {
        a.pred for r in rules for a in (r.head, *(l.atom for l in r.body))
    }
    full = evaluate_policies(policies, ds)
    alone = [full.project(i) for i in range(len(policies))]
    expected = [naive_supports(p, m.atoms) for p, m in zip(policies, alone)]
    for goal in sorted(preds):
        cone = _depends_on(rules, goal)
        sliced = (
            evaluate(policies[0], ds, goal=goal)
            if len(policies) == 1
            else evaluate_policies(policies, ds, goal=goal)
        )
        assert {a: m for a, m in sliced.masks.items() if a.pred in cone} == {
            a: m for a, m in full.masks.items() if a.pred in cone
        }
        assert all(a.pred in cone or a in ds.base_atoms for a in sliced.atoms)
        for i, whole in enumerate(alone):
            part = sliced.project(i) if len(policies) > 1 else sliced
            held = {a for a in whole.atoms if a.pred in cone}
            assert {a for a in part.atoms if a.pred in cone} == held
            for atom in held if every_atom else (a for a in held if a.pred == goal):
                read = part.supports_of(atom)
                assert set(read) == expected[i].get(atom, set())
                assert not every_atom or read == whole.supports_of(atom)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_goal_directed_pass_matches_the_full_pass(rng):
    p, base = random_program(rng)
    ds = DataSystem(base_atoms=base)
    assert_goal_slices_match([p], ds)
    assert_goal_slices_match(_split(rng, p, base)[:3], ds)


def test_goal_directed_pass_matches_the_full_pass_on_seeded_programs():
    # branch 0 is the program itself, as evaluate gives it
    rng = random.Random(20261019)
    for _ in range(1000):
        p, base = random_program(rng)
        branches = [p] + _split(rng, p, base)[:1]
        assert_goal_slices_match(branches, DataSystem(base_atoms=base), every_atom=False)


def test_goal_reaches_do_minus_only_through_an_open_closure_rule():
    # do(-) atoms come from the open closure rule alone, whose triples the
    # cando and dercando rules bring; no do(+) rule links do to them
    p = parse_policy(
        "cando($o, $s, +read) :- owns($s, $o).\n"
        "dercando($o, $s, -write) :- cando($o, $s, +read) & owns($s, $o).\n"
        "do($o, $s, -$a) :- ~do($o, $s, +$a).\n"
        "mustdo($s, Scan((target,$o)), true) :- owns($s, $o).\n"
    )
    ds = DataSystem(base_atoms=frozenset({Atom("owns", (C("s1"), C("o1")))}))
    full, sliced = evaluate(p, ds), evaluate(p, ds, goal="do")
    minus = [Atom("do", (C("o1"), C("s1"), Signed("-", C(a)))) for a in ("read", "write")]
    assert all(sliced.holds(a) and sliced.supports_of(a) == full.supports_of(a) for a in minus)
    assert [sliced.supports_of(a)[0][0] for a in minus] == ["r3", "r3"]
    assert not any(a.pred == "mustdo" for a in sliced.atoms)
    assert_goal_slices_match([p], ds)


def test_explain_probes_no_rule_outside_the_goal_cone(monkeypatch, tmp_path, capsys):
    # the cando atom does not depend on mustdo, so n more mustdo rules in the
    # low policy cost explain no join probe
    samples = Path(__file__).resolve().parents[1] / "samples"
    inputs = [("--onto", "audit.onto"), ("--facts", "audit.facts"),
              ("--high", "audit_high.pol"), ("--patterns", "audit.rp")]
    mustdo = "mustdo(bob, Backup((target,report1)), true) :- guards(bob, report1) & type(bob, Employee).\n"

    def probes(n):
        low = tmp_path / f"low{n}.pol"
        low.write_text((samples / "audit_low.pol").read_text() + mustdo * n)
        argv = [a for flag, name in inputs for a in (flag, str(samples / name))]
        argv = ["explain", *argv, "--low", str(low), "cando(Backup((target,report1)), bob, +execute)"]
        count = _count_probes(monkeypatch, lambda: main(argv))
        assert capsys.readouterr().out.startswith(f"% derived by the low-level policy {low}\n")
        return count

    small, large = probes(20), probes(40)
    assert small > 0
    assert small == large, (small, large)


def test_a_goal_skips_an_unsafe_rule_outside_its_cone():
    # decided: a rule the goal does not depend on is not evaluated, so a
    # code-built rule whose head stays ungrounded fails only the passes that
    # need it; check_compliance evaluates without a goal and still raises
    unsafe = Rule("unsafe", Atom("hasDispensation", (Var("s"), Var("a"))))
    p = parse_policy(
        "cando(o1, s1, +read).\n"
        "mustdo($s, $a, $q) :- hasObligation($s, $a, $q) & ~hasDispensation($s, $a).\n"
    )
    p = p.with_rules(p.rules + (unsafe,))
    with pytest.raises(PolicyError, match=r"^unsafe: ungrounded head hasDispensation\(\$s, \$a\)$"):
        evaluate(p, DataSystem())
    with pytest.raises(PolicyError, match=r"^unsafe: ungrounded head"):
        evaluate(p, DataSystem(), goal="mustdo")
    model = evaluate(p, DataSystem(), goal="cando")
    assert model.holds(Atom("cando", (C("o1"), C("s1"), Signed("+", C("read")))))


def test_a_goal_still_checks_every_rule_for_stratification():
    p = parse_policy(
        "cando(o1, s1, +read).\n"
        "mustdo($s, $a, $q) :- mustdo($s, $a, $q) & cando($o, $s, +$a).\n"
    )
    with pytest.raises(PolicyError, match="^policy is not stratified: r2: "):
        evaluate(p, DataSystem(), goal="cando")

"""End-to-end acceptance checks: the worked examples, the randomized oracle
sweeps, and the determinism guarantees, one test per promise. Each test
prints a single PASS line (visible under ``pytest -s``) with its timing.

The randomized sweeps re-seed their own generators, so this module is
independent of the unit suites even where it reuses their helpers.
"""

import json
import random
import time
from pathlib import Path

from policy_fixtures import FIXTURE, mutations
from wf_gen import ROWS, make_satisfying, make_violating

from polcheck.actions import (
    CHOICE,
    CONJ,
    EMPTY,
    SEQ,
    ActionLeaf,
    ActionNode,
    check_well_formed_complex,
    oracle_well_formed,
    render_composition,
    traces,
)
from polcheck.cli import main
from polcheck.compliance import CurrentState, check_compliance
from polcheck.datalog import evaluate
from polcheck.loading import (
    load_facts,
    load_ontology,
    load_patterns,
    load_policy,
    load_state,
)
from polcheck.ontology import (
    ClassDef,
    DataSystem,
    Ontology,
    State,
    StateSpace,
    VariableDef,
    space_refines,
    space_refines_witness,
)
from polcheck.policy import check_stratification, parse_policy
from polcheck.refinement import refine_policy
from polcheck.terms import render

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def _passed(message: str, elapsed: float = None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"PASS: {message}{suffix}")


def _mustdo_renders(policy, ds, onto):
    model = evaluate(policy, ds, onto)
    return {render(a) for a in model.atoms if a.pred == "mustdo"}


# ---------------------------------------------------------------------------
# 1. The protection example end to end
# ---------------------------------------------------------------------------


def test_protection_example_derives_only_the_antivirus_obligation(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "branches"
    code = main(
        [
            "refine",
            "--onto", str(SAMPLES / "protect.onto"),
            "--facts", str(SAMPLES / "protect.facts"),
            "--high", str(SAMPLES / "protect_high.pol"),
            "--patterns", str(SAMPLES / "protect.rp"),
            "--out", str(out),
        ]
    )
    assert code == 0
    onto = load_ontology(SAMPLES / "protect.onto")
    ds = load_facts(SAMPLES / "protect.facts", onto)
    branch_files = sorted(out.glob("branch_*.pol"))
    assert len(branch_files) == 2
    derived = set()
    for path in branch_files:
        derived |= _mustdo_renders(load_policy(path, onto), ds, onto)
    elapsed = time.monotonic() - t0
    assert derived == {"mustdo(Alice, InstallAntiVirus((target,NB1)), true)"}
    assert not any("InstallFirewall" in atom for atom in derived)
    assert elapsed < 1.0
    _passed("protection example obliges exactly the anti-virus install", elapsed)


# ---------------------------------------------------------------------------
# 2. Obligation grounding over the three-machine office
# ---------------------------------------------------------------------------


def test_grounding_example_yields_three_obligations():
    t0 = time.monotonic()
    onto = load_ontology(SAMPLES / "protect.onto")
    ds = load_facts(SAMPLES / "grounding.facts", onto)
    model = evaluate(load_policy(SAMPLES / "grounding.pol", onto), ds, onto)
    obligations = sorted(render(a) for a in model.atoms if a.pred == "hasObligation")
    elapsed = time.monotonic() - t0
    assert obligations == [
        "hasObligation(emp1, Protect((target,pc1)), hasInstalled(pc1, $y) & type($y, Firewall))",
        "hasObligation(emp1, Protect((target,pc3)), hasInstalled(pc3, $y) & type($y, Firewall))",
        "hasObligation(emp2, Protect((target,pc2)), hasInstalled(pc2, $y) & type($y, Firewall))",
    ]
    assert elapsed < 1.0
    _passed("three-machine office grounds exactly three obligations", elapsed)


# ---------------------------------------------------------------------------
# 3. State-space refinement orders
# ---------------------------------------------------------------------------


def test_state_space_refinement_orders():
    onto = Ontology(
        classes={c: ClassDef(c) for c in ("Computer", "Notebook", "Linux", "Windows")},
        subclass_edges=(("Notebook", "Computer"),),
        variables={
            "x1": VariableDef("x1", "pc", "hw", ("Computer", "Notebook")),
            "x2": VariableDef("x2", "pc", "os", ("Linux", "Windows")),
        },
    )
    g1 = State.make({"x1": "Computer", "x2": "Linux"})
    g2 = State.make({"x1": "Computer", "x2": "Windows"})
    g3 = State.make({"x1": "Notebook", "x2": "Linux"})
    G1 = StateSpace.explicit({g1})
    G2 = StateSpace.explicit({g1, g2})
    G3 = StateSpace.explicit({g3})
    assert space_refines(G2, G1, onto) is True
    assert space_refines(G1, G3, onto) is True
    assert space_refines(G1, G2, onto) is False
    assert space_refines_witness(G1, G2, onto) == g2
    _passed("state-space refinement orders the three worked spaces correctly")


# ---------------------------------------------------------------------------
# 4. Well-formedness rows against the trace oracle
# ---------------------------------------------------------------------------


def test_composition_rows_agree_with_the_trace_oracle():
    t0 = time.monotonic()
    per_row = 200
    disagreements = 0
    for row in ROWS:
        rng = random.Random(f"acceptance-wf-{row}")
        for _ in range(per_row):
            pattern, onto = make_satisfying(rng, row)
            checker = check_well_formed_complex(pattern, onto)
            oracle = oracle_well_formed(pattern, onto)
            assert checker.ok, (row, checker.violations)
            assert oracle.ok, (row, oracle.violations)
        for _ in range(per_row):
            pattern, onto, target = make_violating(rng, row)
            checker = check_well_formed_complex(pattern, onto)
            hits = [v for v in checker.violations if v.constraint_id == target]
            assert hits and hits[0].witness is not None, (row, target)
            # the symbolic rows are strictly stronger than trace behavior,
            # so the oracle may stay green here; it must never fail while
            # the checker passes
            if checker.ok and not oracle_well_formed(pattern, onto).ok:
                disagreements += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert elapsed < 60.0
    _passed(
        f"{len(ROWS)} composition rows x {per_row} satisfying + {per_row} violating "
        "instances, checker and oracle in agreement",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 5. Algebra identities on random compositions
# ---------------------------------------------------------------------------


def _rand_comp(rng, leaves):
    if leaves == 1:
        return ActionLeaf(rng.choice("abcdef"))
    split = rng.randint(1, leaves - 1)
    op = rng.choice((SEQ, CHOICE, CONJ))
    strict = op != SEQ and rng.random() < 0.3
    return ActionNode(op, _rand_comp(rng, split), _rand_comp(rng, leaves - split), strict=strict)


def _T(comp):
    return {t.steps for t in traces(comp)}


def _seq(x, y):
    return ActionNode(SEQ, x, y)


def _alt(x, y):
    return ActionNode(CHOICE, x, y)


def _both(x, y):
    return ActionNode(CONJ, x, y)


IDENTITIES = [
    ("choice is idempotent", 1, lambda x: _T(_alt(x, x)) == _T(x)),
    ("choice is commutative", 2, lambda x, y: _T(_alt(x, y)) == _T(_alt(y, x))),
    (
        "choice is associative",
        3,
        lambda x, y, z: _T(_alt(_alt(x, y), z)) == _T(_alt(x, _alt(y, z))),
    ),
    (
        "sequence is associative",
        3,
        lambda x, y, z: _T(_seq(_seq(x, y), z)) == _T(_seq(x, _seq(y, z))),
    ),
    (
        "sequence distributes over choice",
        3,
        lambda x, y, z: _T(_seq(x, _alt(y, z))) == _T(_alt(_seq(x, y), _seq(x, z)))
        and _T(_seq(_alt(y, z), x)) == _T(_alt(_seq(y, x), _seq(z, x))),
    ),
    (
        "the empty action is a sequence identity",
        1,
        lambda x: _T(_seq(x, EMPTY)) == _T(x) == _T(_seq(EMPTY, x)),
    ),
    ("conjunction is commutative", 2, lambda x, y: _T(_both(x, y)) == _T(_both(y, x))),
    (
        "conjunction is associative",
        3,
        lambda x, y, z: _T(_both(_both(x, y), z)) == _T(_both(x, _both(y, z))),
    ),
    (
        "conjunction distributes over choice",
        3,
        lambda x, y, z: _T(_both(_alt(y, z), x)) == _T(_alt(_both(y, x), _both(z, x))),
    ),
]


def test_algebra_identities_hold_on_random_compositions():
    t0 = time.monotonic()
    rng = random.Random("acceptance-algebra")
    rounds = 150
    for name, arity, law in IDENTITIES:
        cap = 6 // arity
        for _ in range(rounds):
            operands = [_rand_comp(rng, rng.randint(1, cap)) for _ in range(arity)]
            assert law(*operands), (name, [render_composition(o) for o in operands])
    # sequencing stays ordered
    left, right = ActionLeaf("a"), ActionLeaf("b")
    assert _T(_seq(left, right)) != _T(_seq(right, left))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passed(
        f"{len(IDENTITIES)} identities hold over {rounds} random compositions each, "
        "and sequencing is not commutative",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 6. Evaluator vs. the naive fixpoint oracle
# ---------------------------------------------------------------------------


def test_evaluator_matches_the_naive_oracle():
    from oracle_datalog import naive_model, random_program

    t0 = time.monotonic()
    rng = random.Random("acceptance-datalog")
    programs = 100
    for _ in range(programs):
        policy, base = random_program(rng)
        expected = naive_model(policy, base)
        assert len(expected) <= 200
        assert evaluate(policy, DataSystem(base_atoms=base)).atoms == expected
        shuffled = list(policy.rules)
        rng.shuffle(shuffled)
        assert (
            evaluate(policy.with_rules(shuffled), DataSystem(base_atoms=base)).atoms
            == expected
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passed(
        f"{programs} random stratified programs match the naive oracle atom for atom, "
        "rule order ignored",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 7. Rule battery and its mutations
# ---------------------------------------------------------------------------


def test_rule_battery_is_accepted_and_mutations_are_rejected():
    assert not check_stratification(parse_policy(FIXTURE)).violations
    rejected = 0
    for label, text, rule_id, row in mutations():
        violations = check_stratification(parse_policy(text)).violations
        hits = [v for v in violations if v.rule_id == rule_id]
        assert hits, label
        assert {v.row for v in hits} == {row}, label
        rejected += 1
    assert rejected >= 15
    _passed(
        f"rule battery accepted; all {rejected} single-edit mutations rejected "
        "with the right row cited"
    )


# ---------------------------------------------------------------------------
# 8. Compliance mutation sweep
# ---------------------------------------------------------------------------


def _drop_line(text, needle):
    kept = [ln for ln in text.splitlines() if needle not in ln]
    assert len(kept) == len(text.splitlines()) - 1
    return "\n".join(kept) + "\n"


def test_compliance_verdict_flips_per_mutation_class():
    t0 = time.monotonic()
    onto = load_ontology(SAMPLES / "audit.onto")
    ds = load_facts(SAMPLES / "audit.facts", onto)
    ph = load_policy(SAMPLES / "audit_high.pol", onto)
    pl = load_policy(SAMPLES / "audit_low.pol", onto)
    patterns = load_patterns(SAMPLES / "audit.rp", onto)
    sigma = load_state(SAMPLES / "audit.state", onto)

    baseline = check_compliance(ph, pl, ds, patterns, sigma, onto)
    assert baseline.verdict == "compliant"

    low_text = (SAMPLES / "audit_low.pol").read_text()
    facts_text = (SAMPLES / "audit.facts").read_text()
    from polcheck.loading import parse_facts

    sweeps = [
        (
            "delete the required negative do",
            dict(pl=parse_policy(_drop_line(low_text, "do(report1, eve, -read)"), onto)),
            "modal-authorization-violation",
        ),
        (
            "remove the +execute grant",
            dict(pl=parse_policy(_drop_line(low_text, "cando(Backup"), onto)),
            "modal-capability-conflict",
        ),
        (
            "falsify the satisfied obligation's effect",
            dict(sigma=CurrentState()),
            "obligation-violation",
        ),
        (
            "delete the declared resource object",
            dict(ds=parse_facts(_drop_line(facts_text, "obj tape1"), onto)),
            "resource-capability-conflict",
        ),
    ]
    for label, override, category in sweeps:
        args = dict(ph=ph, pl=pl, ds=ds, patterns=patterns, sigma=sigma, onto=onto)
        args.update(override)
        report = check_compliance(**args)
        assert report.verdict == "non-compliant", label
        assert [c.category for c in report.conflicts] == [category], label
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passed("each compliance mutation class flips the verdict in its own category", elapsed)


# ---------------------------------------------------------------------------
# 9. Termination and determinism
# ---------------------------------------------------------------------------


def test_nested_enumeration_is_finite_and_deterministic():
    onto = load_ontology(SAMPLES / "nested.onto")
    ds = load_facts(SAMPLES / "nested.facts", onto)
    ph = load_policy(SAMPLES / "nested_high.pol", onto)
    patterns = load_patterns(SAMPLES / "nested.rp", onto)
    result = refine_policy(ph, patterns, onto, ds)
    assert [b.choice_log for b in result.branches] == [
        (("r1", "p1", "choice.1"), ("r1.c1", "p2", "choice.1")),
        (("r1", "p1", "choice.1"), ("r1.c1", "p2", "choice.2")),
        (("r1", "p1", "choice.2"), ("r1.c2", "p3", "choice.1")),
        (("r1", "p1", "choice.2"), ("r1.c2", "p3", "choice.2")),
    ]

    def fresh_report():
        onto = load_ontology(SAMPLES / "nested.onto")
        ds = load_facts(SAMPLES / "nested.facts", onto)
        report = check_compliance(
            load_policy(SAMPLES / "nested_high.pol", onto),
            load_policy(SAMPLES / "nested_low.pol", onto),
            ds,
            load_patterns(SAMPLES / "nested.rp", onto),
            CurrentState(),
            onto,
        )
        return report.to_json()

    first, second = fresh_report(), fresh_report()
    assert first == second
    assert json.loads(first)["schema_version"] == 1
    _passed("nested enumeration stops at 4 branches and reports are byte-identical")

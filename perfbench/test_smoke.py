"""The benchmark's own test, at smoke size.

    python3 -m pytest perfbench -q

At smoke size the generator's expected models are cross-checked against the
naive Datalog oracle in tests/oracle_datalog.py, which grounds every rule by
brute force and is too slow for the full sizes. The engine's models must
match the oracle's, apart from one known gap in the oracle (see
_closure_facts). Then the harness runs each workload briefly, untraced and
traced, and its printed metrics must be exactly the ones BENCHMARK.json
names, with the same units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402
from oracle_datalog import naive_model  # noqa: E402
from polcheck.datalog import evaluate  # noqa: E402
from polcheck.loading import load_facts, load_ontology, load_patterns, load_policy  # noqa: E402
from polcheck.refinement import refine_policy  # noqa: E402
from polcheck.terms import Atom, Signed, free_vars, render  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)
SEEDS = (1, 2, 3)


def _closure_facts(policy) -> set:
    """Heads of ground do(-) closure rules, `do(o, s, -a) :- ~do(o, s, +a).`
    with no variables. evaluate treats such a rule as an ordinary ground rule,
    which samples/audit relies on; naive_model grounds every row-8 rule over
    the authorization triples already derived, so it misses these heads when
    no cando/do atom names the triple. The cross-check allows exactly these
    atoms, and only when the positive decision is absent."""
    return {
        r.head
        for r in policy.rules
        if r.head.pred == "do" and r.head.args[2].sign == "-" and not free_vars(r.head)
        and len(r.body) == 1 and r.body[0].negated
    }


def _agrees_with_oracle(policy, ds, onto) -> set:
    """The engine's model, after checking it against the naive oracle."""
    engine = evaluate(policy, ds, onto).atoms
    oracle = naive_model(policy, ds.base_atoms)
    assert oracle <= engine
    for atom in engine - oracle:
        assert atom in _closure_facts(policy), render(atom)
        positive = Atom("do", atom.args[:2] + (Signed("+", atom.args[2].term),))
        assert positive not in engine
    return engine


def _load(workload, tmp_path):
    paths = workload.write(tmp_path)
    onto = load_ontology(paths["onto"])
    ds = load_facts(paths["facts"], onto)
    return onto, ds, paths


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_expected_models_agree_with_the_naive_oracle(name, seed, tmp_path):
    w = workloads.generate(name, seed, "smoke")
    exp = w.expected
    onto, ds, paths = _load(w, tmp_path)
    high = load_policy(paths["high"], onto)
    branches = refine_policy(high, load_patterns(paths["patterns"], onto), onto, ds).branches
    assert [[list(e) for e in b.choice_log] for b in branches] == exp.branch_logs

    models = [{render(a) for a in _agrees_with_oracle(b.policy, ds, onto)} for b in branches]

    # The reported branch holds exactly the constructed mustdo atoms.
    reported = exp.branch_logs.index(exp.matched_branch)
    assert sorted(a for a in models[reported] if a.startswith("mustdo(")) == exp.mustdo

    # explain's atom is first derived in the constructed branch ...
    first = next(i for i, m in enumerate(models, 1) if w.explain_atom in m)
    assert first == exp.explain_branch
    # ... and not by the low policy, which explain consults first.
    low_model = _agrees_with_oracle(load_policy(paths["low"], onto), ds, onto)
    assert w.explain_atom not in {render(a) for a in low_model}


def _bench(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_harness_prints_the_declared_metrics(name, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert name in {w["name"] for w in declared["workloads"]}
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    result = _bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

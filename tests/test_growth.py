"""The evaluator's work grows linearly with the benchmark's inputs.

perfbench's wide and deep generators (`perfbench/workloads.py`, loaded
read-only) build the inputs at three sizes, each double the last. One
`check_compliance` at each size is counted, not timed, so the test is exact
on any host: candidates examined (`datalog._extend` calls), fixpoint rounds
(`_Store.add` calls), templates instantiated (`datalog._instance` calls:
rule-instance atoms and join keys) and atoms put into an index. Each count
may grow at most 2.2x per doubling, which a term quadratic in the input,
such as an index rebuilt on every probe, breaks.

The parse of the low policy is counted the same way: its tokens may grow at
most 2.2x per doubling, and its shape checks stay within one per builtin atom
(each rule's head, and the few builtin body literals) plus one per distinct
property or override shape, which a shape checked again per atom breaks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import polcheck.datalog
import polcheck.policy
import polcheck.terms
from polcheck.compliance import check_compliance
from polcheck.loading import parse_facts, parse_ontology, parse_patterns, parse_state
from polcheck.policy import BUILTIN_SHAPES, parse_policy

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SIZES = (10, 20, 40)


def _workloads():
    name = "_perfbench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up by name
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _work(monkeypatch, workload) -> dict:
    """The counts of one check_compliance on the workload's inputs."""
    texts = workload.texts
    onto = parse_ontology(texts["onto"])
    args = (
        parse_policy(texts["high"], onto),
        parse_policy(texts["low"], onto),
        parse_facts(texts["facts"], onto),
        parse_patterns(texts["patterns"], onto),
        parse_state(texts["state"], onto),
        onto,
    )
    counts = dict.fromkeys(("candidates", "rounds", "instances", "indexed"), 0)
    datalog = polcheck.datalog

    def counted(key, real):
        def call(*a):
            counts[key] += 1
            return real(*a)

        return call

    def pool(atoms, shape, positions, key, real=datalog._Atoms.pool):
        before = atoms.indexes.get(shape, {}).get(positions)
        out = real(atoms, shape, positions, key)
        if atoms.indexes.get(shape, {}).get(positions) is not before:  # built or rebuilt
            counts["indexed"] += len(atoms.lists.get(shape, ()))
        return out

    monkeypatch.setattr(datalog, "_extend", counted("candidates", datalog._extend))
    monkeypatch.setattr(datalog, "_instance", counted("instances", datalog._instance))
    monkeypatch.setattr(datalog._Store, "add", counted("rounds", datalog._Store.add))
    monkeypatch.setattr(datalog._Atoms, "pool", pool)
    check_compliance(*args)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("shape", ["wide", "deep"])
def test_check_work_grows_linearly_with_the_workload(monkeypatch, shape):
    generate = getattr(_workloads(), shape)
    runs = [_work(monkeypatch, generate(1, n)) for n in SIZES]
    for key in runs[0]:
        assert runs[0][key] > 0, (key, runs)
        for small, large in zip(runs, runs[1:]):
            assert large[key] <= 2.2 * small[key], (key, [run[key] for run in runs])


def _parse_work(monkeypatch, workload) -> tuple:
    """Tokens read and shape checks made by one parse of the low policy, and
    the bound on the checks: one per builtin atom and per other shape."""
    texts = workload.texts
    onto = parse_ontology(texts["onto"])
    counts = {"tokens": 0, "shape checks": 0}

    def tokenize(text, real=polcheck.terms.tokenize):
        tokens = real(text)
        counts["tokens"] += len(tokens)
        return tokens

    def check(atom, rule_id, onto, real=polcheck.policy._check_atom_shape):
        counts["shape checks"] += 1
        return real(atom, rule_id, onto)

    monkeypatch.setattr(polcheck.terms, "tokenize", tokenize)
    monkeypatch.setattr(polcheck.policy, "_check_atom_shape", check)
    policy = parse_policy(texts["low"], onto)
    monkeypatch.undo()
    atoms = [a for r in policy.rules for a in (r.head, *[lit.atom for lit in r.body])]
    builtin = sum(a.pred in BUILTIN_SHAPES for a in atoms)
    assert builtin >= len(policy.rules)  # every head of these policies is builtin
    return counts, builtin + len({a._shape for a in atoms if a.pred not in BUILTIN_SHAPES})


@pytest.mark.parametrize("shape", ["wide", "deep"])
def test_parse_work_grows_linearly_and_checks_each_shape_once(monkeypatch, shape):
    generate = getattr(_workloads(), shape)
    runs = [_parse_work(monkeypatch, generate(1, n)) for n in SIZES]
    for counts, bound in runs:
        assert 0 < counts["shape checks"] <= bound, runs
    tokens = [counts["tokens"] for counts, _ in runs]
    for small, large in zip(tokens, tokens[1:]):
        assert 0 < small and large <= 2.2 * small, tokens

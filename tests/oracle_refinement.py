"""Reference refinement enumeration, independent of the engine's walk.

reference_refinements is the enumeration as first written: after every
pattern application it rescans the branch from its first rule, splices the
outcome in by rule id and records the refined id in a done set. That is
quadratic per branch but easy to believe. It shares the single-step pieces
(pattern flattening, the cycle check, one pattern application, the atomic
lifts) with the engine, so a comparison tests the walk itself. The module
also hosts the random instance generator used by the equivalence test.

Three orders are decided by the rules taken one at a time, in policy order:
the branch limit names the multiplying patterns met before the branch count
passed it, warnings come in the order first seen, and a rule's errors (the
limit or a PatternError) come before any of the next rule's. The reference
gets them from splicing each top-level rule alone under the limit divided by
the branch count so far, and the branches from splicing the whole policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from polcheck.actions import (
    CHOICE,
    CONJ,
    SEQ,
    ActionClassDef,
    ActionLeaf,
    ActionNode,
    RefinementPattern,
    taxonomy_of,
)
from polcheck.errors import BranchLimitError, PolicyError
from polcheck.ontology import ENTIRE, Ontology, PropertyDef
from polcheck.policy import check_stratification, parse_policy
from polcheck.refinement import (
    RefinementBranch,
    _apply_pattern,
    _check_acyclic,
    _flatten_patterns,
    _lift_atomic_obligations,
)
from polcheck.terms import ActionTerm, Var


@dataclass(frozen=True)
class ReferenceResult:
    branches: tuple  # (RefinementBranch, ...) in choice-log order
    warnings: tuple  # every warning, once per pattern application


def _splices(p, by_root, onto, room, limit, warnings, multiplying) -> list:
    """Every branch of p as (rules, choice log), depth first; past room
    branches, BranchLimitError names the limit and the multiplying patterns."""

    def refinable(rule, done):
        return (
            rule.head.pred in ("hasObligation", "derhasObligation")
            and rule.rule_id not in done
            and isinstance(rule.head.args[1], ActionTerm)
            and rule.head.args[1].name in by_root
        )

    finished = []
    stack = [(p.rules, (), frozenset())]
    while stack:
        rules, clog, done = stack.pop()
        rule = next((r for r in rules if refinable(r, done)), None)
        if rule is None:
            finished.append((rules, clog))
            continue
        applicable = by_root[rule.head.args[1].name]
        if len(applicable) > 1:
            multiplying.update(x.pattern_id for x in applicable)
        nxt = []
        for pat in applicable:
            outcomes = _apply_pattern(rule, pat, onto, warnings)
            if len(outcomes) > 1:
                multiplying.add(pat.pattern_id)
            for new_rules, keep, entry in outcomes:
                spliced = []
                for r in rules:
                    if r.rule_id == rule.rule_id:
                        spliced += ([r] if keep else []) + list(new_rules)
                    else:
                        spliced.append(r)
                nxt.append((tuple(spliced), clog + (entry,), done | {rule.rule_id}))
        if len(finished) + len(stack) + len(nxt) > room:
            raise BranchLimitError(limit, tuple(sorted(multiplying)))
        stack.extend(reversed(nxt))
    return finished


def reference_refinements(p, patterns, onto, max_branches=1024) -> ReferenceResult:
    pats = _flatten_patterns(patterns)
    _check_acyclic(pats)
    by_root: dict = {}
    for pat in sorted(pats, key=lambda x: x.pattern_id):
        by_root.setdefault(pat.root, []).append(pat)

    warnings, multiplying, count = [], set(), 1
    for rule in p.rules:
        room = max_branches // count
        count *= len(_splices(p.with_rules((rule,)), by_root, onto, room, max_branches, warnings, multiplying))
    finished = [
        RefinementBranch(_lift_atomic_obligations(p.with_rules(rules), by_root), clog)
        for rules, clog in _splices(p, by_root, onto, count, max_branches, [], set())
    ]
    for branch in finished:
        result = check_stratification(branch.policy, onto)
        if not result.ok:
            first = result.violations[0]
            raise PolicyError(
                f"refinement produced an unstratified rule: {first.rule_id}: {first.message}"
            )
    finished.sort(key=lambda b: b.choice_log)
    return ReferenceResult(tuple(finished), tuple(warnings))


ACTIONS = tuple(f"A{i}" for i in range(8))
_OPS = (SEQ, CHOICE, CONJ)


def _leaf(name, deeper=False):
    x = ActionTerm("Wrap", (("k", Var("x")),)) if deeper else Var("x")
    return ActionLeaf(name, (("target", x),))


def random_instance(rng):
    """(policy, patterns, ontology, max_branches): 0-7 sequence, choice and
    conjunction patterns over eight actions A0-A7, of which A7 is undeclared.
    Patterns mostly point from lower to higher action numbers, so cycles are
    rare; some are guarded, some have a labeled inner composition and some
    leaves nest $x one level deeper. 1-4 obligation rules, a few with a
    binding no pattern unifies with, some derived ones with a recursive body
    literal (which a deeper leaf makes unstratified), and sometimes a
    decision rule among them."""
    onto = Ontology(properties={"owns": PropertyDef("owns")})
    for name in ACTIONS[:7]:
        onto.action_classes[name] = ActionClassDef(name, ENTIRE, ENTIRE, params=("target",))
    def operand(low):
        roll = rng.random()
        number = 7 if roll < 0.04 else rng.randint(0, 6) if roll < 0.07 else rng.randint(low, 6)
        return _leaf(ACTIONS[number], deeper=rng.random() < 0.1)

    patterns = []
    for k in range(rng.randint(0, 7)):
        root = rng.randint(0, 5)
        left, right = operand(root + 1), operand(root + 1)
        if root < 5 and rng.random() < 0.2:
            mid = rng.randint(root + 1, 5)
            left = ActionNode(rng.choice(_OPS), operand(mid + 1), operand(mid + 1), label=ACTIONS[mid])
        if rng.random() < 0.1:
            body = ActionNode(rng.choice((SEQ, CONJ)), left, right, guard=ENTIRE, guard_side="right")
        else:
            body = ActionNode(rng.choice(_OPS), left, right)
        patterns.append(
            RefinementPattern(f"p{k}", ACTIONS[root], (("target", Var("x")),), body, taxonomy_of(body))
        )
    lines = []
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(("hasObligation", "derhasObligation"))
        prop = "host" if rng.random() < 0.05 else "target"
        action = ACTIONS[rng.randint(0, 7)]
        body = "owns($s, $x)"
        if head == "derhasObligation" and rng.random() < 0.3:
            body += f" & derhasObligation($s, {ACTIONS[rng.randint(0, 7)]}((target, $x)), true)"
        lines.append(f"{head}($s, {action}(({prop}, $x)), true) :- {body}.")
    if rng.random() < 0.5:
        decide = "mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a)."
        lines.insert(rng.randint(0, len(lines)), decide)
    return parse_policy("\n".join(lines)), tuple(patterns), onto, rng.choice((4, 16, 1024))

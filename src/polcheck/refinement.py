"""Policy refinement: hierarchy propagation, action-refinement distribution
over sequence, choice, and conjunction, obligation-derived authorizations,
and conflict-resolution installation.

Refinement by choice or conjunction forks the policy, so the engine works on
branches. Each branch carries a choice log of (rule id, pattern id, branch
tag) entries; replaying a log against the original inputs reproduces the
branch policy byte for byte.

Refining a rule rewrites that rule alone, and whether a pattern applies to a
rule depends on that rule alone, so each top-level rule is walked once, on
its own: a refined rule's outcome rules are visited next, and a fork copies
the walk once per extra outcome. The walk's leaves are the rule's outcomes,
and the branches are their product, the first rule most significant. The
result keeps one table of the distinct rules, each with the mask of the
branches that hold it, for the evaluator; a branch's policy and choice log
are built from its leaves on demand. Replay walks the whole policy along
its log. Each pattern is applied once per rule object, so leaves share
outcome rules. Obligations on atomic actions are lifted once, before the
walks, as refinement never makes or drops one. Stratification judges each
rule alone, so it is checked once, over the table.

Sequence refinement of an authored obligation rule keeps the source rule and
adds a pair of derived rules: the first sub-obligation inherits the source
body, the second fires once the first sub-action is done and the source
obligation still holds. When the source is itself a derived rule there is no
base predicate to reference, so the second rule inlines the source body
instead. Dispensation rules are never action-refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, product

from .actions import ActionLeaf, CHOICE, SEQ, RefinementPattern, pattern_nodes, taxonomy_of
from .errors import BranchLimitError, CycleError, PatternError, PolicyError
from .ontology import Ontology, StateSpace, _cover, _cycle, space_meet
from .policy import Policy, Rule, _check_safety, check_stratification
from .terms import (
    Atom,
    ActionTerm,
    Const,
    Formula,
    FALSE,
    Literal,
    Signed,
    TRUE,
    Var,
    match,
    substitute,
)

# The default most refinement branches to enumerate before giving up.
MAX_BRANCHES = 1024


@dataclass(frozen=True)
class RefinementBranch:
    policy: Policy
    choice_log: tuple = ()  # ((rule_id, pattern_id, tag), ...)


@dataclass(frozen=True)
class RefinementResult:
    """The refinement branches of a policy as a product: branch b takes, of
    each top-level rule, leaf (b // inner) % n, where n is the rule's leaf
    count and inner the product of the later rules' counts."""

    policy: Policy  # whose scope and environment every branch keeps
    outcomes: tuple  # per top-level rule: ((rules, choice log), ...), its leaves
    rules: tuple  # ((rule, mask of the branches that hold it), ...), each rule object once
    warnings: tuple = ()

    @property
    def count(self) -> int:
        return math.prod(map(len, self.outcomes))

    def choice_log(self, i: int) -> tuple:
        logs = []
        for leaves in reversed(self.outcomes):
            i, leaf = divmod(i, len(leaves))
            logs.append(leaves[leaf][1])
        return tuple(chain.from_iterable(reversed(logs)))

    @cached_property
    def branches(self) -> tuple:
        """Every branch's policy and choice log, in choice-log order."""
        return tuple(
            RefinementBranch(
                self.policy.with_rules(chain.from_iterable(rules for rules, _ in leaves)),
                tuple(chain.from_iterable(log for _, log in leaves)),
            )
            for leaves in product(*self.outcomes)
        )


# ---------------------------------------------------------------------------
# Template installation
# ---------------------------------------------------------------------------


def _mk(rule_id: str, head: Atom, body=()) -> Rule:
    rule = Rule(rule_id, head, tuple(body))
    _check_safety(rule)
    return rule


def _append_unique(p: Policy, rules) -> Policy:
    existing = {(r.head, r.body) for r in p.rules}
    added = [r for r in rules if (r.head, r.body) not in existing]
    return p.with_rules(p.rules + tuple(added))


def propagate_hierarchy(p: Policy, onto: Ontology) -> Policy:
    """Install the four subject-hierarchy propagation templates for every
    declared hie predicate: obligations and dispensations on an upper
    subject derive for the subjects below it."""
    s1, s2, a, q = Var("s1"), Var("s2"), Var("a"), Var("q")
    rules = []
    for h in onto.hie_predicates():
        below = Literal(False, Atom(h, (s2, s1)))
        for kind, pred, args in (("obl", "hasObligation", (a, q)), ("disp", "hasDispensation", (a,))):
            for rid, source in ((kind, pred), (f"{kind}.der", f"der{pred}")):
                upper = Literal(False, Atom(source, (s1, *args)))
                rules.append(_mk(f"hier.{h}.{rid}", Atom(f"der{pred}", (s2, *args)), (upper, below)))
    return _append_unique(p, rules)


def derive_authorizations(p: Policy, onto: Ontology = None) -> Policy:
    """Install the obligation-to-authorization templates: +execute on the
    obligation action, +modify on its resources, +read on its instruments.
    The resource/instrument forms are specialized per action class from the
    ontology declarations; the generic forms fire only against explicitly
    asserted resource/instrument atoms."""
    s, a, q = Var("s"), Var("a"), Var("q")

    def grant(obj, right, *body):
        return Atom("cando", (obj, s, Signed("+", Const(right)))), body

    mustdo = Literal(False, Atom("mustdo", (s, a, q)))
    rules = [_mk("auth.execute", *grant(a, "execute", mustdo))]
    declared = onto.properties if onto is not None else {}
    for prop, right, var in (("resource", "modify", "r"), ("instrument", "read", "i")):
        if prop in declared:
            x = Var(var)
            rules.append(_mk(f"auth.{right}", *grant(x, right, mustdo, Literal(False, Atom(prop, (a, x))))))
    for name in sorted(onto.action_classes if onto is not None else ()):
        acd = onto.action_classes[name]
        must = Literal(False, Atom("mustdo", (s, _shape(name, acd.params), q)))
        for objs, right in ((acd.resources, "modify"), (acd.instruments, "read")):
            rules.extend(_mk(f"auth.{right}.{name}.{obj}", *grant(Const(obj), right, must)) for obj in objs)
    return _append_unique(p, rules)


def _shape(name: str, params) -> ActionTerm:
    """The action term of a class with a fresh variable per parameter."""
    return ActionTerm(name, tuple((prop, Var(f"v_{prop}")) for prop in params))


def install_conflict_resolution(p: Policy, mode: str = "dispensation-precedence") -> Policy:
    """dispensation-precedence installs the dispensation lift and the default
    decision rule (mustdo unless dispensed); custom keeps only authored
    decision rules."""
    if mode == "custom":
        return p
    if mode != "dispensation-precedence":
        raise PolicyError(f"unknown conflict resolution mode {mode!r}")
    s, a, q = Var("s"), Var("a"), Var("q")
    dispensed = Atom("derhasDispensation", (s, a))
    lift = _mk("cr.lift", dispensed, (Literal(False, Atom("hasDispensation", (s, a))),))
    obliged = Literal(False, Atom("derhasObligation", (s, a, q)))
    decide = _mk("cr.mustdo", Atom("mustdo", (s, a, q)), (obliged, Literal(True, dispensed)))
    return _append_unique(p, (lift, decide))


# ---------------------------------------------------------------------------
# q1 compilation
# ---------------------------------------------------------------------------


def compile_meet_formula(gamma1: StateSpace, delta2: StateSpace, onto: Ontology):
    """The postcondition Γ1 ⊓ Δ2 as a formula over the variable table's rel
    atoms. The empty meet is false (warned). A meet that is a product of
    per-variable value sets becomes the conjunction of the variables held to
    one value, so the whole space is true; any other meet is weakened to
    true (warned)."""
    cover = _cover(space_meet(gamma1, delta2, onto), onto)
    size = sum(math.prod(map(len, box.values())) for box in cover)
    if not size:
        return FALSE, "sequence postcondition is unsatisfiable (empty meet)"
    values = {v: {w for box in cover for w in box[v]} for v in onto.variables}
    if math.prod(map(len, values.values())) != size:
        return TRUE, "postcondition meet is not expressible as an atom conjunction; weakened to true"
    conjuncts = []
    for v, vdef in onto.variables.items():
        if len(values[v]) == 1 and tuple(values[v]) != vdef.values:
            (value,) = values[v]
            conjuncts.append(Literal(False, Atom(vdef.prop, (Const(vdef.object_id), Const(value)))))
        elif len(values[v]) not in (1, len(vdef.values)):
            return TRUE, "postcondition meet is not expressible as an atom conjunction; weakened to true"
    return Formula(tuple(conjuncts)), None


# ---------------------------------------------------------------------------
# Pattern application
# ---------------------------------------------------------------------------


def _flatten_patterns(patterns) -> tuple:
    """Complex pattern bodies become one simple pattern per labeled node, the
    label standing in as the operand action."""
    out = []
    for pat in patterns:
        for parent, node, _, pid in pattern_nodes(pat):
            left, right = (
                c if isinstance(c, ActionLeaf) else ActionLeaf(c.label, pat.root_bindings)
                for c in (node.left, node.right)
            )
            simple = replace(node, left=left, right=right, label=None)
            out.append(RefinementPattern(pid, parent, pat.root_bindings, simple, taxonomy_of(simple)))
    return tuple(out)


def _check_acyclic(patterns) -> None:
    """Root -> operand edges must form no cycle; the first one found, in
    sorted order, is reported as a trail."""
    edges: dict = {}
    for pat in patterns:
        edges.setdefault(pat.root, set()).update((pat.body.left.name, pat.body.right.name))
    trail = _cycle(edges, sorted(edges))
    if trail:
        raise CycleError("refinement patterns are cyclic: " + " -> ".join(trail))


def _unify(pat: RefinementPattern, rule: Rule) -> dict:
    root_term = ActionTerm(pat.root, pat.root_bindings)
    theta = match(root_term, rule.head.args[1], {})
    if theta is None:
        raise PatternError(
            f"pattern {pat.pattern_id} does not unify with the action of rule {rule.rule_id}"
        )
    return theta


def _leaf_term(leaf: ActionLeaf, theta: dict) -> ActionTerm:
    return substitute(ActionTerm(leaf.name, leaf.bindings), theta)


def _done(subject, term) -> Literal:
    return Literal(False, Atom("done_act", (subject, term)))


def _not_done(subject, term) -> Literal:
    return Literal(True, Atom("done_act", (subject, term)))


def _obl(subject, term, q) -> Atom:
    return Atom("derhasObligation", (subject, term, q))


def _sequence_rules(rule, term1, term2, a1_name, a2_name, onto, rid_prefix, warnings):
    """The B.1 pair for ``rule`` refined through term1 ; term2."""
    subject, q = rule.head.args[0], rule.head.args[2]
    c1 = onto.action_classes.get(a1_name)
    c2 = onto.action_classes.get(a2_name)
    if c1 is None or c2 is None:
        missing = a1_name if c1 is None else a2_name
        raise PatternError(f"undeclared action {missing!r} in a sequence refinement")
    q1, warn = compile_meet_formula(c1.final_space, c2.init_space, onto)
    if warn:
        warnings.append(f"{rid_prefix}: {warn}")
    first = _mk(f"{rid_prefix}.s1", _obl(subject, term1, q1), rule.body)
    if rule.head.pred == "hasObligation":
        second = _mk(
            f"{rid_prefix}.s2",
            _obl(subject, term2, q),
            (
                _done(subject, term1),
                Literal(False, Atom("hasObligation", (subject, rule.head.args[1], q))),
            ),
        )
        keep_source = True
    else:
        second = _mk(
            f"{rid_prefix}.s2",
            _obl(subject, term2, q),
            rule.body + (_done(subject, term1),),
        )
        keep_source = False
    return first, second, keep_source


def _apply_pattern(rule: Rule, pat: RefinementPattern, onto: Ontology, warnings):
    """All outcomes of one pattern application: [(new rules, keep the
    source, log entry)]."""
    theta = _unify(pat, rule)
    body = pat.body
    left = _leaf_term(body.left, theta)
    right = _leaf_term(body.right, theta)
    rid, pid = rule.rule_id, pat.pattern_id
    if body.guard is not None:
        warnings.append(
            f"{pid}: guarded composition refined as its basic counterpart (guards do not reach rules)"
        )

    if body.op == SEQ:
        first, second, keep = _sequence_rules(
            rule, left, right, body.left.name, body.right.name, onto, rid, warnings
        )
        return [((first, second), keep, (rid, pid, "seq"))]

    if body.op == CHOICE:
        subject, q = rule.head.args[0], rule.head.args[2]
        outcomes = []
        for k, (mine, other) in enumerate(((left, right), (right, left)), 1):
            refined = _mk(
                f"{rid}.c{k}",
                _obl(subject, mine, q),
                rule.body + (_not_done(subject, other),),
            )
            outcomes.append(((refined,), False, (rid, pid, f"choice.{k}")))
        return outcomes

    # conjunction: choice over both orders, then sequence inside each branch
    subject, q = rule.head.args[0], rule.head.args[2]
    root_term = rule.head.args[1]
    ord_terms = (
        ActionTerm(f"{pat.root}__ord1", root_term.bindings),
        ActionTerm(f"{pat.root}__ord2", root_term.bindings),
    )
    orders = ((left, right, body.left.name, body.right.name), (right, left, body.right.name, body.left.name))
    outcomes = []
    for k, (t1, t2, n1, n2) in enumerate(orders, 1):
        other = ord_terms[2 - k]
        mid = _mk(
            f"{rid}.o{k}",
            _obl(subject, ord_terms[k - 1], q),
            rule.body + (_not_done(subject, other),),
        )
        first, second, _ = _sequence_rules(mid, t1, t2, n1, n2, onto, mid.rule_id, warnings)
        outcomes.append(((first, second), False, (rid, pid, f"conj.{k}")))
    return outcomes


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

_REFINABLE = ("hasObligation", "derhasObligation")


def _by_root(pats) -> dict:
    by_root: dict = {}
    for pat in sorted(pats, key=lambda x: x.pattern_id):
        by_root.setdefault(pat.root, []).append(pat)
    return by_root


def _patterns_for(rule: Rule, by_root: dict):
    """The patterns rooted at the action of an obligation rule's head."""
    action = rule.head.args[1] if rule.head.pred in _REFINABLE else None
    return by_root.get(action.name, ()) if isinstance(action, ActionTerm) else ()


def _walk(rules, by_root: dict, expand) -> list:
    """Refine ``rules`` in one left-to-right pass over each branch's rules.

    A branch is the rules already visited, a stack of rules still to visit
    and its choice log. A rule no pattern applies to moves to the visited
    list. For any other rule, ``expand(rule, patterns, waiting)`` returns
    the outcomes to follow as (new rules, keep the source, log entry);
    ``waiting`` counts the branches finished or not yet resumed. The kept
    source moves to the visited list and the new rules are visited next. A
    fork copies the branch once per extra outcome. Branches run depth first,
    first outcome first, which is choice-log order. Returns [rules, choice
    log] lists per finished branch."""
    finished = []
    stack = [([], list(reversed(rules)), [])]
    while stack:
        visited, todo, clog = stack.pop()
        while todo:
            rule = todo.pop()
            applicable = _patterns_for(rule, by_root)
            if applicable:
                break
            visited.append(rule)
        else:
            finished.append((visited, clog))
            continue
        outcomes = expand(rule, applicable, len(finished) + len(stack))
        forks = [(visited, todo, clog)] + [(visited[:], todo[:], clog[:]) for _ in outcomes[1:]]
        for (v, t, c), (new_rules, keep, entry) in reversed(list(zip(forks, outcomes))):
            if keep:
                v.append(rule)
            t.extend(reversed(new_rules))
            c.append(entry)
            stack.append((v, t, c))
    return finished


def _table(outcomes) -> tuple:
    """(rule, branch mask) per distinct rule object, in the order the
    branches, taken in turn, first hold it. Leaf l of a top-level rule with n
    leaves and `inner` branches per leaf is held by the block of `inner` bits
    at l * inner, repeated every n * inner bits, so branch l * inner is its first."""
    total = inner = math.prod(map(len, outcomes))
    entries: dict = {}  # id(rule) -> [first branch, rule, mask], in the order met
    for leaves in outcomes:
        inner //= len(leaves)
        repeat = ((1 << total) - 1) // ((1 << len(leaves) * inner) - 1)
        for leaf, (rules, _) in enumerate(leaves):
            held = (((1 << inner) - 1) << leaf * inner) * repeat
            for rule in rules:
                entries.setdefault(id(rule), [leaf * inner, rule, 0])[2] |= held
    return tuple((rule, mask) for _, rule, mask in sorted(entries.values(), key=lambda e: e[0]))


def _lift_atomic_obligations(policy: Policy, by_root: dict) -> Policy:
    """Obligations on pattern-less (atomic) actions never pass through the
    B rules, so they get a per-class lift to derhasObligation."""
    classes = {}
    for rule in policy.rules:
        if rule.head.pred != "hasObligation":
            continue
        action = rule.head.args[1]
        if isinstance(action, ActionTerm) and action.name not in by_root:
            classes.setdefault(action.name, tuple(p for p, _ in action.bindings))
    s, q = Var("s"), Var("q")
    lifts = []
    for name in sorted(classes):
        shape = _shape(name, classes[name])
        obliged = Literal(False, Atom("hasObligation", (s, shape, q)))
        lifts.append(_mk(f"lift.{name}", Atom("derhasObligation", (s, shape, q)), (obliged,)))
    return _append_unique(policy, lifts)


def enumerate_refinements(
    p: Policy,
    patterns,
    onto: Ontology,
    max_branches: int = MAX_BRANCHES,
) -> RefinementResult:
    """Exhaustively apply the B rules in deterministic rule/pattern order
    until every obligation action is atomic. Choice and conjunction fork;
    multiple patterns on one action fork across patterns. Each top-level
    rule is walked on its own, in policy order, under the limit divided by
    the branches of the rules before it: so BranchLimitError comes exactly
    when the branch count passes max_branches, and names the multiplying
    patterns met before it did. Each warning is listed once, in the order
    first seen."""
    pats = _flatten_patterns(patterns)
    _check_acyclic(pats)
    by_root = _by_root(pats)
    warnings: list[str] = []
    multiplying: set = set()
    applied: dict = {}  # (id(rule), id(pattern)) -> (rule, outcomes)
    room = max_branches

    def every_outcome(rule, applicable, waiting):
        if len(applicable) > 1:
            multiplying.update(x.pattern_id for x in applicable)
        nxt = []
        for pat in applicable:
            if (id(rule), id(pat)) not in applied:
                applied[id(rule), id(pat)] = rule, _apply_pattern(rule, pat, onto, warnings)
            given = applied[id(rule), id(pat)][1]
            if len(given) > 1:
                multiplying.add(pat.pattern_id)
            nxt.extend(given)
        if waiting + len(nxt) > room:
            raise BranchLimitError(max_branches, tuple(sorted(multiplying)))
        return nxt

    outcomes = []
    for rule in _lift_atomic_obligations(p, by_root).rules:
        leaves = _walk((rule,), by_root, every_outcome)
        room //= len(leaves)
        outcomes.append(tuple((tuple(rules), tuple(log)) for rules, log in leaves))
    table = _table(outcomes)
    result = check_stratification(p.with_rules(rule for rule, _ in table), onto)
    if not result.ok:
        first = result.violations[0]
        raise PolicyError(
            f"refinement produced an unstratified rule: {first.rule_id}: {first.message}"
        )
    return RefinementResult(p, tuple(outcomes), table, tuple(dict.fromkeys(warnings)))


def replay(p: Policy, patterns, choice_log, onto: Ontology) -> Policy:
    """Re-run enumeration following a recorded choice log; returns the branch
    policy it reproduces."""
    by_root = _by_root(_flatten_patterns(patterns))
    entries = iter(choice_log)

    def logged_outcome(rule, applicable, _):
        entry = next(entries, None)
        if entry is None:
            raise PolicyError("choice log exhausted before refinement finished")
        rid, pid, tag = entry
        if rid != rule.rule_id:
            raise PolicyError(f"choice log expects rule {rid!r} but {rule.rule_id!r} is next")
        chosen = [x for x in applicable if x.pattern_id == pid]
        if not chosen:
            raise PolicyError(f"choice log names pattern {pid!r}, not applicable to {rid!r}")
        selected = [o for o in _apply_pattern(rule, chosen[0], onto, []) if o[2][2] == tag]
        if not selected:
            raise PolicyError(f"choice log tag {tag!r} matches no outcome of {pid!r}")
        return selected[:1]

    ((rules, _),) = _walk(_lift_atomic_obligations(p, by_root).rules, by_root, logged_outcome)
    for _ in entries:
        raise PolicyError("choice log has unused entries")
    return p.with_rules(rules)


def refine_policy(
    p: Policy,
    patterns,
    onto: Ontology,
    ds=None,
    mode: str = "dispensation-precedence",
    max_branches: int = MAX_BRANCHES,
) -> RefinementResult:
    """The full high-level refinement pipeline: hierarchy templates,
    authorization templates, conflict resolution, then pattern enumeration.
    ``ds`` is accepted for positional callers and not read: refinement does
    not depend on the data system."""
    staged = install_conflict_resolution(
        derive_authorizations(propagate_hierarchy(p, onto), onto), mode
    )
    return enumerate_refinements(staged, patterns, onto, max_branches=max_branches)

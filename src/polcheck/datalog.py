"""Bottom-up evaluation of stratified policies against a data system.

Evaluation runs stratum by stratum (Table rows 0 through 9), each to a
fixpoint in semi-naive rounds. The first round of a stratum joins every rule
against all atoms; after that a rule fires only through a positive body
literal whose predicate gained atoms in the round before (the delta). For
that literal the join reads the delta, literals before it read the atoms from
before the delta, and literals after it read all atoms, so each rule
instance fires in exactly one round. Only rows 2, 3 and 6 recurse, so every
other stratum ends after its first round. Negated literals only ever name
predicates of strictly lower strata, which are saturated by the time they are
consulted, so the model is the unique stratified fixpoint and does not depend
on rule order.

Each predicate's atoms are kept in an append-only list in the order their
rounds added them, and indexed by the argument positions a probe binds, so a
probe looks up its candidates; the atoms from before the delta are a prefix
of every list.

Supports (why-provenance) are recorded as instances fire. Positive atoms are
never removed and negated literals are decided against saturated strata, so
an instance that fires in any round is an instance over the final model.

The do(o,s,-a) :- ~do(o,s,+a) form has no positive body literal; its
variables range over the authorization triples (o, s, a) collected from the
ground cando/dercando/do atoms, and after the first round over the triples
the delta brings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from .errors import PolicyError
from .ontology import DataSystem, Ontology
from .policy import Policy, Rule, _is_row8, check_stratification
from .terms import (
    Atom,
    Literal,
    Signed,
    free_vars,
    is_ground,
    match,
    match_atom,
    render,
    sort_key,
    substitute,
)


@dataclass(frozen=True)
class Model:
    atoms: frozenset
    supports: dict  # head Atom -> ((rule_id, (ground body Literal, ...)), ...), heads sorted
    error_witnesses: tuple  # ((rule_id, (ground body Literal, ...)), ...)

    def holds(self, atom: Atom) -> bool:
        return atom in self.atoms

    def supports_of(self, atom: Atom) -> tuple:
        return self.supports.get(atom, ())


@dataclass(frozen=True)
class DecisionView:
    do_atoms: tuple  # sorted ground do atoms, both signs
    mustdo_atoms: tuple  # sorted ground mustdo atoms


class _Store:
    """The atoms derived so far, each stamped with the round that added it
    (0 for the data system's). Atoms are listed per (predicate, arity) in
    stamp order, and each list is indexed, once a probe first asks, by the
    argument positions that probe binds. Lists only grow at the end, so the
    atoms stamped before a round are a prefix of each of them."""

    def __init__(self, base):
        self.stamp: dict = {}
        self.lists: dict = {}  # (pred, arity) -> [atom, ...]
        self.indexes: dict = {}  # (pred, arity) -> {positions: {key: [atom, ...]}}
        self.add(base, 0)

    def add(self, atoms, rnd: int) -> None:
        for a in atoms:
            self.stamp[a] = rnd
            shape = (a.pred, len(a.args))
            self.lists.setdefault(shape, []).append(a)
            for positions, index in self.indexes.get(shape, {}).items():
                index.setdefault(tuple(a.args[i] for i in positions), []).append(a)

    def pool(self, pattern: Atom, shape: tuple, positions: tuple, theta: dict):
        """The atoms of the pattern's shape that agree with it, under theta,
        at the given positions, in stamp order."""
        if not positions:
            return self.lists.get(shape, ())
        by_positions = self.indexes.setdefault(shape, {})
        index = by_positions.get(positions)
        if index is None:
            index = by_positions[positions] = {}
            for a in self.lists.get(shape, ()):
                index.setdefault(tuple(a.args[i] for i in positions), []).append(a)
        return index.get(tuple(substitute(pattern.args[i], theta) for i in positions), ())


# Which atoms a join step reads: all of them, those stamped before the
# delta, or the delta.
_ALL, _OLD, _DELTA = "all", "old", "delta"


def _join_plan(positive, j=None) -> tuple:
    """Join steps over a rule's positive body literals: each pattern with
    its (predicate, arity) shape, the argument positions that constants and
    the variables of the steps before it make ground, and the atoms it
    reads. In a stratum's first round (no j) every literal reads all atoms,
    in body order. Otherwise literal j reads the delta and goes first, the
    literals before it read the atoms from before the delta, and those after
    it read all atoms."""
    if j is None:
        order, views = positive, [_ALL] * len(positive)
    else:
        order = [positive[j]] + positive[:j] + positive[j + 1 :]
        views = [_DELTA] + [_OLD] * j + [_ALL] * (len(positive) - j - 1)
    bound, steps = set(), []
    for atom, view in zip(order, views):
        positions = tuple(
            i for i, arg in enumerate(atom.args) if free_vars(arg, include_formulas=True) <= bound
        )
        steps.append((atom, (atom.pred, len(atom.args)), positions, view))
        bound |= free_vars(atom, include_formulas=True)
    return tuple(steps)


def _join(steps, store: _Store, delta_stamp: int) -> list:
    """All substitutions matching the join steps in order."""
    thetas = [{}]
    for atom, shape, positions, view in steps:
        nxt = []
        for th in thetas:
            pool = store.pool(atom, shape, positions, th)
            if view is not _ALL:
                cut = bisect_left(pool, delta_stamp, key=store.stamp.__getitem__)
                pool = islice(pool, cut) if view is _OLD else islice(pool, cut, None)
            for ga in pool:
                th2 = match_atom(atom, ga, th)
                if th2 is not None:
                    nxt.append(th2)
        thetas = nxt
        if not thetas:
            break
    return thetas


def _negatives_ok(body, atoms, theta) -> bool:
    for lit in body:
        if not lit.negated:
            continue
        ga = substitute(lit.atom, theta)
        if not is_ground(ga):
            raise PolicyError(f"negated literal {render(ga)} not ground at check time")
        if ga in atoms:
            return False
    return True


_AUTHORIZATIONS = ("cando", "dercando", "do")


def _auth_triples(atoms) -> set:
    triples = set()
    for a in atoms:
        if a.pred in _AUTHORIZATIONS and len(a.args) == 3:
            act = a.args[2]
            if isinstance(act, Signed):
                triples.add((a.args[0], a.args[1], act.term))
    return triples


def _row8_matches(rule: Rule, triples) -> list:
    """The substitutions that instantiate a do-minus rule over the
    authorization triples."""
    head = rule.head
    pattern = (head.args[0], head.args[1], head.args[2].term)
    out = []
    for triple in triples:
        th = {}
        for pat, val in zip(pattern, triple):
            th = match(pat, val, th)
            if th is None:
                break
        if th is not None:
            out.append(th)
    return out


def evaluate(p: Policy, ds: DataSystem, onto: Ontology = None) -> Model:
    strat = check_stratification(p, onto)
    if not strat.ok:
        first = strat.violations[0]
        raise PolicyError(f"policy is not stratified: {first.rule_id}: {first.message}")
    strata = dict(strat.strata)

    store = _Store(ds.base_atoms)
    acc: dict = {}  # head -> {(rule_id, ground body), ...}
    rnd = 0
    for k in range(1, 10):
        rules_k = [r for r in p.rules if strata[r.rule_id] == k]
        if not rules_k:
            continue
        # An open do(o,s,-a) rule ranges over the authorization triples (None
        # below); every other rule joins its positive body literals.
        compiled = [
            (
                rule,
                None
                if rule.body and _is_row8(rule) and not is_ground(rule.head)
                else [l.atom for l in rule.body if not l.negated],
            )
            for rule in rules_k
        ]
        delta_plans: dict = {}  # (rule position, literal position) -> steps, built on first use
        has_open_rule = any(positive is None for _, positive in compiled)
        seen_triples: set = set()
        delta = None  # the atoms the last round added; None before the first
        while delta is None or delta:
            rnd += 1
            shapes = None if delta is None else {(a.pred, len(a.args)) for a in delta}
            if has_open_rule:
                fresh = delta
                if delta is None:
                    fresh = [a for pred in _AUTHORIZATIONS for a in store.lists.get((pred, 3), ())]
                triples = _auth_triples(fresh) - seen_triples
                seen_triples |= triples
            new: dict = {}  # atoms first derived this round, in order
            for i, (rule, positive) in enumerate(compiled):
                if positive is None:
                    thetas = _row8_matches(rule, triples)
                elif delta is None:
                    thetas = _join(_join_plan(positive), store, rnd - 1)
                else:
                    thetas = []
                    for j, atom in enumerate(positive):
                        if (atom.pred, len(atom.args)) in shapes:
                            if (i, j) not in delta_plans:
                                delta_plans[i, j] = _join_plan(positive, j)
                            thetas += _join(delta_plans[i, j], store, rnd - 1)
                for th in thetas:
                    if not _negatives_ok(rule.body, store.stamp, th):
                        continue
                    derived = substitute(rule.head, th)
                    if not is_ground(derived):
                        raise PolicyError(f"{rule.rule_id}: ungrounded head {render(derived)}")
                    if derived not in store.stamp:
                        new[derived] = None
                    body = tuple(Literal(l.negated, substitute(l.atom, th)) for l in rule.body)
                    acc.setdefault(derived, set()).add((rule.rule_id, body))
            store.add(new, rnd)
            delta = new

    def by_rule_then_body(sup):
        return sup[0], tuple(render(l.atom) for l in sup[1])

    supports = {h: tuple(sorted(acc[h], key=by_rule_then_body)) for h in sorted(acc, key=sort_key)}
    error_witnesses = tuple(
        sup for head, sups in supports.items() for sup in sups if head.pred == "error"
    )
    return Model(frozenset(store.stamp), supports, error_witnesses)


def decision_view(m: Model) -> DecisionView:
    do_atoms = tuple(sorted((a for a in m.atoms if a.pred == "do"), key=sort_key))
    mustdo = tuple(sorted((a for a in m.atoms if a.pred == "mustdo"), key=sort_key))
    return DecisionView(do_atoms, mustdo)


def render_model(m: Model) -> str:
    """Sorted ground atoms, one per line; stable across runs."""
    return "\n".join(render(a) for a in sorted(m.atoms, key=sort_key)) + (
        "\n" if m.atoms else ""
    )


# ---------------------------------------------------------------------------
# Derivation trees (explain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivationNode:
    atom: Atom
    status: str  # 'derived' | 'fact' | 'absent' | 'cycle'
    supports: tuple = ()  # ((rule_id, (child DerivationNode or negated leaf, ...)), ...)


def derivation_tree(m: Model, atom: Atom) -> DerivationNode:
    """The atom's derivations down to facts and absent negated atoms; an atom
    already on the path from the root is marked 'cycle', not expanded. Each
    node is built by a generator that yields a body atom where a recursive
    walk would call itself, so chains of any length fit."""
    on_path = set()

    def build(a):
        if a not in m.atoms:
            return DerivationNode(a, "absent")
        if a in on_path:
            return DerivationNode(a, "cycle")
        sups = m.supports_of(a)
        if not sups:
            return DerivationNode(a, "fact")
        on_path.add(a)
        packed = []
        for rule_id, body in sups:
            children = []
            for lit in body:
                children.append(
                    DerivationNode(lit.atom, "absent") if lit.negated else (yield lit.atom)
                )
            packed.append((rule_id, tuple(children)))
        on_path.discard(a)
        return DerivationNode(a, "derived", tuple(packed))

    stack, node = [build(atom)], None
    while stack:
        try:
            child = stack[-1].send(node)
        except StopIteration as done:
            stack.pop()
            node = done.value
        else:
            stack.append(build(child))
            node = None
    return node


_SUFFIX = {"absent": " (absent)", "cycle": " (shown above)", "fact": " [fact]", "derived": ""}


def render_derivation(node: DerivationNode, indent: int = 0) -> str:
    lines = []
    stack = [(indent, node)]  # (indent, node or rule id), next item on top
    while stack:
        indent, item = stack.pop()
        pad = "  " * indent
        if isinstance(item, str):
            lines.append(f"{pad}by {item}")
            continue
        tilde = "~" if item.status == "absent" else ""
        lines.append(f"{pad}{tilde}{render(item.atom)}{_SUFFIX[item.status]}")
        for rule_id, children in reversed(item.supports):
            stack.extend((indent + 2, child) for child in reversed(children))
            stack.append((indent + 1, rule_id))
    return "\n".join(lines)

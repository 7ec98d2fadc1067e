"""Bottom-up evaluation of stratified policies against a data system.

Evaluation runs stratum by stratum (Table rows 0 through 9): within a
stratum, rules are applied naively to a fixpoint; negated literals only ever
name predicates of strictly lower strata, which are saturated by the time
they are consulted, so the model is the unique stratified fixpoint and does
not depend on rule order.

Supports (why-provenance) come from each stratum's last fixpoint round.
That round derives nothing new, and a body names only strata up to its own,
so the rule instances it fires are exactly those over the final model.

The do(o,s,-a) :- ~do(o,s,+a) form has no positive body literal; its
variables range over the authorization triples (o, s, a) collected from the
ground cando/dercando/do atoms already derived.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PolicyError
from .ontology import DataSystem, Ontology
from .policy import Policy, Rule, _is_row8, check_stratification
from .terms import Atom, Literal, Signed, is_ground, match, match_atom, render, sort_key, substitute


@dataclass(frozen=True)
class Model:
    atoms: frozenset
    by_stratum: tuple  # tuple of 10 frozensets
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


def _index(atoms) -> dict:
    by_pred: dict = {}
    for a in atoms:
        by_pred.setdefault(a.pred, set()).add(a)
    return by_pred


def _join(body, by_pred, theta):
    """All extensions of theta matching the positive body literals in order."""
    thetas = [theta]
    for lit in body:
        if lit.negated:
            continue
        nxt = []
        pool = by_pred.get(lit.atom.pred, ())
        for th in thetas:
            for ga in pool:
                th2 = match_atom(lit.atom, ga, th)
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


def _auth_triples(atoms):
    triples = set()
    for a in atoms:
        if a.pred in ("cando", "dercando", "do") and len(a.args) == 3:
            act = a.args[2]
            if isinstance(act, Signed):
                triples.add((a.args[0], a.args[1], act.term))
    return triples


def _row8_matches(rule: Rule, atoms):
    """Ground instantiations of a do-minus rule over the authorization
    triples; yields substitutions."""
    head = rule.head
    pattern = (head.args[0], head.args[1], head.args[2].term)
    out = []
    for triple in _auth_triples(atoms):
        th = {}
        for pat, val in zip(pattern, triple):
            th = match(pat, val, th)
            if th is None:
                break
        if th is not None:
            out.append(th)
    return out


def _instances(rule: Rule, atoms, by_pred) -> list:
    """Substitutions instantiating the rule over the atom set: an open-headed
    do(o,s,-a) rule ranges over the authorization triples, every other rule
    joins its positive body. Negated literals are left to the caller."""
    if rule.body and _is_row8(rule) and not is_ground(rule.head):
        return _row8_matches(rule, atoms)
    return _join(rule.body, by_pred, {})


def evaluate(p: Policy, ds: DataSystem, onto: Ontology = None) -> Model:
    strat = check_stratification(p, onto)
    if not strat.ok:
        first = strat.violations[0]
        raise PolicyError(f"policy is not stratified: {first.rule_id}: {first.message}")
    strata = dict(strat.strata)

    atoms = set(ds.base_atoms)
    by_stratum = [set(ds.base_atoms)] + [set() for _ in range(9)]
    acc: dict = {}  # head -> {(rule_id, ground body), ...}
    for k in range(1, 10):
        rules_k = [r for r in p.rules if strata[r.rule_id] == k]
        if not rules_k:
            continue
        changed = True
        while changed:
            changed = False
            by_pred = _index(atoms)
            fired = []
            for rule in rules_k:
                for th in _instances(rule, atoms, by_pred):
                    if not _negatives_ok(rule.body, atoms, th):
                        continue
                    derived = substitute(rule.head, th)
                    if not is_ground(derived):
                        raise PolicyError(
                            f"{rule.rule_id}: ungrounded head {render(derived)}"
                        )
                    fired.append((derived, rule, th))
                    if derived not in atoms:
                        atoms.add(derived)
                        by_stratum[k].add(derived)
                        changed = True
        # The last round changed nothing, so it fired every instance over the
        # stratum's final atoms: bodies name strata <= k only.
        for head, rule, th in fired:
            body = tuple(Literal(l.negated, substitute(l.atom, th)) for l in rule.body)
            acc.setdefault(head, set()).add((rule.rule_id, body))

    def by_rule_then_body(sup):
        return sup[0], tuple(render(l.atom) for l in sup[1])

    supports = {h: tuple(sorted(acc[h], key=by_rule_then_body)) for h in sorted(acc, key=sort_key)}
    error_witnesses = tuple(
        sup for head, sups in supports.items() for sup in sups if head.pred == "error"
    )
    return Model(
        frozenset(atoms),
        tuple(frozenset(s) for s in by_stratum),
        supports,
        error_witnesses,
    )


def ground(p: Policy, ds: DataSystem, onto: Ontology = None, atoms=None) -> tuple:
    """The ground rule instances whose positive bodies match the model's
    active domain. With no explicit atom set, the policy's own fixpoint
    provides the domain."""
    if atoms is None:
        atoms = evaluate(p, ds, onto).atoms
    by_pred = _index(atoms)
    out = []
    for rule in p.rules:
        seen = set()
        for th in _instances(rule, atoms, by_pred):
            inst = Rule(
                rule.rule_id,
                substitute(rule.head, th),
                tuple(Literal(l.negated, substitute(l.atom, th)) for l in rule.body),
            )
            if inst not in seen:
                seen.add(inst)
                out.append(inst)
    out.sort(key=lambda r: (r.rule_id, sort_key(r.head), tuple(sort_key(l.atom) for l in r.body)))
    return tuple(out)


def decision_view(m: Model) -> DecisionView:
    do_atoms = tuple(sorted((a for a in m.atoms if a.pred == "do"), key=sort_key))
    mustdo = tuple(sorted((a for a in m.atoms if a.pred == "mustdo"), key=sort_key))
    return DecisionView(do_atoms, mustdo)


@dataclass(frozen=True)
class IntegrityResult:
    ok: bool
    witnesses: tuple = ()  # ((rule_id, (ground body Literal, ...)), ...)


def check_integrity(m: Model) -> IntegrityResult:
    return IntegrityResult(not m.error_witnesses, m.error_witnesses)


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

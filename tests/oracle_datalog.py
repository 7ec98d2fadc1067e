"""Reference evaluation for stratified policies, independent of the engine.

The oracle grounds every rule over candidate values harvested from the
current atom pool (classic naive evaluation: enumerate, substitute, test
membership) and iterates each stratum to a fixpoint. No unification-driven
joins anywhere; slow but easy to believe. naive_supports grounds the rules
once more over a finished model to list each head's supports. The module also hosts the random
program generator used by the equivalence suite.
"""

from __future__ import annotations

import itertools
import random

from polcheck.policy import Policy, Rule, head_stratum
from polcheck.terms import (
    ActionTerm,
    Atom,
    Const,
    Formula,
    Literal,
    Signed,
    Var,
    is_ground,
    match,
    substitute,
)


def _paths(atom: Atom):
    """(path, subterm) pairs for an atom's arguments, descending into signed
    wrappers and action-term bindings. Formula arguments stay whole."""
    for i, arg in enumerate(atom.args):
        yield (atom.pred, i), arg
        if isinstance(arg, Signed):
            yield (atom.pred, i, "s"), arg.term
        elif isinstance(arg, ActionTerm):
            for prop, value in arg.bindings:
                yield (atom.pred, i, arg.name, prop), value


def _pool_index(atoms) -> dict:
    index: dict = {}
    for a in atoms:
        for path, sub in _paths(a):
            if not isinstance(sub, Var):
                index.setdefault(path, set()).add(sub)
    return index


def _candidates(rule: Rule, index: dict) -> dict:
    """Per-variable candidate sets, intersected over the variable's
    occurrences in positive body literals."""
    cands: dict = {}
    for lit in rule.body:
        if lit.negated:
            continue
        for path, sub in _paths(lit.atom):
            if isinstance(sub, Var):
                pool = index.get(path, set())
                if sub.name in cands:
                    cands[sub.name] = cands[sub.name] & pool
                else:
                    cands[sub.name] = set(pool)
    return cands


def _applies(rule: Rule, theta: dict, atoms: set) -> bool:
    for lit in rule.body:
        ga = substitute(lit.atom, theta)
        if lit.negated:
            if ga in atoms:
                return False
        elif ga not in atoms:
            return False
    return True


def _auth_triples(atoms):
    out = set()
    for a in atoms:
        if a.pred in ("cando", "dercando", "do") and len(a.args) == 3:
            if isinstance(a.args[2], Signed):
                out.add((a.args[0], a.args[1], a.args[2].term))
    return out


def _row8_thetas(rule: Rule, atoms):
    """do(o, s, -a) rules with variables in the head ground over the
    authorization triples seen so far, not over the whole term universe."""
    head = rule.head
    pattern = (head.args[0], head.args[1], head.args[2].term)
    for triple in sorted(_auth_triples(atoms), key=repr):
        theta: dict = {}
        for pat, val in zip(pattern, triple):
            theta = match(pat, val, theta)
            if theta is None:
                break
        if theta is not None:
            yield theta


def _ground_instances(rule: Rule, atoms, index: dict):
    """Every substitution the oracle grounds the rule with over the pool."""
    if head_stratum(rule.head) == 8 and not is_ground(rule.head):
        return list(_row8_thetas(rule, atoms))
    cands = _candidates(rule, index)
    names = sorted(cands)
    pools = [sorted(cands[n], key=repr) for n in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*pools)]


def naive_model(policy: Policy, base_atoms) -> frozenset:
    atoms = set(base_atoms)
    by_stratum: dict = {}
    for r in policy.rules:
        by_stratum.setdefault(head_stratum(r.head), []).append(r)
    for stratum in range(1, 10):
        rules = by_stratum.get(stratum, [])
        if not rules:
            continue
        changed = True
        while changed:
            changed = False
            index = _pool_index(atoms)
            for rule in rules:
                for theta in _ground_instances(rule, atoms, index):
                    if _applies(rule, theta, atoms):
                        head = substitute(rule.head, theta)
                        if head not in atoms:
                            atoms.add(head)
                            changed = True
    return frozenset(atoms)


def naive_supports(policy: Policy, atoms) -> dict:
    """Why-provenance of a finished model: for each derived head, the set of
    (rule_id, ground body literals) instances whose body holds in the model."""
    atoms = set(atoms)
    index = _pool_index(atoms)
    out: dict = {}
    for rule in policy.rules:
        for theta in _ground_instances(rule, atoms, index):
            head = substitute(rule.head, theta)
            if head in atoms and _applies(rule, theta, atoms):
                body = tuple(Literal(l.negated, substitute(l.atom, theta)) for l in rule.body)
                out.setdefault(head, set()).add((rule.rule_id, body))
    return out


# ---------------------------------------------------------------------------
# Random stratified programs
# ---------------------------------------------------------------------------


def random_program(rng: random.Random):
    """A safe, stratified policy plus base atoms. Touches every Table row the
    dice allow; domains stay small enough that the model holds well under
    200 ground atoms."""
    subjects = [Const(f"s{i}") for i in range(rng.randint(2, 3))]
    objects = [Const(f"o{i}") for i in range(rng.randint(2, 3))]
    actions = [
        ActionTerm(name, (("target", obj),))
        for name in ("Patch", "Scan")
        for obj in objects[: rng.randint(1, len(objects))]
    ]

    base: set = set()
    for pred in ("p0", "p1"):
        for s in subjects:
            for o in objects:
                if rng.random() < 0.45:
                    base.add(Atom(pred, (s, o)))
    for s in subjects:
        for act in actions:
            if rng.random() < 0.2:
                base.add(Atom("done_act", (s, act)))

    s, x, a, q, o = Var("s"), Var("x"), Var("a"), Var("q"), Var("o")
    rules: list = []

    def add(head, *body):
        rules.append(Rule(f"r{len(rules) + 1}", head, tuple(body)))

    def pos(atom):
        return Literal(False, atom)

    def neg(atom):
        return Literal(True, atom)

    q_options = [
        Formula(),
        Formula((Literal(False, Atom("p0", (s, objects[0]))),)),
    ]
    for name in ("Patch", "Scan"):
        pattern = ActionTerm(name, (("target", x),))
        if rng.random() < 0.9:
            add(
                Atom("hasObligation", (s, pattern, rng.choice(q_options))),
                pos(Atom("p0", (s, x))),
            )
        if rng.random() < 0.6:
            add(Atom("hasDispensation", (s, pattern)), pos(Atom("p1", (s, x))))

    add(Atom("derhasDispensation", (s, a)), pos(Atom("hasDispensation", (s, a))))
    add(Atom("derhasObligation", (s, a, q)), pos(Atom("hasObligation", (s, a, q))))
    if rng.random() < 0.5:
        add(
            Atom("derhasObligation", (s, a, q)),
            pos(Atom("hasObligation", (s, a, q))),
            pos(Atom("p1", (s, objects[0]))),
        )
    add(
        Atom("mustdo", (s, a, q)),
        pos(Atom("derhasObligation", (s, a, q))),
        neg(Atom("derhasDispensation", (s, a))),
    )
    add(
        Atom("cando", (a, s, Signed("+", Const("execute")))),
        pos(Atom("mustdo", (s, a, q))),
    )
    for _ in range(rng.randint(0, 3)):
        add(
            Atom(
                "cando",
                (
                    rng.choice(objects),
                    rng.choice(subjects),
                    Signed(rng.choice("+-"), Const(rng.choice(("read", "write")))),
                ),
            )
        )
    add(Atom("dercando", (o, s, Signed("+", a))), pos(Atom("cando", (o, s, Signed("+", a)))))
    if rng.random() < 0.5:
        add(
            Atom("dercando", (o, s, Signed("-", a))),
            pos(Atom("cando", (o, s, Signed("-", a)))),
        )
    add(
        Atom("do", (o, s, Signed("+", a))),
        pos(Atom("dercando", (o, s, Signed("+", a)))),
        neg(Atom("dercando", (o, s, Signed("-", a)))),
    )
    if rng.random() < 0.7:
        add(Atom("do", (o, s, Signed("-", a))), neg(Atom("do", (o, s, Signed("+", a)))))
    if rng.random() < 0.5:
        # a ground closure rule, as samples/audit writes them
        closed = (
            rng.choice(objects),
            rng.choice(subjects),
            Const(rng.choice(("read", "write"))),
        )
        add(
            Atom("do", (closed[0], closed[1], Signed("-", closed[2]))),
            neg(Atom("do", (closed[0], closed[1], Signed("+", closed[2])))),
        )
    if rng.random() < 0.5:
        add(
            Atom("error", ()),
            pos(Atom("do", (o, s, Signed("+", a)))),
            pos(Atom("do", (o, s, Signed("-", a)))),
        )
    return Policy(tuple(rules)), frozenset(base)

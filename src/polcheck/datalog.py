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

One pass evaluates several policies at once, such as the refinement branches
of one high-level policy. Bit i of a branch mask stands for the i-th policy.
The pass reads one rule table, each rule once with the mask of the policies
that hold it, as refinement builds it. An instance's mask is its rule's
mask AND its positive atoms' masks AND NOT its negated atoms' masks
(final, since they sit in lower strata); an atom's mask is the OR of
its instances' masks. An atom whose mask grows goes back into the delta with
the bits it gained, and the join reads, for each literal, the bits the atom
held before the delta, the bits it gained, or all of them, so each instance
fires once per branch. Projecting the result on one bit gives exactly that
policy's model. `evaluate` is the one-policy case of the same pass, with
every mask 1.

Each predicate's atoms are kept in an append-only list in the order their
rounds added them, so the atoms from before the delta are a prefix of it.
Each join step is compiled once: a literal ground under the variables bound
before it is a membership probe, and any other looks its candidates up in an
index on the arguments it binds, fills its bind slots (each variable's first
unindexed occurrence) and matches only the rest. Heads and negated atoms are
templates, built once per pass: an instance looks up each bound variable,
keeps each ground argument as it is, substitutes only an argument with
variables inside it, and reads the finished atom from the intern table.

Supports (why-provenance) are not recorded: positive atoms are never removed
and negated literals name saturated strata, so the instances that fire are
the instances over the final model, and `supports_of` recomputes an atom's
from the final atoms, each rule's join starting under the head's binding.

The do(o,s,-a) :- ~do(o,s,+a) form has no positive body literal; its
variables range over the authorization triples (o, s, a) of the ground
cando/dercando/do atoms. Such a rule joins as six one-literal bodies
P(o, s, +a) and P(o, s, -a), one per authorization predicate P and sign. A
triple that several atoms bring fires the rule once per atom, and the
instance's support and head take the OR of their masks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice

from .errors import PolicyError
from .ontology import DataSystem, Ontology
from .policy import Policy, _is_row8, check_stratification
from .terms import (
    _TABLE,
    Atom,
    Literal,
    Signed,
    Var,
    free_vars,
    is_ground,
    match,
    match_atom,
    render,
    sort_key,
    substitute,
)


@dataclass(frozen=True, eq=False)
class Model:
    """The models of one or more policies over one data system, from one
    pass: every atom some policy's model holds, with the mask of the policies
    that hold it (bit i for the i-th policy). Models compare by identity:
    the same masks from other rules would have other supports."""

    masks: dict  # Atom -> mask of the policies whose model holds it
    rules: tuple  # ((rule, mask of the policies that hold it), ...)
    # (_Atoms of masks, (pred, arity) -> [(rule, mask, plans, negated)]), by the first supports_of
    _index: tuple = field(default=None, init=False, repr=False)

    @property
    def atoms(self):
        return self.masks.keys()

    def holds(self, atom: Atom) -> bool:
        return atom in self.masks

    def mask_of(self, atom: Atom) -> int:
        return self.masks.get(atom, 0)

    def supports_of(self, atom: Atom) -> tuple:
        """The atom's supports, (rule_id, ground body) each, by rule id and
        then rendered body: the unblocked instances of each rule whose head
        matches it, from one join per body under the head's binding."""
        if self._index is None:
            heads: dict = {}
            for rule, mask in self.rules:
                bound = free_vars(rule.head, include_formulas=True)
                for body in _join_bodies(rule):
                    # one plan per literal the join can start from
                    plans = [_join_plan(body, j, bound, delta=False) for j in range(len(body))] or [()]
                    entry = (rule, mask, plans, _templates(rule, body)[1])
                    heads.setdefault((rule.head.pred, len(rule.head.args)), []).append(entry)
            object.__setattr__(self, "_index", (_Atoms(self.masks, self.masks), heads))
        store, heads = self._index
        found = set()
        for rule, mask, plans, negated in heads.get((atom.pred, len(atom.args)), ()):
            theta = match_atom(rule.head, atom, {})
            if theta is None:
                continue
            # start from the literal with the fewest candidates under theta
            sizes = [len(store.pool(*steps[0][:2], _instance(steps[0][2], theta))) if steps else 0 for steps in plans]
            for th, m in _join(plans[sizes.index(min(sizes))], store, 0, mask, theta):
                if _unblocked(negated, store, th, m):
                    body = tuple(Literal(l.negated, substitute(l.atom, th)) for l in rule.body)
                    found.add((rule.rule_id, body))
        return tuple(sorted(found, key=lambda sup: (sup[0], tuple(render(l.atom) for l in sup[1]))))

    def error_mask(self) -> int:
        """The policies whose model derives an error."""
        return self.masks.get(Atom("error", ()), 0)

    def project(self, i: int) -> Model:
        """The i-th policy's model, as `evaluate` of that policy alone gives it."""
        bit = 1 << i
        masks = {a: 1 for a, m in self.masks.items() if m & bit}
        return Model(masks, tuple((rule, 1) for rule, m in self.rules if m & bit))


@dataclass(frozen=True)
class DecisionView:
    do_atoms: tuple  # sorted ground do atoms, both signs
    mustdo_atoms: tuple  # sorted ground mustdo atoms


class _Atoms:
    """Atoms with the masks of the policies that hold them (no masks: one
    policy holds each), listed per (predicate, arity) and each list indexed,
    once a probe first asks, by the argument positions that probe binds."""

    delta = None  # no rounds: every join step reads all atoms

    def __init__(self, atoms, masks):
        self.masks = masks  # atom -> policy mask
        self.members = atoms if masks is None else masks
        self.lists: dict = {}  # (pred, arity) -> [atom, ...]
        self.indexes: dict = {}  # (pred, arity) -> {positions: {key: [atom, ...]}}
        for a in atoms:
            self.lists.setdefault((a.pred, len(a.args)), []).append(a)

    def pool(self, shape: tuple, positions, key):
        """The atoms of the shape with the key at the given positions, in list
        order; with positions None, the key atom if held."""
        if positions is None:
            return (key,) if key in self.members else ()
        if not positions:
            return self.lists.get(shape, ())
        by_positions = self.indexes.setdefault(shape, {})
        index = by_positions.get(positions)
        if index is None:
            index = by_positions[positions] = {}
            for a in self.lists.get(shape, ()):
                index.setdefault(tuple([a.args[i] for i in positions]), []).append(a)
        return index.get(key, ())


class _Store(_Atoms):
    """The atoms derived so far, each stamped with the round that first added
    it (0 for the data system's). Lists only grow at the end, in stamp order,
    so the atoms stamped before a round are a prefix of each of them. `delta`
    has the bits the last round added to each atom it touched, and `regrown`
    lists, per shape, the atoms of the delta that were stamped earlier."""

    def __init__(self, base, full: int):
        super().__init__(base, dict.fromkeys(base, full))
        self.stamp, self.delta, self.regrown = dict.fromkeys(base, 0), {}, {}

    def add(self, gained: dict, rnd: int) -> None:
        """Record the bits each atom gained in round rnd; they are the next
        round's delta."""
        self.delta, self.regrown = gained, {}
        for a, bits in gained.items():
            shape = (a.pred, len(a.args))
            if a in self.masks:
                self.masks[a] |= bits
                self.regrown.setdefault(shape, []).append(a)
                continue
            self.masks[a], self.stamp[a] = bits, rnd
            self.lists.setdefault(shape, []).append(a)
            for positions, index in self.indexes.get(shape, {}).items():
                index.setdefault(tuple([a.args[i] for i in positions]), []).append(a)


# Which atoms a join step reads: all of them, those stamped before the
# delta, or the delta.
_ALL, _OLD, _DELTA = "all", "old", "delta"


def _template(atom: Atom, bound: frozenset, positions=None):
    """The atom's template under a binding of `bound`, or its arguments' at
    the given positions: the atom if they share no variable, else (predicate
    or None, arguments with each variable of `bound` as its name)."""
    if positions is None and not free_vars(atom, include_formulas=True) & bound:
        return atom
    args = atom.args if positions is None else [atom.args[i] for i in positions]
    names = tuple(a.name if isinstance(a, Var) and a.name in bound else a for a in args)
    return (atom.pred if positions is None else None), names


def _instance(template, theta: dict):
    """What a template builds under theta: its names looked up, its ground
    parts as they are, the rest substituted; an atom is looked up in the
    intern table and built only if it is new."""
    if template.__class__ is Atom:
        return template
    pred, parts = template
    args = tuple([theta[p] if p.__class__ is str else substitute(p, theta) if p._fvars else p for p in parts])
    return args if pred is None else _TABLE.get(("Atom", pred, args)) or Atom(pred, args)


def _join_plan(positive, j=None, bound=frozenset(), delta=True) -> tuple:
    """Compiled join steps over a rule's positive body literals: (shape,
    positions, key template, (bind slots, residual patterns), view), the
    positions those made ground by constants and earlier variables, or None
    if all are. With no j every literal reads all atoms, in body order.
    Otherwise literal j goes first; with delta it reads the delta and the
    literals before j read the atoms from before the delta, and every other
    literal reads all atoms."""
    if j is None:
        order, views = positive, [_ALL] * len(positive)
    else:
        order = [positive[j]] + positive[:j] + positive[j + 1 :]
        views = ([_DELTA] + [_OLD] * j if delta else [_ALL] * (j + 1)) + [_ALL] * (len(positive) - j - 1)
    steps = []
    for atom, view in zip(order, views):
        shape, names = (atom.pred, len(atom.args)), free_vars(atom, include_formulas=True)
        if names <= bound:  # a membership probe
            steps.append((shape, None, _template(atom, bound), ((), ()), view))
            continue
        positions, slots, residual = [], {}, []
        for i, arg in enumerate(atom.args):
            if free_vars(arg, include_formulas=True) <= bound:
                positions.append(i)
            elif isinstance(arg, Var) and arg.name not in slots:
                slots[arg.name] = i
            else:
                residual.append((i, arg))
        ops = (tuple(slots.items()), tuple(residual))
        steps.append((shape, tuple(positions), _template(atom, bound, positions), ops, view))
        bound |= names
    return tuple(steps)


def _extend(ops, atom: Atom, theta: dict):
    """Theta extended by a candidate's bind slots, then its residual patterns;
    None if one fails. Every candidate a join examines goes through here."""
    slots, residual = ops
    if slots:
        theta = theta.copy()
        for name, i in slots:
            theta[name] = atom.args[i]
    for i, pattern in residual:
        theta = match(pattern, atom.args[i], theta)
        if theta is None:
            break
    return theta


def _join(steps, store: _Atoms, delta_stamp: int, mask: int, theta=None) -> list:
    """All (substitution, non-empty mask) pairs extending theta (default
    empty) to match the join steps in order. A pair's mask is the given mask
    ANDed with each of its atoms' masks as the step's view sees them: the
    bits held before the delta, the bits the delta added, or all bits."""
    masks, delta = store.masks, store.delta
    rows = [({} if theta is None else theta, mask)]
    for shape, positions, key, ops, view in steps:
        nxt = []
        for th, m in rows:
            pool = store.pool(shape, positions, k := _instance(key, th))
            if view is _OLD and positions is not None:  # a membership probe's masks give its view
                pool = islice(pool, bisect_left(pool, delta_stamp, key=store.stamp.__getitem__))
            elif view is _DELTA and positions is not None:
                cut = bisect_left(pool, delta_stamp, key=store.stamp.__getitem__)
                regrown = [a for a in store.regrown.get(shape, ()) if tuple([a.args[i] for i in positions]) == k]
                pool = chain(islice(pool, cut, None), regrown)
            for ga in pool:
                th2 = _extend(ops, ga, th)
                if th2 is None:
                    continue
                if view is _ALL:
                    held = m & masks[ga] if masks is not None else m
                elif view is _OLD:
                    held = m & masks[ga] & ~delta.get(ga, 0)
                else:
                    held = m & delta.get(ga, 0)
                if held:
                    nxt.append((th2, held))
        rows = nxt
    return rows


def _unblocked(negated, store: _Atoms, theta, mask: int) -> int:
    """The instance's mask less the policies that hold a negated atom."""
    for template in negated:
        ga = _instance(template, theta)
        if not is_ground(ga):
            raise PolicyError(f"negated literal {render(ga)} not ground at check time")
        mask &= ~store.masks.get(ga, 0)
        if not mask:
            break
    return mask


def _templates(rule, positive) -> tuple:
    """The rule's head and negated atoms as templates over a join body."""
    bound = frozenset().union(*(free_vars(a, include_formulas=True) for a in positive))
    return _template(rule.head, bound), tuple(_template(l.atom, bound) for l in rule.body if l.negated)


def _join_bodies(rule) -> list:
    """The positive bodies the rule joins: its positive body literals, or for
    an open do(o,s,-a) rule one one-literal body per authorization atom shape
    that can bring an (o, s, a) triple."""
    if rule.body and _is_row8(rule) and not is_ground(rule.head):
        o, s, act = rule.head.args
        return [
            [Atom(pred, (o, s, Signed(sign, act.term)))]
            for pred in ("cando", "dercando", "do")
            for sign in "+-"
        ]
    return [[l.atom for l in rule.body if not l.negated]]


def _cone(rules, goal: str) -> set:
    """The goal and every predicate it depends on: the transitive closure of
    head -> body predicates, negated literals and open do(-) join bodies included."""
    deps: dict = {}
    for rule in rules:
        body = chain((l.atom for l in rule.body), *_join_bodies(rule))
        deps.setdefault(rule.head.pred, set()).update(a.pred for a in body)
    cone, todo = {goal}, [goal]
    while todo:
        fresh = deps.get(todo.pop(), set()) - cone
        cone |= fresh
        todo += fresh
    return cone


def evaluate_branches(rules, count: int, ds: DataSystem, onto: Ontology = None, *, goal: str = None) -> Model:
    """Evaluate `count` policies in one shared pass over their rule table,
    ((rule, mask of the policies that hold it), ...); project(i) of the
    result is evaluate of the i-th policy. A policy that makes `evaluate`
    raise makes this raise too, even when the other policies alone would
    not. With a goal predicate, stratification is still checked over every
    rule, but only the rules whose head the goal depends on are evaluated:
    the model holds the same atoms, masks and supports for every predicate
    of that cone, and no derived atom outside it."""
    full = (1 << count) - 1
    strat = check_stratification(Policy(tuple(rule for rule, _ in rules)), onto)
    if not strat.ok:
        first = strat.violations[0]
        raise PolicyError(f"policy is not stratified: {first.rule_id}: {first.message}")
    cone = None if goal is None else _cone((rule for rule, _ in rules), goal)

    store = _Store(ds.base_atoms, full)
    rnd = 0
    for k in range(1, 10):
        compiled = [
            (rule, rule_mask, positive, *_templates(rule, positive))
            for (rule, rule_mask), (_, stratum) in zip(rules, strat.strata)
            if stratum == k and (cone is None or rule.head.pred in cone)
            for positive in _join_bodies(rule)
        ]
        if not compiled:
            continue
        delta_plans: dict = {}  # (body position, literal position) -> steps, built on first use
        first_round = True
        while first_round or store.delta:
            rnd += 1
            shapes = () if first_round else {(a.pred, len(a.args)) for a in store.delta}
            new: dict = {}  # atom -> the bits it gained this round, in order
            for i, (rule, rule_mask, positive, head, negated) in enumerate(compiled):
                if first_round:
                    rows = _join(_join_plan(positive), store, rnd - 1, rule_mask)
                else:
                    rows = []
                    for j, atom in enumerate(positive):
                        if (atom.pred, len(atom.args)) in shapes:
                            if (i, j) not in delta_plans:
                                delta_plans[i, j] = _join_plan(positive, j)
                            rows += _join(delta_plans[i, j], store, rnd - 1, rule_mask)
                for th, m in rows:
                    m = _unblocked(negated, store, th, m) if negated else m
                    if not m:
                        continue
                    derived = _instance(head, th)
                    if not is_ground(derived):
                        raise PolicyError(f"{rule.rule_id}: ungrounded head {render(derived)}")
                    gained = m & ~store.masks.get(derived, 0)
                    if gained:
                        new[derived] = new.get(derived, 0) | gained
            store.add(new, rnd)
            first_round = False
    return Model(store.masks, tuple(entry for entry in rules if cone is None or entry[0].head.pred in cone))


def evaluate(p: Policy, ds: DataSystem, onto: Ontology = None, *, goal: str = None) -> Model:
    return evaluate_branches(tuple((rule, 1) for rule in p.rules), 1, ds, onto, goal=goal)


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
        if a not in m.masks:
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

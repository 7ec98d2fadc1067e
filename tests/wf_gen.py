"""Randomized composition-row instances for the well-formedness suite.

Each generator builds a tiny ontology (one or two variables whose value
trees give real abstraction steps), equips the operand actions with constant
transformers, and picks the operand spaces so the row's constraints hold by
construction. The violating variants re-pick exactly one space so a chosen
refinement-shaped constraint fails with a state witness; collateral
violations of other constraints are possible (breaking one space can render
a trace infeasible too), so tests assert that the targeted id is among the
flagged ones, not that it is alone.
"""

from __future__ import annotations

import random

from polcheck.actions import (
    CHOICE,
    CONJ,
    SEQ,
    ActionClassDef,
    ActionLeaf,
    ActionNode,
    RefinementPattern,
    TransformRule,
)
from polcheck.ontology import (
    ENTIRE,
    ClassDef,
    Ontology,
    StateSpace,
    VariableDef,
    expand_space,
    state_refines,
)

ROWS = (
    "basic-seq",
    "basic-strict-choice",
    "basic-strict-conj",
    "basic-flex-choice",
    "basic-flex-conj",
    "adv-seq",
    "adv-strict-conj",
    "adv-flex-conj",
)

_NODE = {
    "basic-seq": (SEQ, False, False),
    "basic-strict-choice": (CHOICE, True, False),
    "basic-strict-conj": (CONJ, True, False),
    "basic-flex-choice": (CHOICE, False, False),
    "basic-flex-conj": (CONJ, False, False),
    "adv-seq": (SEQ, False, True),
    "adv-strict-conj": (CONJ, True, True),
    "adv-flex-conj": (CONJ, False, True),
}


def make_ontology(rng: random.Random) -> Ontology:
    classes: dict = {}
    edges = []
    variables: dict = {}
    for vi in range(rng.randint(1, 2)):
        names = [f"V{vi}C{j}" for j in range(rng.randint(2, 4))]
        for j, name in enumerate(names):
            classes[name] = ClassDef(name)
            if j:
                edges.append((name, names[rng.randrange(j)]))
        var = f"x{vi}"
        variables[var] = VariableDef(var, "obj", f"prop{vi}", tuple(names))
    return Ontology(classes=classes, subclass_edges=tuple(edges), variables=variables)


class Kit:
    """Set-level helpers over one ontology's state universe."""

    def __init__(self, rng: random.Random, onto: Ontology):
        self.rng = rng
        self.onto = onto
        self.U = sorted(expand_space(ENTIRE, onto))

    def cone(self, states):
        return [u for u in self.U if any(state_refines(s, u, self.onto) for s in states)]

    def abstractions(self, state):
        return [s for s in self.U if state_refines(s, state, self.onto)]

    def pick(self, pool):
        pool = sorted(pool)
        return pool[self.rng.randrange(len(pool))] if pool else None

    def subset(self, pool, lo=1, hi=3):
        pool = sorted(pool)
        if not pool:
            return set()
        k = self.rng.randint(min(lo, len(pool)), min(hi, len(pool)))
        return set(self.rng.sample(pool, k))

    def outside_cone(self, states):
        inside = set(self.cone(states))
        return self.pick([u for u in self.U if u not in inside])

    def not_abstracting(self, state, but_abstracting=None):
        pool = [u for u in self.U if not state_refines(u, state, self.onto)]
        if but_abstracting is not None:
            pool = [u for u in pool if state_refines(u, but_abstracting, self.onto)]
        return self.pick(pool)


# ---------------------------------------------------------------------------
# Satisfying recipes. Conventions: the operand transformers are constant
# (OpA always lands on g1, OpB on g2), so chained applications reduce to
# "last action's target".
# ---------------------------------------------------------------------------


def _ends(kit: Kit, g1, g2):
    return {kit.pick(kit.abstractions(g1)), kit.pick(kit.abstractions(g2))}


def _recipe_basic_seq(kit: Kit):
    D1 = kit.subset(kit.U)
    D = kit.subset(kit.cone(D1))
    g1 = kit.pick(kit.U)
    D2 = {kit.pick(kit.abstractions(g1))} | kit.subset(kit.U, 0, 1)
    g2 = kit.pick(kit.U)
    G = {kit.pick(kit.abstractions(g2))} | kit.subset(kit.U, 0, 1)
    return dict(D1=D1, D2=D2, D=D, G=G, g1=g1, g2=g2, Dg=None)


def _recipe_strict_choice(kit: Kit):
    shared = kit.pick(kit.U)
    D1 = {shared} | kit.subset(kit.U, 0, 2)
    D2 = {shared} | kit.subset(kit.U, 0, 2)
    D = kit.subset(kit.cone(D1 & D2))
    g1, g2 = kit.pick(kit.U), kit.pick(kit.U)
    return dict(D1=D1, D2=D2, D=D, G=_ends(kit, g1, g2), g1=g1, g2=g2, Dg=None)


def _recipe_flex_choice(kit: Kit):
    D1 = kit.subset(kit.U)
    D2 = kit.subset(kit.U)
    either = set(kit.cone(D1)) | set(kit.cone(D2))
    D = {kit.pick(D1), kit.pick(D2)} | kit.subset(either, 0, 2)
    g1, g2 = kit.pick(kit.U), kit.pick(kit.U)
    return dict(D1=D1, D2=D2, D=D, G=_ends(kit, g1, g2), g1=g1, g2=g2, Dg=None)


def _recipe_strict_conj(kit: Kit):
    b = kit.pick(kit.U)
    D1 = {kit.pick(kit.abstractions(b))} | kit.subset(kit.U, 0, 2)
    D2 = {kit.pick(kit.abstractions(b))} | kit.subset(kit.U, 0, 2)
    both = [u for u in kit.cone(D1) if u in set(kit.cone(D2))]
    D = kit.subset(both)
    g2 = kit.pick(kit.cone(D1))  # OpA must be feasible after OpB
    g1 = kit.pick(kit.cone(D2))
    return dict(D1=D1, D2=D2, D=D, G=_ends(kit, g1, g2), g1=g1, g2=g2, Dg=None)


def _recipe_flex_conj(kit: Kit):
    D1 = kit.subset(kit.U)
    D2 = kit.subset(kit.U)
    c1, c2 = kit.cone(D1), kit.cone(D2)
    D = {kit.pick(c1), kit.pick(c2)} | kit.subset(set(c1) | set(c2), 0, 2)
    g1 = kit.pick(c2)
    g2 = kit.pick(c1)
    return dict(D1=D1, D2=D2, D=D, G=_ends(kit, g1, g2), g1=g1, g2=g2, Dg=None)


def _recipe_adv_seq(kit: Kit):
    D1 = kit.subset(kit.U)
    D = kit.subset(kit.cone(D1))
    D2 = kit.subset(kit.U)
    Dg = kit.subset(kit.cone(D2))
    guard_cone = kit.cone(Dg)
    if kit.rng.random() < 0.6:
        g1 = kit.pick(guard_cone)
    else:
        outside = [u for u in kit.U if u not in set(guard_cone)]
        g1 = kit.pick(outside) if outside else kit.pick(guard_cone)
    g2 = kit.pick(kit.U)
    return dict(D1=D1, D2=D2, D=D, G=_ends(kit, g1, g2), g1=g1, g2=g2, Dg=Dg)


def _recipe_adv_strict_conj(kit: Kit):
    D2 = kit.subset(kit.U)
    Dg = kit.subset(kit.cone(D2))
    core = kit.pick(Dg)
    D1 = {kit.pick(kit.abstractions(core))} | kit.subset(kit.U, 0, 2)
    D = {core} | kit.subset(kit.cone(D1), 0, 2)
    g1 = kit.pick(kit.cone(Dg))
    g2 = kit.pick(kit.cone(D1))
    return dict(D1=D1, D2=D2, D=D, G=_ends(kit, g1, g2), g1=g1, g2=g2, Dg=Dg)


def _recipe_adv_flex_conj(kit: Kit):
    D2 = kit.subset(kit.U)
    Dg = kit.subset(kit.cone(D2))
    D1 = kit.subset(kit.U)
    c1, cg = kit.cone(D1), kit.cone(Dg)
    D = {kit.pick(c1), kit.pick(cg)} | kit.subset(set(c1) | set(cg), 0, 2)
    if kit.rng.random() < 0.6:
        g1 = kit.pick(cg)
    else:
        outside = [u for u in kit.U if u not in set(cg)]
        g1 = kit.pick(outside) if outside else kit.pick(cg)
    g2 = kit.pick(c1)
    return dict(D1=D1, D2=D2, D=D, G=_ends(kit, g1, g2), g1=g1, g2=g2, Dg=Dg)


_RECIPES = {
    "basic-seq": _recipe_basic_seq,
    "basic-strict-choice": _recipe_strict_choice,
    "basic-strict-conj": _recipe_strict_conj,
    "basic-flex-choice": _recipe_flex_choice,
    "basic-flex-conj": _recipe_flex_conj,
    "adv-seq": _recipe_adv_seq,
    "adv-strict-conj": _recipe_adv_strict_conj,
    "adv-flex-conj": _recipe_adv_flex_conj,
}


# ---------------------------------------------------------------------------
# Breakers: each takes (kit, inst copy) and returns the mutated instance, or
# None when the universe offers no state that would falsify the target.
# ---------------------------------------------------------------------------


def _grow_d_outside(kit, inst, of_key):
    u = kit.outside_cone(inst[of_key])
    if u is None:
        return None
    inst["D"] = set(inst["D"]) | {u}
    return inst


def _shrink_g(kit, inst, missed, kept=None):
    x = kit.not_abstracting(missed, but_abstracting=kept)
    if x is None:
        return None
    inst["G"] = {x}
    return inst


def _retarget(kit, inst, key, pool):
    value = kit.pick(pool)
    if value is None:
        return None
    inst[key] = value
    inst["G"] = _ends(kit, inst["g1"], inst["g2"])
    return inst


def _outside_pool(kit, states):
    inside = set(kit.cone(states))
    return [u for u in kit.U if u not in inside]


def _br_d2_guard(kit, inst):
    # Δ2 no longer abstracts the whole guard space
    x = kit.pick(_outside_pool(kit, inst["D2"]))
    if x is None:
        return None
    inst["Dg"] = set(inst["Dg"]) | {x}
    return inst


_BREAKERS = {
    "basic-seq": {
        "Δ1⊑Δ": lambda k, i: _grow_d_outside(k, i, "D1"),
        "Δ2⊑Γ1": lambda k, i: (
            None if (x := k.not_abstracting(i["g1"])) is None else {**i, "D2": {x}}
        ),
        "Γ⊑Γ2": lambda k, i: _shrink_g(k, i, i["g2"]),
    },
    "basic-strict-choice": {
        "Δ1⊓Δ2⊑Δ": lambda k, i: (
            None
            if (u := k.outside_cone(set(i["D1"]) & set(i["D2"]))) is None
            else {**i, "D": set(i["D"]) | {u}}
        ),
        "Γ⊑Γ1": lambda k, i: _shrink_g(k, i, i["g1"], kept=i["g2"]),
        "Γ⊑Γ2": lambda k, i: _shrink_g(k, i, i["g2"], kept=i["g1"]),
    },
    "basic-flex-choice": {
        "Δ1⊔Δ2⊑Δ": lambda k, i: (
            None
            if (u := k.pick([x for x in _outside_pool(k, i["D1"]) if x in set(_outside_pool(k, i["D2"]))])) is None
            else {**i, "D": set(i["D"]) | {u}}
        ),
        "Γ⊑Γ1": lambda k, i: _shrink_g(k, i, i["g1"], kept=i["g2"]),
        "Γ⊑Γ2": lambda k, i: _shrink_g(k, i, i["g2"], kept=i["g1"]),
    },
    "basic-strict-conj": {
        "Δ1⊑Δ": lambda k, i: (
            None
            if (u := k.pick([x for x in k.cone(i["D2"]) if x in set(_outside_pool(k, i["D1"]))])) is None
            else {**i, "D": set(i["D"]) | {u}}
        ),
        "Δ2⊑Δ": lambda k, i: (
            None
            if (u := k.pick([x for x in k.cone(i["D1"]) if x in set(_outside_pool(k, i["D2"]))])) is None
            else {**i, "D": set(i["D"]) | {u}}
        ),
        "Γ⊑a2(a1(δ))": lambda k, i: _shrink_g(k, i, i["g2"], kept=i["g1"]),
        "Γ⊑a1(a2(δ))": lambda k, i: _shrink_g(k, i, i["g1"], kept=i["g2"]),
    },
    "basic-flex-conj": {
        "Δ1⊔Δ2⊑Δ": lambda k, i: (
            None
            if (u := k.pick([x for x in _outside_pool(k, i["D1"]) if x in set(_outside_pool(k, i["D2"]))])) is None
            else {**i, "D": set(i["D"]) | {u}}
        ),
        "Δ1⊑δ⇒Δ2⊑a1(δ)": lambda k, i: _retarget(k, i, "g1", _outside_pool(k, i["D2"])),
        "Δ1⊑δ⇒Γ⊑a2(a1(δ))": lambda k, i: _shrink_g(k, i, i["g2"], kept=i["g1"]),
        "Δ2⊑δ⇒Δ1⊑a2(δ)": lambda k, i: _retarget(k, i, "g2", _outside_pool(k, i["D1"])),
        "Δ2⊑δ⇒Γ⊑a1(a2(δ))": lambda k, i: _shrink_g(k, i, i["g1"], kept=i["g2"]),
    },
    "adv-seq": {
        "Δ2⊑Δ'": _br_d2_guard,
        "Δ1⊑Δ": lambda k, i: _grow_d_outside(k, i, "D1"),
        "Δ'⊑a1(δ)⇒Γ⊑a2(a1(δ))": lambda k, i: (
            None
            if (i2 := _retarget(k, i, "g1", k.cone(i["Dg"]))) is None
            else _shrink_g(k, i2, i2["g2"])
        ),
        "Δ'⊄a1(δ)⇒Γ⊑a1(δ)": lambda k, i: (
            None
            if (i2 := _retarget(k, i, "g1", _outside_pool(k, i["Dg"]))) is None
            else _shrink_g(k, i2, i2["g1"])
        ),
    },
    "adv-strict-conj": {
        "Δ2⊑Δ'": _br_d2_guard,
        "Δ1⊑Δ": lambda k, i: _grow_d_outside(k, i, "D1"),
        "Δ⊓Δ'⊑δ⇒Δ'⊑a1(δ)": lambda k, i: _retarget(k, i, "g1", _outside_pool(k, i["Dg"])),
        "Δ⊓Δ'⊑δ⇒Δ1⊑a2(δ)": lambda k, i: _retarget(k, i, "g2", _outside_pool(k, i["D1"])),
        "Δ⊓Δ'⊑δ⇒Γ⊑a2(a1(δ))": lambda k, i: _shrink_g(k, i, i["g2"], kept=i["g1"]),
        "Δ⊓Δ'⊑δ⇒Γ⊑a1(a2(δ))": lambda k, i: _shrink_g(k, i, i["g1"], kept=i["g2"]),
    },
    "adv-flex-conj": {
        "Δ2⊑Δ'": _br_d2_guard,
        "Δ1⊔Δ'⊑Δ": lambda k, i: (
            None
            if (u := k.pick([x for x in _outside_pool(k, i["D1"]) if x in set(_outside_pool(k, i["Dg"]))])) is None
            else {**i, "D": set(i["D"]) | {u}}
        ),
        "Δ1⊑δ∧Δ'⊑a1(δ)⇒Γ⊑a2(a1(δ))": lambda k, i: (
            None
            if (i2 := _retarget(k, i, "g1", k.cone(i["Dg"]))) is None
            else _shrink_g(k, i2, i2["g2"], kept=i2["g1"])
        ),
        "Δ'⊑δ∧Δ1⊑a2(δ)⇒Γ⊑a1(a2(δ))": lambda k, i: (
            None
            if (i2 := _retarget(k, i, "g1", k.cone(i["Dg"]))) is None
            else _shrink_g(k, i2, i2["g1"], kept=i2["g2"])
        ),
    },
}


def _assemble(kit: Kit, row: str, inst: dict):
    onto = kit.onto
    op, strict, guarded = _NODE[row]

    def operand(name, init_states, target):
        return ActionClassDef(
            name,
            StateSpace.explicit(init_states),
            StateSpace.explicit({target}),
            transform=(TransformRule(ENTIRE, tuple(target.assignments)),),
        )

    onto.action_classes = {
        "OpA": operand("OpA", inst["D1"], inst["g1"]),
        "OpB": operand("OpB", inst["D2"], inst["g2"]),
        "Top": ActionClassDef(
            "Top", StateSpace.explicit(inst["D"]), StateSpace.explicit(inst["G"])
        ),
    }
    guard = StateSpace.explicit(inst["Dg"]) if guarded else None
    node = ActionNode(
        op,
        ActionLeaf("OpA"),
        ActionLeaf("OpB"),
        strict=strict,
        guard=guard,
        guard_side="right" if guarded else None,
    )
    return RefinementPattern("p1", "Top", (), node, row), onto


def make_satisfying(rng: random.Random, row: str):
    kit = Kit(rng, make_ontology(rng))
    return _assemble(kit, row, _RECIPES[row](kit))


def make_violating(rng: random.Random, row: str):
    for _ in range(80):
        kit = Kit(rng, make_ontology(rng))
        inst = _RECIPES[row](kit)
        targets = sorted(_BREAKERS[row])
        rng.shuffle(targets)
        for target in targets:
            mutated = _BREAKERS[row][target](kit, dict(inst))
            if mutated is not None:
                pattern, onto = _assemble(kit, row, mutated)
                return pattern, onto, target
    raise AssertionError(f"no violating {row} instance found")

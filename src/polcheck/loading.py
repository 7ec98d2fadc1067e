r"""File formats: ontology (.onto), facts (.facts), refinement patterns (.rp),
and current state (.state). Policies (.pol) parse in the policy module; the
path wrappers here add the file name to any error.

All four formats share one tokenizer (`%` comments, `$`-prefixed variables)
and two list readers, `TokenStream.arguments` for atoms and `TokenStream.items`:
no trailing comma, and a bracketed list may be empty, except a variable's range.
Declarations are keyword-led, so line breaks are insignificant, but the
variable table must be declared before any action class: every constraint
block is checked against it.

Ontology grammar:

    class Name [subclassOf Parent]
    prop name dom C,... range C,... [family hie|rel] [subpropOf other]
    var x maps objectId.prop range {v, ...}
    action Name[(param,...)] init {constraints} final {constraints}
        [effect formula] [resource id,...] [instrument id,...]
    transform Name when {constraints} set {x=v, ...}

A constraint block is `{x=v, y=v1|v2, ...}` and stays a box: each listed
variable takes one of its listed values, every other variable any declared
value, so `{}` is the entire space. A variable is listed at most once per
block, and a range lists each value once. A `set` block, like a state block,
is an assignment: each listed variable is declared and takes one value in
its range.

Facts grammar: `obj id : Class {prop=value, ...}` emits a type atom and one
atom per property pair; other lines are ground atoms. Every done atom also
emits its done_act(subject, action) projection.

Pattern grammar: `refine Root(prop:$x,...) := expr type=<taxonomy-id>`,
where expr uses `;`, `\/`, `/\` (strict with an `_s` suffix), `[guard]`
before an operand, and `(expr):Label` to name an inner composition.
Operators are binary; inner compositions must be labeled.

State grammar: one optional `state {x=v, ...}` total assignment plus ground
atoms.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .actions import (
    CHOICE,
    CONJ,
    EMPTY,
    SEQ,
    ActionClassDef,
    ActionLeaf,
    ActionNode,
    RefinementPattern,
    TransformRule,
    validate_action_class,
    validate_pattern,
)
from .compliance import CurrentState
from .errors import ParseError, PolcheckError, SchemaError, StructuralError
from .ontology import (
    ClassDef,
    DataSystem,
    ObjectInstance,
    Ontology,
    PropertyDef,
    State,
    StateSpace,
    VariableDef,
)
from .policy import BUILTIN_SHAPES, OVER_PREDICATES, Policy, parse_policy
from .terms import TRUE, Atom, Const, TokenStream, bind_property, is_ground, parse_formula, token_value

_RESERVED = frozenset(BUILTIN_SHAPES) | frozenset(OVER_PREDICATES)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _parse_constraints(ts: TokenStream, close: str) -> list:
    """`x=v` or `x=v1|v2` pairs up to the closing bracket; returns
    [(variable, (value, ...)), ...]. A variable listed twice is an error:
    alternatives are written with `|`."""
    pairs = []
    for _ in ts.items(close):
        var = ts.expect_ident()
        if any(var == seen for seen, _ in pairs):
            raise SchemaError(
                f"variable {var!r} is listed twice in one block; write alternatives as {var}=v1|v2"
            )
        ts.expect("=")
        values = [ts.expect_value()]
        while ts.accept("|"):
            values.append(ts.expect_value())
        pairs.append((var, tuple(values)))
    return pairs


def _space_from_pairs(pairs: list, variables: dict, where: str) -> StateSpace:
    for var, values in pairs:
        vdef = variables.get(var)
        if vdef is None:
            raise SchemaError(f"{where}: constraint on undeclared variable {var!r}")
        for v in values:
            if v not in vdef.values:
                raise SchemaError(
                    f"{where}: value {v!r} is outside the declared range of {var!r}"
                )
    return StateSpace.concise((var, v) for var, values in pairs for v in values)


def _parse_space(ts: TokenStream, variables: dict, where: str) -> StateSpace:
    ts.expect("{")
    return _space_from_pairs(_parse_constraints(ts, "}"), variables, where)


def _parse_assignment(ts: TokenStream, variables: dict, where: str) -> tuple:
    """`{x=v, ...}`: one value per listed variable, each variable declared
    and each value in its range; returns ((variable, value), ...)."""
    ts.expect("{")
    pairs = _parse_constraints(ts, "}")
    for var, values in pairs:
        if len(values) != 1:
            raise SchemaError(f"{where}: an assignment takes one value")
        if var not in variables:
            raise SchemaError(f"{where}: assignment to undeclared {var!r}")
        if values[0] not in variables[var].values:
            raise SchemaError(f"{where}: value {values[0]!r} is outside the range of {var!r}")
    return tuple((var, value) for var, (value,) in pairs)


def _parse_ground_atom(ts: TokenStream) -> Atom:
    at = ts.pos
    atom = Atom(ts.expect_ident(), ts.arguments(plain=True))
    ts.accept(".")
    if not is_ground(atom):
        ts.fail(f"fact {atom.pred} must be ground", at)
    return atom


# ---------------------------------------------------------------------------
# Ontology files
# ---------------------------------------------------------------------------


def parse_ontology(text: str) -> Ontology:
    ts = TokenStream(text)
    classes: dict = {}
    properties: dict = {}
    subclass_edges: list = []
    subprop_edges: list = []
    variables: dict = {}
    actions: dict = {}

    while not ts.at_end():
        if ts.accept("class"):
            name = ts.expect_ident()
            if name in classes:
                raise SchemaError(f"duplicate class {name!r}")
            classes[name] = ClassDef(name)
            if ts.accept("subclassOf"):
                subclass_edges.append((name, ts.expect_ident()))
        elif ts.accept("prop"):
            name = ts.expect_ident()
            if name in properties:
                raise SchemaError(f"duplicate property {name!r}")
            if name in _RESERVED:
                raise SchemaError(f"property name {name!r} is reserved by the policy language")
            ts.expect("dom")
            dom = ts.expect_idents()
            ts.expect("range")
            rng = ts.expect_idents()
            family = "rel"
            if ts.accept("family"):
                family = ts.expect_ident()
                if family not in ("hie", "rel"):
                    ts.fail(f"family must be hie or rel, not {family!r}", ts.pos - 1)
            if ts.accept("subpropOf"):
                subprop_edges.append((name, ts.expect_ident()))
            properties[name] = PropertyDef(name, tuple(dom), tuple(rng), family)
        elif ts.accept("var"):
            if actions:
                ts.fail("the variable table must be declared before any action class", ts.pos - 1)
            name = ts.expect_ident()
            if name in variables:
                raise SchemaError(f"duplicate variable {name!r}")
            ts.expect("maps")
            object_id = ts.expect_ident()
            ts.expect(".")
            prop = ts.expect_ident()
            ts.expect("range")
            ts.expect("{")
            values = []
            for _ in ts.items("}", empty=False):
                value = ts.expect_value()
                if value in values:
                    raise SchemaError(f"value {value!r} is listed twice in the range of {name!r}")
                values.append(value)
            variables[name] = VariableDef(name, object_id, prop, tuple(values))
        elif ts.accept("action"):
            name = ts.expect_ident()
            if name in actions:
                raise SchemaError(f"duplicate action class {name!r}")
            params = [ts.expect_ident() for _ in ts.items(")")] if ts.accept("(") else []
            ts.expect("init")
            init_space = _parse_space(ts, variables, f"action {name} init")
            ts.expect("final")
            final_space = _parse_space(ts, variables, f"action {name} final")
            effect = TRUE
            resources: list = []
            instruments: list = []
            while True:
                if ts.accept("effect"):
                    effect = parse_formula(ts)
                elif ts.accept("resource"):
                    resources += ts.expect_idents()
                elif ts.accept("instrument"):
                    instruments += ts.expect_idents()
                else:
                    break
            actions[name] = ActionClassDef(
                name,
                init_space,
                final_space,
                params=tuple(params),
                effect=effect,
                resources=tuple(resources),
                instruments=tuple(instruments),
            )
        elif ts.accept("transform"):
            name = ts.expect_ident()
            if name not in actions:
                raise SchemaError(f"transform for undeclared action {name!r}")
            ts.expect("when")
            guard = _parse_space(ts, variables, f"transform {name} guard")
            ts.expect("set")
            effects = _parse_assignment(ts, variables, f"transform {name}")
            rule = TransformRule(guard, effects)
            actions[name] = replace(actions[name], transform=actions[name].transform + (rule,))
        else:
            ts.fail(f"expected a declaration keyword, found {token_value(ts.tokens[ts.pos])!r}")

    onto = Ontology(
        classes,
        properties,
        tuple(subclass_edges),
        tuple(subprop_edges),
        variables,
        actions,
    )
    for acd in actions.values():
        validate_action_class(acd, onto)
    return onto


# ---------------------------------------------------------------------------
# Facts files
# ---------------------------------------------------------------------------


def parse_facts(text: str, onto: Ontology = None) -> DataSystem:
    ts = TokenStream(text)
    objects: dict = {}
    atoms: set = set()
    while not ts.at_end():
        if ts.accept("obj"):
            object_id = ts.expect_ident()
            if object_id in objects:
                raise SchemaError(f"duplicate object {object_id!r}")
            ts.expect(":")
            type_name = ts.expect_ident()
            if onto is not None and type_name not in onto.classes:
                raise SchemaError(f"object {object_id} has undeclared class {type_name!r}")
            props: list = []
            if ts.accept("{"):
                for _ in ts.items("}"):
                    prop = ts.expect_ident()
                    if onto is not None and prop not in onto.properties:
                        raise SchemaError(f"object {object_id} uses undeclared property {prop!r}")
                    ts.expect("=")
                    props.append((prop, ts.expect_value()))
            ts.accept(".")
            objects[object_id] = ObjectInstance(object_id, type_name, tuple(props))
            atoms.add(Atom("type", (Const(object_id), Const(type_name))))
            for prop, value in props:
                atoms.add(Atom(prop, (Const(object_id), Const(value))))
        else:
            atom = _parse_ground_atom(ts)
            atoms.add(atom)
            if atom.pred == "done" and len(atom.args) == 4:
                atoms.add(Atom("done_act", (atom.args[0], atom.args[2])))
    return DataSystem(objects, frozenset(atoms))


# ---------------------------------------------------------------------------
# Pattern files
# ---------------------------------------------------------------------------


class _Guarded:
    def __init__(self, comp, space, at):
        self.comp = comp
        self.space = space
        self.at = at  # index of its `[` token, where a misplaced guard is reported


def _parse_bindings(ts: TokenStream, name: str) -> tuple:
    """Optional `(prop:term, ...)` after an action name."""
    bindings = []
    if ts.accept("("):
        for _ in ts.items(")"):
            bind_property(ts, name, bindings, ":")
    return tuple(bindings)


def _combine(ts: TokenStream, op: str, left, right, strict: bool):
    guard = side = None
    if isinstance(left, _Guarded):
        guard, side, left = left.space, "left", left.comp
    if isinstance(right, _Guarded):
        if guard is not None:
            ts.fail("at most one operand of a composition may carry a guard", right.at)
        guard, side, right = right.space, "right", right.comp
    try:
        return ActionNode(op, left, right, strict=strict, guard=guard, guard_side=side)
    except StructuralError as e:
        ts.fail(str(e))


# composition operators, loosest first: (token, operator, whether `_s` may follow)
_OPERATORS = (("\\/", CHOICE, True), (";", SEQ, False), ("/\\", CONJ, True))


def _parse_composition(ts: TokenStream, onto: Ontology, level: int = 0):
    """The operators of the table from `level` on, each binding tighter than
    the one before and left-associative; past the table, an operand with
    perhaps a guard."""
    if level == len(_OPERATORS):
        at = ts.pos
        if not ts.accept("["):
            return _parse_primary(ts, onto)
        space = _space_from_pairs(_parse_constraints(ts, "]"), onto.variables, "guard")
        return _Guarded(_parse_primary(ts, onto), space, at)
    token, op, strictable = _OPERATORS[level]
    left = _parse_composition(ts, onto, level + 1)
    while ts.accept(token):
        strict = strictable and ts.accept("_s")
        left = _combine(ts, op, left, _parse_composition(ts, onto, level + 1), strict)
    return left


def _parse_primary(ts: TokenStream, onto: Ontology):
    if ts.accept("("):
        inner = _parse_composition(ts, onto)
        ts.expect(")")
        if ts.accept(":"):
            label = ts.expect_ident()
            if isinstance(inner, _Guarded) or not isinstance(inner, ActionNode):
                ts.fail("only a composite operand can carry a label", ts.pos - 1)
            inner = replace(inner, label=label)
        return inner
    if ts.accept("{"):
        ts.expect("}")
        return EMPTY
    name = ts.expect_ident()
    return ActionLeaf(name, _parse_bindings(ts, name))


def parse_patterns(text: str, onto: Ontology) -> tuple:
    ts = TokenStream(text)
    patterns: list = []
    while not ts.at_end():
        ts.expect("refine")
        root = ts.expect_ident()
        root_bindings = _parse_bindings(ts, root)
        ts.expect(":")
        ts.expect("=")
        body = _parse_composition(ts, onto)
        if isinstance(body, _Guarded):
            ts.fail("a guard must attach to an operand of a composition", body.at)
        ts.expect("type")
        ts.expect("=")
        parts = [ts.expect_ident()]
        while ts.accept("-"):
            parts.append(ts.expect_ident())
        patterns.append(RefinementPattern(f"p{len(patterns) + 1}", root, root_bindings, body, "-".join(parts)))
    for pat in patterns:
        validate_pattern(pat, onto)
    return tuple(patterns)


# ---------------------------------------------------------------------------
# Current-state files
# ---------------------------------------------------------------------------


def parse_state(text: str, onto: Ontology) -> CurrentState:
    ts = TokenStream(text)
    atoms: set = set()
    state = None
    while not ts.at_end():
        if ts.accept("state"):
            if state is not None:
                ts.fail("a state file holds at most one state block", ts.pos - 1)
            assignment = dict(_parse_assignment(ts, onto.variables, "state"))
            ts.accept(".")
            missing = [v for v in onto.variable_names() if v not in assignment]
            if missing:
                raise SchemaError(
                    "state block must assign every declared variable; missing: "
                    + ", ".join(missing)
                )
            state = State.make(assignment)
        else:
            atoms.add(_parse_ground_atom(ts))
    return CurrentState(frozenset(atoms), state)


# ---------------------------------------------------------------------------
# Path wrappers
# ---------------------------------------------------------------------------


def _load(path, parser, *args, **kwargs):
    try:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            line = e.object.count(b"\n", 0, e.start) + 1
            raise ParseError(f"not UTF-8 text ({e.reason})", line) from None
        return parser(text, *args, **kwargs)
    except PolcheckError as e:
        e.path = path
        raise


def load_ontology(path) -> Ontology:
    return _load(path, parse_ontology)


def load_facts(path, onto: Ontology = None) -> DataSystem:
    return _load(path, parse_facts, onto)


def load_policy(path, onto: Ontology = None) -> Policy:
    return _load(path, parse_policy, onto)


def load_patterns(path, onto: Ontology) -> tuple:
    return _load(path, parse_patterns, onto)


def load_state(path, onto: Ontology) -> CurrentState:
    return _load(path, parse_state, onto)

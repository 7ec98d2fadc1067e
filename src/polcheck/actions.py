"""Action classes and the composition algebra.

An action class is a state transformer between an initial and a final state
space. Compositions combine actions with sequence, choice, and conjunction;
choice and conjunction come in strict and flexible variants, and sequence and
conjunction additionally in advanced (guarded) variants where one operand
carries a state-space guard: when the guard space abstracts the state at the
point the guarded action would run, that action is mandatory, otherwise it
may be skipped.

validate_action_class checks each transformer at load over guard regions:
boxes of declared values on which one guarded assignment or the fallback fires,
at most MAX_REGION_BOXES of them. The box algebra it cuts them with lives in
ontology.py, and so does the witness routine that decides every refinement
constraint between spaces, joins included, without expanding an operand.

Well-formedness of a refinement pattern is decided two ways, over the same
nodes: pattern_nodes yields the root and every labeled inner composition,
and refinement flattens complex patterns along the same walk.
check_well_formed_complex evaluates the symbolic constraint row for each
node's composition type, and oracle_well_formed replays every required trace
from every initial state and checks the end states directly. Both run traces
through apply_trace, where an infeasible run fails the constraint it was
run for. The checker's constraints are sufficient, not necessary, so the
supported direction is: checker-accepted implies oracle-accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ExpansionError,
    NameResolutionError,
    OracleScaleError,
    SchemaError,
    StructuralError,
    TaxonomyError,
)
from .ontology import (
    Ontology,
    State,
    StateSpace,
    _allowed_values,
    _boxes,
    _least,
    _outside,
    _split,
    _uncovered,
    expand_space,
    feasible_in,
    render_constraints,
    render_space,
    render_state,
    space_meet,
    space_size,
    state_refines,
    value_refines,
)
from .terms import Formula, TRUE

SEQ = "seq"
CHOICE = "choice"
CONJ = "conj"

DECLARED_TYPES = (
    "basic-seq",
    "basic-strict-choice",
    "basic-strict-conj",
    "basic-flex-choice",
    "basic-flex-conj",
    "adv-seq",
    "adv-strict-conj",
    "adv-flex-conj",
)


# ---------------------------------------------------------------------------
# Action classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformRule:
    """One guarded assignment: when the guard space abstracts the current
    state, the listed variables are overwritten."""

    guard: StateSpace
    effects: tuple  # tuple[(variable, value), ...]


@dataclass(frozen=True)
class ActionClassDef:
    name: str
    init_space: StateSpace
    final_space: StateSpace
    params: tuple = ()
    transform: tuple = ()  # tuple[TransformRule, ...], tried in order
    effect: Formula = TRUE
    resources: tuple = ()
    instruments: tuple = ()

    def apply(self, state: State, onto: Ontology) -> State:
        """Total transformer: the first matching guarded assignment, else the fallback."""
        for rule in self.transform:
            if feasible_in(rule.guard, state, onto):
                return state.override(dict(rule.effects))
        effects = self._fallback(onto)
        if effects is None:
            raise SchemaError(f"action {self.name}: no transform rule applies and the final space is empty")
        return state.override(effects)

    def _fallback(self, onto: Ontology):
        """A final box's variables if it gives each one value, else every variable at the
        final space's least state; None for an empty explicit final space."""
        final = self.final_space
        if not final.is_concise:
            return dict(min(final.states).assignments) if final.states else None
        fixed = dict(final.fixed)
        if len(fixed) == len(final.fixed):
            return fixed
        return {var: min(values) for var, values in _allowed_values(final, onto).items()}


# The boxes a transformer's guard regions may take: each guard on new variables can triple them.
MAX_REGION_BOXES = 4096
# The default most states of a pattern node's initial space that well-formedness enumerates.
ORACLE_BOUND = 4096


def _breaks(s: dict, var: str, w: str, e: dict, f: dict, onto: Ontology) -> list:
    """Boxes of s's states, e laid over, that their lowering of var to w, f laid over, fails to refine."""
    return [
        {**s, u: failing}
        for u in s.keys() & (e.keys() | f.keys() | {var})
        if (failing := {
            x for x in s[u] if not value_refines(f.get(u, w if u == var else x), e.get(u, x), onto)
        })
    ]


def validate_action_class(acd: ActionClassDef, onto: Ontology) -> None:
    """The transformer contract, decided over guard regions without listing a state: each
    cone state lands in the final space's cone, and lowering one of its variables to a
    declared value below lowers the output or leaves it equal. The least violating state
    in sorted order is replayed through ``apply`` to word the error, final space first."""
    parts, rest = [], _boxes(acd.init_space, onto)  # the cone, cut into regions below
    space_size(acd.final_space, onto)  # its errors come before a guard's
    guards = []
    for rule in acd.transform:
        try:
            guards.append(_boxes(rule.guard, onto))
        except ExpansionError:  # apply raises it on every state that reaches this guard
            break
    for k, guard in enumerate(guards, 1):
        part, rest = _split(rest, guard)
        parts.append(part)
        if (count := len(rest) + sum(map(len, parts))) > MAX_REGION_BOXES:
            raise SchemaError(
                f"action {acd.name}: its first {k} transform guards cut the initial space into "
                f"{count} boxes of declared values, past the bound of {MAX_REGION_BOXES}"
            )
    effects = [dict(rule.effects) for rule in acd.transform[: len(guards)]]
    fallback = acd._fallback(onto) if len(guards) == len(acd.transform) else None
    regions = list(zip(parts, effects)) + [(rest, fallback)]  # with None where apply raises

    outside = []
    for boxes, e in regions:
        total = e is not None and e.keys() <= onto.variables.keys()
        outside += _outside(boxes, _boxes(acd.final_space, onto, fixed=e) if total else [])
    if outside:
        delta = _least(outside)
        gamma = acd.apply(delta, onto)
        feasible_in(acd.final_space, gamma, onto)  # raises if gamma is not total
        raise SchemaError(
            f"action {acd.name}: transformer output {render_state(gamma)} falls outside the final space"
        )

    below = {
        var: {v: [w for w in vdef.values if w != v and value_refines(w, v, onto)] for v in vdef.values}
        for var, vdef in onto.variables.items()
    }
    breaks = []
    for i, (boxes, e) in enumerate(regions):
        for b in boxes:
            # guards are closed downwards: a state of b lowered at var fires rule i again, where
            # the order holds, or the first earlier rule with a guard box apart from b at var alone
            near = {}
            for g, f in ((g, f) for guard, f in zip(guards[:i], effects) for g in guard):
                apart = [u for u in b if not b[u] & g[u]]
                if len(apart) == 1:
                    near.setdefault(apart[0], []).append((g, f))
            for var, touching in near.items():
                for w in {w for v in b[var] for w in below[var][v]}:
                    above = {v for v in b[var] if w in below[var][v]}
                    lowered = [{**b, var: frozenset((w,))}]
                    for g, f in touching:  # the first guard box that holds fires
                        met, lowered = _split(lowered, [g])
                        for m in met:
                            breaks += _breaks({**m, var: above}, var, w, e, f, onto)
    if breaks:
        delta = _least(breaks)
        out = acd.apply(delta, onto)
        for k, (var, value) in enumerate(delta.assignments):
            for lower in below[var][value]:
                lowered = State(delta.assignments[:k] + ((var, lower),) + delta.assignments[k + 1 :])
                if not state_refines(out, acd.apply(lowered, onto), onto):
                    raise SchemaError(
                        f"action {acd.name}: transformer is not monotone between "
                        f"{render_state(delta)} and {render_state(lowered)}"
                    )
        raise AssertionError(f"action {acd.name}: no lowering of {render_state(delta)} breaks the order")


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionLeaf:
    name: str
    bindings: tuple = ()  # ((property, Term), ...) as written in the pattern


@dataclass(frozen=True)
class EmptyAction:
    """The identity action {}."""


EMPTY = EmptyAction()


@dataclass(frozen=True)
class ActionNode:
    op: str
    left: object
    right: object
    strict: bool = False
    guard: StateSpace = None
    guard_side: str = None
    label: str = None  # action class named by an inner node of a complex body

    def __post_init__(self):
        if self.op not in (SEQ, CHOICE, CONJ):
            raise StructuralError(f"unknown operator {self.op!r}")
        if self.strict and self.op == SEQ:
            raise StructuralError("sequence has no strict variant")
        if self.guard is not None:
            if self.op == CHOICE:
                raise StructuralError("choice takes no guard")
            if self.guard_side not in ("left", "right"):
                raise StructuralError("guard requires a side")
            if self.op == SEQ and self.guard_side != "right":
                raise StructuralError("a guarded sequence guards its second operand")
        elif self.guard_side is not None:
            raise StructuralError("guard side without a guard")


def taxonomy_of(node: ActionNode) -> str:
    if node.op == SEQ:
        return "adv-seq" if node.guard is not None else "basic-seq"
    if node.op == CHOICE:
        return "basic-strict-choice" if node.strict else "basic-flex-choice"
    if node.guard is not None:
        return "adv-strict-conj" if node.strict else "adv-flex-conj"
    return "basic-strict-conj" if node.strict else "basic-flex-conj"


@dataclass(frozen=True, order=True)
class ActionTrace:
    steps: tuple  # tuple[str, ...] of action class names


@dataclass(frozen=True)
class Infeasible:
    """Returned by apply_trace when a step's initial space does not abstract
    the current state. Not an error."""

    step: int  # 1-based failing step
    action: str
    state: State


@dataclass(frozen=True)
class RefinementPattern:
    pattern_id: str
    root: str
    root_bindings: tuple  # ((property, Term), ...) from the pattern header
    body: object  # Composition
    declared_type: str


def render_composition(comp, _prec: int = 0) -> str:
    from .terms import render as render_term

    if isinstance(comp, EmptyAction):
        return "{}"
    if isinstance(comp, ActionLeaf):
        if not comp.bindings:
            return comp.name
        inner = ",".join(f"{p}:{render_term(v)}" for p, v in comp.bindings)
        return f"{comp.name}({inner})"
    prec = {CHOICE: 1, SEQ: 2, CONJ: 3}[comp.op]
    sym = {CHOICE: "\\/", SEQ: ";", CONJ: "/\\"}[comp.op]
    if comp.strict:
        sym += "_s"
    left = render_composition(comp.left, prec)
    right = render_composition(comp.right, prec + 1)
    if comp.guard is not None:
        guard = render_constraints(comp.guard) if comp.guard.is_concise else render_space(comp.guard)
        gtxt = f"[{guard}]"
        if comp.guard_side == "left":
            left = gtxt + left
        else:
            right = gtxt + right
    text = f"{left} {sym} {right}"
    if prec < _prec:
        text = f"({text})"
    if comp.label:
        text = f"({text}):{comp.label}"
    return text


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def _shuffle(left: tuple, right: tuple) -> set:
    """All interleavings of two traces that keep each one's internal order
    (the shuffle product). Associative and commutative on trace sets, which
    is what makes conjunction associative and commutative."""
    if not left:
        return {right}
    if not right:
        return {left}
    return {(left[0],) + t for t in _shuffle(left[1:], right)} | {
        (right[0],) + t for t in _shuffle(left, right[1:])
    }


def traces(comp) -> tuple:
    """Every linearization of the composition, in sorted order. Conjunction
    admits every interleaving of its operands' traces. A guarded operand
    contributes both the trace that includes it and the one that omits it;
    which of the two is required at run time depends on the state, which
    trace enumeration does not see."""

    def walk(c) -> set:
        if isinstance(c, EmptyAction):
            return {()}
        if isinstance(c, ActionLeaf):
            return {(c.name,)}
        left = walk(c.left)
        right = walk(c.right)
        if c.guard is not None:
            if c.guard_side == "left":
                left = left | {()}
            else:
                right = right | {()}
        if c.op == SEQ:
            return {l + r for l in left for r in right}
        if c.op == CHOICE:
            return left | right
        return {t for l in left for r in right for t in _shuffle(l, r)}

    return tuple(sorted(ActionTrace(t) for t in walk(comp)))


def apply_trace(trace: ActionTrace, state: State, onto: Ontology):
    """Run the trace's transformers in order. Returns the end State, or an
    Infeasible marker naming the first step whose initial space does not
    abstract the intermediate state."""
    current = state
    for i, name in enumerate(trace.steps, 1):
        acd = onto.action_classes.get(name)
        if acd is None:
            raise NameResolutionError(f"unknown action class {name!r}")
        if not feasible_in(acd.init_space, current, onto):
            return Infeasible(i, name, current)
        current = acd.apply(current, onto)
    return current


# ---------------------------------------------------------------------------
# Well-formedness: symbolic checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintViolation:
    node_path: str
    constraint_id: str
    witness: State = None

    def sort_key(self):
        w = render_state(self.witness) if self.witness is not None else ""
        return (self.node_path, self.constraint_id, w)


@dataclass(frozen=True)
class WellFormedVerdict:
    ok: bool
    violations: tuple = ()
    warnings: tuple = ()


def validate_pattern(pattern: RefinementPattern, onto: Ontology) -> None:
    """Structural checks done before any well-formedness reasoning."""
    if pattern.declared_type not in DECLARED_TYPES:
        raise TaxonomyError(f"unknown composition type {pattern.declared_type!r}")
    if not isinstance(pattern.body, ActionNode):
        raise StructuralError(f"pattern {pattern.pattern_id}: body must be a composition")
    actual = taxonomy_of(pattern.body)
    if actual != pattern.declared_type:
        raise TaxonomyError(
            f"pattern {pattern.pattern_id}: declared {pattern.declared_type} but body is {actual}"
        )
    if pattern.root not in onto.action_classes:
        raise NameResolutionError(f"pattern root {pattern.root!r} is not a declared action")

    # preorder, left operand first, with its own stack
    stack = [(pattern.body, True)]
    while stack:
        c, is_root = stack.pop()
        if isinstance(c, EmptyAction):
            raise StructuralError(f"pattern {pattern.pattern_id}: the empty action cannot appear in a pattern")
        if isinstance(c, ActionLeaf):
            if c.name not in onto.action_classes:
                raise NameResolutionError(
                    f"pattern {pattern.pattern_id}: undeclared action {c.name!r}"
                )
            continue
        if not is_root and c.label is None:
            raise StructuralError(
                f"pattern {pattern.pattern_id}: inner compositions must be labeled with an action"
            )
        if c.label is not None and c.label not in onto.action_classes:
            raise NameResolutionError(
                f"pattern {pattern.pattern_id}: undeclared action label {c.label!r}"
            )
        stack += ((c.right, False), (c.left, False))


def pattern_nodes(pattern: RefinementPattern):
    """Yield (parent action name, node, path, pattern id) for the root
    composition and for every labeled inner composition, in preorder. The
    path names the sides taken from the root (``root.left``); the pattern id
    appends the labels (``p1.Scan``). Every yielded node's operands are
    action leaves or labeled compositions."""
    pid = pattern.pattern_id
    if not isinstance(pattern.body, ActionNode):
        raise StructuralError(f"pattern {pid}: body must be a composition")
    stack = [(pattern.root, pattern.body, "root", pid)]
    while stack:
        parent, node, path, node_id = stack.pop()
        for child in (node.left, node.right):
            if isinstance(child, EmptyAction):
                raise StructuralError(f"pattern {pid}: the empty action cannot appear in a pattern")
            if isinstance(child, ActionNode) and child.label is None:
                raise StructuralError(
                    f"pattern {pid}: inner compositions must be labeled with an action"
                )
        yield parent, node, path, node_id
        for side in ("right", "left"):
            child = getattr(node, side)
            if isinstance(child, ActionNode):
                stack.append((child.label, child, f"{path}.{side}", f"{node_id}.{child.label}"))


def _operand_name(comp) -> str:
    return comp.name if isinstance(comp, ActionLeaf) else comp.label


def _node_verdicts(pattern: RefinementPattern, onto: Ontology, state_bound: int, row_check):
    """Run ``row_check(parent, node, a1, a2, delta_states, onto, path)`` on
    every node of the pattern and collect its violations. The guarded
    operand always plays the a2 role. ``delta_states()`` lists the parent's
    initial space in sorted order, or raises OracleScaleError past
    ``state_bound`` states, so only a row that reads states builds them. A
    node whose parent's initial space is empty is vacuously well-formed and
    only warned about."""
    validate_pattern(pattern, onto)
    violations: list[ConstraintViolation] = []
    warnings: list[str] = []
    for parent_name, node, path, _ in pattern_nodes(pattern):
        parent = onto.action_classes[parent_name]
        a1 = onto.action_classes[_operand_name(node.left)]
        a2 = onto.action_classes[_operand_name(node.right)]
        if node.guard_side == "left":
            a1, a2 = a2, a1
        size = space_size(parent.init_space, onto)
        if not size:
            warnings.append(f"{path}: empty initial space; vacuously well-formed")
            continue

        def delta_states():
            if size > state_bound:
                raise OracleScaleError(
                    f"{path}: initial space has {size} states, past the bound of {state_bound}"
                )
            return sorted(expand_space(parent.init_space, onto))

        violations.extend(row_check(parent, node, a1, a2, delta_states, onto, path))
    violations.sort(key=ConstraintViolation.sort_key)
    return WellFormedVerdict(not violations, tuple(violations), tuple(warnings))


def check_well_formed_complex(
    pattern: RefinementPattern, onto: Ontology, state_bound: int = ORACLE_BOUND
) -> WellFormedVerdict:
    """Symbolic constraint check of the root composition and of every
    labeled inner composition, each as its own pattern node, with node paths
    in the report."""
    return _node_verdicts(pattern, onto, state_bound, _check_node)


def _check_node(parent: ActionClassDef, node: ActionNode, a1, a2, delta_states, onto: Ontology, path: str):
    """The constraint row of one composition node."""
    violations: list[ConstraintViolation] = []
    D, G = parent.init_space, parent.final_space
    D1, G1 = a1.init_space, a1.final_space
    D2, G2 = a2.init_space, a2.final_space
    Dg = node.guard
    first, second = ActionTrace((a1.name,)), ActionTrace((a2.name,))
    row = taxonomy_of(node)

    def need(constraint_id: str, *spaces):  # the last space refines the join of the others
        w = _uncovered(spaces[:-1], spaces[-1], onto)
        if w is not None:
            violations.append(ConstraintViolation(path, constraint_id, w))

    def need_at(constraint_id: str, abstract, end, delta) -> bool:
        """The run from delta ended feasibly inside abstract; an infeasible
        run fails the constraint too."""
        if isinstance(end, Infeasible) or not feasible_in(abstract, end, onto):
            violations.append(ConstraintViolation(path, constraint_id, delta))
            return False
        return True

    if row == "basic-seq":
        need("Δ1⊑Δ", D1, D)
        need("Δ2⊑Γ1", D2, G1)
        need("Γ⊑Γ2", G, G2)

    elif row == "basic-strict-choice":
        need("Δ1⊓Δ2⊑Δ", space_meet(D1, D2, onto), D)
        need("Γ⊑Γ1", G, G1)
        need("Γ⊑Γ2", G, G2)

    elif row == "basic-flex-choice":
        need("Δ1⊔Δ2⊑Δ", D1, D2, D)
        for constraint_id, Di in (("Δ1⊓Δ≠{}", D1), ("Δ2⊓Δ≠{}", D2)):
            if not space_size(space_meet(Di, D, onto), onto):
                violations.append(ConstraintViolation(path, constraint_id))
        need("Γ⊑Γ1", G, G1)
        need("Γ⊑Γ2", G, G2)

    elif row == "basic-strict-conj":
        need("Δ1⊑Δ", D1, D)
        need("Δ2⊑Δ", D2, D)
        order21 = ActionTrace((a2.name, a1.name))
        order12 = ActionTrace((a1.name, a2.name))
        for delta in delta_states():
            need_at("Γ⊑a1(a2(δ))", G, apply_trace(order21, delta, onto), delta)
            need_at("Γ⊑a2(a1(δ))", G, apply_trace(order12, delta, onto), delta)

    elif row == "basic-flex-conj":
        need("Δ1⊔Δ2⊑Δ", D1, D2, D)
        for delta in delta_states():
            if feasible_in(D1, delta, onto):
                m = a1.apply(delta, onto)
                if need_at("Δ1⊑δ⇒Δ2⊑a1(δ)", D2, m, delta):
                    need_at("Δ1⊑δ⇒Γ⊑a2(a1(δ))", G, a2.apply(m, onto), delta)
            if feasible_in(D2, delta, onto):
                n = a2.apply(delta, onto)
                if need_at("Δ2⊑δ⇒Δ1⊑a2(δ)", D1, n, delta):
                    need_at("Δ2⊑δ⇒Γ⊑a1(a2(δ))", G, a1.apply(n, onto), delta)

    elif row == "adv-seq":
        need("Δ2⊑Δ'", D2, Dg)
        need("Δ1⊑Δ", D1, D)
        for delta in delta_states():
            m = apply_trace(first, delta, onto)
            if isinstance(m, Infeasible):
                violations.append(ConstraintViolation(path, "Δ1⊑Δ", delta))
            elif feasible_in(Dg, m, onto):
                need_at("Δ'⊑a1(δ)⇒Γ⊑a2(a1(δ))", G, apply_trace(second, m, onto), delta)
            else:
                need_at("Δ'⊄a1(δ)⇒Γ⊑a1(δ)", G, m, delta)

    elif row == "adv-strict-conj":
        need("Δ2⊑Δ'", D2, Dg)
        need("Δ1⊑Δ", D1, D)
        core = space_meet(D, Dg, onto)
        if not space_size(core, onto):
            violations.append(ConstraintViolation(path, "Δ⊓Δ'≠{}"))
        for delta in delta_states():
            if feasible_in(core, delta, onto):
                need_at("Δ⊓Δ'⊑δ⇒Δ1⊑δ", D1, delta, delta)
                m = apply_trace(first, delta, onto)
                if need_at("Δ⊓Δ'⊑δ⇒Δ'⊑a1(δ)", Dg, m, delta):
                    need_at("Δ⊓Δ'⊑δ⇒Γ⊑a2(a1(δ))", G, apply_trace(second, m, onto), delta)
                n = apply_trace(second, delta, onto)
                if need_at("Δ⊓Δ'⊑δ⇒Δ1⊑a2(δ)", D1, n, delta):
                    need_at("Δ⊓Δ'⊑δ⇒Γ⊑a1(a2(δ))", G, apply_trace(first, n, onto), delta)
            else:
                need_at("Δ⊓Δ'⊄δ⇒Γ⊑a1(δ)", G, apply_trace(first, delta, onto), delta)

    elif row == "adv-flex-conj":
        need("Δ2⊑Δ'", D2, Dg)
        need("Δ1⊔Δ'⊑Δ", D1, Dg, D)
        for delta in delta_states():
            g_now = feasible_in(Dg, delta, onto)
            if feasible_in(D1, delta, onto):
                m = a1.apply(delta, onto)
                if feasible_in(Dg, m, onto):
                    need_at("Δ1⊑δ∧Δ'⊑a1(δ)⇒Γ⊑a2(a1(δ))", G, apply_trace(second, m, onto), delta)
                elif not g_now:
                    need_at("Δ1⊑δ∧Δ'⊄δ∧Δ'⊄a1(δ)⇒Γ⊑a1(δ)", G, m, delta)
            if g_now:
                n = apply_trace(second, delta, onto)
                if not isinstance(n, Infeasible) and feasible_in(D1, n, onto):
                    need_at("Δ'⊑δ∧Δ1⊑a2(δ)⇒Γ⊑a1(a2(δ))", G, a1.apply(n, onto), delta)

    else:  # pragma: no cover - taxonomy_of is total over valid nodes
        raise TaxonomyError(f"unknown composition type {row!r}")

    return violations


# ---------------------------------------------------------------------------
# Well-formedness: trace-simulation oracle
# ---------------------------------------------------------------------------


def oracle_well_formed(
    pattern: RefinementPattern, onto: Ontology, state_bound: int = ORACLE_BOUND
) -> WellFormedVerdict:
    """Brute-force reference: from every state of the initial space, run the
    trace set the composition semantics requires there and demand every run
    is feasible and ends inside the final space's cone."""
    return _node_verdicts(pattern, onto, state_bound, _oracle_node)


def _oracle_node(parent: ActionClassDef, node: ActionNode, a1, a2, delta_states, onto: Ontology, path: str):
    violations: list[ConstraintViolation] = []
    D, G = parent.init_space, parent.final_space
    Dg = node.guard
    row = taxonomy_of(node)

    def run(steps, delta) -> None:
        """Require one trace from delta: feasible, and ending inside Γ."""
        trace = ActionTrace(tuple(acd.name for acd in steps))
        tid = "trace[" + ";".join(trace.steps) + "]"
        end = apply_trace(trace, delta, onto)
        if isinstance(end, Infeasible):
            violations.append(ConstraintViolation(path, tid + " infeasible", delta))
        elif not feasible_in(G, end, onto):
            violations.append(ConstraintViolation(path, tid + " misses Γ", delta))

    feasible_somewhere = {a1.name: False, a2.name: False}
    for delta in delta_states():
        f1 = feasible_in(a1.init_space, delta, onto)
        f2 = feasible_in(a2.init_space, delta, onto)
        feasible_somewhere[a1.name] |= f1
        feasible_somewhere[a2.name] |= f2

        if row == "basic-seq":
            run((a1, a2), delta)

        elif row == "basic-strict-choice":
            run((a1,), delta)
            run((a2,), delta)

        elif row == "basic-flex-choice":
            if not f1 and not f2:
                violations.append(ConstraintViolation(path, "no alternative feasible", delta))
            if f1:
                run((a1,), delta)
            if f2:
                run((a2,), delta)

        elif row == "basic-strict-conj":
            run((a1, a2), delta)
            run((a2, a1), delta)

        elif row == "basic-flex-conj":
            if not f1 and not f2:
                violations.append(ConstraintViolation(path, "no sub-action feasible", delta))
            if f1:
                run((a1, a2), delta)
            if f2:
                run((a2, a1), delta)

        elif row == "adv-seq":
            if not f1:
                violations.append(ConstraintViolation(path, "trace[" + a1.name + "] infeasible", delta))
                continue
            mid = a1.apply(delta, onto)
            if feasible_in(Dg, mid, onto):
                run((a1, a2), delta)
            else:
                run((a1,), delta)

        elif row == "adv-strict-conj":
            mandatory = feasible_in(space_meet(D, Dg, onto), delta, onto)
            if mandatory:
                run((a1, a2), delta)
                run((a2, a1), delta)
            else:
                run((a1,), delta)

        elif row == "adv-flex-conj":
            g_now = feasible_in(Dg, delta, onto)
            if f1:
                mid = a1.apply(delta, onto)
                if feasible_in(Dg, mid, onto):
                    run((a1, a2), delta)
                elif not g_now:
                    run((a1,), delta)
            if g_now and f2:
                n = a2.apply(delta, onto)
                if feasible_in(a1.init_space, n, onto):
                    run((a2, a1), delta)
            if not f1 and not g_now:
                violations.append(ConstraintViolation(path, "no sub-action performable", delta))

    if row in ("basic-flex-choice",):
        for name, seen in sorted(feasible_somewhere.items()):
            if not seen:
                violations.append(ConstraintViolation(path, f"{name} is never a feasible alternative"))
    if row == "adv-strict-conj":
        if not expand_space(space_meet(D, Dg, onto), onto):
            violations.append(ConstraintViolation(path, "guard never applies inside Δ"))
    return violations

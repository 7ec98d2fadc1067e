"""Ontology, data system, and the state refinement order.

The ontology declares class and property hierarchies, a variable table that
maps state variables to object properties with finite value ranges, and the
action classes loaded from the same file. A data system holds the concrete
object instances and ground base atoms that policies are evaluated against.
Graph work over names is done by two routines here: _cycle, the depth-first
cycle search that checks both hierarchies and refinement's pattern graph,
and _reach, the closure behind a class's ancestors and the evaluator's
predicate cone.

States are total assignments over the declared variable tuple. A state space
is either an explicit set of states or a concise box: per variable, the
values it lists, and every declared value for a variable it does not list.
Refinement runs from abstract to concrete: ``state_refines(g, g2)`` says
every variable of g2 names a value at or below the corresponding value of g
in the hierarchy, and ``space_refines(G, G2)`` says every state of G2
refines some state of G. ``feasible_in(G, g)`` is the one membership test:
g refines some state of G. Every question reads a space through its cover,
``_cover``: a box as itself and an explicit space as one point box per
state, so membership, size and meet are decided one variable at a time
over disjoint boxes without listing a state. Box reasoning lives here alone:
a space's cone, the states that refine one of its states, is a list of
boxes, cut apart by set difference and read by their least state.
Refinement between spaces, a join of abstract spaces included, is decided
on cones. Only the public ``space_join`` and the per-state rows of
well-formedness list states, through ``expand_space``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CycleError, ExpansionError, NameResolutionError, StructuralError


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassDef:
    name: str


@dataclass(frozen=True)
class PropertyDef:
    name: str
    dom: tuple = ()
    range: tuple = ()
    family: str = "rel"  # 'rel' or 'hie'


@dataclass(frozen=True)
class VariableDef:
    """One row of the variable table: variable name, the object property it
    mirrors, and its finite value range."""

    name: str
    object_id: str
    prop: str
    values: tuple


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    type_name: str
    props: tuple = ()  # tuple[(prop, value), ...]


@dataclass
class DataSystem:
    """Object instances plus the ground base atoms they induce or assert."""

    objects: dict = field(default_factory=dict)  # id -> ObjectInstance
    base_atoms: frozenset = frozenset()  # ground Atom values, stratum 0

    def has_object(self, object_id: str) -> bool:
        return object_id in self.objects


@dataclass
class Ontology:
    classes: dict = field(default_factory=dict)  # name -> ClassDef
    properties: dict = field(default_factory=dict)  # name -> PropertyDef
    subclass_edges: tuple = ()  # (child, parent) pairs
    subproperty_edges: tuple = ()
    variables: dict = field(default_factory=dict)  # name -> VariableDef, declaration order
    action_classes: dict = field(default_factory=dict)  # name -> actions.ActionClassDef
    _parents: dict = field(default_factory=dict, repr=False, compare=False)
    _ancestors: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._parents = _parent_map(self.classes, self.subclass_edges, "subclass")
        _parent_map(self.properties, self.subproperty_edges, "subproperty")

    # -- hierarchy ---------------------------------------------------------

    def ancestors(self, class_name: str) -> frozenset:
        """Reflexive-transitive superclasses, computed on first use: a
        closure for every class at once is quadratic in a deep chain."""
        cached = self._ancestors.get(class_name)
        if cached is not None:
            return cached
        if class_name not in self._parents:
            raise NameResolutionError(f"unknown class {class_name!r}")
        self._ancestors[class_name] = frozenset(_reach(self._parents, class_name))
        return self._ancestors[class_name]

    def hie_predicates(self) -> tuple:
        return tuple(sorted(p.name for p in self.properties.values() if p.family == "hie"))

    def variable_names(self) -> tuple:
        return tuple(self.variables)


def _parent_map(nodes: dict, edges: tuple, what: str) -> dict:
    """Direct parents of every node; rejects undeclared names and cycles."""
    parents: dict = {n: set() for n in nodes}
    for child, parent in edges:
        if child not in parents or parent not in parents:
            missing = child if child not in parents else parent
            raise NameResolutionError(f"{what} edge names undeclared {missing!r}")
        parents[child].add(parent)
    trail = _cycle(parents, parents)
    if trail:
        raise CycleError(f"{what} hierarchy contains a cycle through {trail[-1]!r}")
    return parents


def _cycle(edges: dict, roots) -> list:
    """The first cycle met by a depth-first search from each root in turn,
    following each node's successors in sorted order, as a trail that ends
    at the node it returns to; [] when there is none. The search keeps its
    own stack, so depth is not bounded by the interpreter's recursion limit."""
    finished: set = set()
    for root in roots:
        if root in finished:
            continue
        trail, on_trail = [root], {root}
        pending = [iter(sorted(edges.get(root, ())))]
        while pending:
            node = next(pending[-1], None)
            if node is None:
                pending.pop()
                on_trail.discard(trail[-1])
                finished.add(trail.pop())
            elif node in on_trail:
                return trail[trail.index(node):] + [node]
            elif node not in finished:
                trail.append(node)
                on_trail.add(node)
                pending.append(iter(sorted(edges.get(node, ()))))
    return []


def _reach(edges: dict, start) -> set:
    """start and every node reachable from it along edges."""
    reached, todo = {start}, [start]
    while todo:
        for node in edges.get(todo.pop(), ()):
            if node not in reached:
                reached.add(node)
                todo.append(node)
    return reached


# ---------------------------------------------------------------------------
# States and state spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class State:
    assignments: tuple = ()  # tuple[(variable, value), ...] sorted by variable

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(sorted(self.assignments)))

    @staticmethod
    def make(mapping) -> "State":
        return State(tuple(mapping.items()) if hasattr(mapping, "items") else tuple(mapping))

    def value(self, var: str) -> str:
        for v, val in self.assignments:
            if v == var:
                return val
        raise ExpansionError(f"state has no variable {var!r}")

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.assignments)

    def as_dict(self) -> dict:
        return dict(self.assignments)

    def override(self, effects) -> "State":
        d = self.as_dict()
        d.update(effects)
        return State.make(d)


@dataclass(frozen=True)
class StateSpace:
    """Either explicit (``states``) or a concise box (``fixed``): sorted,
    distinct (variable, value) pairs, where a variable listed more than once
    takes any of its listed values."""

    states: frozenset = None
    fixed: tuple = None

    def __post_init__(self):
        if (self.states is None) == (self.fixed is None):
            raise StructuralError("state space must be exactly one of explicit or concise")
        if self.fixed is not None:
            object.__setattr__(self, "fixed", tuple(sorted(set(self.fixed))))

    @staticmethod
    def explicit(states) -> "StateSpace":
        return StateSpace(states=frozenset(states))

    @staticmethod
    def concise(constraints) -> "StateSpace":
        pairs = tuple(constraints.items()) if hasattr(constraints, "items") else tuple(constraints)
        return StateSpace(fixed=pairs)

    @property
    def is_concise(self) -> bool:
        return self.fixed is not None


ENTIRE = StateSpace.concise({})


def render_state(state: State) -> str:
    return "{" + ", ".join(f"{v}={val}" for v, val in state.assignments) + "}"


def render_constraints(space: StateSpace) -> str:
    """A box as a constraint block's body: ``a=hi|lo, b=on``."""
    listed: dict = {}
    for var, value in space.fixed:
        listed.setdefault(var, []).append(value)
    return ", ".join(f"{var}={'|'.join(values)}" for var, values in listed.items())


def render_space(space: StateSpace) -> str:
    if space.is_concise:
        return "(" + render_constraints(space) + ")"
    return "{" + "; ".join(render_state(s) for s in sorted(space.states)) + "}"


# ---------------------------------------------------------------------------
# The refinement order
# ---------------------------------------------------------------------------


def value_refines(concrete: str, abstract: str, onto: Ontology, ds: DataSystem = None) -> bool:
    """The per-variable order: equal values always refine; class values use
    the subclass closure; instances step to their type; bare literals only
    compare by equality."""
    if concrete == abstract:
        return True
    if abstract in onto.classes:
        if concrete in onto.classes:
            return abstract in onto.ancestors(concrete)
        if ds is not None and ds.has_object(concrete):
            return abstract in onto.ancestors(ds.objects[concrete].type_name)
    return False


def state_refines(abstract: State, concrete: State, onto: Ontology, ds: DataSystem = None) -> bool:
    """Every value of the concrete state refines the abstract state's value
    of the same variable. One pass compares the variable names and, until one
    fails, the values; states over different variables are an error."""
    a, c = abstract.assignments, concrete.assignments
    same_variables = len(a) == len(c)
    refines = True
    for (var, av), (cvar, cv) in zip(a, c):
        if var != cvar:
            same_variables = False
            break
        if refines and not value_refines(cv, av, onto, ds):
            refines = False
    if not same_variables:
        raise StructuralError(
            f"states range over different variables: {abstract.variables()} vs {concrete.variables()}"
        )
    return refines


def _state_product(variables: dict, choices: dict) -> list:
    """Every total state over the variable table, each variable ranging over
    its tuple in ``choices`` or else over its declared values. An empty table
    yields the single empty state."""
    states = [State(())]
    for name, vdef in variables.items():
        options = choices.get(name, vdef.values)
        states = [State(s.assignments + ((name, v),)) for s in states for v in options]
    return states


def _allowed_values(space: StateSpace, onto: Ontology) -> dict:
    """Per declared variable, the values a box allows: the values listed for
    it, else its declared range."""
    listed: dict = {}
    for var, value in space.fixed:
        if var not in onto.variables:
            raise ExpansionError(f"constraint on undeclared variable {var!r}")
        listed.setdefault(var, []).append(value)
    return {
        name: tuple(listed[name]) if name in listed else vdef.values
        for name, vdef in onto.variables.items()
    }


def _check_total(state: State, onto: Ontology) -> None:
    if state.variables() != tuple(sorted(onto.variables)):
        raise ExpansionError(f"state {render_state(state)} is not total over the declared variables")


def _cover(space: StateSpace, onto: Ontology) -> list:
    """The space as disjoint boxes, each mapping every declared variable to a
    tuple of values: a box's allowed values, or one point per explicit state
    in sorted order once every state is checked total."""
    if space.is_concise:
        return [_allowed_values(space, onto)]
    points = sorted(space.states)
    for s in points:
        _check_total(s, onto)
    return [{var: (v,) for var, v in s.assignments} for s in points]


def expand_space(space: StateSpace, onto: Ontology) -> frozenset:
    """Expansion of a box is the cross product of its per-variable values;
    an explicit space's states are checked for totality in sorted order."""
    if space.is_concise:
        return frozenset(_state_product(onto.variables, _allowed_values(space, onto)))
    for s in sorted(space.states):
        _check_total(s, onto)
    return frozenset(space.states)


def space_size(space: StateSpace, onto: Ontology) -> int:
    """The number of states in the space's expansion, counted without
    listing them. Raises what expansion raises."""
    return sum(math.prod(map(len, box.values())) for box in _cover(space, onto))


def _boxes(space: StateSpace, onto: Ontology, values: dict = None, fixed: dict = None) -> list:
    """The space's cone over candidate values per variable, the declared ones
    where ``values`` gives none, once ``fixed`` overrides their variables: as
    non-empty boxes (a frozenset of values per variable, in sorted variable
    order), one per box of its cover. Raises what expansion raises on the
    space."""
    values, fixed, cones = values or {}, fixed or {}, []
    for allowed in _cover(space, onto):
        box = {}
        for var, d in sorted(onto.variables.items()):
            vals = values.get(var, d.values)
            box[var] = frozenset(w for a in allowed[var] for w in vals if value_refines(fixed.get(var, w), a, onto))
        if all(box.values()):
            cones.append(box)
    return cones


def _outside(boxes: list, cuts: list) -> list:
    """The states of the boxes in none of the cuts, as boxes split where they leave a cut."""
    for cut in cuts:
        pieces = []
        for box in boxes:
            split, inside = [], dict(box)
            for var, values in box.items():
                if values - cut[var]:
                    split.append({**inside, var: values - cut[var]})
                inside[var] = values & cut[var]
                if not inside[var]:  # the cut misses the box
                    split = [box]
                    break
            pieces += split
        boxes = pieces
    return boxes


def _split(boxes: list, cuts: list) -> tuple:
    """The boxes' meets with the cuts, and their states in none of the cuts."""
    met = ({var: b[var] & c[var] for var in b} for b in boxes for c in cuts)
    return [m for m in met if all(m.values())], _outside(boxes, cuts)


def _least(boxes: list):
    """The least state of the boxes in sorted order, or None for no boxes."""
    return min((State(tuple((var, min(vals)) for var, vals in box.items())) for box in boxes), default=None)


def _uncovered(abstracts, concrete: StateSpace, onto: Ontology):
    """The least state of the concrete space that refines a state of none of
    the abstract spaces, or None: each box of the concrete space's cover less
    the abstract cones over its own values. An empty concrete space is
    covered before the abstract spaces are read."""
    outside = []
    for allowed in _cover(concrete, onto):
        if all(allowed.values()):
            box = {var: frozenset(vals) for var, vals in allowed.items()}
            outside += _outside([box], [cut for space in abstracts for cut in _boxes(space, onto, box)])
    return _least(outside)


def space_refines(abstract: StateSpace, concrete: StateSpace, onto: Ontology) -> bool:
    """True when every state of the concrete space refines some state of the
    abstract space."""
    return space_refines_witness(abstract, concrete, onto) is None


def space_refines_witness(abstract: StateSpace, concrete: StateSpace, onto: Ontology):
    """None when the refinement holds, otherwise the first sorted concrete
    state that is not feasible in the abstract space. The empty concrete
    space refines vacuously. No box is expanded."""
    return _uncovered((abstract,), concrete, onto)


def space_meet(a: StateSpace, b: StateSpace, onto: Ontology) -> StateSpace:
    """The per-variable intersections of the operands' covers, a read first.
    Two boxes meet in the box listing the variables either lists, or in the
    empty explicit space when one of those is empty; a variable neither lists
    keeps its declared values. With an explicit operand every non-empty meet
    is one state, and the meet is explicit; two explicit spaces intersect
    their states, which spares the pairs of their points."""
    left, right = _cover(a, onto), _cover(b, onto)
    boxes = (a.is_concise, b.is_concise)
    if boxes == (False, False):
        return StateSpace.explicit(a.states & b.states)
    met = (
        {var: vals if vals is y[var] else [v for v in vals if v in y[var]] for var, vals in x.items()}
        for x in left
        for y in right
    )
    if boxes == (True, True):
        common, listed = next(met), {var for var, _ in a.fixed + b.fixed}
        if not all(common[var] for var in listed):
            return StateSpace.explicit(())
        return StateSpace.concise((var, v) for var in listed for v in common[var])
    points = (m for m in met if all(m.values()))
    return StateSpace.explicit(State(tuple((var, vals[0]) for var, vals in m.items())) for m in points)


def space_join(a: StateSpace, b: StateSpace, onto: Ontology) -> StateSpace:
    """The union of the expansions, for callers that want the states."""
    return StateSpace.explicit(expand_space(a, onto) | expand_space(b, onto))


def feasible_in(space: StateSpace, state: State, onto: Ontology) -> bool:
    """The state refines some state of the space, so an action with initial
    space ``space`` can start from it: each value refines one that a box of
    the space's cover allows for its variable. The space is checked before
    the state."""
    cover = _cover(space, onto)
    _check_total(state, onto)
    return any(
        all(any(value_refines(value, a, onto) for a in box[var]) for var, value in state.assignments)
        for box in cover
    )

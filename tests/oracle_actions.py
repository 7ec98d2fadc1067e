"""Enumerative references for the load-time transformer contract.

``validate_action_class`` decides the contract over guard regions without
listing a state. ``validate_enumerated`` lists every state of the initial
cone and checks monotonicity one variable step at a time, as the check did
before; ``validate_all_pairs`` compares every ordered pair of cone states.
Neither has a cap: they are only meant for small ontologies.
"""

from polcheck.actions import ActionClassDef, TransformRule
from polcheck.errors import SchemaError
from polcheck.ontology import (
    ENTIRE,
    ClassDef,
    Ontology,
    State,
    StateSpace,
    VariableDef,
    expand_space,
    feasible_in,
    render_state,
    space_size,
    state_refines,
    value_refines,
)


def _outputs(acd, onto) -> dict:
    """Each state of the initial cone, in sorted order, with its output.
    Raises for the first state whose output falls outside the final space."""
    space_size(acd.init_space, onto)
    space_size(acd.final_space, onto)
    outputs = {}
    for delta in sorted(expand_space(ENTIRE, onto)):
        if feasible_in(acd.init_space, delta, onto):
            gamma = outputs[delta] = acd.apply(delta, onto)
            if not feasible_in(acd.final_space, gamma, onto):
                raise SchemaError(
                    f"action {acd.name}: transformer output {render_state(gamma)} falls outside the final space"
                )
    return outputs


def _not_monotone(acd, d1, d2) -> SchemaError:
    return SchemaError(
        f"action {acd.name}: transformer is not monotone between {render_state(d1)} and {render_state(d2)}"
    )


def validate_enumerated(acd, onto) -> None:
    """The contract check state by state: raise for the first cone state, in
    sorted order, whose output falls outside the final space, else for the
    first one-variable lowering, by state, variable name and range
    position, whose output is not below the state's."""
    outputs = _outputs(acd, onto)
    # feasible_in is closed under refinement, so the cone is a down-set of
    # the product order; value_refines is transitive, so any ordered pair of
    # cone states is joined by one-variable lowerings that stay in the cone.
    below = {
        var: {
            v: [w for w in vdef.values if w != v and value_refines(w, v, onto)]
            for v in vdef.values
        }
        for var, vdef in onto.variables.items()
    }
    for delta in outputs:
        for i, (var, value) in enumerate(delta.assignments):
            for lower in below[var][value]:
                lowered = State(delta.assignments[:i] + ((var, lower),) + delta.assignments[i + 1 :])
                if not state_refines(outputs[delta], outputs[lowered], onto):
                    raise _not_monotone(acd, delta, lowered)


def validate_all_pairs(acd, onto) -> None:
    """The contract check over every ordered pair of cone states: raise the
    SchemaError for the first output outside the final space, else for the
    first pair, in cone order, whose images are out of order."""
    outputs = _outputs(acd, onto)
    for d1 in outputs:
        for d2 in outputs:
            if d1 != d2 and state_refines(d1, d2, onto):
                if not state_refines(outputs[d1], outputs[d2], onto):
                    raise _not_monotone(acd, d1, d2)


# Value families for random transformers: a three-level class hierarchy, a
# two-level one beside a flat class, and two bare literals. Ranges are drawn
# from a family, and spaces and effects may use any value of the family, so
# values below a declared value can fall outside the range.
FAMILIES = {
    "hw": ("Computer", "Notebook", "Netbook", "Desktop"),
    "os": ("L", "U", "W"),
    "power": ("on", "off"),
}
_CLASSES = ("Computer", "Notebook", "Netbook", "Desktop", "L", "U", "W")
_EDGES = (("Notebook", "Computer"), ("Netbook", "Notebook"), ("Desktop", "Computer"), ("U", "L"))


def random_transformer(rng):
    """(action class, ontology): one to three variables with random ranges,
    zero to three guarded assignments, and initial, final and guard spaces
    that are explicit or concise, a concise one listing one or two values
    for each variable it names."""
    variables = {}
    for i in range(rng.choice((1, 2, 3, 3))):
        family = rng.choice(("hw", "hw", "os", "power"))
        values = rng.sample(FAMILIES[family], rng.randint(1, min(3, len(FAMILIES[family]))))
        variables[f"v{i}"] = VariableDef(f"v{i}", "box", family, tuple(values))
    onto = Ontology(
        classes={c: ClassDef(c) for c in _CLASSES}, subclass_edges=_EDGES, variables=variables
    )

    def assignment(low):
        names = rng.sample(sorted(variables), rng.randint(min(low, len(variables)), len(variables)))
        return {var: rng.choice(FAMILIES[variables[var].prop]) for var in names}

    def space(low=0):
        if rng.random() < 0.5:
            return StateSpace.concise(
                (var, value)
                for var in assignment(low)
                for value in rng.sample(FAMILIES[variables[var].prop], rng.choice((1, 1, 2)))
            )
        return StateSpace.explicit(
            State.make({var: rng.choice(FAMILIES[vdef.prop]) for var, vdef in variables.items()})
            for _ in range(rng.randint(0, 3))
        )

    rules = tuple(
        TransformRule(space(rng.randint(1, 2)), tuple(sorted(assignment(1).items())))
        for _ in range(rng.randint(0, 3))
    )
    init, final = (space() if rng.random() < 0.5 else StateSpace.concise({}) for _ in range(2))
    return ActionClassDef("A", init, final, transform=rules), onto

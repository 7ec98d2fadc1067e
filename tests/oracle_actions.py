"""All-pairs reference for the load-time transformer contract.

``validate_action_class`` checks monotonicity one variable step at a time.
This reference compares every ordered pair of states in the initial cone, as
the check did before, with no cap: it is only meant for small ontologies.
"""

from polcheck.actions import ActionClassDef, TransformRule
from polcheck.errors import SchemaError
from polcheck.ontology import (
    ClassDef,
    Ontology,
    State,
    StateSpace,
    VariableDef,
    feasible_in,
    render_state,
    state_refines,
    universe,
)


def validate_all_pairs(acd, onto) -> None:
    """The contract check over every ordered pair of cone states: raise the
    SchemaError for the first output outside the final space, else for the
    first pair, in cone order, whose images are out of order."""
    cone = [s for s in universe(onto) if feasible_in(acd.init_space, s, onto)]
    outputs = {delta: acd.apply(delta, onto) for delta in cone}
    for gamma in outputs.values():
        if not feasible_in(acd.final_space, gamma, onto):
            raise SchemaError(
                f"action {acd.name}: transformer output {render_state(gamma)} falls outside the final space"
            )
    for d1 in cone:
        for d2 in cone:
            if d1 != d2 and state_refines(d1, d2, onto):
                if not state_refines(outputs[d1], outputs[d2], onto):
                    raise SchemaError(
                        f"action {acd.name}: transformer is not monotone between "
                        f"{render_state(d1)} and {render_state(d2)}"
                    )


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
    zero to three guarded assignments, and initial and final spaces that
    are concise or explicit."""
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
            return StateSpace.concise(assignment(low))
        return StateSpace.explicit(
            State.make({var: rng.choice(FAMILIES[vdef.prop]) for var, vdef in variables.items()})
            for _ in range(rng.randint(1, 3))
        )

    rules = tuple(
        TransformRule(space(rng.randint(1, 2)), tuple(sorted(assignment(1).items())))
        for _ in range(rng.randint(0, 3))
    )
    init, final = (space() if rng.random() < 0.5 else StateSpace.concise({}) for _ in range(2))
    return ActionClassDef("A", init, final, transform=rules), onto

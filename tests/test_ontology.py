"""State, state-space, and refinement-order behavior."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck import ontology
from polcheck.actions import ActionClassDef, TransformRule
from polcheck.errors import (
    CycleError,
    ExpansionError,
    NameResolutionError,
    StructuralError,
)
from polcheck.loading import parse_ontology
from polcheck.ontology import (
    ENTIRE,
    ClassDef,
    DataSystem,
    ObjectInstance,
    Ontology,
    PropertyDef,
    State,
    StateSpace,
    VariableDef,
    _uncovered,
    expand_space,
    feasible_in,
    render_space,
    render_state,
    space_join,
    space_meet,
    space_refines,
    space_refines_witness,
    space_size,
    state_refines,
    value_refines,
)
from polcheck.refinement import compile_meet_formula

from test_golden import run_python


def machine_onto() -> Ontology:
    """Two variables: hardware kind (Notebook below Computer) and an OS name
    with no hierarchy between its values. Netbook and Ubuntu sit below a
    declared value but outside the ranges."""
    classes = {
        c: ClassDef(c) for c in ("Computer", "Notebook", "Netbook", "Linux", "Ubuntu", "Windows")
    }
    return Ontology(
        classes=classes,
        subclass_edges=(("Notebook", "Computer"), ("Netbook", "Notebook"), ("Ubuntu", "Linux")),
        variables={
            "x1": VariableDef("x1", "pc", "hw", ("Computer", "Notebook")),
            "x2": VariableDef("x2", "pc", "os", ("Linux", "Windows")),
        },
    )


def mk(x1, x2) -> State:
    return State.make({"x1": x1, "x2": x2})


# ---------------------------------------------------------------------------
# Value and state refinement
# ---------------------------------------------------------------------------


def test_value_refinement_uses_subclass_closure():
    onto = machine_onto()
    assert value_refines("Notebook", "Computer", onto)
    assert not value_refines("Computer", "Notebook", onto)
    assert value_refines("Linux", "Linux", onto)
    assert not value_refines("Linux", "Windows", onto)


def test_instance_values_step_to_their_type():
    onto = machine_onto()
    ds = DataSystem(objects={"nb1": ObjectInstance("nb1", "Notebook")})
    assert value_refines("nb1", "Computer", onto, ds)
    assert not value_refines("nb1", "Linux", onto, ds)
    assert "Computer" in onto.ancestors(ds.objects["nb1"].type_name)
    assert not value_refines("ghost", "Computer", onto, ds)
    with pytest.raises(NameResolutionError):
        onto.ancestors("ghost")


def test_state_refinement_is_per_variable():
    onto = machine_onto()
    assert state_refines(mk("Computer", "Linux"), mk("Notebook", "Linux"), onto)
    assert not state_refines(mk("Notebook", "Linux"), mk("Computer", "Linux"), onto)
    with pytest.raises(StructuralError):
        state_refines(mk("Computer", "Linux"), State.make({"x1": "Computer"}), onto)
    # the variables are compared even after a value has already failed
    other = State.make({"x1": "Computer", "x3": "Linux"})
    with pytest.raises(
        StructuralError,
        match=r"^states range over different variables: \('x1', 'x2'\) vs \('x1', 'x3'\)$",
    ):
        state_refines(mk("Notebook", "Linux"), other, onto)


def test_state_assignments_are_kept_sorted():
    s = State((("x2", "Linux"), ("x1", "Computer")))
    assert s.variables() == ("x1", "x2")
    assert s.value("x2") == "Linux"
    with pytest.raises(ExpansionError):
        s.value("x9")


# ---------------------------------------------------------------------------
# Space refinement: the worked three-space example
# ---------------------------------------------------------------------------


def test_space_refinement_worked_example():
    onto = machine_onto()
    g1 = mk("Computer", "Linux")
    g2 = mk("Computer", "Windows")
    g3 = mk("Notebook", "Linux")
    G1 = StateSpace.explicit({g1})
    G2 = StateSpace.explicit({g1, g2})
    G3 = StateSpace.explicit({g3})

    assert space_refines(G2, G1, onto)
    assert space_refines(G1, G3, onto)
    assert not space_refines(G1, G2, onto)
    # the uncovered state is the Windows one
    assert space_refines_witness(G1, G2, onto) == g2


def test_entire_and_concise_expansion():
    onto = machine_onto()
    assert len(expand_space(ENTIRE, onto)) == 4
    only_nb = StateSpace.concise({"x1": "Notebook"})
    assert expand_space(only_nb, onto) == frozenset(
        {mk("Notebook", "Linux"), mk("Notebook", "Windows")}
    )
    with pytest.raises(ExpansionError):
        expand_space(StateSpace.concise({"bogus": "Linux"}), onto)
    with pytest.raises(ExpansionError):
        expand_space(StateSpace.explicit({State.make({"x1": "Computer"})}), onto)


def test_space_must_be_exactly_one_representation():
    with pytest.raises(StructuralError):
        StateSpace(states=frozenset(), fixed=())
    with pytest.raises(StructuralError):
        StateSpace()


def test_universe_order_and_size():
    onto = machine_onto()
    u = sorted(expand_space(ENTIRE, onto))
    assert len(u) == 4
    assert [s.variables() for s in u] == [tuple(sorted(onto.variables))] * 4
    assert u[0] == State.make({var: min(vdef.values) for var, vdef in onto.variables.items()})


def test_feasibility_is_cone_membership():
    onto = machine_onto()
    nb = StateSpace.concise({"x1": "Notebook"})
    assert feasible_in(nb, mk("Notebook", "Linux"), onto)
    assert not feasible_in(nb, mk("Computer", "Linux"), onto)
    assert feasible_in(ENTIRE, mk("Computer", "Windows"), onto)
    assert feasible_in(nb, mk("Netbook", "Ubuntu"), onto)
    partial = State.make({"x1": "Notebook"})
    with pytest.raises(ExpansionError, match="undeclared variable"):
        feasible_in(StateSpace.concise({"bogus": "Linux"}), partial, onto)
    with pytest.raises(ExpansionError, match="not total"):
        feasible_in(nb, partial, onto)
    with pytest.raises(ExpansionError, match="not total"):
        feasible_in(StateSpace.explicit({mk("Notebook", "Linux")}), partial, onto)


def test_meet_join_are_expansion_set_ops():
    onto = machine_onto()
    a = StateSpace.concise({"x1": "Computer"})
    b = StateSpace.concise({"x2": "Linux"})
    met = space_meet(a, b, onto)
    assert expand_space(met, onto) == frozenset({mk("Computer", "Linux")})
    joined = space_join(a, b, onto)
    assert len(expand_space(joined, onto)) == 3
    assert expand_space(StateSpace.explicit(expand_space(a, onto)), onto) == expand_space(a, onto)


def test_two_explicit_spaces_meet_without_pairing_their_states():
    # 4,096 states each: pairing every state of one with every state of the
    # other takes tens of seconds
    flat = Ontology(variables={f"v{i:02}": VariableDef(f"v{i:02}", "pc", "p", ("hi", "lo")) for i in range(12)})
    states = sorted(expand_space(ENTIRE, flat))
    a, b = StateSpace.explicit(states[::2]), StateSpace.explicit(states[: len(states) // 2])
    started = time.perf_counter()
    assert space_meet(a, b, flat) == StateSpace.explicit(states[: len(states) // 2 : 2])
    assert time.perf_counter() - started < 1


def test_render_helpers():
    onto = machine_onto()
    assert render_state(mk("Computer", "Linux")) == "{x1=Computer, x2=Linux}"
    assert render_space(StateSpace.concise({"x1": "Computer"})) == "(x1=Computer)"
    box = StateSpace.concise((("x2", "Windows"), ("x1", "Notebook"), ("x2", "Linux")))
    assert render_space(box) == "(x1=Notebook, x2=Linux|Windows)"
    explicit = StateSpace.explicit({mk("Computer", "Linux")})
    assert render_space(explicit) == "{{x1=Computer, x2=Linux}}"
    assert expand_space(explicit, onto) == {mk("Computer", "Linux")}


# ---------------------------------------------------------------------------
# Order laws, property-tested over random explicit and concise spaces
# ---------------------------------------------------------------------------


_ONTO = machine_onto()
_UNIVERSE = sorted(expand_space(ENTIRE, _ONTO))
# the universe plus states holding a class below a declared value
_STATES = [
    mk(hw, os) for hw in ("Computer", "Notebook", "Netbook") for os in ("Linux", "Ubuntu", "Windows")
]

spaces = st.sets(st.sampled_from(_UNIVERSE), min_size=0, max_size=4).map(
    StateSpace.explicit
) | st.fixed_dictionaries(
    {}, optional={name: st.sampled_from(vdef.values) for name, vdef in _ONTO.variables.items()}
).map(StateSpace.concise)


@settings(max_examples=150, deadline=None)
@given(spaces)
def test_feasibility_matches_the_enumeration(a):
    expanded = expand_space(a, _ONTO)
    for s in _STATES:
        assert feasible_in(a, s, _ONTO) == any(state_refines(g, s, _ONTO) for g in expanded)


@settings(max_examples=150, deadline=None)
@given(spaces)
def test_refinement_is_reflexive(a):
    assert space_refines(a, a, _ONTO)


@settings(max_examples=150, deadline=None)
@given(spaces, spaces, spaces)
def test_refinement_is_transitive(a, b, c):
    if space_refines(a, b, _ONTO) and space_refines(b, c, _ONTO):
        assert space_refines(a, c, _ONTO)


@settings(max_examples=150, deadline=None)
@given(spaces, spaces)
def test_join_abstracts_both_operands(a, b):
    j = space_join(a, b, _ONTO)
    assert space_refines(j, a, _ONTO)
    assert space_refines(j, b, _ONTO)


@settings(max_examples=150, deadline=None)
@given(spaces, spaces, spaces)
def test_join_is_the_tightest_common_abstraction(a, b, d):
    if space_refines(d, a, _ONTO) and space_refines(d, b, _ONTO):
        assert space_refines(d, space_join(a, b, _ONTO), _ONTO)


@settings(max_examples=150, deadline=None)
@given(spaces, spaces)
def test_meet_is_refined_by_both_operands(a, b):
    m = space_meet(a, b, _ONTO)
    assert space_refines(a, m, _ONTO)
    assert space_refines(b, m, _ONTO)


@settings(max_examples=150, deadline=None)
@given(spaces)
def test_empty_space_refines_everything(a):
    empty = StateSpace.explicit(frozenset())
    assert space_refines(a, empty, _ONTO)


@settings(max_examples=150, deadline=None)
@given(spaces, spaces)
def test_questions_about_a_space_list_no_state(a, b):
    # explicit and box spaces alike are read through their cover: with both
    # listing routines refusing, every answer is the one given before
    def ask():
        return (
            space_size(a, _ONTO),
            [feasible_in(a, s, _ONTO) for s in _STATES],
            space_meet(a, b, _ONTO),
            space_refines_witness(a, b, _ONTO),
        )

    def refuse(*args):
        raise AssertionError("a state space was listed")

    size, feasible, met, witness = ask()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ontology, "expand_space", refuse)
        patch.setattr(ontology, "_state_product", refuse)
        answers = ask()
    assert (answers[0], answers[1], answers[3]) == (size, feasible, witness)
    assert expand_space(answers[2], _ONTO) == expand_space(met, _ONTO)


# ---------------------------------------------------------------------------
# Boxes against their explicit expansions
# ---------------------------------------------------------------------------

# Notebook < Computer < Device, Netbook < Notebook, Phone < Device
_KINDS = ("Computer", "Device", "Netbook", "Notebook", "Phone")
_KIND_EDGES = (
    ("Computer", "Device"),
    ("Notebook", "Computer"),
    ("Netbook", "Notebook"),
    ("Phone", "Device"),
)
_FLAT = ("hi", "lo", "mid")


@st.composite
def box_ontologies(draw):
    """One to three variables, each ranging over some kinds of a class
    hierarchy or over flat values; the pool each range was drawn from."""
    variables, pools = {}, {}
    for i in range(draw(st.integers(1, 3))):
        pool = draw(st.sampled_from((_KINDS, _FLAT)))
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        variables[f"x{i}"] = VariableDef(f"x{i}", "pc", f"p{i}", tuple(values))
        pools[f"x{i}"] = pool
    onto = Ontology(
        classes={c: ClassDef(c) for c in _KINDS}, subclass_edges=_KIND_EDGES, variables=variables
    )
    return onto, pools


def boxes(onto):
    """A box over the ontology's variables, listing some of them with one or
    more of their values, and its explicit reference built by enumerating
    the values it allows."""
    listed = st.fixed_dictionaries(
        {},
        optional={
            var: st.lists(st.sampled_from(vdef.values), min_size=1, unique=True)
            for var, vdef in onto.variables.items()
        },
    )

    def with_reference(choices):
        box = StateSpace.concise((var, v) for var, values in choices.items() for v in values)
        product = itertools.product(
            *(choices.get(var, vdef.values) for var, vdef in onto.variables.items())
        )
        states = (State.make(zip(onto.variables, combo)) for combo in product)
        return box, StateSpace.explicit(states)

    return listed.map(with_reference)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_box_behaves_as_its_explicit_expansion(data):
    onto, pools = data.draw(box_ontologies())
    box, ref = data.draw(boxes(onto))
    other, other_ref = data.draw(boxes(onto))
    # every assignment of each variable's pool, so also values below a declared one
    states = [State.make(zip(pools, combo)) for combo in itertools.product(*pools.values())]

    assert expand_space(box, onto) == ref.states
    assert space_size(box, onto) == len(ref.states)
    for s in states:
        assert feasible_in(box, s, onto) == feasible_in(ref, s, onto)
    met = expand_space(space_meet(box, other, onto), onto)
    assert met == ref.states & other_ref.states
    assert met == expand_space(space_meet(box, other_ref, onto), onto)
    assert compile_meet_formula(box, other, onto) == compile_meet_formula(ref, other_ref, onto)

    # A box that gives each listed variable one value overrides just those
    # variables, which no explicit space expresses; with alternatives it
    # falls back to its least state, as the explicit space does.
    alternatives = len(dict(box.fixed)) < len(box.fixed)
    effects = data.draw(st.sampled_from(sorted(ref.states))).assignments[:1]
    boxed = ActionClassDef("X", ENTIRE, box, transform=(TransformRule(other, effects),))
    explicit = ActionClassDef(
        "X", ENTIRE, ref if alternatives else box, transform=(TransformRule(other_ref, effects),)
    )
    for s in sorted(expand_space(ENTIRE, onto)):
        assert boxed.apply(s, onto) == explicit.apply(s, onto)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_box_refinement_witness_is_the_least_uncovered_state(data):
    onto, pools = data.draw(box_ontologies())
    (a1, a1_ref), (a2, a2_ref) = data.draw(boxes(onto)), data.draw(boxes(onto))
    concrete, concrete_ref = data.draw(boxes(onto))
    # an explicit space over each variable's pool, so also values below a declared one
    pooled = [State.make(zip(pools, combo)) for combo in itertools.product(*pools.values())]
    drawn = StateSpace.explicit(data.draw(st.lists(st.sampled_from(pooled), max_size=4)))
    for space in (concrete, concrete_ref, drawn):
        states = sorted(expand_space(space, onto))

        def least(*abstract):
            """The least concrete state feasible in none of the abstract spaces."""
            return next((s for s in states if not any(feasible_in(a, s, onto) for a in abstract)), None)

        assert space_refines_witness(a1, space, onto) == least(a1)
        assert space_refines_witness(a1_ref, space, onto) == least(a1)
        assert _uncovered((a1, a2), space, onto) == least(a1, a2)
        assert _uncovered((a1_ref, a2_ref), space, onto) == least(a1, a2)


def test_box_refinement_witness_moves_only_the_last_failing_variable():
    flat = Ontology(
        variables={v: VariableDef(v, "pc", v, ("hi", "lo", "mid")) for v in ("a", "b", "c")}
    )
    abstract = StateSpace.concise({"a": "hi", "b": "hi"})
    # a and b fail at lo and mid but pass at their least value, hi
    expected = State.make({"a": "hi", "b": "lo", "c": "hi"})
    assert space_refines_witness(abstract, ENTIRE, flat) == expected
    enumerated = StateSpace.explicit(expand_space(ENTIRE, flat))
    assert space_refines_witness(abstract, enumerated, flat) == expected


# ---------------------------------------------------------------------------
# Hierarchy plumbing
# ---------------------------------------------------------------------------


def test_subclass_cycles_are_rejected():
    classes = {c: ClassDef(c) for c in ("A", "B")}
    with pytest.raises(CycleError):
        Ontology(classes=classes, subclass_edges=(("A", "B"), ("B", "A")))


def test_deep_subclass_chains_load_without_recursion():
    depth = 5000
    chain = "".join(f"class C{i} subclassOf C{i + 1}\n" for i in range(depth - 1))
    onto = parse_ontology(chain + f"class C{depth - 1}\n")
    assert onto.ancestors("C0") == frozenset(f"C{i}" for i in range(depth))
    assert onto.ancestors(f"C{depth - 10}") == frozenset(f"C{i}" for i in range(depth - 10, depth))
    assert onto.ancestors(f"C{depth - 1}") == frozenset({f"C{depth - 1}"})
    with pytest.raises(CycleError, match="cycle through"):
        parse_ontology(chain + f"class C{depth - 1} subclassOf C0\n")


# A hierarchy with two parents per node, A -> B, A -> C, and the cycles
# B <-> D and C <-> E; prints the cycle error.
_TWO_PARENT_CYCLES = """
from polcheck.errors import CycleError
from polcheck.ontology import ClassDef, Ontology
edges = (("A", "B"), ("A", "C"), ("B", "D"), ("D", "B"), ("C", "E"), ("E", "C"))
try:
    Ontology(classes={c: ClassDef(c) for c in "ABCDE"}, subclass_edges=edges)
except CycleError as e:
    print(e)
"""


def test_cycle_reports_do_not_depend_on_the_hash_seed():
    # parents are followed in sorted order, so the same node is named
    # whatever order the interpreter keeps a set's members in
    outputs = {run_python(["-c", _TWO_PARENT_CYCLES], PYTHONHASHSEED=seed) for seed in ("0", "1")}
    assert outputs == {"subclass hierarchy contains a cycle through 'B'\n"}


# an explicit space with two states that are not total; prints the error
_TWO_PARTIAL_STATES = """
from polcheck.errors import ExpansionError
from polcheck.ontology import Ontology, State, StateSpace, VariableDef, expand_space, space_size
onto = Ontology(variables={v: VariableDef(v, "pc", v, ("a",)) for v in ("x0", "x1")})
partial = StateSpace.explicit([State.make({"x1": "zz"}), State.make({"x0": "q"})])
for ask in (space_size, expand_space):
    try:
        ask(partial, onto)
    except ExpansionError as e:
        print(e)
"""


def test_a_partial_state_report_does_not_depend_on_the_hash_seed():
    # an explicit space's states are checked in sorted order, so the least
    # partial state is named whatever order the frozenset keeps them in
    outputs = {run_python(["-c", _TWO_PARTIAL_STATES], PYTHONHASHSEED=seed) for seed in ("0", "1", "3")}
    assert outputs == {"state {x0=q} is not total over the declared variables\n" * 2}


def test_edges_must_name_declared_classes():
    with pytest.raises(NameResolutionError):
        Ontology(classes={"A": ClassDef("A")}, subclass_edges=(("A", "Zed"),))


def test_ancestors_are_reflexive_transitive():
    classes = {c: ClassDef(c) for c in ("A", "B", "C")}
    onto = Ontology(classes=classes, subclass_edges=(("C", "B"), ("B", "A")))
    assert onto.ancestors("C") == frozenset({"A", "B", "C"})
    with pytest.raises(NameResolutionError):
        onto.ancestors("Zed")


def test_predicate_families():
    onto = Ontology(
        properties={
            "type": PropertyDef("type", family="hie"),
            "owns": PropertyDef("owns"),
        }
    )
    assert onto.hie_predicates() == ("type",)
    assert onto.properties["owns"].family == "rel"

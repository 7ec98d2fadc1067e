"""Interned terms: one object per distinct term, whose free variables are
computed once, when it is first built, and which hashes by identity."""

import copy
import pickle
import random
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from polcheck import terms
from polcheck.loading import load_facts, load_ontology, load_patterns, load_policy, load_state
from polcheck.terms import (
    FALSE,
    TRUE,
    ActionTerm,
    Atom,
    Const,
    Formula,
    Literal,
    Signed,
    TokenStream,
    Var,
    free_vars,
    is_ground,
    match,
    match_atom,
    parse_formula,
    render,
    substitute,
)

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "samples"


def reference_free_vars(value, include_formulas: bool = False) -> set:
    """Variable names occurring in a value, by walking it: the reference for
    the variables each term stores. Formula-internal variables are
    existential and excluded unless asked for."""
    out: set = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, Var):
            out.add(v.name)
        elif isinstance(v, ActionTerm):
            stack.extend(b for _, b in v.bindings)
        elif isinstance(v, Signed):
            stack.append(v.term)
        elif isinstance(v, Atom):
            stack.extend(v.args)
        elif isinstance(v, Formula):
            if include_formulas:
                stack.extend(c.atom for c in v.conjuncts)
        elif isinstance(v, Literal):
            stack.append(v.atom)
    return out


def reference_substitute(value, theta: dict):
    """Replace variables by their bindings, by a walk that switches on each
    term's class: the reference for the walk over the parts a term keeps."""
    if not free_vars(value, include_formulas=True):
        return value
    if isinstance(value, Var):
        return theta.get(value.name, value)
    if isinstance(value, ActionTerm):
        return ActionTerm(value.name, tuple((p, reference_substitute(v, theta)) for p, v in value.bindings))
    if isinstance(value, Signed):
        return Signed(value.sign, reference_substitute(value.term, theta))
    if isinstance(value, Atom):
        return Atom(value.pred, tuple(reference_substitute(a, theta) for a in value.args))
    if isinstance(value, Formula):
        conjuncts = tuple(reference_substitute(c, theta) for c in value.conjuncts)
        return Formula(conjuncts, value.contradiction)
    if isinstance(value, Literal):
        return Literal(value.negated, reference_substitute(value.atom, theta))
    raise TypeError(f"cannot substitute into {type(value).__name__}")


def reference_match(pattern, value, theta: dict):
    """Extend theta so that substitute(pattern, theta) == value, by a walk
    that compares each class's own fields; None if there is no such theta."""
    if not free_vars(pattern, include_formulas=True):
        return theta if pattern is value else None
    if isinstance(pattern, Var):
        bound = theta.get(pattern.name)
        if bound is None:
            return {**theta, pattern.name: value}
        return theta if bound == value else None
    if isinstance(pattern, ActionTerm):
        if not isinstance(value, ActionTerm) or pattern.name != value.name:
            return None
        if len(pattern.bindings) != len(value.bindings):
            return None
        for (pp, pv), (vp, vv) in zip(pattern.bindings, value.bindings):
            if pp != vp:
                return None
            theta = reference_match(pv, vv, theta)
            if theta is None:
                return None
        return theta
    if isinstance(pattern, Signed):
        if not isinstance(value, Signed) or pattern.sign != value.sign:
            return None
        return reference_match(pattern.term, value.term, theta)
    if isinstance(pattern, Formula):
        if not isinstance(value, Formula) or pattern.contradiction != value.contradiction:
            return None
        if len(pattern.conjuncts) != len(value.conjuncts):
            return None
        for pc, vc in zip(pattern.conjuncts, value.conjuncts):
            if pc.negated != vc.negated:
                return None
            theta = reference_match(pc.atom, vc.atom, theta)
            if theta is None:
                return None
        return theta
    if isinstance(pattern, Atom):
        if not isinstance(value, Atom) or pattern.pred != value.pred:
            return None
        if len(pattern.args) != len(value.args):
            return None
        for pa, va in zip(pattern.args, value.args):
            theta = reference_match(pa, va, theta)
            if theta is None:
                return None
        return theta
    return None


def random_term(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Const(rng.choice("abc"), quoted=rng.random() < 0.2)
    if roll < 0.55:
        return Var(rng.choice("xyzw"))
    props = rng.sample("pqr", rng.randint(0, 3))
    return ActionTerm(rng.choice("AB"), tuple((p, random_term(rng, depth - 1)) for p in props))


def random_atom(rng: random.Random, depth: int, formulas: bool) -> Atom:
    args = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.2:
            args.append(Signed(rng.choice("+-"), random_term(rng, depth)))
        elif roll < 0.4 and formulas and depth:
            conjuncts = (
                Literal(rng.random() < 0.3, random_atom(rng, depth - 1, formulas))
                for _ in range(rng.randint(0, 2))
            )
            args.append(Formula(tuple(conjuncts), contradiction=rng.random() < 0.1))
        else:
            args.append(random_term(rng, depth))
    return Atom(rng.choice(("p", "q", "do")), tuple(args))


def subterms(value):
    """value and every term inside it, formula interiors included."""
    stack = [value]
    while stack:
        v = stack.pop()
        yield v
        if isinstance(v, ActionTerm):
            stack.extend(b for _, b in v.bindings)
        elif isinstance(v, Signed):
            stack.append(v.term)
        elif isinstance(v, Atom):
            stack.extend(v.args)
        elif isinstance(v, Formula):
            stack.extend(v.conjuncts)
        elif isinstance(v, Literal):
            stack.append(v.atom)


@pytest.mark.parametrize("formulas", [False, True], ids=["plain", "with-formulas"])
def test_stored_variables_match_the_reference_walk(formulas):
    rng = random.Random(13)
    for _ in range(300):
        for term in subterms(random_atom(rng, 3, formulas)):
            assert free_vars(term) == reference_free_vars(term)
            assert free_vars(term, include_formulas=True) == reference_free_vars(term, True)
            assert is_ground(term) == (not reference_free_vars(term))
            assert isinstance(free_vars(term), frozenset)


def shape_edits(value):
    """Copies of value that differ from it in one field that is not a
    subterm, at the top or inside: an action name or property set, a sign, a
    negation, a predicate or arity, or a formula's contradiction flag or
    conjunct count."""
    if isinstance(value, ActionTerm):
        name, bindings = value.name, value.bindings
        yield ActionTerm(name + "x", bindings)
        yield ActionTerm(name, bindings + (("s", Const("a")),))
        if bindings:
            yield ActionTerm(name, (("t", bindings[0][1]),) + bindings[1:])
        for i, (p, v) in enumerate(bindings):
            for edit in shape_edits(v):
                yield ActionTerm(name, bindings[:i] + ((p, edit),) + bindings[i + 1 :])
    elif isinstance(value, Signed):
        yield Signed("+" if value.sign == "-" else "-", value.term)
        for edit in shape_edits(value.term):
            yield Signed(value.sign, edit)
    elif isinstance(value, Literal):
        yield Literal(not value.negated, value.atom)
        for edit in shape_edits(value.atom):
            yield Literal(value.negated, edit)
    elif isinstance(value, Atom):
        pred, args = value.pred, value.args
        yield Atom(pred + "x", args)
        yield Atom(pred, args + (Const("a"),))
        if args:
            yield Atom(pred, args[:-1])
        for i, arg in enumerate(args):
            for edit in shape_edits(arg):
                yield Atom(pred, args[:i] + (edit,) + args[i + 1 :])
    elif isinstance(value, Formula):
        conjuncts = value.conjuncts
        yield Formula(conjuncts, not value.contradiction)
        yield Formula(conjuncts + (Literal(False, Atom("q", ())),), value.contradiction)
        for i, c in enumerate(conjuncts):
            for edit in shape_edits(c):
                yield Formula(conjuncts[:i] + (edit,) + conjuncts[i + 1 :], value.contradiction)


def random_binding(rng: random.Random, value) -> dict:
    """Some of value's variables, formula interiors included, each bound to
    a random term, which may hold variables of its own."""
    names = sorted(free_vars(value, include_formulas=True))
    return {name: random_term(rng, 2) for name in names if rng.random() < 0.8}


def test_substitute_and_match_agree_with_the_reference_walks():
    rng = random.Random(23)
    outcomes = {"matched": 0, "refused": 0}
    for _ in range(300):
        pattern = random_atom(rng, 3, formulas=True)
        theta = random_binding(rng, pattern)
        value = substitute(pattern, theta)
        assert value is reference_substitute(pattern, theta)
        start = dict(islice(theta.items(), rng.randint(0, len(theta))))
        pairs = [(pattern, value), (pattern, random_atom(rng, 3, formulas=True))]
        pairs += [(pattern, edit) for edit in shape_edits(value)]
        pairs += zip(pattern.args, value.args)  # arguments, not only atoms
        for p, v in pairs:
            for before in ({}, start, {name: Const("zz") for name in start}):
                got, expected = match(p, v, before), reference_match(p, v, before)
                assert got == expected
                if isinstance(p, Atom):
                    assert match_atom(p, v, before) == expected
                outcomes["refused" if expected is None else "matched"] += 1
                if expected is not None:
                    assert substitute(p, got) is v
        assert match(pattern, value, {}) is not None
    assert min(outcomes.values()) > 1000, outcomes


def test_equal_constructions_are_one_object():
    rng = random.Random(5)
    for _ in range(200):
        atom = random_atom(rng, 3, formulas=True)
        rebuilt = substitute(atom, {})  # rebuilds every subterm with variables
        again = pickle.loads(pickle.dumps(atom))  # rebuilds every subterm
        assert rebuilt is atom and again is atom
    # written apart from any shared object, field by field
    assert Const("".join(["re", "port1"])) is Const("report1")
    assert Const("a") is not Const("a", quoted=True)
    assert Atom("p", (Var("x"), Const("a"))) is Atom("p", (Var("x"), Const("a")))


def test_bindings_written_in_either_order_are_one_object():
    x, y = Var("x"), Const("sys1")
    ab = ActionTerm("Protect", (("target", x), ("level", y)))
    ba = ActionTerm("Protect", [("level", y), ("target", x)])
    assert ab is ba
    assert ab.bindings == (("level", y), ("target", x))
    assert ab.binding("target") is x


def test_ground_subterms_come_back_unchanged():
    ground = ActionTerm("Backup", (("target", Const("report1")),))
    atom = Atom("mustdo", (Var("s"), ground, TRUE))
    out = substitute(atom, {"s": Const("bob")})
    assert out is Atom("mustdo", (Const("bob"), ground, TRUE))
    assert out.args[1] is ground
    assert substitute(ground, {"target": Const("other")}) is ground


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda t: pickle.loads(pickle.dumps(t)),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_round_trips_return_the_interned_object(round_trip):
    formula = parse_formula(TokenStream("archived($x, $t) & ~lost($x)"))
    atom = Atom(
        "hasObligation",
        (Const("bob"), ActionTerm("Backup", (("target", Var("x")),)), formula),
    )
    for term in (atom, formula, Signed("-", Const("read")), Literal(True, atom), TRUE, FALSE):
        assert round_trip(term) is term


def test_terms_are_immutable():
    atom = Atom("p", (Const("a"),))
    with pytest.raises(AttributeError):
        atom.pred = "q"
    with pytest.raises(AttributeError):
        del atom.args
    with pytest.raises(AttributeError):
        Const("a").value = "b"
    with pytest.raises(AttributeError):
        atom.extra = 1
    assert atom.pred == "p" and atom is Atom("p", (Const("a"),))


def test_true_and_false_are_singletons():
    assert Formula() is TRUE and Formula((), False) is TRUE
    assert Formula(contradiction=True) is FALSE
    assert parse_formula(TokenStream("true")) is TRUE
    assert parse_formula(TokenStream("false")) is FALSE
    assert TRUE.is_true and FALSE.is_false and TRUE is not FALSE


def test_sign_check_ordering_and_repr_are_kept():
    with pytest.raises(ValueError):
        Signed("*", Const("read"))
    assert Const("a") < Const("b") and Const("a") < Const("a", quoted=True)
    assert sorted([Var("y"), Var("x")]) == [Var("x"), Var("y")]
    assert Var("x") <= Var("x") and Var("y") >= Var("x")
    with pytest.raises(TypeError):
        Const("a") < Var("a")
    assert repr(Atom("p", (Const("a"), Var("x")))) == (
        "Atom(pred='p', args=(Const(value='a', quoted=False), Var(name='x')))"
    )


def test_a_term_keeps_its_rendering_and_stays_the_same_term():
    action = ActionTerm("Backup", (("target", Var("x")),))
    atom = Atom("p", (Const("a", quoted=True), Signed("+", action)))
    text = render(atom)
    assert text == 'p("a", +Backup((target,$x)))'
    assert render(atom) is text and render(action) is render(action)
    assert repr(atom) == (
        "Atom(pred='p', args=(Const(value='a', quoted=True), Signed(sign='+', term="
        "ActionTerm(name='Backup', bindings=(('target', Var(name='x')),)))))"
    )
    for round_trip in ROUND_TRIPS.values():
        assert round_trip(atom) is atom
    with pytest.raises(AttributeError):
        atom._text = "q"
    assert render(atom) is text
    with pytest.raises(TypeError, match="cannot render str"):
        render("p")


def _load_every_sample():
    ontos = {p.stem: load_ontology(p) for p in sorted(SAMPLES.glob("*.onto"))}
    for path in sorted(SAMPLES.iterdir()):
        onto = ontos.get(path.stem.split("_")[0])
        if path.suffix == ".facts":
            load_facts(path, onto)
        elif path.suffix == ".pol":
            load_policy(path, onto)
        elif path.suffix == ".rp":
            load_patterns(path, onto)
        elif path.suffix == ".state":
            load_state(path, onto)


def test_loading_every_sample_twice_does_not_grow_the_table():
    _load_every_sample()
    size = len(terms._TABLE)
    _load_every_sample()
    assert len(terms._TABLE) == size


def test_a_token_stream_holds_few_bytes_per_character():
    # Tokens are their source strings: one object per token with a kind and
    # a position would make the low policy's tokens the peak heap of `check`.
    text = "".join(
        f"cando(Encrypt((target,d{i})), e{i}, +execute) :- type(d{i}, Document) & guards(e{i}, d{i}).\n"
        for i in range(300)
    )
    assert 20_000 < len(text) < 30_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ts = TokenStream(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ts.tokens) > 9_000
    assert held <= 25 * len(text)

"""Interned terms: one object per distinct term, whose hash and free
variables are computed once, when it is first built."""

import copy
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
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


_PRINT_HASH = (
    "import sys; from polcheck.terms import Atom, Const, Var; "
    "[Const(str(i)) for i in range(int(sys.argv[1]))]; "
    "print(hash(Atom('p', (Const('a'), Var('x')))))"
)


def test_hash_depends_on_content_and_seed_only():
    # Terms built before it move the atom in memory, so an identity hash
    # would differ; a content hash is the same under one PYTHONHASHSEED.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    hashes = {
        subprocess.run(
            [sys.executable, "-c", _PRINT_HASH, n], env=env, capture_output=True, text=True, check=True
        ).stdout
        for n in ("0", "5000")
    }
    assert len(hashes) == 1


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

"""Shared term language: constants, variables, action terms, signed actions,
atoms, and postcondition formulas.

Terms are interned for the life of the process: building a term returns the
one object with its fields, so equality and hashing are by identity, and
memory grows with the distinct terms built, not with the number of loads.
Action terms carry property bindings, e.g. ``Protect((target,$x))``, each
property at most once. Bindings are sorted by property name at construction
so equality does not depend on authoring order. Formula conjunct order is
preserved as written.

Each term keeps its subterms (parts) and its shape (its class and other
fields), as its constructor declares them, and `substitute`, `match` and the
policy's nesting check walk the parts instead of switching on the class.

A "ground" value may still contain variables inside a formula argument: those
are existential and get closed at satisfaction-check time, not at grounding.
``free_vars`` returns a frozenset computed once per term, with or without them.

The parsers read a token list. A leaf table keyed by token text gives each
distinct token's kind and its Const or Var, so the loops that read an atom's
arguments and an action term's bindings take a leaf in one lookup.
"""

from __future__ import annotations

import re
import string
from functools import total_ordering
from itertools import accumulate, islice

from .errors import ParseError

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

_TABLE: dict = {}  # every term ever built, by its class name and fields
_NO_VARS = frozenset()


class Term:
    """Base of the interned terms; a subclass's fields are its ``__slots__``.
    Each distinct term is built once, by ``_intern``, with its ``_parts``, its
    ``_shape`` and its free variables without (``_vars``) and with
    (``_fvars``) formula interiors; ``_text`` holds its rendering once
    ``render`` first makes it. A term hashes by identity, so the order of a
    set or dict of terms depends on where they sit in memory: output orders
    terms only by ``sort_key``."""

    __slots__ = ("_parts", "_shape", "_vars", "_fvars", "_text")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


_SHAPES: dict = {}  # every shape, once, so shapes compare by identity


def _intern(cls, key: tuple, parts=(), shape=None, names: frozenset = _NO_VARS):
    """The term of class cls with fields key[1:], built on a table miss, the
    only place a term is built: one object per key is what makes identity
    equality and identity hashing hold. Parts are its subterms, in the order
    its `_with` takes them back; shape, None for a leaf, is what else a match
    compares. Its variables are names plus those of parts; a formula has
    none outside its interior."""
    term = object.__new__(cls)
    for name, value in zip(cls.__slots__, key[1:]):
        object.__setattr__(term, name, value)
    vs = fvs = names  # an empty or single operand is shared, not copied
    for p in parts:
        vs = vs | p._vars if vs and p._vars else vs or p._vars
        fvs = fvs | p._fvars if fvs and p._fvars else fvs or p._fvars
    object.__setattr__(term, "_parts", parts)
    object.__setattr__(term, "_shape", shape and _SHAPES.setdefault(shape, shape))
    object.__setattr__(term, "_vars", _NO_VARS if cls is Formula else vs)
    object.__setattr__(term, "_fvars", fvs)
    return _TABLE.setdefault(key, term)


@total_ordering
class _Ordered(Term):
    __slots__ = ()

    def __lt__(self, other):  # by fields, against terms of the same class only
        return self._fields() < other._fields() if type(other) is type(self) else NotImplemented


class Const(_Ordered):
    __slots__ = ("value", "quoted")

    def __new__(cls, value: str, quoted: bool = False):
        key = ("Const", value, quoted)
        return _TABLE.get(key) or _intern(cls, key)


class Var(_Ordered):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = ("Var", name)
        return _TABLE.get(key) or _intern(cls, key, (), None, frozenset((name,)))


class _Cached(Term):
    __slots__ = ("_cache",)  # a formula's join plans, an action term's effect; not a field


class ActionTerm(_Cached):
    __slots__ = ("name", "bindings")  # bindings: ((property, Term), ...), sorted

    def __new__(cls, name: str, bindings=()):
        bindings = tuple(sorted(bindings, key=lambda b: b[0]) if len(bindings) > 1 else bindings)
        key = ("ActionTerm", name, bindings)
        return _TABLE.get(key) or _intern(
            cls, key, tuple([v for _, v in bindings]), ("ActionTerm", name, tuple([p for p, _ in bindings]))
        )

    def _with(self, parts):
        return ActionTerm(self.name, tuple(zip(self._shape[2], parts)))

    def binding(self, prop: str):
        return dict(self.bindings).get(prop)


class Signed(Term):
    __slots__ = ("sign", "term")  # sign: '+' or '-'

    def __new__(cls, sign: str, term):
        if sign != "+" and sign != "-":
            raise ValueError(f"bad sign {sign!r}")
        key = ("Signed", sign, term)
        return _TABLE.get(key) or _intern(cls, key, (term,), ("Signed", sign))

    def _with(self, parts):
        return Signed(self.sign, *parts)


class Atom(Term):
    __slots__ = ("pred", "args")

    def __new__(cls, pred: str, args: tuple = ()):
        key = ("Atom", pred, args)
        return _TABLE.get(key) or _intern(cls, key, args, ("Atom", pred, len(args)))

    def _with(self, parts):
        return Atom(self.pred, tuple(parts))


class Literal(Term):
    """A possibly negated atom: a rule-body literal, or one conjunct of a
    formula (negated formula conjuncts are experimental)."""

    __slots__ = ("negated", "atom")

    def __new__(cls, negated: bool, atom: Atom):
        key = ("Literal", negated, atom)
        return _TABLE.get(key) or _intern(cls, key, (atom,), ("Literal", negated))

    def _with(self, parts):
        return Literal(self.negated, *parts)


class Formula(_Cached):
    __slots__ = ("conjuncts", "contradiction")  # conjuncts: (Literal, ...)

    def __new__(cls, conjuncts: tuple = (), contradiction: bool = False):
        key = ("Formula", conjuncts, contradiction)
        return _TABLE.get(key) or _intern(cls, key, conjuncts, ("Formula", contradiction, len(conjuncts)))

    def _with(self, parts):
        return Formula(tuple(parts), self.contradiction)

    @property
    def is_true(self) -> bool:
        return not self.conjuncts and not self.contradiction

    @property
    def is_false(self) -> bool:
        return self.contradiction


TRUE = Formula()
FALSE = Formula(contradiction=True)


# ---------------------------------------------------------------------------
# Substitution and matching: walks over the parts _intern keeps
# ---------------------------------------------------------------------------


def substitute(value, theta: dict):
    """Replace variables by their bindings, recursively, everywhere
    (including inside formulas). A subterm without variables is returned
    as it is."""
    if not value._fvars:
        return value
    if value.__class__ is Var:
        return theta.get(value.name, value)
    return value._with([substitute(p, theta) for p in value._parts])


def match(pattern, value, theta: dict):
    """Extend theta so that substitute(pattern, theta) == value.
    Returns the extended dict or None. theta is not mutated."""
    if not pattern._fvars:
        return theta if pattern is value else None
    if pattern.__class__ is Var:
        bound = theta.get(pattern.name)
        if bound is None:
            out = dict(theta)
            out[pattern.name] = value
            return out
        return theta if bound == value else None
    if pattern._shape is not value._shape:
        return None
    for p, v in zip(pattern._parts, value._parts):
        theta = match(p, v, theta)
        if theta is None:
            return None
    return theta


match_atom = match  # an atom is matched like any other term; callers know it by both names


def free_vars(value, include_formulas: bool = False) -> frozenset:
    """Variable names occurring in a value. Formula-internal variables are
    existential and excluded unless asked for."""
    return value._fvars if include_formulas else value._vars


def is_ground(value) -> bool:
    """True when no variable occurs outside formula positions."""
    return not value._vars


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(value) -> str:
    text = getattr(value, "_text", None)
    if text is None:
        text = _render(value)
        object.__setattr__(value, "_text", text)
    return text


sort_key = render  # the deterministic ordering key of every output is a term's text


def _render(value) -> str:
    if isinstance(value, Const):
        return f'"{value.value}"' if value.quoted else value.value
    if isinstance(value, Var):
        return "$" + value.name
    if isinstance(value, ActionTerm):
        inner = ",".join(f"({p},{render(v)})" for p, v in value.bindings)
        return f"{value.name}({inner})"
    if isinstance(value, Signed):
        return value.sign + render(value.term)
    if isinstance(value, Atom):
        if not value.args:
            return value.pred
        return f"{value.pred}({', '.join(render(a) for a in value.args)})"
    if isinstance(value, Formula):
        if value.contradiction:
            return "false"
        if not value.conjuncts:
            return "true"
        return " & ".join(render(c) for c in value.conjuncts)
    if isinstance(value, Literal):
        return ("~" if value.negated else "") + render(value.atom)
    raise TypeError(f"cannot render {type(value).__name__}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# A token is its source text: a symbol, identifier, variable, number or string,
# tried commonest first; only `:-` and `:` start alike. _LEAVES gives a token's
# kind and its Const or Var in one lookup, so a string '"("' never equals '('.
_TOKEN = (
    r'[(),.&]|[A-Za-z_][A-Za-z0-9_]*|\$[A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+)?|"[^"\n]*"'
    r"|:-|/\\|\\/|¬|[{}\[\]~+\-=;:|]"
)
# One match per token after the whitespace before it; a `%` comment matches
# outside the group, so findall reads it as "", as it reads the end. A character
# that starts no token takes the rest of the text, so it is the last token.
_TOKEN_RE = re.compile(rf"\s*(?:%[^\n]*|({_TOKEN}|.[\s\S]*|\Z))")
_ONE_TOKEN = re.compile(_TOKEN)

# a token's first character -> its kind and the maker of its leaf; else a symbol
_KINDS = {"": ("eof", None), "$": ("var", lambda t: Var(t[1:])), '"': ("string", lambda t: Const(t[1:-1], True))}
_KINDS.update(dict.fromkeys(string.digits, ("number", Const)))
_KINDS.update(dict.fromkeys(string.ascii_letters + "_", ("ident", Const)))


class _Leaves(dict):
    """Token text -> (kind, its Var or Const, or None for a symbol or the end),
    made the first time the text is looked up and kept, as terms are."""

    def __missing__(self, tok: str) -> tuple:
        kind, make = _KINDS.get(tok[:1], ("sym", None))
        self[tok] = entry = (kind, make and make(tok))
        return entry


_LEAVES = _Leaves()

# Brackets of every kind, counted together, nest at most this deep in any
# input. The parsers and the term walkers recurse once per level, so deeper
# input is refused here with a position instead of exhausting the stack.
MAX_NESTING = 100
_DEPTH = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}
_BRACKETS = dict.fromkeys(c for c in range(128) if chr(c) not in _DEPTH)  # what translate deletes


def token_value(tok: str) -> str:
    """A token without a variable's `$` or a string's quotes."""
    kind, leaf = _LEAVES[tok]
    return tok[1:] if kind == "var" else tok if leaf is None else leaf.value


def _position(text: str, index: int) -> tuple:
    """Line and column of the token at index, comments aside, or of the end."""
    m = next(islice((m for m in _TOKEN_RE.finditer(text) if m.start(1) >= 0), index, None), None)
    offset = m.start(1) if m else len(text)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list:
    """The tokens of text, comments dropped, ending with one empty end token.
    The first bracket nested past MAX_NESTING and the first character that
    starts no token are errors, whichever comes first in the text."""
    tokens = _TOKEN_RE.findall(text.rstrip())  # after trailing whitespace the end would match twice
    if "%" in text:
        tokens = [*filter(None, tokens), ""]  # a comment reads as "", as the end does
    if "¬" in text:
        tokens = ["~" if tok == "¬" else tok for tok in tokens]
    bad = len(tokens) > 1 and not _ONE_TOKEN.fullmatch(tokens[-2])
    # a bad last token's and a string's brackets do not nest; every token left is ASCII
    counted = "".join("".join(tokens[:-2] if bad else tokens).split('"')[::2])  # only strings hold '"'
    if max(accumulate(map(_DEPTH.__getitem__, counted.translate(_BRACKETS))), default=0) > MAX_NESTING:
        depths = accumulate(_DEPTH.get(tok, 0) for tok in tokens)
        i = next(i for i, depth in enumerate(depths) if depth > MAX_NESTING)
        raise ParseError(f"brackets nest deeper than {MAX_NESTING} levels", *_position(text, i))
    if bad:
        raise ParseError(f"unexpected character {tokens[-2][0]!r}", *_position(text, len(tokens) - 2))
    return tokens


class TokenStream:
    """The tokens of a text, read front to back; the current one is
    tokens[pos]. A ParseError finds the line and column of the token it is
    raised at by scanning the text again."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.tokens += ("", "")  # so a lookahead of up to 2 past the end reads eof
        self.pos = 0

    def at_end(self) -> bool:
        return not self.tokens[self.pos]

    def at(self, value: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead] == value

    def accept(self, value: str) -> bool:
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if self.tokens[self.pos] != value:
            self.fail(f"expected {value!r}, found {token_value(self.tokens[self.pos])!r}")
        self.pos += 1

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if _LEAVES[tok][0] != "ident":
            self.fail(f"expected ident, found {token_value(tok)!r}")
        self.pos += 1
        return tok

    def expect_idents(self) -> list:
        """One or more identifiers separated by commas."""
        names = [self.expect_ident()]
        while self.accept(","):
            names.append(self.expect_ident())
        return names

    def expect_value(self) -> str:
        """A plain value: an identifier, a number, or a string without its quotes."""
        tok = self.tokens[self.pos]
        kind, leaf = _LEAVES[tok]
        if leaf is None or kind == "var":
            self.fail(f"expected a value, found {token_value(tok)!r}")
        self.pos += 1
        return leaf.value

    def items(self, close: str, empty: bool = True):
        """Read a comma-separated list up to close, which it consumes, by
        yielding once per item for the loop body to read that item. The list
        may be empty unless empty is False; a trailing comma leaves close where
        the body expects an item."""
        tokens = self.tokens
        if empty and tokens[self.pos] == close:
            self.pos += 1
            return
        yield
        while tokens[self.pos] == ",":
            self.pos += 1
            yield
        self.expect(close)

    def arguments(self, formula_pos: int | None = None, plain: bool = False) -> tuple:
        """An atom's parenthesized arguments, a list read as items reads one.
        A variable or constant not followed by '(' is its leaf from the table,
        read at a local index; any other is read by parse_term if plain, else
        by parse_argument (a formula at formula_pos). pos is written back
        before that and past the ')'."""
        tokens, i, args = self.tokens, self.pos + 1, []
        if tokens[i - 1] != "(":
            self.expect("(")
        while args or tokens[i] != ")":  # an empty list only; a trailing comma reads ')' as an argument
            leaf = _LEAVES[tokens[i]][1]
            if leaf is None or tokens[i + 1] == "(" or len(args) == formula_pos:
                self.pos = i
                args.append(parse_term(self) if plain else parse_argument(self, len(args) == formula_pos))
                i = self.pos
            else:
                args.append(leaf)
                i += 1
            if tokens[i] != ",":
                break
            i += 1
        if tokens[i] != ")":
            self.pos = i
            self.expect(")")
        self.pos = i + 1
        return tuple(args)

    def bindings(self, name: str) -> tuple:
        """Action name's `((property,term), ...)`, read as arguments reads a list:
        a `(ident,leaf)` binding of a new property at a local index (each check
        reads only tokens the one before proves real), any other by bind_property."""
        self.expect("(")
        tokens, i, bindings = self.tokens, self.pos, []
        while bindings or tokens[i] != ")":
            prop, leaf = tokens[i + 1], tokens[i] == "(" and tokens[i + 2] == "," and _LEAVES[tokens[i + 3]][1]
            if leaf and tokens[i + 4] == ")" and _LEAVES[prop][0] == "ident" and all(p != prop for p, _ in bindings):
                bindings.append((prop, leaf))
                i += 5
            else:
                self.pos = i
                self.expect("(")
                bind_property(self, name, bindings, ",")
                self.expect(")")
                i = self.pos
            if tokens[i] != ",":
                break
            i += 1
        self.pos = i
        self.expect(")")
        return tuple(bindings)

    def fail(self, message: str, index: int | None = None):
        """Raise a ParseError at the token at index, by default the next one."""
        raise ParseError(message, *_position(self.text, self.pos if index is None else index))


# ---------------------------------------------------------------------------
# Term / formula parsing (shared by policy, fact, and ontology grammars)
# ---------------------------------------------------------------------------


def parse_term(ts: TokenStream):
    tok = ts.tokens[ts.pos]
    kind, leaf = _LEAVES[tok]
    if leaf is None:
        ts.fail(f"expected a term, found {tok!r}")
    ts.pos += 1
    return ActionTerm(tok, ts.bindings(tok)) if kind == "ident" and ts.tokens[ts.pos] == "(" else leaf


def bind_property(ts: TokenStream, name: str, bindings: list, sep: str) -> None:
    """Read `property<sep>term` into action name's bindings; a property
    bound twice is an error at its second binding."""
    at = ts.pos
    prop = ts.expect_ident()
    ts.expect(sep)
    value = parse_term(ts)
    if any(p == prop for p, _ in bindings):
        ts.fail(f"{name} binds property {prop!r} twice", at)
    bindings.append((prop, value))


def parse_formula(ts: TokenStream) -> Formula:
    if ts.accept("true"):
        return TRUE
    if ts.accept("false"):
        return FALSE
    conjuncts = []
    while not conjuncts or ts.accept("&"):
        negated = ts.accept("~")
        name = ts.expect_ident()
        conjuncts.append(Literal(negated, Atom(name, ts.arguments(plain=True) if ts.at("(") else ())))
    return Formula(tuple(conjuncts))


def parse_argument(ts: TokenStream, allow_formula: bool):
    """Parse one atom argument. In formula positions an identifier followed by
    a single '(' starts a formula atom; ``Name((`` always starts an action term."""
    tok = ts.tokens[ts.pos]
    if tok == "+" or tok == "-":
        ts.pos += 1
        return Signed(tok, parse_term(ts))
    if allow_formula:
        if tok == "~" or tok == "true" or tok == "false":
            return parse_formula(ts)
        if _LEAVES[tok][0] == "ident" and ts.at("(", 1) and not ts.at("(", 2):
            return parse_formula(ts)
    return parse_term(ts)

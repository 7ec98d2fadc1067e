"""Shared term language: constants, variables, action terms, signed actions,
atoms, and postcondition formulas.

Terms are interned for the life of the process: building a term returns the
one object with its fields, so equality and hashing are by identity, and
memory grows with the distinct terms built, not with the number of loads.
Action terms carry property bindings, e.g. ``Protect((target,$x))``, each
property at most once. Bindings are sorted by property name at construction
so equality does not depend on authoring order. Formula conjunct order is
preserved as written.

A "ground" value may still contain variables inside a formula argument: those
are existential and get closed at satisfaction-check time, not at grounding.
``free_vars`` returns a frozenset computed once per term, with or without them.
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
    Each distinct term is built once, with its free variables without
    (``_vars``) and with (``_fvars``) formula interiors; ``_text`` holds its
    rendering once ``render`` first makes it. A term hashes by identity, so
    the order of a set or dict of terms depends on where they sit in memory:
    output orders terms only by ``sort_key``."""

    __slots__ = ("_vars", "_fvars", "_text")

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


def _intern(cls, key: tuple, parts=(), names: frozenset = _NO_VARS):
    """The term of class cls with fields key[1:], built on a table miss, the
    only place a term is built: one object per key is what makes identity
    equality and identity hashing hold. Its variables are names plus those
    of parts, its subterms; a formula has none outside its interior."""
    term = object.__new__(cls)
    for name, value in zip(cls.__slots__, key[1:]):
        object.__setattr__(term, name, value)
    vs = fvs = names  # an empty or single operand is shared, not copied
    for p in parts:
        vs = vs | p._vars if vs and p._vars else vs or p._vars
        fvs = fvs | p._fvars if fvs and p._fvars else fvs or p._fvars
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
        return _TABLE.get(key) or _intern(cls, key, (), frozenset((name,)))


class _Cached(Term):
    __slots__ = ("_cache",)  # a formula's join plans, an action term's effect; not a field


class ActionTerm(_Cached):
    __slots__ = ("name", "bindings")  # bindings: ((property, Term), ...), sorted

    def __new__(cls, name: str, bindings=()):
        bindings = tuple(sorted(bindings, key=lambda b: b[0]) if len(bindings) > 1 else bindings)
        key = ("ActionTerm", name, bindings)
        return _TABLE.get(key) or _intern(cls, key, [v for _, v in bindings])

    def binding(self, prop: str):
        for p, v in self.bindings:
            if p == prop:
                return v
        return None


class Signed(Term):
    __slots__ = ("sign", "term")  # sign: '+' or '-'

    def __new__(cls, sign: str, term):
        if sign != "+" and sign != "-":
            raise ValueError(f"bad sign {sign!r}")
        key = ("Signed", sign, term)
        return _TABLE.get(key) or _intern(cls, key, (term,))


class Atom(Term):
    __slots__ = ("pred", "args")

    def __new__(cls, pred: str, args: tuple = ()):
        key = ("Atom", pred, args)
        return _TABLE.get(key) or _intern(cls, key, args)


class Literal(Term):
    """A possibly negated atom: a rule-body literal, or one conjunct of a
    formula (negated formula conjuncts are experimental)."""

    __slots__ = ("negated", "atom")

    def __new__(cls, negated: bool, atom: Atom):
        key = ("Literal", negated, atom)
        return _TABLE.get(key) or _intern(cls, key, (atom,))


class Formula(_Cached):
    __slots__ = ("conjuncts", "contradiction")  # conjuncts: (Literal, ...)

    def __new__(cls, conjuncts: tuple = (), contradiction: bool = False):
        key = ("Formula", conjuncts, contradiction)
        return _TABLE.get(key) or _intern(cls, key, conjuncts)

    @property
    def is_true(self) -> bool:
        return not self.conjuncts and not self.contradiction

    @property
    def is_false(self) -> bool:
        return self.contradiction


TRUE = Formula()
FALSE = Formula(contradiction=True)


# ---------------------------------------------------------------------------
# Substitution and matching
# ---------------------------------------------------------------------------


def substitute(value, theta: dict):
    """Replace variables by their bindings, recursively, everywhere
    (including inside formulas). A subterm without variables is returned
    as it is."""
    if not value._fvars:
        return value
    if isinstance(value, Var):
        return theta.get(value.name, value)
    if isinstance(value, ActionTerm):
        return ActionTerm(value.name, tuple((p, substitute(v, theta)) for p, v in value.bindings))
    if isinstance(value, Signed):
        return Signed(value.sign, substitute(value.term, theta))
    if isinstance(value, Atom):
        return Atom(value.pred, tuple(substitute(a, theta) for a in value.args))
    if isinstance(value, Formula):
        return Formula(tuple(substitute(c, theta) for c in value.conjuncts), value.contradiction)
    if isinstance(value, Literal):
        return Literal(value.negated, substitute(value.atom, theta))
    raise TypeError(f"cannot substitute into {type(value).__name__}")


def match(pattern, value, theta: dict):
    """Extend theta so that substitute(pattern, theta) == value.
    Returns the extended dict or None. theta is not mutated."""
    if not pattern._fvars:
        return theta if pattern is value else None
    if isinstance(pattern, Var):
        bound = theta.get(pattern.name)
        if bound is None:
            out = dict(theta)
            out[pattern.name] = value
            return out
        return theta if bound == value else None
    if isinstance(pattern, ActionTerm):
        if not isinstance(value, ActionTerm) or pattern.name != value.name:
            return None
        if len(pattern.bindings) != len(value.bindings):
            return None
        for (pp, pv), (vp, vv) in zip(pattern.bindings, value.bindings):
            if pp != vp:
                return None
            theta = match(pv, vv, theta)
            if theta is None:
                return None
        return theta
    if isinstance(pattern, Signed):
        if not isinstance(value, Signed) or pattern.sign != value.sign:
            return None
        return match(pattern.term, value.term, theta)
    if isinstance(pattern, Formula):
        if not isinstance(value, Formula):
            return None
        if pattern.contradiction != value.contradiction:
            return None
        if len(pattern.conjuncts) != len(value.conjuncts):
            return None
        for pc, vc in zip(pattern.conjuncts, value.conjuncts):
            if pc.negated != vc.negated:
                return None
            theta = match_atom(pc.atom, vc.atom, theta)
            if theta is None:
                return None
        return theta
    return None


def match_atom(pattern: Atom, value: Atom, theta: dict):
    if pattern.pred != value.pred or len(pattern.args) != len(value.args):
        return None
    for pa, va in zip(pattern.args, value.args):
        theta = match(pa, va, theta)
        if theta is None:
            return None
    return theta


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

# A token is its source text: a variable, identifier, number, string or symbol,
# tried in that order. Its kind follows from its first character (see
# token_kind), so a string token '"("' never equals the symbol '('.
_TOKEN = (
    r'\$[A-Za-z_][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+)?|"[^"\n]*"'
    r"|:-|/\\|\\/|¬|[(){}\[\],.&~+\-=;:|]"
)
# One match per token, after the whitespace and `%` comments before it. A
# character that starts no token takes the rest of the text, so it can only be
# the last token, and the end of the text matches as the empty token.
_TOKEN_RE = re.compile(rf"(?:\s+|%[^\n]*)*({_TOKEN}|.[\s\S]*|\Z)")
_ONE_TOKEN = re.compile(_TOKEN)

_KINDS = {"": "eof", "$": "var", '"': "string", **dict.fromkeys(string.digits, "number")}
_KINDS.update(dict.fromkeys(string.ascii_letters + "_", "ident"))

# Brackets of every kind, counted together, nest at most this deep in any
# input. The parsers and the term walkers recurse once per level, so deeper
# input is refused here with a position instead of exhausting the stack.
MAX_NESTING = 100
_DEPTH = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def token_kind(tok: str) -> str:
    """var, ident, number, string or sym; eof for the empty end token."""
    return _KINDS.get(tok[:1], "sym")


def token_value(tok: str) -> str:
    """A token without a variable's `$` or a string's quotes."""
    kind = token_kind(tok)
    return tok[1:] if kind == "var" else tok[1:-1] if kind == "string" else tok


def _position(text: str, index: int) -> tuple:
    """Line and column of the token at index, or of the end of the text."""
    m = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    offset = m.start(1) if m else len(text)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list:
    """The tokens of text, ending with one empty end token. The first
    bracket nested past MAX_NESTING and the first character that starts no
    token are errors, whichever comes first in the text."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        del tokens[-1]  # after trailing whitespace the end matches twice
    if "¬" in text:
        tokens = ["~" if tok == "¬" else tok for tok in tokens]
    # a bad last token is never a bracket, so it cannot change the depth
    brackets = map(_DEPTH.__getitem__, filter(_DEPTH.__contains__, tokens))
    if max(accumulate(brackets), default=0) > MAX_NESTING:
        depths = accumulate(_DEPTH.get(tok, 0) for tok in tokens)
        i = next(i for i, depth in enumerate(depths) if depth > MAX_NESTING)
        raise ParseError(f"brackets nest deeper than {MAX_NESTING} levels", *_position(text, i))
    if len(tokens) > 1 and not _ONE_TOKEN.fullmatch(tokens[-2]):
        raise ParseError(f"unexpected character {tokens[-2][0]!r}", *_position(text, len(tokens) - 2))
    return tokens


class TokenStream:
    """The tokens of a text, read front to back. A ParseError finds the line
    and column of the token it is raised at by scanning the text again."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.tokens += ("", "")  # so a lookahead of up to 2 past the end reads eof
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]

    def at_end(self) -> bool:
        return not self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

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
        if token_kind(tok) != "ident":
            self.fail(f"expected ident, found {token_value(tok)!r}")
        self.pos += 1
        return tok

    def expect_idents(self) -> list:
        """One or more identifiers separated by commas."""
        names = [self.expect_ident()]
        while self.accept(","):
            names.append(self.expect_ident())
        return names

    def fail(self, message: str, index: int | None = None):
        """Raise a ParseError at the token at index, by default the next one."""
        raise ParseError(message, *_position(self.text, self.pos if index is None else index))


# ---------------------------------------------------------------------------
# Term / formula parsing (shared by policy, fact, and ontology grammars)
# ---------------------------------------------------------------------------


def parse_term(ts: TokenStream):
    tok = ts.peek()
    kind = token_kind(tok)
    if kind == "ident" and ts.at("(", 1):
        return parse_action_term(ts)
    if kind == "sym" or kind == "eof":
        ts.fail(f"expected a term, found {tok!r}")
    ts.next()
    if kind == "var":
        return Var(tok[1:])
    return Const(tok[1:-1], quoted=True) if kind == "string" else Const(tok)


def bind_property(ts: TokenStream, at: int, name: str, bindings: list, value) -> None:
    """Add (the property at token index at, value) to action name's
    bindings; a property bound twice is an error."""
    prop = ts.tokens[at]
    if any(p == prop for p, _ in bindings):
        ts.fail(f"{name} binds property {prop!r} twice", at)
    bindings.append((prop, value))


def parse_action_term(ts: TokenStream) -> ActionTerm:
    name = ts.expect_ident()
    ts.expect("(")
    bindings = []
    if not ts.at(")"):
        while True:
            ts.expect("(")
            at = ts.pos
            ts.expect_ident()
            ts.expect(",")
            bind_property(ts, at, name, bindings, parse_term(ts))
            ts.expect(")")
            if not ts.accept(","):
                break
    ts.expect(")")
    return ActionTerm(name, tuple(bindings))


def parse_formula_atom(ts: TokenStream) -> Atom:
    name = ts.expect_ident()
    args = []
    if ts.accept("("):
        if not ts.at(")"):
            while True:
                args.append(parse_term(ts))
                if not ts.accept(","):
                    break
        ts.expect(")")
    return Atom(name, tuple(args))


def parse_formula(ts: TokenStream) -> Formula:
    if ts.accept("true"):
        return TRUE
    if ts.accept("false"):
        return FALSE
    conjuncts = []
    while True:
        negated = ts.accept("~")
        conjuncts.append(Literal(negated, parse_formula_atom(ts)))
        if not ts.accept("&"):
            break
    return Formula(tuple(conjuncts))


def parse_argument(ts: TokenStream, allow_formula: bool):
    """Parse one atom argument. In formula positions an identifier followed by
    a single '(' starts a formula atom; ``Name((`` always starts an action term."""
    tok = ts.peek()
    if tok == "+" or tok == "-":
        ts.next()
        return Signed(tok, parse_term(ts))
    if allow_formula:
        if tok == "~" or tok == "true" or tok == "false":
            return parse_formula(ts)
        if token_kind(tok) == "ident" and ts.at("(", 1) and not ts.at("(", 2):
            return parse_formula(ts)
    return parse_term(ts)


def sort_key(value) -> str:
    """Deterministic ordering key used everywhere atoms are emitted."""
    return render(value)

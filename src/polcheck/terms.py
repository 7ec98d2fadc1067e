"""Shared term language: constants, variables, action terms, signed actions,
atoms, and postcondition formulas.

Terms are interned for the life of the process: building a term returns the
one object with its fields, so equality is identity, and memory grows with
the distinct terms built, not with the number of loads. Action terms carry
property bindings, e.g. ``Protect((target,$x))``, each property at most once.
Bindings are sorted by property name at construction so equality does not
depend on authoring order. Formula conjunct order is preserved as written.

A "ground" value may still contain variables inside a formula argument: those
are existential and get closed at satisfaction-check time, not at grounding.
``free_vars`` returns a frozenset computed once per term, with or without them.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import total_ordering

from .errors import ParseError

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

_TABLE: dict = {}  # every term ever built, by its class name and fields
_NO_VARS = frozenset()


class Term:
    """Base of the interned terms; a subclass's fields are its ``__slots__``.
    Each distinct term is built once, with its content hash and its free
    variables without (``_vars``) and with (``_fvars``) formula interiors."""

    __slots__ = ("_hash", "_vars", "_fvars")

    def __hash__(self):
        return self._hash

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
    """The term of class cls with fields key[1:], built on a table miss. Its
    variables are names plus those of parts, its subterms; a formula has
    none outside its interior."""
    term = object.__new__(cls)
    for name, value in zip(cls.__slots__, key[1:]):
        object.__setattr__(term, name, value)
    vs = fvs = names  # an empty or single operand is shared, not copied
    for p in parts:
        vs = vs | p._vars if vs and p._vars else vs or p._vars
        fvs = fvs | p._fvars if fvs and p._fvars else fvs or p._fvars
    object.__setattr__(term, "_hash", hash(key))
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


class ActionTerm(Term):
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


class Formula(Term):
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<var>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>"[^"\n]*")
  | (?P<sym>:-|/\\|\\/|¬|[(){}\[\],.&~+\-=;:|])
    """,
    re.VERBOSE,
)


# Brackets of every kind, counted together, nest at most this deep in any
# input. The parsers and the term walkers recurse once per level, so deeper
# input is refused here with a position instead of exhausting the stack.
MAX_NESTING = 100
_OPEN = frozenset("([{")
_CLOSE = frozenset(")]}")


Token = namedtuple("Token", "kind value line col")  # kind: var|ident|number|string|sym|eof


def tokenize(text: str) -> list:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset just past the last newline
    end = depth = 0
    for m in _TOKEN_RE.finditer(text):
        start, kind = m.start(), m.lastgroup
        if start != end:  # the scan skipped a character no token matches
            break
        end = m.end()
        if kind == "ws" or kind == "comment":
            last = text.rfind("\n", start, end)
            if last >= 0:
                line += text.count("\n", start, end)
                line_start = last + 1
            continue
        value = m.group()
        col = start - line_start + 1
        if kind == "var":
            value = value[1:]
        elif kind == "string":
            value = value[1:-1]
        elif kind == "sym":
            if value == "¬":
                value = "~"
            elif value in _OPEN:
                depth += 1
                if depth > MAX_NESTING:
                    raise ParseError(f"brackets nest deeper than {MAX_NESTING} levels", line, col)
            elif value in _CLOSE:
                depth -= 1
        tokens.append(Token(kind, value, line, col))
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", line, end - line_start + 1)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


class TokenStream:
    def __init__(self, text: str):
        tokens = tokenize(text)
        # two more eof tokens, so a lookahead of up to 2 past the end reads eof
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind in ("sym", "ident") and tok.value == value

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if not self.at(value):
            self.fail(f"expected {value!r}, found {tok.value!r}")
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind}, found {tok.value!r}")
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Term / formula parsing (shared by policy, fact, and ontology grammars)
# ---------------------------------------------------------------------------


def parse_term(ts: TokenStream):
    tok = ts.peek()
    if tok.kind == "var":
        ts.next()
        return Var(tok.value)
    if tok.kind == "number":
        ts.next()
        return Const(tok.value)
    if tok.kind == "string":
        ts.next()
        return Const(tok.value, quoted=True)
    if tok.kind == "ident":
        if ts.peek(1).kind == "sym" and ts.peek(1).value == "(":
            return parse_action_term(ts)
        ts.next()
        return Const(tok.value)
    ts.fail(f"expected a term, found {tok.value!r}")


def bind_property(bindings: list, name: str, prop: Token, value) -> None:
    """Add (property, value) to action name's bindings; a property bound twice is an error."""
    if any(p == prop.value for p, _ in bindings):
        raise ParseError(f"{name} binds property {prop.value!r} twice", prop.line, prop.col)
    bindings.append((prop.value, value))


def parse_action_term(ts: TokenStream) -> ActionTerm:
    name = ts.expect_kind("ident").value
    ts.expect("(")
    bindings = []
    if not ts.at(")"):
        while True:
            ts.expect("(")
            prop = ts.expect_kind("ident")
            ts.expect(",")
            bind_property(bindings, name, prop, parse_term(ts))
            ts.expect(")")
            if not ts.accept(","):
                break
    ts.expect(")")
    return ActionTerm(name, tuple(bindings))


def parse_formula_atom(ts: TokenStream) -> Atom:
    name = ts.expect_kind("ident").value
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
    tok = ts.peek()
    if tok.kind == "ident" and tok.value == "true":
        ts.next()
        return TRUE
    if tok.kind == "ident" and tok.value == "false":
        ts.next()
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
    if tok.kind == "sym" and tok.value in ("+", "-"):
        ts.next()
        return Signed(tok.value, parse_term(ts))
    if allow_formula:
        if tok.kind == "sym" and tok.value == "~":
            return parse_formula(ts)
        if tok.kind == "ident" and tok.value in ("true", "false"):
            return parse_formula(ts)
        if tok.kind == "ident" and ts.at("(", 1) and not ts.at("(", 2):
            return parse_formula(ts)
    return parse_term(ts)


def sort_key(value) -> str:
    """Deterministic ordering key used everywhere atoms are emitted."""
    return render(value)

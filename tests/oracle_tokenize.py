"""Reference tokenizer: one match at a time, each token carrying its kind,
its value and its line and column. The differential tests compare
``polcheck.terms.TokenStream`` with it, token for token and error for error.
"""

import re
from collections import namedtuple

from polcheck.errors import ParseError
from polcheck.terms import MAX_NESTING

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<var>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<string>"[^"\n]*")
  | (?P<sym>:-|/\\|\\/|¬|[(){}\[\],.&~+\-=;:|])
    """,
    re.VERBOSE,
)

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

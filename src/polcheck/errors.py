"""Exception hierarchy for the polcheck engine.

Everything raised on purpose derives from PolcheckError so callers can catch
one type at the CLI boundary. Infeasible trace applications and non-compliant
verdicts are ordinary return values, not exceptions.
"""

from __future__ import annotations


class PolcheckError(Exception):
    """Base class for all engine errors. ``path`` names the input file the
    error came from, when it came from one, and prefixes the message."""

    path = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.path is None else f"{self.path}: {text}"


class ParseError(PolcheckError):
    """Malformed input text. Carries a human-readable position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}" if column is None else f"line {line}, col {column}: {message}"
        super().__init__(message)


class NameResolutionError(PolcheckError):
    """A class, property, object, or action name is not declared."""


class SchemaError(PolcheckError):
    """A declaration contradicts the ontology schema (dom/range, arity, reserved names)."""


class CycleError(PolcheckError):
    """Subclass or subproperty edges form a cycle, or patterns are not height-decreasing."""


class ExpansionError(PolcheckError):
    """A state space cannot be expanded (unknown variable, mismatched variable sets)."""


class StructuralError(PolcheckError):
    """An algebra value violates a structural invariant (bad operator shape, guard placement)."""


class TaxonomyError(PolcheckError):
    """A refinement pattern's declared composition type is unknown or does not match its body."""


class OracleScaleError(PolcheckError):
    """A brute-force check or a trace enumeration was asked to go past its enumeration bound."""


class PatternError(PolcheckError):
    """A refinement pattern cannot be applied to a rule (non-unifying bindings, wrong operator, undeclared operand)."""


class BranchLimitError(PolcheckError):
    """Refinement enumeration exceeded the branch limit. Names the multiplying patterns."""

    def __init__(self, limit: int, pattern_ids: tuple[str, ...]):
        self.limit = limit
        self.pattern_ids = pattern_ids
        super().__init__(
            f"refinement exceeded {limit} branches; multiplying patterns: {', '.join(pattern_ids)}"
        )


class EntailmentError(PolcheckError):
    """A postcondition or effect formula references predicates that cannot be resolved."""


class PolicyError(PolcheckError):
    """A policy violates stratification, safety, or the high-level authoring restriction."""

"""Structured errors shared across the package.

Every error carries a stable kebab-case ``code`` and a ``details`` dict of
JSON-safe values so the CLI can emit machine-readable diagnostics.
"""

from __future__ import annotations

from typing import Any


class AmalgamError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details

    def payload(self) -> dict:
        out: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            out["details"] = self.details
        return out


class InvalidGroup(AmalgamError):
    """A multiplication table violates the group axioms."""

    code = "invalid-group"


class ClosureCapExceeded(AmalgamError):
    """A closure or enumeration grew past the configured cap."""

    code = "closure-cap-exceeded"


class NotAPermutation(AmalgamError):
    code = "not-a-permutation"


class ElementOutOfRange(AmalgamError):
    code = "element-out-of-range"


class NotNormal(AmalgamError):
    """Quotient requested by a subgroup that is not normal."""

    code = "not-normal"


class NotAHomomorphism(AmalgamError):
    code = "not-a-homomorphism"


class NotInjective(AmalgamError):
    code = "not-injective"


class IncompatibleAmalgam(AmalgamError):
    """Amalgam data that cannot describe a common subgroup."""

    code = "incompatible-amalgam"


class DisagreeOnAmalgam(AmalgamError):
    """Per-factor maps that differ on the amalgamated subgroup."""

    code = "disagree-on-amalgam"


class NotCentral(AmalgamError):
    code = "not-central"


class NotSolvable(AmalgamError):
    code = "not-solvable"


class IdentityElement(AmalgamError):
    """An operation that needs a nonidentity element got the identity."""

    code = "identity-element"


class IdentityWord(AmalgamError):
    """A word that must be nontrivial reduced to the identity."""

    code = "identity-word"


class NotProperSubgroup(AmalgamError):
    code = "not-proper-subgroup"


class NotTorsionFree(AmalgamError):
    code = "not-torsion-free"


class EmbeddingTypeMismatch(AmalgamError):
    """Subgroup data whose isomorphism type cannot sit where it is claimed to."""

    code = "embedding-type-mismatch"


class TooManyGenerators(AmalgamError):
    """Presentation extraction refused: generator count over the cap."""

    code = "too-many-generators"


class BudgetExceeded(AmalgamError):
    """Search aborted by the node budget before the space was exhausted."""

    code = "budget-exceeded"


class IntegerTooLarge(AmalgamError):
    """A result holds an integer with more decimal digits than can be printed."""

    code = "integer-too-large"


class WordTooLong(AmalgamError):
    code = "word-too-long"


class ParseError(AmalgamError):
    """Syntax error in a spec file, with line/column location."""

    code = "parse-error"

    def __init__(self, message: str, line: int, col: int, expected: str = ""):
        details = {"line": line, "col": col}
        if expected:
            details["expected"] = expected
        super().__init__(message, **details)
        self.line = line
        self.col = col
        self.expected = expected


class ResolutionError(AmalgamError):
    """A name used in a spec file cannot be resolved."""

    code = "resolution-error"

    def __init__(self, message: str, name: str, **details: Any):
        super().__init__(message, name=name, **details)
        self.name = name

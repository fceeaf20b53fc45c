"""Exception hierarchy for the arithplane package.

Every error raised deliberately by this package derives from
:class:`ArithPlaneError`, so callers can catch one type.  The CLI maps
subclasses onto exit codes: configuration problems exit 2, refused
computations (ramified prime, unsatisfied hypothesis) exit 3.
"""

from __future__ import annotations


class ArithPlaneError(Exception):
    """Base class for all arithplane errors."""


class ArithmeticOverflowError(ArithPlaneError):
    """An exact integer intermediate exceeded the 128-bit safety bound."""


class DenominatorNotInvertibleError(ArithPlaneError):
    """A rational coefficient has a denominator divisible by p."""


class InvalidPrimeError(ArithPlaneError):
    """A claimed prime characteristic is not prime (or out of range)."""


class LatticeSyntaxError(ArithPlaneError):
    """Malformed lattice configuration text.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExprSyntaxError(ArithPlaneError):
    """Malformed set expression.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"position {pos}: {message}"
        super().__init__(message)


class UnknownFieldError(ArithPlaneError):
    """A field (or embedding) name is not declared in the lattice."""


class EmbeddingInvalidError(ArithPlaneError):
    """A declared map does not send a root of f_src to a root in the target."""


class AutomorphismGroupError(ArithPlaneError):
    """Declared automorphisms do not form a group under composition mod f."""


class RamifiedPrimeError(ArithPlaneError):
    """A predicate was asked directly about an excluded (ramified) prime."""


class NotLyingOverError(ArithPlaneError):
    """The given primes are not related by the given embedding."""


class FactorizationBudgetError(ArithPlaneError):
    """A composite was not split within the factoring effort bound.

    Carries the unfactored cofactor.
    """

    def __init__(self, cofactor: int, steps: int):
        self.cofactor = cofactor
        super().__init__(
            f"no factor of {cofactor} found within {steps} Pollard-Brent steps"
        )


class HypothesisViolatedError(ArithPlaneError):
    """A formula's validity hypothesis fails for the requested input."""

"""Exception hierarchy shared across the library.

Domain errors, and only they, carry machine-readable certificates
(``payload()``), which the CLI emits on exit code 2.  Every other error is
bad input: the CLI writes its message to stderr and exits 1.
"""

from __future__ import annotations


class ExpoFieldError(Exception):
    """Base class for all library errors."""


class DomainError(ExpoFieldError):
    """An input was well-formed but mathematically rejected."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class DimensionMismatch(ExpoFieldError):
    pass


class UnknownVariable(ExpoFieldError):
    pass


class CyclotomicOrderMismatch(ExpoFieldError):
    pass


class ExprSyntaxError(ExpoFieldError):
    """Parse failure with position information."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class UnsupportedShape(DomainError):
    pass


class Inconsistent(DomainError):
    pass


class LinearDependence(DomainError):
    """Arguments of an exponential graph are Q-linearly dependent."""

    def __init__(self, certificate, message: str = "arguments are Q-linearly dependent"):
        self.certificate = list(certificate)
        super().__init__(f"{message}: {self.certificate}")

    def payload(self) -> dict:
        return {"error": "LinearDependence", "certificate": self.certificate}


class MissingExponential(DomainError):
    """A required exponential value cannot be materialized.

    Raised when auto-extension is disabled, or when the value would need an
    N-th root of an existing one (never available in the purely
    transcendental regime).
    """

    def __init__(self, detail: str, root_specs=None):
        self.root_specs = root_specs or []
        super().__init__(detail)

    def payload(self) -> dict:
        return {
            "error": "MissingExponential",
            "detail": str(self),
            "root_specs": [[str(v), d] for v, d in self.root_specs],
        }


class ExponentialConflict(DomainError):
    """The input forces two different values of E at the same argument."""


class IllFormedExtension(DomainError):
    pass


class WellDefFailure(DomainError):
    """A kernel relation among graph arguments has value product != 1."""

    def __init__(self, vector, product):
        self.vector = list(vector)
        self.product = product
        super().__init__(
            f"homomorphism not well defined: kernel vector {self.vector} "
            f"has value product {product}"
        )

    def payload(self) -> dict:
        return {
            "error": "WellDefFailure",
            "vector": self.vector,
            "product": str(self.product),
        }


class NotTranscendental(DomainError):
    pass


class ZeroValue(DomainError):
    pass


class SchemaError(ExpoFieldError):
    """Invalid JSON document; ``path`` is a JSON pointer to the offender."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")

"""Shared exception types.

Exit-code mapping for the CLI lives in cli.py; library code raises these
and never calls sys.exit.
"""


class GroupRelaxError(Exception):
    """Base class for all library errors."""


class Infeasible(GroupRelaxError):
    """No feasible point exists (LP phase 1, modular solve, or Dijkstra)."""


class Unbounded(GroupRelaxError):
    """LP objective decreases along a recession direction."""


class CapExceeded(GroupRelaxError):
    """An enumeration exceeded its configured cap."""


class DenseLimitExceeded(GroupRelaxError):
    """Dense matrix construction requested beyond the dense-mode limit."""


class NotPureILP(GroupRelaxError):
    """Input model has a continuous variable or an unrepresentable domain."""


class MalformedMPS(GroupRelaxError):
    """MPS syntax error; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PatternLimitExceeded(GroupRelaxError):
    """Cutting-stock pattern enumeration exceeded the cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"enumerated {count} patterns, cap is {cap}")
        self.count = count
        self.cap = cap


class EmptyWidthBand(GroupRelaxError):
    """Cutting-stock width band [ceil(v1*L), floor(v2*L)] is empty."""


class DiagnosticUnavailable(GroupRelaxError):
    """A diagnostic needs |K*| but no oracle value or estimate is available."""


class CertificateError(GroupRelaxError):
    """A correctness certificate failed: a computed object broke a law it
    must satisfy by construction, which indicates a library fault."""

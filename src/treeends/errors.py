"""Exception types shared across the package."""

from __future__ import annotations


class TreeEndsError(Exception):
    """Base class for every domain error raised by this package."""


class ParseError(TreeEndsError):
    """Malformed input text (germ file, sequence literal)."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationFailed(TreeEndsError):
    """A germ failed validation.  Carries the full report."""

    def __init__(self, report) -> None:
        detail = "; ".join(v.message for v in report.violations)
        super().__init__(f"invalid germ: {detail}")
        self.report = report


class DomainError(TreeEndsError):
    """An operation was called outside its stated domain."""


class SizeCeilingError(TreeEndsError):
    """A construction would exceed the configured cell/node ceiling."""

    def __init__(self, what: str, count: int, ceiling: int) -> None:
        super().__init__(f"{what} exceeds the size ceiling ({count} > {ceiling})")
        self.what = what
        self.count = count
        self.ceiling = ceiling

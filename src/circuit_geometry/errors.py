"""The package's one refusal type.

A ``ValidationError`` says an input lies outside what an operation is
defined on: a malformed file, a mismatched qubit count, a point on the
chart's branch cut, a slice coefficient above the synthesis bound, a
penalty too large to sample.  A fault of the package itself raises
``RuntimeError``.
"""


class ValidationError(ValueError):
    """An input violates a type invariant or lies outside an operation's domain."""

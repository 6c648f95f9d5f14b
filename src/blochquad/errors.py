"""Exception types shared across the package.

All are ValueError subclasses so callers that do not care about the
fine-grained kind can catch the builtin.
"""


class NotHaarFormError(ValueError):
    """Operator or map carries linear terms where a trace-state form is required."""


class NotApplicableError(ValueError):
    """Requested check needs a certified sphere-preserving trace-state map."""

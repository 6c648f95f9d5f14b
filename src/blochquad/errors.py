"""Exception types shared across the package.

All are ValueError subclasses so callers that do not care about the
fine-grained kind can catch the builtin.
"""


class NotApplicableError(ValueError):
    """Requested check needs a certified sphere-preserving trace-state map."""

"""Shared exception types."""

#: Characters of an offending value that an error message echoes.
ECHO_CHARS = 40


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def echo(text: str) -> str:
    """`text` for an error message: its first ECHO_CHARS characters, then "…" if cut."""
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "…"

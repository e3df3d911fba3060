"""Shared exception types."""

#: Characters of an offending value that an error message echoes.
ECHO_CHARS = 40


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def echo(text: str, chars: int = ECHO_CHARS) -> str:
    """`text` for an error message: its first `chars` characters, then "…" if cut."""
    return text if len(text) <= chars else text[:chars] + "…"

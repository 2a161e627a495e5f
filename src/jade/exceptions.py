"""Exception types shared across the package, and the text-file opener that raises one."""

from contextlib import contextmanager

__all__ = ["JadeError", "ValidationError", "EstimationError"]


class JadeError(Exception):
    """Base class for all package errors."""


class ValidationError(JadeError, ValueError):
    """Raised when a configuration or input violates its invariants."""


class EstimationError(JadeError, RuntimeError):
    """Raised when an estimation stage cannot produce a usable result.

    Carries the name of the pipeline stage that failed so callers can
    report where an end-to-end run broke down.
    """

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@contextmanager
def open_text(path):
    """``open(path)`` for reading UTF-8 text; bytes that are not UTF-8 raise ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text") from exc

"""Exception hierarchy shared by all memrerank modules.

The CLI maps each base class onto an exit code: ``ConfigError`` (2),
``MissingInputError`` (3), ``ValidationError`` (4) and ``BackendError``
(5). A subclass exists only where code tells it apart:

- ``ParseError`` and ``SchemaViolation`` are the exit-4 errors that carry
  a location (``path``, ``line``, ``column``) or a ``field``;
- ``MemoryMismatch`` is the exit-4 error of memories that are not their
  candidates', for which the CLI names the memories file, and
  ``MissingGroundTruth`` that of a query or dataset without the ground
  truth a stage needs, for which it names the annotations file;
- ``BackendUnavailableError`` is the transient failure the dispatcher
  retries, an empty narration included; any other ``BackendError`` is
  permanent.
"""

from __future__ import annotations

from pathlib import Path


class MemrerankError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MemrerankError):
    """Invalid or contradictory run configuration."""


class MissingInputError(MemrerankError):
    """A pipeline stage input file is absent; names the producing stage."""

    def __init__(self, stage: str, path: Path):
        self.stage = stage
        super().__init__(f"missing input produced by stage '{stage}': {path} not found")


class ValidationError(MemrerankError):
    """Input data violates a structural or numeric contract."""


class ParseError(ValidationError):
    """A file is not syntactically valid; carries location information."""

    def __init__(self, path: str, line: int, column: int, detail: str):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(f"{path}:{line}:{column}: {detail}")


class SchemaViolation(ValidationError):
    """A parsed record breaks the declared schema; names the field.
    ``reason`` is the message without its "schema violation in " prefix,
    for a violation that wraps this one and says the prefix itself."""

    def __init__(self, field: str, detail: str = ""):
        self.field = field
        self.reason = f"field '{field}'" + (f": {detail}" if detail else "")
        super().__init__(f"schema violation in {self.reason}")


class MemoryMismatch(ValidationError):
    """Episodic memories that are not their candidates': too few, or not
    spanning them, as after another plan."""


class MissingGroundTruth(ValidationError):
    """Annotations that lack the ground truth a stage needs: the oracle's
    for a query it selects for, or ``eval``'s for every query."""


class BackendError(MemrerankError):
    """A multimodal-backend failure; permanent unless a subclass below."""


class BackendUnavailableError(BackendError):
    """A transient backend failure, a blank narration included; the
    dispatcher retries it, then re-raises it as ``failed after N attempts``."""

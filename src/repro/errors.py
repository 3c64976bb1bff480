"""Exception hierarchy for the YAT system.

Every error raised by this package derives from :class:`YatError`, so
applications embedding the converter can catch a single base class. The
subclasses mirror the processing stages of the paper: model handling,
YATL parsing, rule evaluation, typing, and wrapper I/O.
"""

from __future__ import annotations


class YatError(Exception):
    """Base class of all errors raised by the YAT system."""


class ModelError(YatError):
    """A model or pattern is malformed (e.g. a union inside a union)."""


class InstantiationError(ModelError):
    """An instantiation check failed where success was required."""


class SyntaxYatError(YatError):
    """Problem while lexing or parsing YATL textual syntax."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)

    def __reduce__(self):
        # The default exception reduction replays __init__ with
        # self.args, which would re-append the location suffix; rebuild
        # from the finished message instead, so a pickled error reloads
        # with the message it was raised with.
        return (_rebuild_error, (type(self), self.args, self.__dict__))


class EvaluationError(YatError):
    """A rule or program could not be evaluated."""


class NonDeterminismError(EvaluationError):
    """The same Skolem identifier was associated to two distinct values.

    Section 3.1 of the paper: "we accept potentially non-deterministic
    programs and alert the user at run time when the same pattern name is
    associated to two distinct values."
    """

    def __init__(self, skolem_key: str, message: str = "") -> None:
        self.skolem_key = skolem_key
        super().__init__(
            message
            or f"non-deterministic program: two distinct values for {skolem_key}"
        )

    def __reduce__(self):
        # args holds only the rendered message; replaying __init__ with
        # it would misplace it into skolem_key and reload the error with
        # a different message. See SyntaxYatError.
        return (_rebuild_error, (type(self), self.args, self.__dict__))


class DanglingReferenceError(EvaluationError):
    """A reference (&) points to an identifier no rule produced."""


class CyclicProgramError(EvaluationError):
    """The program was rejected by the cycle detector of Section 3.4."""


class UnconvertedDataError(EvaluationError):
    """Raised by the Rule Exception mechanism of Section 3.5.

    When run-time typing is on, input data matched by no conversion rule
    triggers this error instead of being silently ignored.
    """


class TypingError(YatError):
    """Static type checking (Section 3.5) failed."""


class CompositionError(YatError):
    """Two programs could not be composed (incompatible signatures)."""


class CustomizationError(YatError):
    """Program instantiation (Section 4.1) failed."""


class FunctionError(EvaluationError):
    """An external function or predicate is unknown or misbehaved."""


class WrapperError(YatError):
    """An import/export wrapper failed to translate data."""


class SchemaError(YatError):
    """A substrate schema (relational, ODMG, DTD) is invalid or violated."""


class LibraryError(YatError):
    """The program/model library could not save or load an item."""


def _rebuild_error(cls, args, state):
    """Unpickle helper for errors whose ``__init__`` signature differs
    from ``Exception.args`` (they carry extra positional context)."""
    error = cls.__new__(cls)
    Exception.__init__(error, *args)
    error.__dict__.update(state)
    return error

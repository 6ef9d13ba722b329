"""Exception hierarchy for the absix engine.

Every domain error raised by the public API derives from :class:`AbsixError`,
so callers (notably the CLI) can separate domain failures from genuine bugs.
A failed internal invariant is such a bug: it raises :class:`InternalError`,
which deliberately does not derive from :class:`AbsixError`, so no handler of
domain errors can mistake it for one.
"""

from __future__ import annotations


class AbsixError(Exception):
    """Base class for all engine errors."""


class DimensionError(AbsixError):
    """Matrix shapes are incompatible with the requested operation."""


class PairingNotPerfect(AbsixError):
    """A pairing matrix that must be invertible is singular (or not square)."""


class WeightMismatch(AbsixError):
    """Pure objects of different weights were combined."""


class NotIdempotent(AbsixError):
    """The block matrix handed to idempotent_kernel is not idempotent."""


class PreconditionViolated(AbsixError):
    """A documented operation precondition fails exactly."""


class ParseError(AbsixError):
    """An atlas document does not conform to the schema.

    ``location`` is a dotted/indexed path into the document, e.g.
    ``strata[2].pairings[1]``.
    """

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}" if location else message)


class InvalidAtlas(AbsixError):
    """An operation was asked to run on an atlas that fails validation.

    Carries the offending :class:`~absix.atlas.ValidationReport` when one is
    available.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class UnknownCorpusItem(AbsixError):
    """No builtin atlas is registered under the requested name."""


class MissingSelfIntersections(AbsixError):
    """The atlas lacks the optional self-intersection extension field."""


class InternalError(Exception):
    """An internal invariant of the engine failed: a bug in absix, not in its input.

    Raised by explicit checks, never ``assert``, so the invariants stay on
    under ``python -O``.
    """

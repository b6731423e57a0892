"""Exception types shared across the package, the check on user-set sizes,
the generation cap that `bispecial` and `spectral` share, and the names a
user picks from: the bispecial tree families and the verification suites
(each suite's criterion numbers)."""

from __future__ import annotations

FAMILIES = ("T", "T1", "T2", "T3", "T4")

# Deepest level the unpruned tree walks build, and most steps
# `minimal_length_sequence` takes, as it measures those levels.  Over an
# even alphabet the state walk keeps at most two states a level, so nothing
# else bounds it; every count of a level this deep has under 2,710 digits.
# Minimal lengths grow like lambda^i with lambda < 255, so the cost of their
# sums is quadratic in the count: at this cap the costliest alphabet,
# {253,255}, takes about 8 ms on a 2-core machine and holds under 1 MB.
MAX_GENERATION = 1_000

SUITES: dict[str, tuple[int, ...]] = {
    "mistake": (3,),
    "th1": (4,),
    "p3p": (6,),
    "avti": (7,),
    "evenli": (8,),
    "oddli": (9,),
    "table": (10,),
    "all": tuple(range(1, 13)),
}


class SmoothWordsError(Exception):
    """Base class for all errors raised by this package."""


class DerivationError(SmoothWordsError):
    """A derivation operator was applied outside its domain.

    Carries the report describing which run broke the rules, so callers
    can show exactly where a word stops being derivable.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotDerivableError(DerivationError):
    """The two-sided derivative is undefined for this word."""


class NotRDerivableError(DerivationError):
    """The right-side derivative is undefined for this word."""


class InvalidFamilyError(SmoothWordsError):
    """Requested a bispecial tree family that does not exist for the alphabet."""


class NotPrimitiveError(SmoothWordsError):
    """Matrix is not primitive (no small power is strictly positive)."""


class NoConvergenceError(SmoothWordsError):
    """Iterative eigenvalue estimation failed to stabilise."""


class BoundViolationError(SmoothWordsError):
    """A fitted growth bound failed verification against enumerated data."""


class ConstructionError(SmoothWordsError):
    """An internal constructive step produced an object failing its own checks."""


class ResourceCapError(SmoothWordsError):
    """Refused to start a computation that exceeds a configured size cap."""


class UsageError(ValueError):
    """A malformed or out-of-domain argument; raised by input validation
    only, so the CLI can tell it from a fault inside the program."""


def _check_size(what: str, value: int, cap: int | None = None) -> None:
    """Refuse a user-set size that is not an integer (a bool is not), is
    below zero or is above its cap, if it has one, before any work."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise UsageError(f"{what} must be nonnegative, got {value}")
    if cap is not None and value > cap:
        raise ResourceCapError(f"{what} {value} above cap {cap}")

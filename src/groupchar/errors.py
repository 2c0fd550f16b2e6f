"""Exception types shared across the library."""

from __future__ import annotations


class GroupCharError(Exception):
    """Base class for all library-specific errors."""


class BoundExceeded(GroupCharError):
    """An exhaustive operation was asked to run past its configured bound."""

    def __init__(self, what: str, size: int, bound: int):
        super().__init__(f"{what}: size {size} exceeds bound {bound}")
        self.what = what
        self.size = size
        self.bound = bound


class NotNormal(GroupCharError, ValueError):
    """A subgroup that must be normal is not."""


class NoSuitablePrime(GroupCharError):
    """The modular prime search ran out of candidates (configuration error)."""


class SplitFailure(GroupCharError):
    """Simultaneous eigenspace splitting did not reach one-dimensional spaces."""


class ContractViolation(GroupCharError):
    """Two internally equivalent computations disagreed; a library bug."""


class InvalidAction(GroupCharError):
    """A map that must be a homomorphism into automorphisms is not one."""


class NotPrimePower(GroupCharError):
    """An argument that must be a prime power is not."""


class EvenCharacteristic(GroupCharError):
    """Operation requires an odd field characteristic."""


class EvenOrder(GroupCharError):
    """Operation requires an odd group order."""


class UsageError(GroupCharError, ValueError):
    """An argument is malformed, out of range, or names nothing that exists."""


class ParseError(GroupCharError):
    """A group or matrix file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TheoremViolation(GroupCharError):
    """A checked mathematical claim failed on a concrete input.

    Carries the full witness so a violation can be inspected and reported;
    it is never swallowed.
    """

    def __init__(self, claim: str, witness: dict):
        detail = ", ".join(f"{k}={v}" for k, v in sorted(witness.items()))
        super().__init__(f"{claim} [{detail}]")
        self.claim = claim
        self.witness = witness

"""Shared exception types.

The command line front end reports an error by its class's `kind` and
`exit_code`: the stderr line ``error: <kind>: <message>``, then that exit code.
"""

from __future__ import annotations


class WallcrossError(Exception):
    """Base class for all errors raised by this package."""

    kind = "validation"
    exit_code = 2


class ValidationError(WallcrossError):
    """Input data violates a structural precondition."""


class FirstTypeWallError(WallcrossError):
    """Two non-proportional charges have exactly parallel central charges,
    so ray grouping or phase comparison is ambiguous."""

    kind = "first-type-wall"


class SecondTypeWallError(WallcrossError):
    """A tracked charge splits through a charge whose phase sits on the
    sector boundary; transport across this point is not defined."""

    kind = "second-type-wall"
    exit_code = 3


class ReconstructionError(WallcrossError):
    """The element is not the clockwise ray product of the spectrum read
    off its single-letter words, so it is not a clockwise sector product."""

    kind = "reconstruction"
    exit_code = 4

"""Shared exception types.

Exit-code mapping used by the command line front end:
  ValidationError / FirstTypeWallError -> 2
  SecondTypeWallError                  -> 3
  ReconstructionError                  -> 4
"""

from __future__ import annotations


class WallcrossError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WallcrossError):
    """Input data violates a structural precondition."""


class FirstTypeWallError(WallcrossError):
    """Two non-proportional charges have exactly parallel central charges,
    so ray grouping or phase comparison is ambiguous."""


class SecondTypeWallError(WallcrossError):
    """A tracked charge splits through a charge whose phase sits on the
    sector boundary; transport across this point is not defined."""


class ReconstructionError(WallcrossError):
    """The element is not the clockwise ray product of the spectrum read
    off its single-letter words, so it is not a clockwise sector product."""

"""Quadratic refinements of the mod-2 intersection pairing.

A refinement assigns a sign to every mod-2 homology class so that

    sigma(x) sigma(y) = (-1)^{x . y} sigma(x + y).

It is determined by its values on the basis; evaluation expands a class
over the basis in a fixed order, which is well defined because the
intersection pairing is symmetric mod 2.  The degree-1 cohomology group
acts on refinements by sign flips along a mod-2 covector, freely and
transitively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .algebra import AlgebraElement, BracketMode, Spectrum
from .errors import ValidationError
from .lattice import _GEOMETRY, ChargeLattice, SurfaceModel, _checker, _integers


@dataclass(frozen=True)
class QuadraticRefinement:
    surface: SurfaceModel
    basis_signs: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.surface, SurfaceModel):
            raise ValidationError(f"refinement surface must be a SurfaceModel, got {self.surface!r}")
        signs = _integers(self.basis_signs, "refinement values")
        object.__setattr__(self, "basis_signs", signs)
        if len(signs) != self.surface.dim:
            raise ValidationError("refinement needs one sign per homology basis vector")
        for s in signs:
            if s not in (1, -1):
                raise ValidationError(f"refinement values must be +1 or -1, got {s!r}")

    def evaluate(self, gamma: Sequence[int]) -> int:
        """Sign of an integer homology vector; depends only on it mod 2."""
        gamma = _integers(gamma, "homology vector")
        if len(gamma) != self.surface.dim:
            raise ValidationError("homology vector length does not match surface")
        support = [i for i, g in enumerate(gamma) if g % 2]
        sign = 1
        inter = self.surface.intersection
        for a, i in enumerate(support):
            if self.basis_signs[i] < 0:
                sign = -sign
            for j in support[a + 1:]:
                if inter[i][j] % 2:
                    sign = -sign
        return sign


@dataclass(frozen=True)
class CohomologyAction:
    """Mod-2 covector acting on refinements by sign flips."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(b % 2 for b in _integers(self.bits, "action bits"))
        object.__setattr__(self, "bits", bits)

    def evaluate(self, gamma: Sequence[int]) -> int:
        gamma = _integers(gamma, "homology vector")
        if len(gamma) != len(self.bits):
            raise ValidationError("homology vector length does not match action")
        return sum(b * (g % 2) for b, g in zip(self.bits, gamma)) % 2

    def apply(self, sigma: QuadraticRefinement) -> QuadraticRefinement:
        _check_args(sigma=sigma)
        if len(self.bits) != sigma.surface.dim:
            raise ValidationError("action length does not match surface")
        signs = tuple(
            -s if b else s for s, b in zip(sigma.basis_signs, self.bits)
        )
        return QuadraticRefinement(sigma.surface, signs)


_check_args = _checker({**_GEOMETRY, "sigma": QuadraticRefinement, "action": CohomologyAction,
                        "spectrum": Spectrum, "element": AlgebraElement})


def _check_surface(sigma: QuadraticRefinement, lattice: ChargeLattice) -> None:
    """A refinement of another surface's form would not respect this one's."""
    if sigma.surface != lattice.surface:
        raise ValidationError("refinement surface does not match the lattice")


def all_refinements(surface: SurfaceModel) -> Iterator[QuadraticRefinement]:
    _check_args(surface=surface)  # checked at the call, not at the first item
    return (QuadraticRefinement(surface, signs)
            for signs in itertools.product((1, -1), repeat=surface.dim))


def twist_spectrum(
    sigma: QuadraticRefinement, lattice: ChargeLattice, spectrum: Spectrum
) -> Spectrum:
    """Multiply each weight by the refinement sign of the charge boundary.

    The result is independent of the chosen refinement when the input
    transforms covariantly under the cohomology action."""
    _check_args(sigma=sigma, lattice=lattice, spectrum=spectrum)
    _check_surface(sigma, lattice)
    return Spectrum(
        {ch: Fraction(sigma.evaluate(lattice.boundary_of(ch))) * c for ch, c in spectrum.items()}
    )


def covariant_spectrum(
    action: CohomologyAction, lattice: ChargeLattice, spectrum: Spectrum
) -> Spectrum:
    """Companion spectrum for the acted refinement: flip the weight sign
    wherever the action is odd on the charge boundary."""
    _check_args(action=action, lattice=lattice, spectrum=spectrum)
    return Spectrum(
        {ch: -c if action.evaluate(lattice.boundary_of(ch)) else c for ch, c in spectrum.items()}
    )


def to_twisted(sigma: QuadraticRefinement, element: AlgebraElement) -> AlgebraElement:
    """Algebra morphism from plain to twisted mode: each generator picks up
    the refinement sign of its boundary.  The generator order does not
    depend on the mode, so each normal word keeps its letter positions."""
    _check_args(sigma=sigma, element=element)
    alg = element.algebra
    if alg.mode is not BracketMode.PLAIN:
        raise ValidationError("to_twisted expects an element in plain mode")
    _check_surface(sigma, alg.lattice)
    signs = [sigma.evaluate(alg.lattice.boundary_of(ch)) for ch in alg.order.charges]
    return AlgebraElement(alg.with_mode(BracketMode.TWISTED), {
        word: coeff * math.prod(map(signs.__getitem__, word))
        for word, coeff in element._terms.items()
    })

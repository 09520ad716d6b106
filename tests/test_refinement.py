from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_setup
from wallcross.algebra import BracketMode, PbwAlgebra, Spectrum
from wallcross.errors import ValidationError
from wallcross.lattice import Charge, SurfaceModel
from wallcross.refinement import (
    CohomologyAction,
    QuadraticRefinement,
    all_refinements,
    covariant_spectrum,
    to_twisted,
    twist_spectrum,
)
from wallcross.scenario import parse_scenario


def plus_refinement(genus: int) -> QuadraticRefinement:
    surface = SurfaceModel.standard(genus)
    return QuadraticRefinement(surface, (1,) * surface.dim)


def mod2_vectors(dim: int):
    return list(itertools.product((0, 1), repeat=dim))


# -- sign evaluation ----------------------------------------------------


def test_evaluate_examples_genus_one():
    sigma = plus_refinement(1)
    assert sigma.evaluate((1, 0)) == 1
    assert sigma.evaluate((0, 1)) == 1
    assert sigma.evaluate((1, 1)) == -1
    assert sigma.evaluate((0, 0)) == 1
    # only the mod-2 class matters
    assert sigma.evaluate((2, 3)) == sigma.evaluate((0, 1))
    assert sigma.evaluate((3, 3)) == -1
    assert sigma.evaluate((-1, 1)) == -1


def test_evaluate_defining_relation_exhaustive():
    # sigma(x) sigma(y) = (-1)^{x.y} sigma(x+y) for every refinement, genus 1 and 2
    for genus in (1, 2):
        surface = SurfaceModel.standard(genus)
        vectors = mod2_vectors(surface.dim)
        for sigma in all_refinements(surface):
            for x in vectors:
                for y in vectors:
                    lhs = sigma.evaluate(x) * sigma.evaluate(y)
                    parity = surface.pairing_h1(x, y) % 2
                    total = tuple(a + b for a, b in zip(x, y))
                    assert lhs == (-1) ** parity * sigma.evaluate(total)


@pytest.mark.parametrize("build, message", [
    (lambda s: QuadraticRefinement(s, (1.0, -1.0)), "refinement values must be integers, got 1.0"),
    (lambda s: QuadraticRefinement(s, (True, True)), "refinement values must be integers, got True"),
    (lambda s: QuadraticRefinement(s, None), "refinement values must be a sequence of integers"),
    (lambda s: CohomologyAction((1.5, 0)), "action bits must be integers, got 1.5"),
    (lambda s: CohomologyAction(None), "action bits must be a sequence of integers"),
], ids=["signs_float", "signs_bool", "signs_none", "bits_float", "bits_none"])
def test_signs_and_bits_are_ints_not_bools(build, message):
    with pytest.raises(ValidationError, match=message):
        build(SurfaceModel.standard(1))


def test_refinement_validation():
    surface = SurfaceModel.standard(1)
    with pytest.raises(ValidationError):
        QuadraticRefinement(surface, (1,))
    with pytest.raises(ValidationError):
        QuadraticRefinement(surface, (1, 0))
    sigma = plus_refinement(1)
    with pytest.raises(ValidationError):
        sigma.evaluate((1, 0, 0))


# -- cohomology action --------------------------------------------------


def test_action_flip_example():
    sigma = plus_refinement(1)
    moved = CohomologyAction((1, 0)).apply(sigma)
    assert moved.evaluate((1, 0)) == -1
    assert moved.evaluate((0, 1)) == 1
    assert moved.evaluate((1, 1)) == 1


def test_action_covariance_identity():
    # (eps.sigma)(x) = (-1)^{eps(x)} sigma(x), exhaustively at genus 1 and 2
    for genus in (1, 2):
        surface = SurfaceModel.standard(genus)
        vectors = mod2_vectors(surface.dim)
        for sigma in all_refinements(surface):
            for bits in vectors:
                action = CohomologyAction(bits)
                moved = action.apply(sigma)
                for x in vectors:
                    expected = (-1) ** action.evaluate(x) * sigma.evaluate(x)
                    assert moved.evaluate(x) == expected


def test_action_torsor_free_and_transitive():
    for genus in (1, 2):
        surface = SurfaceModel.standard(genus)
        base = plus_refinement(genus)
        orbit = {CohomologyAction(bits).apply(base).basis_signs
                 for bits in mod2_vectors(surface.dim)}
        assert len(orbit) == 2 ** surface.dim
        assert orbit == {s.basis_signs for s in all_refinements(surface)}


def test_action_composition():
    surface = SurfaceModel.standard(2)
    rng = random.Random(11)
    for _ in range(20):
        sigma = QuadraticRefinement(
            surface, tuple(rng.choice((1, -1)) for _ in range(4))
        )
        e1 = tuple(rng.randrange(2) for _ in range(4))
        e2 = tuple(rng.randrange(2) for _ in range(4))
        both = tuple(a + b for a, b in zip(e1, e2))
        step = CohomologyAction(e2).apply(sigma)
        assert CohomologyAction(e1).apply(step) == CohomologyAction(both).apply(sigma)


# -- spectrum twist ------------------------------------------------------


def run_example_spectrum(s):
    return Spectrum({
        s.g1: Fraction(1),
        s.g2: Fraction(1),
        s.g1 + s.g2: Fraction(1),
    })


def test_twist_spectrum_example():
    s = build_setup()
    sigma = plus_refinement(1)
    twisted = twist_spectrum(sigma, s.lattice, run_example_spectrum(s))
    assert twisted.coefficient(s.g1) == 1
    assert twisted.coefficient(s.g2) == 1
    assert twisted.coefficient(s.g1 + s.g2) == -1


def test_twist_spectrum_refinement_independence():
    # covariant inputs give the same twisted output for every refinement
    s = build_setup()
    base = run_example_spectrum(s)
    sigma0 = plus_refinement(1)
    reference = twist_spectrum(sigma0, s.lattice, base)
    for bits in mod2_vectors(2):
        action = CohomologyAction(bits)
        sigma = action.apply(sigma0)
        companion = covariant_spectrum(action, s.lattice, base)
        assert twist_spectrum(sigma, s.lattice, companion) == reference


# -- algebra morphism ----------------------------------------------------


def make_plain_algebra(cutoff=2):
    s = build_setup(cutoff=cutoff)
    return s, PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc)


def random_element(alg, rng):
    members = alg.order.charges
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        word = tuple(rng.choice(members) for _ in range(rng.randrange(0, 3)))
        terms[word] = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
    return alg.from_terms(terms)


def test_to_twisted_generator_signs():
    s, alg = make_plain_algebra()
    sigma = plus_refinement(1)
    image = to_twisted(sigma, alg.generator(s.g1 + s.g2))
    twisted = alg.with_mode(BracketMode.TWISTED)
    assert image == -1 * twisted.generator(s.g1 + s.g2)
    assert to_twisted(sigma, alg.generator(s.g1)) == twisted.generator(s.g1)


def test_to_twisted_rejects_twisted_input():
    s, alg = make_plain_algebra()
    twisted = alg.with_mode(BracketMode.TWISTED)
    with pytest.raises(ValidationError):
        to_twisted(plus_refinement(1), twisted.one())


def test_refinement_of_another_surface_is_rejected():
    # crossing.scn's surface has the form ((0, 1), (-1, 0)); a refinement of
    # ((0, 2), (-2, 0)) has the same dimension, but its signs break the
    # morphism: e(0,1) e(1,0) would map to -e(1,1) + e(1,0) e(0,1), the
    # product of the images to e(1,1) + e(1,0) e(0,1)
    sc = parse_scenario((Path(__file__).resolve().parent.parent / "scenarios"
                         / "crossing.scn").read_text(encoding="utf-8"))
    alg = PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, sc.trunc, sc.mode)
    a, b = alg.generator(Charge((0, 1))), alg.generator(Charge((1, 0)))
    own = QuadraticRefinement(sc.lattice.surface, (1, 1))
    assert to_twisted(own, a * b) == to_twisted(own, a) * to_twisted(own, b)
    foreign = QuadraticRefinement(SurfaceModel(((0, 2), (-2, 0))), (1, 1))
    for call in (lambda: to_twisted(foreign, a * b),
                 lambda: twist_spectrum(foreign, sc.lattice, sc.spectrum)):
        with pytest.raises(ValidationError, match="^refinement surface does not match the lattice$"):
            call()


def test_with_mode_keeps_explicit_members():
    # an algebra on three of the cone's five members: its twisted algebra,
    # and so to_twisted, stay on those three
    s, cone = make_plain_algebra()
    members = (s.g1, s.g2, s.g1 + s.g2)
    alg = PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, members=members)
    assert len(cone.members) == 5
    twisted = alg.with_mode(BracketMode.TWISTED)
    assert twisted.members == members
    assert twisted.order.charges == alg.order.charges
    assert twisted.signature[3] == alg.signature[3] == alg.order.charges
    sigma = plus_refinement(1)
    spectrum = Spectrum({s.g1: Fraction(1), s.g2: Fraction(-1, 2), s.g1 + s.g2: Fraction(2)})
    assert to_twisted(sigma, alg.ray_product(spectrum)) == twisted.ray_product(
        twist_spectrum(sigma, s.lattice, spectrum))


def test_to_twisted_is_algebra_morphism():
    _, alg = make_plain_algebra(cutoff=3)
    rng = random.Random(23)
    sigmas = list(all_refinements(SurfaceModel.standard(1)))
    for _ in range(15):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        for sigma in sigmas:
            lhs = to_twisted(sigma, a * b)
            rhs = to_twisted(sigma, a) * to_twisted(sigma, b)
            assert lhs == rhs


def from_terms_to_twisted(sigma, element):
    """Reference map: each charge word signed letterwise and brought back to
    normal form by from_terms in the twisted algebra."""
    alg = element.algebra
    terms = {}
    for word, coeff in element.terms():
        sign = 1
        for ch in word:
            sign *= sigma.evaluate(alg.lattice.boundary_of(ch))
        terms[word] = coeff * sign
    return alg.with_mode(BracketMode.TWISTED).from_terms(terms)


@settings(max_examples=60)
@given(data=st.data())
def test_to_twisted_matches_the_from_terms_route(data):
    _, alg = make_plain_algebra(cutoff=data.draw(st.integers(1, 4)))
    sigma = data.draw(st.sampled_from(list(all_refinements(SurfaceModel.standard(1)))))
    words = data.draw(st.lists(st.lists(st.sampled_from(alg.order.charges), max_size=4),
                               min_size=1, max_size=5))
    element = alg.from_terms({
        tuple(word): Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        for word in words
    })
    assert to_twisted(sigma, element) == from_terms_to_twisted(sigma, element)


def test_twisted_product_from_covariant_spectra():
    # the twisted sector product is the same for every refinement once the
    # plain weights are transformed covariantly alongside it
    s, alg = make_plain_algebra()
    twisted_alg = alg.with_mode(BracketMode.TWISTED)
    base = run_example_spectrum(s)
    sigma0 = plus_refinement(1)
    reference = twisted_alg.ray_product(twist_spectrum(sigma0, s.lattice, base))
    for bits in mod2_vectors(2):
        action = CohomologyAction(bits)
        sigma = action.apply(sigma0)
        companion = covariant_spectrum(action, s.lattice, base)
        plain_product = alg.ray_product(companion)
        twisted_spec = twist_spectrum(sigma, s.lattice, companion)
        assert to_twisted(sigma, plain_product) == twisted_alg.ray_product(twisted_spec)
        assert twisted_alg.ray_product(twisted_spec) == reference

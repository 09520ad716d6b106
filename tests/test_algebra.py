from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
import re
import signal
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import build_setup, tied_geometry
from wallcross.algebra import AlgebraElement, BracketMode, PbwAlgebra, Spectrum
from wallcross.engine import VariationPath
from wallcross.errors import (
    FirstTypeWallError,
    ReconstructionError,
    ValidationError,
    WallcrossError,
)
from wallcross.lattice import (
    CentralCharge,
    Charge,
    ChargeLattice,
    QuadraticForm,
    Sector,
    SurfaceModel,
    TruncationSet,
    charges_parallel,
    cross,
)
from wallcross.scenario import parse_scenario


def _ch(*coords: int) -> Charge:
    return Charge(coords)


def make_algebra(cutoff=2, mode="plain", **kw) -> PbwAlgebra:
    s = build_setup(cutoff=cutoff, **kw)
    return PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, mode)


def as_dict(elem: AlgebraElement) -> dict:
    return {tuple(ch.coords for ch in w): c for w, c in elem.terms()}


# ----------------------------------------------------------------------
# reference oracle: independent recursive rewriter on coordinate tuples,
# hand-frozen generator order, pairing <a,b> = a1*b2 - a2*b1
# ----------------------------------------------------------------------

REF_ORDER_2 = ((0, 1), (0, 2), (1, 1), (1, 0), (2, 0))
REF_ORDER_4 = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 2), (1, 1),
    (2, 2), (2, 1), (3, 1), (1, 0), (2, 0), (3, 0), (4, 0),
)


def ref_normal_form(word, coeff, order, cutoff, twisted=False) -> dict:
    pos = {c: i for i, c in enumerate(order)}
    out: dict[tuple, Fraction] = {}

    def go(w, c):
        if sum(a + b for a, b in w) > cutoff:
            return
        for k in range(len(w) - 2, -1, -1):
            if pos[w[k]] > pos[w[k + 1]]:
                go(w[:k] + (w[k + 1], w[k]) + w[k + 2:], c)
                p = w[k][0] * w[k + 1][1] - w[k][1] * w[k + 1][0]
                if twisted and p % 2:
                    p = -p
                if p:
                    merged = (w[k][0] + w[k + 1][0], w[k][1] + w[k + 1][1])
                    go(w[:k] + (merged,) + w[k + 2:], c * p)
                return
        out[w] = out.get(w, Fraction(0)) + c

    go(tuple(word), Fraction(coeff))
    return {w: c for w, c in out.items() if c != 0}


def ref_multiply(a: dict, b: dict, order, cutoff, twisted=False) -> dict:
    out: dict[tuple, Fraction] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for w, c in ref_normal_form(wa + wb, ca * cb, order, cutoff, twisted).items():
                out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c != 0}


def random_spectrum(rng, members, maxnum=6, maxden=4) -> Spectrum:
    m = {}
    for ch in members:
        num = rng.randint(-maxnum, maxnum)
        if num:
            m[ch] = Fraction(num, rng.randint(1, maxden))
    return Spectrum(m)


def random_element(alg, rng, nwords=4, maxlen=3) -> AlgebraElement:
    terms = {}
    for _ in range(nwords):
        k = rng.randint(0, maxlen)
        word = tuple(rng.choice(alg.members) for _ in range(k))
        terms[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return alg.from_terms(terms)


# ----------------------------------------------------------------------
# generator order
# ----------------------------------------------------------------------

def test_generator_order_running():
    alg = make_algebra()
    assert tuple(ch.coords for ch in alg.order.charges) == REF_ORDER_2


def test_generator_order_larger_cone():
    alg = make_algebra(cutoff=4)
    assert tuple(ch.coords for ch in alg.order.charges) == REF_ORDER_4


def test_reprs_and_negation():
    alg = make_algebra()
    g1, g2 = _ch(1, 0), _ch(0, 1)
    assert repr(Spectrum({g1: -1, g2: Fraction(1, 2)})) == "Spectrum({(0, 1): 1/2, (1, 0): -1})"
    assert repr(alg.zero()) == "AlgebraElement(0)"
    x = alg.one() + Fraction(1, 2) * alg.normal_form((g1, g2))
    assert repr(x) == "AlgebraElement(1 + 1/2*e(1, 1) + 1/2*e(0, 1) e(1, 0))"
    assert repr(-x) == "AlgebraElement(-1 + -1/2*e(1, 1) + -1/2*e(0, 1) e(1, 0))"
    assert -x == (-1) * x and (-x + x).is_zero()


# ----------------------------------------------------------------------
# normal form
# ----------------------------------------------------------------------

def test_normal_form_basic():
    alg = make_algebra()
    g1, g2 = _ch(1, 0), _ch(0, 1)
    out = as_dict(alg.normal_form((g1, g2)))
    assert out == {((0, 1), (1, 0)): 1, ((1, 1),): 1}
    sorted_word = as_dict(alg.normal_form((g2, g1)))
    assert sorted_word == {((0, 1), (1, 0)): 1}
    # total height 3 > cutoff: the whole word is dropped
    assert alg.normal_form((g1, g1, g2)).is_zero()


def test_normal_form_letter_outside_cone():
    alg = make_algebra()
    with pytest.raises(ValidationError, match="outside the truncated cone"):
        alg.normal_form((_ch(3, 0),))


def test_normal_form_against_reference_oracle():
    for mode, twisted in (("plain", False), ("twisted", True)):
        alg = make_algebra(cutoff=4, mode=mode)
        letters = [ch.coords for ch in alg.members]
        for r in (1, 2, 3):
            for combo in itertools.product(letters, repeat=r):
                expected = ref_normal_form(combo, 1, REF_ORDER_4, 4, twisted)
                got = as_dict(alg.normal_form(tuple(_ch(*c) for c in combo)))
                assert got == expected, combo


def test_normal_form_strategy_independence():
    alg = make_algebra(cutoff=4)
    rng = random.Random(3)
    letters = list(alg.members)
    for _ in range(300):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        left = alg.normal_form(word, strategy="leftmost")
        right = alg.normal_form(word, strategy="rightmost")
        assert left == right


@pytest.mark.parametrize("count, coeff", [(1, 0), (50, 1)], ids=["zero_coefficient", "over_cutoff"])
def test_unknown_strategy_rejected_before_any_early_return(count, coeff):
    # both words normalize to zero without a rewrite, so the strategy is
    # checked before the coefficient and the height are read
    with pytest.raises(ValidationError, match="unknown rewrite strategy 'bogus'"):
        make_algebra().normal_form((_ch(1, 0),) * count, coeff, strategy="bogus")


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------

def test_multiply_basic():
    alg = make_algebra()
    g1, g2 = _ch(1, 0), _ch(0, 1)
    a = alg.one() + alg.generator(g1)
    b = alg.one() + alg.generator(g2)
    assert as_dict(a * b) == {
        (): 1,
        ((1, 0),): 1,
        ((0, 1),): 1,
        ((0, 1), (1, 0)): 1,
        ((1, 1),): 1,
    }
    assert alg.one() * a == a
    assert a * alg.one() == a


def test_multiply_matches_reference():
    alg = make_algebra(cutoff=4)
    rng = random.Random(5)
    for _ in range(40):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        expected = ref_multiply(as_dict(a), as_dict(b), REF_ORDER_4, 4)
        assert as_dict(a * b) == expected


def test_multiply_associative():
    for mode in ("plain", "twisted"):
        alg = make_algebra(cutoff=3, mode=mode)
        rng = random.Random(9)
        for _ in range(25):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            c = random_element(alg, rng)
            assert (a * b) * c == a * (b * c)


def test_multiply_preserves_grading():
    alg = make_algebra(cutoff=4)
    g1, g2 = _ch(1, 0), _ch(0, 1)
    prod = alg.generator(g1) * alg.generator(g2) * alg.generator(g1)
    for word, _ in prod.terms():
        total = word[0]
        for ch in word[1:]:
            total = total + ch
        assert total == _ch(2, 1)


def rechecked_multiply(alg: PbwAlgebra, left: AlgebraElement, right: AlgebraElement):
    """Reference product: every pair within the cutoff goes through
    `_normalize_into`, which sums the concatenated word's height again."""
    alg._require_same(left)
    alg._require_same(right)
    out: dict = {}
    right_items = [(wb, cb, alg._word_height(wb)) for wb, cb in right._terms.items()]
    for wa, ca in left._terms.items():
        ha = alg._word_height(wa)
        for wb, cb, hb in right_items:
            if ha + hb > alg._cutoff:
                continue
            alg._normalize_into(out, wa + wb, ca * cb)
    return AlgebraElement(alg, out)


@settings(max_examples=80, derandomize=True, database=None)
@given(data=st.data())
def test_multiply_matches_the_rechecked_product(data):
    alg = certificate_algebra(data.draw(st.sampled_from(("small", "crossing", "halves"))),
                              data.draw(st.sampled_from(("plain", "twisted"))))
    # words in any order, normalized by from_terms, over letters up to a
    # drawn height: low letters make unsorted concatenations within the
    # cutoff, which rewrite, and high ones make pairs that sum past it
    top = data.draw(st.sampled_from((1, 2, alg.trunc.cutoff)))
    letters = [ch for ch in alg.members if alg.trunc.height(alg.z.evaluate(ch)) <= top]
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    coeffs = st.fractions(-3, 3, max_denominator=4).filter(bool)
    left, right = (alg.from_terms(data.draw(st.dictionaries(words, coeffs, min_size=1,
                                                            max_size=5)))
                   for _ in range(2))
    got, want = (outcome(lambda a, pair: fn(a, *pair), alg, (left, right))
                 for fn in (PbwAlgebra.multiply, rechecked_multiply))
    assert got == want
    # the product does not depend on the order the right words were inserted in
    reversed_right = AlgebraElement(alg, dict(reversed(right._terms.items())))
    assert outcome(lambda a, pair: a.multiply(*pair), alg, (left, reversed_right)) == got


@pytest.mark.parametrize("mode", ["plain", "twisted"])
def test_multiply_sums_each_word_height_once(monkeypatch, mode):
    alg = certificate_algebra("crossing", mode)
    rng = random.Random(71)
    left, right = (random_element(alg, rng, nwords=8) for _ in range(2))
    cut, height = alg._cutoff, alg._word_height
    kept = [wa + wb for wa in left._terms for wb in right._terms
            if height(wa) + height(wb) <= cut]
    # some pairs are pruned, and some kept concatenations need rewriting
    assert 0 < len(kept) < len(left._terms) * len(right._terms)
    assert any(w != tuple(sorted(w)) for w in kept)
    calls = []
    monkeypatch.setattr(PbwAlgebra, "_word_height",
                        lambda self, word: calls.append(word) or height(word))
    product = alg.multiply(left, right)
    assert len(calls) == len(left._terms) + len(right._terms)
    assert product == rechecked_multiply(alg, left, right)


def test_same_ray_letters_commute():
    alg = make_algebra(cutoff=4)
    a = alg.generator(_ch(1, 0))
    b = alg.generator(_ch(2, 0))
    assert a * b == b * a


def test_twisted_structure_constant_sign():
    plain = make_algebra()
    twisted = make_algebra(mode="twisted")
    g1, g2 = _ch(1, 0), _ch(0, 1)
    assert plain.structure_constant(g1, g2) == 1
    assert twisted.structure_constant(g1, g2) == -1
    out = as_dict(twisted.normal_form((g1, g2)))
    assert out == {((0, 1), (1, 0)): 1, ((1, 1),): -1}


def test_jacobi_via_brackets():
    def bracket(x, y):
        return x * y - y * x

    for mode in ("plain", "twisted"):
        alg = make_algebra(cutoff=6, mode=mode)
        gens = [alg.generator(ch) for ch in (_ch(1, 0), _ch(0, 1), _ch(1, 1))]
        for x, y, z in itertools.product(gens, repeat=3):
            total = (
                bracket(bracket(x, y), z)
                + bracket(bracket(y, z), x)
                + bracket(bracket(z, x), y)
            )
            assert total.is_zero()


# ----------------------------------------------------------------------
# exponential
# ----------------------------------------------------------------------

def test_exponential_single_generator():
    alg = make_algebra()
    out = as_dict(alg.exponential(alg.generator(_ch(1, 0))))
    assert out == {(): 1, ((1, 0),): 1, ((1, 0), (1, 0)): Fraction(1, 2)}


def test_exponential_of_sum():
    alg = make_algebra()
    x = alg.generator(_ch(1, 0)) + alg.generator(_ch(0, 1))
    out = alg.exponential(x)
    assert out.coefficient((_ch(1, 1),)) == Fraction(1, 2)
    # oracle: recompute the series with the reference multiplier
    xd = as_dict(x)
    acc = {(): Fraction(1)}
    term = {(): Fraction(1)}
    k = 0
    while term:
        k += 1
        term = ref_multiply(term, xd, REF_ORDER_2, 2)
        term = {w: c / k for w, c in term.items()}
        for w, c in term.items():
            acc[w] = acc.get(w, Fraction(0)) + c
    acc = {w: c for w, c in acc.items() if c != 0}
    assert as_dict(out) == acc


def test_exponential_requires_zero_constant_term():
    alg = make_algebra()
    with pytest.raises(ValidationError, match="constant term"):
        alg.exponential(alg.one())


def test_exponential_inverse():
    alg = make_algebra(cutoff=3)
    rng = random.Random(13)
    for _ in range(20):
        x = random_element(alg, rng)
        x = x - x.coefficient(()) * alg.one()
        assert alg.exponential(x) * alg.exponential((-1) * x) == alg.one()


# ----------------------------------------------------------------------
# ray products and factorization
# ----------------------------------------------------------------------

def test_spectrum_rejects_float_weights():
    with pytest.raises(ValidationError, match="float"):
        Spectrum({_ch(1, 0): 0.1})
    assert Spectrum({_ch(1, 0): 1}).coefficient(_ch(1, 0)) == Fraction(1)


def test_ray_product_two_rays():
    alg = make_algebra()
    spectrum = Spectrum({_ch(1, 0): Fraction(1), _ch(0, 1): Fraction(1)})
    out = as_dict(alg.ray_product(spectrum))
    # clockwise order puts the (0,1) ray first; concatenations stay sorted
    assert out == {
        (): 1,
        ((0, 1),): 1,
        ((1, 0),): 1,
        ((0, 1), (1, 0)): 1,
        ((0, 1), (0, 1)): Fraction(1, 2),
        ((1, 0), (1, 0)): Fraction(1, 2),
    }


def test_ray_product_single_ray_collects_parallel_charges():
    alg = make_algebra()
    spectrum = Spectrum({_ch(1, 0): Fraction(1), _ch(2, 0): Fraction(3)})
    out = as_dict(alg.ray_product(spectrum))
    assert out == {
        (): 1,
        ((1, 0),): 1,
        ((2, 0),): 3,
        ((1, 0), (1, 0)): Fraction(1, 2),
    }


def test_ray_product_empty_spectrum():
    alg = make_algebra()
    assert alg.ray_product(Spectrum({})) == alg.one()


def test_ray_product_wall_rejection():
    # degenerate central charge maps both generators onto one ray; Q must
    # stay negative on ker Z for enumeration to be accepted at all
    alg = make_algebra(z_rows=((1, 1), (1, 1)), q_rows=((1, 2), (2, 1)))
    spectrum = Spectrum({_ch(1, 0): Fraction(1), _ch(0, 1): Fraction(1)})
    with pytest.raises(FirstTypeWallError):
        alg.ray_product(spectrum)


def test_factorize_primitive_example():
    alg = make_algebra()
    g1, g2 = _ch(1, 0), _ch(0, 1)
    a = alg.exponential(alg.generator(g1)) * alg.exponential(alg.generator(g2))
    spectrum = alg.factorize(a)
    assert spectrum == Spectrum({g1: Fraction(1), g2: Fraction(1), _ch(1, 1): Fraction(1)})
    # and the reconstruction really is the clockwise product
    assert alg.ray_product(spectrum) == a


def test_factorize_identity():
    alg = make_algebra()
    assert alg.factorize(alg.one()) == Spectrum({})


def test_factorize_requires_unit_constant_term():
    alg = make_algebra()
    with pytest.raises(ValidationError, match="constant term 1"):
        alg.factorize(alg.generator(_ch(1, 0)))


def test_factorize_rejects_non_products():
    alg = make_algebra()
    g1, g2 = _ch(1, 0), _ch(0, 1)
    bad = alg.one() + alg.normal_form((g2, g1))
    with pytest.raises(ReconstructionError):
        alg.factorize(bad)


def test_factorize_round_trip_random():
    alg = make_algebra(cutoff=3)
    rng = random.Random(17)
    for _ in range(50):
        spectrum = random_spectrum(rng, alg.members)
        assert alg.factorize(alg.ray_product(spectrum)) == spectrum


@functools.cache
def certificate_algebra(cone: str, mode: str) -> PbwAlgebra:
    if cone == "small":
        return make_algebra(cutoff=3, mode=mode)
    text = (Path(__file__).resolve().parent.parent / "scenarios" / "crossing.scn").read_text(encoding="utf-8")
    sc = parse_scenario(text)
    if cone == "halves":
        # covector (0, 1/2): chart scale 2, heights k/2 against cutoff 7/2,
        # so the room a word leaves is a non-integral Fraction for even k
        # and the pairs with heights summing to 7 halves sit at the cutoff
        trunc = dataclasses.replace(sc.trunc, covector=(0, Fraction(1, 2)), cutoff=Fraction(7, 2))
    else:
        trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(6))
    return PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, trunc, mode)


def series_ray_product(alg: PbwAlgebra, spectrum: Spectrum) -> AlgebraElement:
    """The ray product as a series: one truncated exponential per ray of
    `_ray_groups`, multiplied first ray first."""
    result, index = alg.one(), alg.order.index
    for group in alg._ray_groups(spectrum):
        x = AlgebraElement(alg, {(index[ch],): spectrum.coefficient(ch) for ch in group})
        result = alg.multiply(result, alg.exponential(x))
    return result


def remultiplied_factorize(alg: PbwAlgebra, element: AlgebraElement) -> Spectrum:
    """Reference rule: read the weights off the single-letter words,
    rebuild their ray product as a series and compare."""
    alg._require_same(element)
    if element.coefficient(()) != 1:
        raise ValidationError("factorization requires constant term 1")
    spectrum = Spectrum({
        ch: element._terms[(i,)]
        for i, ch in enumerate(alg.order.charges)
        if element._terms.get((i,))
    })
    if series_ray_product(alg, spectrum) != element:
        raise ReconstructionError(
            "element is not a clockwise sector product over the truncated cone"
        )
    return spectrum


def outcome(fn, alg, element):
    try:
        return "returned", fn(alg, element)
    except WallcrossError as exc:
        return type(exc), str(exc)


def multiset_coefficient(alg: PbwAlgebra, spectrum: Spectrum, word) -> Fraction:
    out = Fraction(1)
    for i, k in Counter(word).items():
        out *= spectrum.coefficient(alg.order.charges[i]) ** k / math.factorial(k)
    return out


@settings(max_examples=80)
@given(data=st.data())
def test_factorize_certificate_matches_remultiplication(data):
    alg = certificate_algebra(
        data.draw(st.sampled_from(("small", "crossing"))),
        data.draw(st.sampled_from(("plain", "twisted"))),
    )
    change = data.draw(st.sampled_from(
        ("none", "coefficient", "drop", "add", "unsorted", "over_cutoff")
    ))
    n = len(alg.order.charges)
    letters = data.draw(st.lists(
        st.integers(0, n - 1), unique=True, max_size=4,
        min_size=2 if change in ("unsorted", "over_cutoff") else 0,
    ))
    spectrum = Spectrum({
        alg.order.charges[i]: Fraction(data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))),
                                       data.draw(st.integers(1, 3)))
        for i in letters
    })
    terms = dict(alg.ray_product(spectrum)._terms)
    words = sorted(terms, key=lambda w: (len(w), w))
    if change == "coefficient":
        w = data.draw(st.sampled_from(words))
        terms[w] += data.draw(st.sampled_from((Fraction(1), Fraction(-1, 2), -terms[w])))
    elif change == "drop":
        del terms[data.draw(st.sampled_from(words))]
    elif change == "add":
        w = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))))
        terms[w] = terms.get(w, 0) + Fraction(data.draw(st.sampled_from((-1, 1, 2))))
    elif change != "none":
        # swap a word of two letters or more for a bad one with the multiset
        # coefficient, so that only the sortedness or the height test tells
        # the element from a product (without such a word, add the bad one)
        pool = [w for w in words if len(set(w)) > 1]
        base = data.draw(st.sampled_from(pool)) if pool else (0, n - 1)
        terms.pop(base, None)
        if change == "unsorted":
            bad = base[::-1]
        else:
            h = alg.trunc.height(alg.z.evaluate(alg.order.charges[base[-1]]))
            bad = base + (base[-1],) * int(alg.trunc.cutoff / h)
        terms[bad] = multiset_coefficient(alg, spectrum, bad)
    element = AlgebraElement(alg, terms)
    assert outcome(PbwAlgebra.factorize, alg, element) == outcome(
        remultiplied_factorize, alg, element
    )


@settings(max_examples=60)
@given(data=st.data())
def test_sector_terms_match_ray_product(data):
    alg = certificate_algebra(
        data.draw(st.sampled_from(("small", "crossing"))),
        data.draw(st.sampled_from(("plain", "twisted"))),
    )
    kind = data.draw(st.sampled_from(("empty", "parallel", "random")))
    letters = []
    if kind != "empty":
        letters = data.draw(st.lists(st.sampled_from(alg.members), unique=True, max_size=3))
    if kind == "parallel":
        # a charge and its double: two letters on one ray
        doubled = [ch for ch in alg.members if 2 * ch in alg.order.index]
        base = data.draw(st.sampled_from(doubled))
        letters += [base, 2 * base]
    spectrum = Spectrum({
        ch: Fraction(data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), data.draw(st.integers(1, 3)))
        for ch in letters
    })
    # the series, not ray_product, whose factors come from the same growth loop
    expected = series_ray_product(alg, spectrum)._terms
    assert alg._sector_terms(spectrum, math.inf) == expected
    # the same terms up to the limit, and None once a letter grows them past it
    assert alg._sector_terms(spectrum, len(expected)) == expected
    if spectrum:
        assert alg._sector_terms(spectrum, len(expected) - 1) is None


@settings(max_examples=60)
@given(data=st.data())
def test_ray_product_matches_the_series(data):
    alg = certificate_algebra(
        data.draw(st.sampled_from(("small", "crossing", "halves"))),
        data.draw(st.sampled_from(("plain", "twisted"))),
    )
    kind = data.draw(st.sampled_from(("random", "multiples", "full")))
    if kind == "full":
        letters = list(alg.members)
    else:
        letters = data.draw(st.lists(st.sampled_from(alg.members), unique=True, max_size=4))
    if kind == "multiples":
        # a charge with its double, and its triple where that is a member:
        # several letters on one ray
        doubled = [ch for ch in alg.members if 2 * ch in alg.order.index]
        base = data.draw(st.sampled_from(doubled))
        letters += [base, 2 * base] + [3 * base] * (3 * base in alg.order.index)
    spectrum = Spectrum({
        ch: Fraction(data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), data.draw(st.integers(1, 4)))
        for ch in letters
    })
    got = alg.ray_product(spectrum)
    assert got == series_ray_product(alg, spectrum)
    assert all(type(c) is Fraction for c in got._terms.values())


@pytest.mark.parametrize("mode", ["plain", "twisted"])
def test_ray_product_builds_no_series(monkeypatch, mode):
    alg = certificate_algebra("crossing", mode)
    rng = random.Random(43)
    spectra = [random_spectrum(rng, rng.sample(alg.members, k)) for k in (0, 1, 6, 18, len(alg.members))]
    expected = [series_ray_product(alg, spectrum) for spectrum in spectra]

    def no_series(*args):
        raise AssertionError("ray_product built an exponential series")

    calls = []
    original = PbwAlgebra.multiply

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(PbwAlgebra, "exponential", no_series)
    monkeypatch.setattr(PbwAlgebra, "multiply", counted)
    for spectrum, want in zip(spectra, expected):
        calls.clear()
        assert alg.ray_product(spectrum) == want
        # one multiply per ray: the factors only, never a power of a ray
        assert len(calls) == len(alg._ray_groups(spectrum))
    assert len(alg._ray_groups(spectra[-1])) < len(alg.members)  # some ray holds several letters


def fraction_sector_terms(alg: PbwAlgebra, spectrum: Spectrum, limit) -> dict | None:
    """The closed form with every coefficient step c * a / k in Fractions."""
    hrow, cap = alg._cone.hrow, alg._cone.cut
    words = [((), Fraction(1), 0)]
    for ch in (ch for group in alg._ray_groups(spectrum) for ch in group):
        i, a = alg.order.index[ch], spectrum.coefficient(ch)
        h = sum(x * y for x, y in zip(hrow, ch.coords))
        grown = []
        for word, c, total in words:
            k = 1
            while total + k * h <= cap:
                c = c * a / k
                grown.append((word + (i,) * k, c, total + k * h))
                k += 1
        words += grown
        if len(words) > limit:
            return None
    return {word: c for word, c, _ in words}


@settings(max_examples=40)
@given(data=st.data())
def test_int_sector_terms_match_the_fraction_steps(data):
    alg = certificate_algebra(
        data.draw(st.sampled_from(("small", "crossing"))),
        data.draw(st.sampled_from(("plain", "twisted"))),
    )
    # one letter at least: the limit is tested once per letter
    letters = data.draw(st.lists(st.sampled_from(alg.members), unique=True, min_size=1, max_size=4))
    spectrum = Spectrum({
        ch: Fraction(data.draw(st.integers(-4, 4).filter(bool)), data.draw(st.integers(1, 6)))
        for ch in letters
    })
    full = fraction_sector_terms(alg, spectrum, math.inf)
    assert alg._sector_terms(spectrum, math.inf) == full
    assert all(type(c) is Fraction for c in full.values())
    # a limit below the word count is hit, and one at or above it is not
    limit = data.draw(st.integers(0, 2 * len(full)))
    expected = fraction_sector_terms(alg, spectrum, limit)
    assert (expected is None) == (limit < len(full))
    assert alg._sector_terms(spectrum, limit) == expected


def test_factorize_certificate_reports_first_type_walls():
    alg = make_algebra(z_rows=((1, 1), (1, 1)), q_rows=((1, 2), (2, 1)))
    g1, g2 = alg.order.position(_ch(1, 0)), alg.order.position(_ch(0, 1))
    element = AlgebraElement(alg, {(): Fraction(1), (g1,): Fraction(1), (g2,): Fraction(2)})
    got = outcome(PbwAlgebra.factorize, alg, element)
    assert got[0] is FirstTypeWallError
    assert got == outcome(remultiplied_factorize, alg, element)


@pytest.mark.parametrize("mode", ["plain", "twisted"])
def test_factorize_builds_no_product(monkeypatch, mode):
    alg = certificate_algebra("crossing", mode)
    rng = random.Random(41)
    products = [alg.ray_product(random_spectrum(rng, alg.members[:12])) for _ in range(3)]
    calls = []
    for name in ("ray_product", "multiply", "exponential"):
        original = getattr(PbwAlgebra, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(PbwAlgebra, name, counted)
    for product in products:
        alg.factorize(product)
    assert calls == []


def chamber_tables(alg: PbwAlgebra) -> tuple[list[list[int]], list[list[int | None]]]:
    """c(a, b) and the position of a + b for every pair, as whole n x n tables:
    the plain pairing image(a)^T I image(b) and the sum index over the members
    in coordinate order, then permuted into alg's order, odd pairings flipped
    in twisted mode."""
    charges = sorted(set(alg.members), key=lambda ch: ch.coords)
    n, lattice = len(charges), alg.lattice
    images = [lattice.boundary_of(ch) for ch in charges]
    columns = tuple(zip(*lattice.surface.intersection))
    rows = [[sum(x * y for x, y in zip(image, col)) for col in columns] for image in images]
    index = {ch.coords: i for i, ch in enumerate(charges)}
    pairing = [[0] * n for _ in range(n)]
    merge = [[n] * n for _ in range(n)]
    for i, a in enumerate(charges):  # each unordered pair once: the pairing is skew
        merge[i][i] = index.get(tuple(2 * x for x in a.coords), n)
        for j in range(i + 1, n):
            p = sum(x * y for x, y in zip(rows[i], images[j]))
            pairing[i][j], pairing[j][i] = p, -p
            merge[i][j] = merge[j][i] = index.get(
                tuple(x + y for x, y in zip(a.coords, charges[j].coords)), n)
    perm = [index[ch.coords] for ch in alg.order.charges]
    position = sorted(range(n), key=perm.__getitem__) + [None]  # perm inverted
    odd = int(alg.mode is BracketMode.TWISTED)
    cstr = [[-p if p & odd else p for p in map(pairing[i].__getitem__, perm)] for i in perm]
    return cstr, [[position[merge[i][j]] for j in perm] for i in perm]


def test_tables_follow_pairing_and_charge_sums():
    # every pair's bracket against whole tables built the direct way, on
    # random genus-2 lattices in both modes; then each two-letter word of
    # the memoized algebra rewrites by its own bracket, not its reverse's
    rng = random.Random(43)
    outside = 0
    for mode in ("plain", "twisted"):
        for _ in range(5):
            boundary = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(4))
            lattice = ChargeLattice(2, boundary, SurfaceModel.standard(2))
            alg = PbwAlgebra(
                lattice,
                CentralCharge(((1, -1), (1, 1))),
                QuadraticForm(((1, 0), (0, 1))),
                Sector((-1, 1), (1, 1)),
                TruncationSet((0, 1), 4, 8),
                mode,
            )
            cstr, merge = chamber_tables(alg)
            pairs = list(itertools.product(range(len(alg.members)), repeat=2))
            for i, j in pairs:
                assert alg._bracket(i, j) == (cstr[i][j], merge[i][j])
                outside += merge[i][j] is None
            charges = alg.order.charges
            for i, j in pairs:
                a, b = charges[i], charges[j]
                assert alg.structure_constant(a, b) == cstr[i][j]
                if i <= j or alg._word_height((i, j)) > alg.trunc.cutoff:
                    continue
                if cstr[i][j] and merge[i][j] is None:
                    with pytest.raises(ValidationError, match="left the truncated cone"):
                        alg.normal_form((a, b))
                    continue
                expected = {(b.coords, a.coords): 1}
                if cstr[i][j]:
                    expected[((a + b).coords,)] = cstr[i][j]
                assert as_dict(alg.normal_form((a, b))) == expected
    assert outside > 0


def crossing_scenario():
    text = (Path(__file__).resolve().parent.parent / "scenarios" / "crossing.scn").read_text(encoding="utf-8")
    return parse_scenario(text)


def resorted(alg: PbwAlgebra, z: CentralCharge, mode) -> PbwAlgebra:
    """An algebra on alg's members sorted by z, as `with_mode` builds one."""
    return PbwAlgebra(alg.lattice, z, alg.q, alg.sector, alg.trunc, mode, alg.members)


def tables(alg: PbwAlgebra) -> tuple:
    """alg's order, heights, chart and signature, and every pair's bracket as
    the rewrites read it: from the memo, else through `_bracket`."""
    chart = tuple(getattr(alg._cone, name) for name in ("zx", "zy", "cov", "hrow", "cut", "scale", "forms"))
    brackets = [alg._brackets.get(pair) or alg._bracket(*pair)
                for pair in itertools.product(range(len(alg.order.charges)), repeat=2)]
    return alg.order.charges, brackets, alg._heights, chart, alg.signature


def test_reordered_copy_matches_a_fresh_algebra():
    # crossing.scn's cone at cutoff 4 on random genus-2 lattices; the top
    # row of Z moves, and a Z that changes the member set is passed over
    sc = crossing_scenario()
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(4))
    rng = random.Random(53)
    compared = 0
    for _ in range(30):
        boundary = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(4))
        lattice = ChargeLattice(2, boundary, SurfaceModel.standard(2))
        base = PbwAlgebra(lattice, sc.z, sc.q, sc.sector, trunc, rng.choice(("plain", "twisted")))
        top = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
        z = CentralCharge((top, (1, 1)))
        for mode, other in (("plain", "twisted"), ("twisted", "plain")):
            fresh = PbwAlgebra(lattice, z, sc.q, sc.sector, trunc, mode)
            if set(fresh.members) != set(base.members):
                continue
            compared += 1
            assert tables(resorted(base, z, mode)) == tables(fresh)
            assert tables(resorted(base, z, other).with_mode(mode)) == tables(fresh)
            assert tables(fresh.with_mode(other).with_mode(mode)) == tables(fresh)
    assert compared >= 30


@pytest.mark.parametrize("mode", ["plain", "twisted"])
def test_copies_before_and_after_the_first_rewrite_agree(mode):
    # crossing.scn at cutoff 6: algebras on alg's members, sorted by the
    # path's last keyframe and by the other mode, are built once before any
    # bracket of alg is read and once after its first rewrites memoized
    # some; all rewrite as a fresh algebra does, not by alg's brackets
    sc = crossing_scenario()
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(6))
    targets = ((sc.path_keyframes()[-1], mode), (sc.z, "plain" if mode == "twisted" else "twisted"))
    alg = PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, trunc, mode)
    early = [resorted(alg, z, m) for z, m in targets]
    # three letters of height <= 2 each stay within the cutoff
    low = [ch for ch, h in zip(alg.order.charges, alg._heights) if h <= 2]
    rng = random.Random(61)
    words = [tuple(rng.choice(low) for _ in range(3)) for _ in range(20)]
    assert alg._brackets == {}
    for word in words:
        alg.normal_form(word)
    assert alg._brackets
    late = [resorted(alg, z, m) for z, m in targets]
    for moved, (z, m) in zip(early + late, targets * 2):
        fresh = PbwAlgebra(sc.lattice, z, sc.q, sc.sector, trunc, m)
        assert [moved.normal_form(word) for word in words] == [
            fresh.normal_form(word) for word in words]
        assert tables(moved) == tables(fresh)


def _count_bracket_reads(monkeypatch) -> list:
    """Every (algebra, a, b) whose bracket is read past the memo."""
    reads = []
    read = PbwAlgebra._bracket

    def counted(alg, a, b):
        reads.append((alg, a, b))
        return read(alg, a, b)

    monkeypatch.setattr(PbwAlgebra, "_bracket", counted)
    return reads


@pytest.mark.parametrize("mode", ["plain", "twisted"])
def test_sorted_products_build_no_table(monkeypatch, mode):
    # one primitive letter per ray: every product concatenates sorted words,
    # so ray_product and factorize never rewrite and read no bracket
    reads = _count_bracket_reads(monkeypatch)
    sc = crossing_scenario()
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(8))
    alg = PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, trunc, mode)
    primitive = [ch for ch in alg.members if math.gcd(*ch.coords) == 1]
    spectrum = random_spectrum(random.Random(67), primitive)
    assert len(spectrum) >= 5
    assert alg.factorize(alg.ray_product(spectrum)) == spectrum
    assert reads == []
    # the wrapped read is live: one unsorted pair reads one bracket, once,
    # and the algebra with_mode builds in the other mode reads its own
    unsorted = tuple(sorted(alg.members[:2], key=alg.order.position, reverse=True))
    pair = tuple(map(alg.order.position, unsorted))
    alg.normal_form(unsorted)
    alg.normal_form(unsorted)
    assert reads == [(alg, *pair)]
    other = alg.with_mode("plain" if mode == "twisted" else "twisted")
    other.normal_form(unsorted)
    assert reads == [(alg, *pair), (other, *pair)]


def fraction_order(members, z: CentralCharge, trunc: TruncationSet) -> tuple[Charge, ...]:
    """The generator order by the Fraction comparator the sort key replaced."""
    zmap = {ch: z.evaluate(ch) for ch in members}

    def compare(a: Charge, b: Charge) -> int:
        c = cross(zmap[a], zmap[b])
        if c != 0:
            return -1 if c < 0 else 1
        ha, hb = trunc.height(zmap[a]), trunc.height(zmap[b])
        if ha != hb:
            return -1 if ha < hb else 1
        return (a.coords > b.coords) - (a.coords < b.coords)

    return tuple(sorted(zmap, key=functools.cmp_to_key(compare)))


def test_integer_phase_key_matches_fraction_comparator():
    # on tied_geometry, members share a value and sit on both sector rays
    rng = random.Random(59)
    ties = 0
    for _ in range(60):
        geometry = tied_geometry(rng)
        if geometry is None:
            continue
        lattice, z, q, sector, trunc, members = geometry
        alg = PbwAlgebra(lattice, z, q, sector, trunc, members=members)
        assert alg.order.charges == fraction_order(members, z, trunc)
        ties += sum(cross(*map(z.evaluate, pair)) == 0
                    for pair in zip(alg.order.charges, alg.order.charges[1:]))
    assert ties >= 100


def fraction_ray_groups(alg: PbwAlgebra, spectrum: Spectrum):
    """The support's rays by the Fraction rule the ray keys replaced: two
    letters next in generator order share a ray when their Z values have
    cross 0.  The groups, or the first-type error's message."""
    groups = []
    for ch in sorted(spectrum.support(), key=alg.order.position):
        if groups and cross(alg.z.evaluate(groups[-1][-1]), alg.z.evaluate(ch)) == 0:
            if not charges_parallel(groups[-1][-1], ch):
                return f"first-type wall in spectrum support: {groups[-1][-1]!r} and {ch!r}"
            groups[-1].append(ch)
        else:
            groups.append([ch])
    return groups


_SMALL = st.fractions(-3, 3, max_denominator=3)
_CUTOFFS = st.fractions(1, 4, max_denominator=5)  # times p0's height


@settings(max_examples=150)
@given(data=st.data())
def test_ray_keys_are_equal_exactly_on_one_ray(data):
    # a rank-1 Z puts non-parallel charges on one ray, where _ray_groups
    # meets a first-type wall.  The sector opens around v, the value of
    # p0, to v + s w and v - t w (w is v turned a quarter), and the
    # covector v + k w with |k| <= 1/3 is positive on both of its rays
    rows = [[data.draw(_SMALL) for _ in range(2)]]
    scale = data.draw(st.one_of(st.none(), _SMALL))
    rows.append([scale * x for x in rows[0]] if scale is not None else
                [data.draw(_SMALL) for _ in range(2)])
    z = CentralCharge(rows)
    p0 = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    v = z.evaluate(p0)
    assume(v != (0, 0))
    w = (-v[1], v[0])
    s, t = (data.draw(st.fractions(Fraction(1, 4), 2, max_denominator=4)) for _ in range(2))
    sector = Sector((v[0] + s * w[0], v[1] + s * w[1]), (v[0] - t * w[0], v[1] - t * w[1]))
    k = data.draw(st.fractions(Fraction(-1, 3), Fraction(1, 3), max_denominator=6))
    cov = (v[0] + k * w[0], v[1] + k * w[1])  # p0's height is v . v
    trunc = TruncationSet(cov, data.draw(_CUTOFFS) * (v[0] ** 2 + v[1] ** 2), 1)
    inside = [
        Charge(p) for p in itertools.product(range(-3, 4), repeat=2)
        if (zp := z.evaluate(p)) != (0, 0) and sector.contains(zp) and trunc.height(zp) <= trunc.cutoff
    ]
    members = tuple(data.draw(st.lists(st.sampled_from(inside), unique=True, min_size=1)))
    mode, geometry = data.draw(st.sampled_from(("plain", "twisted"))), build_setup()
    alg = PbwAlgebra(geometry.lattice, z, geometry.q, sector, trunc, mode, members=members)
    values = [z.evaluate(ch) for ch in alg.order.charges]
    for i, j in itertools.product(range(len(values)), repeat=2):
        assert (alg.order.rays[i] == alg.order.rays[j]) == (cross(values[i], values[j]) == 0)
    spectrum = Spectrum({
        ch: data.draw(st.sampled_from((-2, -1, Fraction(1, 2), 1, 3)))
        for ch in data.draw(st.lists(st.sampled_from(members), unique=True))
    })
    try:
        got = alg._ray_groups(spectrum)
    except FirstTypeWallError as err:
        got = str(err)
    assert got == fraction_ray_groups(alg, spectrum)


def loop_ray_groups(alg: PbwAlgebra, spectrum: Spectrum):
    """_ray_groups as its own loop over the order's ray keys, before it
    read `_Cone.runs`: the groups, or the error's class and message."""
    support = spectrum.support()
    for ch in support:
        if ch not in alg.order.index:
            return ValidationError, f"spectrum support outside the truncated cone: {ch!r}"
    index, rays, groups = alg.order.index, alg.order.rays, []
    for ch in sorted(support, key=index.__getitem__):
        if groups and rays[index[groups[-1][-1]]] == rays[index[ch]]:
            if not charges_parallel(groups[-1][-1], ch):
                return FirstTypeWallError, ("first-type wall in spectrum support: "
                                            f"{groups[-1][-1]!r} and {ch!r}")
            groups[-1].append(ch)
        else:
            groups.append([ch])
    return groups


def test_ray_groups_match_the_loop_they_replaced():
    # tied_geometry's rank 3 puts non-parallel members on several rays; the
    # algebra holds three in four of its points, and one support in five
    # draws from them all, so it may leave the cone
    rng = random.Random(67)
    outcomes = Counter()
    for _ in range(150):
        geometry = tied_geometry(rng)
        if geometry is None or not geometry[-1]:
            continue
        *rest, points = geometry
        alg = PbwAlgebra(*rest, rng.choice(("plain", "twisted")), points[: (3 * len(points) + 3) // 4])
        for _ in range(8):
            pool = points if rng.random() < 0.2 else alg.members
            support = rng.sample(pool, rng.randint(1, len(pool)))
            spectrum = Spectrum({ch: Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
                                 for ch in support})
            try:
                got = alg._ray_groups(spectrum)
            except WallcrossError as err:
                got = type(err), str(err)
            assert got == loop_ray_groups(alg, spectrum)
            if isinstance(got, tuple):
                outcomes[got[0].__name__] += 1
            else:
                outcomes["a shared ray" if any(len(g) > 1 for g in got) else "one per ray"] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 100


@pytest.fixture
def alarm():
    """Fail a call that hangs instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("members, message", [
    ((_ch(1, -1),), "(1, -1)"),  # Z = (2, 0): outside the sector, height 0
    ((_ch(1, 0), _ch(0, 0)), "(0, 0)"),  # zero central charge
    ((_ch(1, 0), _ch(2, 2)), "(2, 2)"),  # height 4 above the cutoff 2
    ((_ch(1, 0), _ch(1, 0, 0)), "(1, 0, 0)"),  # wrong rank
    (((1, 0),), "(1, 0)"),  # not a charge
])
def test_explicit_members_are_checked(alarm, members, message):
    s = build_setup()
    with pytest.raises(ValidationError, match=f"member .*{re.escape(message)}"):
        alg = PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, members=members)
        alg.factorize(alg.ray_product(Spectrum({ch: 1 for ch in members})))


def test_explicit_members_need_a_positive_covector():
    s = build_setup(covector=(0, -1))
    with pytest.raises(ValidationError, match="positive on the closed sector"):
        PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, members=(_ch(1, 0),))


def test_explicit_members_in_the_cone_are_kept(alarm):
    s = build_setup()
    members = (_ch(1, 0), _ch(0, 1), _ch(1, 1))
    alg = PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, members=members)
    assert alg.members == members
    spectrum = Spectrum({ch: 1 for ch in members})
    assert alg.factorize(alg.ray_product(spectrum)) == spectrum


def test_ray_product_coefficients_follow_multiset_rule():
    # coefficient of a normal word equals prod of weights / |Aut(multiset)|
    alg = make_algebra(cutoff=3)
    rng = random.Random(23)
    n = len(alg.order.charges)
    heights = [alg.trunc.height(alg.z.evaluate(ch)) for ch in alg.order.charges]
    words = [
        w
        for r in range(0, 4)
        for w in itertools.combinations_with_replacement(range(n), r)
        if sum(heights[i] for i in w) <= alg.trunc.cutoff
    ]
    for _ in range(10):
        spectrum = random_spectrum(rng, alg.members)
        prod = alg.ray_product(spectrum)
        for w in words:
            expected = multiset_coefficient(alg, spectrum, w)
            assert prod.coefficient(tuple(alg.order.charges[i] for i in w)) == expected


def test_coefficient_of_cross_ray_word():
    alg = make_algebra()
    spectrum = Spectrum({_ch(1, 0): Fraction(1), _ch(0, 1): Fraction(1)})
    prod = alg.ray_product(spectrum)
    assert prod.coefficient((_ch(0, 1), _ch(1, 0))) == 1
    assert prod.coefficient(()) == 1
    with pytest.raises(ValidationError, match="normal form"):
        prod.coefficient((_ch(1, 0), _ch(0, 1)))


# ----------------------------------------------------------------------
# sector splitting and basis conversion
# ----------------------------------------------------------------------

def test_sector_split_product():
    alg = make_algebra(cutoff=3)
    rng = random.Random(29)
    split = (Fraction(1), Fraction(2))  # interior ray avoiding all phases
    xp = cross
    for _ in range(20):
        spectrum = random_spectrum(rng, alg.members)
        first = spectrum.restrict(lambda ch: xp(alg.z.evaluate(ch), split) < 0)
        second = spectrum.restrict(lambda ch: xp(alg.z.evaluate(ch), split) > 0)
        on_ray = spectrum.restrict(lambda ch: xp(alg.z.evaluate(ch), split) == 0)
        assert len(on_ray) == 0
        assert alg.ray_product(first) * alg.ray_product(second) == alg.ray_product(spectrum)


def test_convert_between_generator_orders():
    src = make_algebra()
    dst = make_algebra(z_rows=((-1, 1), (1, 1)))
    assert set(src.members) == set(dst.members)
    rng = random.Random(31)
    for _ in range(20):
        a = random_element(src, rng)
        there = dst.convert(a)
        back = src.convert(there)
        assert back == a
    # converting moves the correction term across bases
    g1, g2 = _ch(1, 0), _ch(0, 1)
    word = src.normal_form((g2, g1))
    assert as_dict(dst.convert(word)) == {((1, 0), (0, 1)): 1, ((1, 1),): -1}


def test_convert_requires_matching_members():
    src = make_algebra()
    dst = make_algebra(cutoff=3)
    with pytest.raises(ValidationError, match="convert"):
        dst.convert(src.one())


@functools.cache
def convert_path(kind: str, mode: str) -> tuple[PbwAlgebra, VariationPath]:
    """An algebra and a path of central charges to re-sort copies of it by:
    crossing.scn at cutoff 6 along its keyframes; that cone without its
    diagonal, so some merges leave the members; make_algebra at cutoff 4."""
    if kind == "small":
        alg = make_algebra(cutoff=4, mode=mode)
        return alg, VariationPath((alg.z, CentralCharge(((-1, 1), (1, 1)))))
    sc = crossing_scenario()
    alg = certificate_algebra("crossing", mode)
    if kind == "sparse":
        members = tuple(ch for ch in alg.members if ch.coords[0] != ch.coords[1])
        alg = PbwAlgebra(sc.lattice, alg.z, sc.q, sc.sector, alg.trunc, mode, members)
    return alg, VariationPath(sc.path_keyframes())


def normalized_convert(dst: PbwAlgebra, element: AlgebraElement) -> AlgebraElement:
    """Reference conversion: each source word through the stack rewrite."""
    src = element.algebra
    out: dict = {}
    for w, c in element._terms.items():
        dst._normalize_into(out, tuple(dst.order.index[src.order.charges[i]] for i in w), c)
    return AlgebraElement(dst, out)


@settings(max_examples=150)
@given(data=st.data())
def test_convert_matches_stack_rewrite(data):
    alg, path = convert_path(
        data.draw(st.sampled_from(("crossing", "sparse", "small"))),
        data.draw(st.sampled_from(("plain", "twisted"))),
    )
    when = st.one_of(st.sampled_from((0, 1)), st.fractions(0, 1, max_denominator=12))
    src, dst = (resorted(alg, path.z_at(data.draw(when)), alg.mode) for _ in range(2))
    # letters up to a drawn height, so that not every long word is over the cutoff
    top = data.draw(st.sampled_from((1, 2, alg.trunc.cutoff)))
    letters = [i for i, ch in enumerate(src.order.charges)
               if src.trunc.height(src.z.evaluate(ch)) <= top]
    words = data.draw(st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=5),
                               min_size=1, max_size=4))
    element = AlgebraElement(src, {
        tuple(sorted(w)): Fraction(data.draw(st.sampled_from((-3, -1, 1, 2))),
                                   data.draw(st.integers(1, 4)))
        for w in words
    })
    assert outcome(PbwAlgebra.convert, dst, element) == outcome(normalized_convert, dst, element)


def test_convert_does_not_use_the_stack_rewrite(monkeypatch):
    alg, path = convert_path("crossing", "twisted")
    rng = random.Random(59)
    elements = [alg.ray_product(random_spectrum(rng, alg.members[:12])) for _ in range(3)]
    calls = []
    original = PbwAlgebra._normalize_into
    monkeypatch.setattr(PbwAlgebra, "_normalize_into",
                        lambda *args: calls.append(1) or original(*args))
    for t in (Fraction(1, 3), 1):
        dst = resorted(alg, path.z_at(t), alg.mode)
        for element in elements:
            assert not dst.convert(element).is_zero()
    assert calls == []


def test_elements_compare_across_equal_algebras():
    a1 = make_algebra()
    a2 = make_algebra()
    assert a1.generator(_ch(1, 0)) == a2.generator(_ch(1, 0))
    twisted = make_algebra(mode="twisted")
    assert a1.generator(_ch(1, 0)) != twisted.generator(_ch(1, 0))

"""Truncated enveloping algebra over the cone charges, in PBW normal form.

Basis words are weakly increasing charge sequences in the generator order
(clockwise phase, then height, then lexicographic).  The single rewrite

    e_a e_b  ->  e_b e_a + c(a, b) e_{a+b}      (a after b in the order)

brings every word to normal form.  Rewriting preserves the total charge of
a word, so truncation only ever drops whole words: a word survives exactly
when its total height stays within the cutoff.

The stack rewrite `_rewrite_into` drives `multiply`, which visits only
the pairs within the cutoff (the right words by height, up to the first
that does not fit), and, behind the cutoff drop of
`_normalize_into`, `normal_form(strategy=...)` and `from_terms`.
`_normalize_into` is the oracle for `convert`, which inserts each word's
letters right to left into a normal word u, memoizing e_a u.

Clockwise-ordered ray products concatenate words that are already sorted,
which is what makes factorization of a sector product exact and unique:
`factorize` certifies an element by equality with its closed form.

The central charge sets only the generator order.  Each order keeps one
int ray key per member, equal exactly on the members of one ray, which
`_Cone.runs` reads to group a support by ray for `_ray_groups`; and it
reads the bracket of a pair, c(a, b) and the position of a + b, from the
lattice and the members on the pair's first rewrite, and memoizes it.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from typing import Optional

from .errors import (
    FirstTypeWallError,
    ReconstructionError,
    ValidationError,
)
from .lattice import (
    CentralCharge,
    Charge,
    ChargeLattice,
    QuadraticForm,
    Sector,
    TruncationSet,
    _Cone,
    _checker,
    _exact,
    _mapping,
    _sequence,
    charges_parallel,
)


class BracketMode(enum.Enum):
    PLAIN = "plain"
    TWISTED = "twisted"

    @classmethod
    def coerce(cls, value) -> "BracketMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValidationError(f"unknown bracket mode {value!r}") from None


class Spectrum:
    """Rational weight for each cone charge; zero weights are dropped."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[Charge, Fraction] = ()):
        self._map = _mapping(mapping, "spectrum", Charge, "spectrum keys must be charges")

    def coefficient(self, charge: Charge) -> Fraction:
        if not isinstance(charge, Charge):
            raise ValidationError(f"charge must be a Charge, got {charge!r}")
        return self._map.get(charge, Fraction(0))

    def support(self) -> tuple[Charge, ...]:
        return tuple(sorted(self._map, key=lambda ch: ch.coords))

    def items(self) -> list[tuple[Charge, Fraction]]:
        return [(ch, self._map[ch]) for ch in self.support()]

    def restrict(self, keep) -> "Spectrum":
        _check_args(keep=keep)
        return Spectrum({ch: c for ch, c in self._map.items() if keep(ch)})

    def __eq__(self, other) -> bool:
        return isinstance(other, Spectrum) and self._map == other._map

    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        inner = ", ".join(f"{ch.coords}: {c}" for ch, c in self.items())
        return f"Spectrum({{{inner}}})"


class PbwAlgebra:
    """Enveloping algebra truncated to words with total height <= cutoff.

    Z sets only the generator order, read off the cone that `with_mode`
    shares; each algebra memoizes the brackets its rewrites read."""

    def __init__(
        self,
        lattice: ChargeLattice,
        z: CentralCharge,
        q: QuadraticForm,
        sector: Sector,
        trunc: TruncationSet,
        mode: BracketMode | str = BracketMode.PLAIN,
        members: Optional[tuple[Charge, ...]] = None,
    ):
        self._adopt(_Cone(lattice, z, q, sector, trunc, members), mode)

    @classmethod
    def _over(cls, cone: _Cone, mode: BracketMode | str) -> "PbwAlgebra":
        """The algebra on a cone already built, and so already checked."""
        return cls.__new__(cls)._adopt(cone, mode)

    def _adopt(self, cone: _Cone, mode: BracketMode | str) -> "PbwAlgebra":
        self._cone, self.mode, self.order = cone, BracketMode.coerce(mode), cone.order
        self.lattice, self.z, self.q, self.sector, self.trunc, self.members = (
            cone.lattice, cone.z, cone.q, cone.sector, cone.trunc, cone.members)
        self._heights = [Fraction(h, cone.scale) for h in self.order.heights]  # for _word_height
        self._cutoff = cone.trunc.cutoff
        self._brackets: dict[tuple[int, int], tuple[int, int | None]] = {}
        self.signature = (self.lattice.boundary, self.lattice.surface.intersection,
                          self.mode, self.order.charges)
        return self

    def _bracket(self, a: int, b: int) -> tuple[int, int | None]:
        """c(a, b), the pairing with odd ones flipped in twisted mode, and
        the position of a + b (None outside the members), memoized."""
        ca, cb = self.order.charges[a], self.order.charges[b]
        k = self.lattice.pairing(ca, cb)
        if k & 1 and self.mode is BracketMode.TWISTED:
            k = -k
        got = self._brackets[a, b] = (k, self.order.index.get(ca + cb))
        return got

    # -- element constructors -------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(): Fraction(1)})

    def generator(self, charge: Charge) -> "AlgebraElement":
        i = self.order.position(charge, "charge")
        return AlgebraElement(self, {(i,): Fraction(1)})

    def from_terms(
        self, terms: Mapping[Sequence[Charge], Fraction]
    ) -> "AlgebraElement":
        _check_args(terms=terms)
        out: dict[tuple[int, ...], Fraction] = {}
        for word, coeff in terms.items():
            word = _sequence(word, "word must be a sequence of charges")
            idxs = tuple(self.order.position(ch) for ch in word)
            self._normalize_into(out, idxs, _exact(coeff))
        return AlgebraElement(self, out)

    def normal_form(
        self, word: Sequence[Charge], coeff=1, strategy: str = "leftmost"
    ) -> "AlgebraElement":
        if strategy not in ("leftmost", "rightmost"):
            raise ValidationError(f"unknown rewrite strategy {strategy!r}")
        word = _sequence(word, "word must be a sequence of charges")
        idxs = tuple(self.order.position(ch) for ch in word)
        out: dict[tuple[int, ...], Fraction] = {}
        self._normalize_into(out, idxs, _exact(coeff), strategy)
        return AlgebraElement(self, out)

    def structure_constant(self, a: Charge, b: Charge) -> int:
        i, j = self.order.position(a, "a"), self.order.position(b, "b")
        return (self._brackets.get((i, j)) or self._bracket(i, j))[0]

    # -- rewriting core --------------------------------------------------

    def _word_height(self, word: tuple[int, ...]) -> Fraction:
        heights = self._heights
        return sum((heights[i] for i in word), Fraction(0))

    def _normalize_into(self, out: dict[tuple[int, ...], Fraction], word: tuple[int, ...],
                        coeff: Fraction, strategy: str = "leftmost") -> None:
        if coeff == 0:
            return
        # the total charge is a rewriting invariant: drop once, up front
        if word and self._word_height(word) > self._cutoff:
            return
        self._rewrite_into(out, word, coeff, strategy)

    def _rewrite_into(self, out: dict[tuple[int, ...], Fraction], word: tuple[int, ...],
                      coeff: Fraction, strategy: str = "leftmost") -> None:
        """Add coeff times word's normal form to out; the word is within the cutoff."""
        left_first, brackets = strategy == "leftmost", self._brackets
        stack = [(word, coeff)]
        while stack:
            w, c = stack.pop()
            pos = -1
            scan = range(len(w) - 1) if left_first else range(len(w) - 2, -1, -1)
            for k in scan:
                if w[k] > w[k + 1]:
                    pos = k
                    break
            if pos < 0:
                prev = out.get(w)
                total = c if prev is None else prev + c
                if total == 0:
                    if prev is not None:
                        del out[w]
                else:
                    out[w] = total
                continue
            a, b = w[pos], w[pos + 1]
            stack.append((w[:pos] + (b, a) + w[pos + 2 :], c))
            k, tgt = brackets.get((a, b)) or self._bracket(a, b)
            if k:
                if tgt is None:
                    raise ValidationError(
                        "merged letter left the truncated cone during rewriting"
                    )
                stack.append((w[:pos] + (tgt,) + w[pos + 2 :], c * k))

    # -- products and series ---------------------------------------------

    def multiply(self, left: "AlgebraElement", right: "AlgebraElement") -> "AlgebraElement":
        """Product in normal form, truncated to the cutoff.

        The right operand's words are sorted by height once; each left word
        walks them up to the first that no longer fits in the room its own
        height leaves under the cutoff.  So the work is the kept pairs'
        rewrites plus one failed comparison per left word, and each word's
        height is summed once.
        """
        self._require_same(left, "left")
        self._require_same(right, "right")
        out: dict[tuple[int, ...], Fraction] = {}
        cutoff = self._cutoff
        right_items = sorted(
            [(wb, cb, self._word_height(wb)) for wb, cb in right._terms.items()],
            key=lambda item: item[2])
        for wa, ca in left._terms.items():
            room = cutoff - self._word_height(wa)
            for wb, cb, hb in right_items:
                if hb > room:
                    break
                self._rewrite_into(out, wa + wb, ca * cb)
        return AlgebraElement(self, out)

    def exponential(self, x: "AlgebraElement") -> "AlgebraElement":
        """Finite exponential series; requires zero constant term."""
        self._require_same(x, "x")
        if x.coefficient(()) != 0:
            raise ValidationError("exponential requires zero constant term")
        result = self.one()
        term = self.one()
        k = 0
        while True:
            k += 1
            term = self.multiply(term, x) * Fraction(1, k)
            if term.is_zero():
                break
            result = result + term
        return result

    def _ray_groups(self, spectrum: Spectrum) -> list[list[Charge]]:
        """The spectrum's support in generator order, one list per ray."""
        support = spectrum.support()
        for ch in support:
            if ch not in self.order.index:
                raise ValidationError(f"spectrum support outside the truncated cone: {ch!r}")
        groups = self._cone.runs(support)
        for group in groups:
            for a, b in zip(group, group[1:]):
                if not charges_parallel(a, b):
                    raise FirstTypeWallError(f"first-type wall in spectrum support: {a!r} and {b!r}")
        return groups

    def ray_product(self, spectrum: Spectrum) -> "AlgebraElement":
        """Clockwise-ordered product of ray exponentials.

        Support charges are grouped by parallel central charge; groups are
        multiplied first ray first.  Non-proportional charges sharing a ray
        are a first-type wall and rejected.
        """
        _check_args(spectrum=spectrum)
        result, index = self.one(), self.order.index
        for group in self._ray_groups(spectrum):
            x = AlgebraElement(self, {(index[ch],): spectrum.coefficient(ch) for ch in group})
            result = self.multiply(result, self.exponential(x))
        return result

    def factorize(self, element: "AlgebraElement") -> Spectrum:
        """Unique spectrum whose clockwise ray product equals the element.

        In a clockwise-ordered product every concatenation is already
        sorted, so no rewriting occurs and the coefficient of each
        single-letter word is exactly that charge's ray weight.  The element
        must then equal the closed form of `_sector_terms` for the weights
        read off, which is the ray product without building it; a
        non-product is rejected once the closed form outgrows its terms.
        """
        self._require_same(element)
        if element.coefficient(()) != 1:
            raise ValidationError("factorization requires constant term 1")
        letters = enumerate(self.order.charges)
        spectrum = Spectrum({ch: element._terms.get((i,), 0) for i, ch in letters})
        if element._terms != self._sector_terms(spectrum, len(element._terms)):
            raise ReconstructionError(
                "element is not a clockwise sector product over the truncated cone"
            )
        return spectrum

    def _sector_terms(self, spectrum: Spectrum, limit: float) -> dict | None:
        """The terms of ray_product(spectrum), with its support and wall checks.

        Letters on one ray commute and the rays come in generator order, so
        the product has one weakly increasing word per multiset of support
        letters within the cutoff, with coefficient the product of a^k / k!
        over its letters (a the letter's weight, k its multiplicity).  The
        words grow letter by letter in generator order, on integer heights;
        None as soon as a letter grows them past limit.  Each coefficient
        grows as an int numerator and denominator, reduced once per word
        by its Fraction.
        """
        index, heights, cap = self.order.index, self.order.heights, self._cone.cut
        words = [((), 1, 1, 0)]  # (word, numerator, denominator, height)
        for ch in (ch for group in self._ray_groups(spectrum) for ch in group):
            i, a = index[ch], spectrum.coefficient(ch)
            h, an, ad = heights[i], a.numerator, a.denominator
            grown = []
            for word, n, d, total in words:
                k = 1
                while total + k * h <= cap:
                    n, d = n * an, d * ad * k
                    grown.append((word + (i,) * k, n, d, total + k * h))
                    k += 1
            words += grown
            if len(words) > limit:
                return None
        return {word: Fraction(n, d) for word, n, d, _ in words}

    def convert(self, element: "AlgebraElement") -> "AlgebraElement":
        """Re-express an element of a compatible algebra in this basis.

        The source must share the lattice, member set and bracket mode; only
        the generator order (that is, the central charge) may differ.  A word
        over the cutoff is dropped up front; the others insert their letters
        right to left by `_insert`, with int coefficients memoized for this
        call.  The source coefficients are scaled to integers over their lcm
        D, so the sum is collected in ints and divided by D once per output
        word.
        """
        _check_args(element=element)
        src = element.algebra
        # (boundary, intersection, mode) and the member set
        if src.signature[:3] != self.signature[:3] or src.order.index.keys() != self.order.index.keys():
            raise ValidationError("elements can only be converted between algebras "
                                  "sharing lattice, members and mode")
        d = math.lcm(*(c.denominator for c in element._terms.values()))
        memo: dict = {}
        parts = []
        for w, c in element._terms.items():
            idxs = tuple(self.order.index[src.order.charges[i]] for i in w)
            if self._word_height(idxs) > self._cutoff:
                continue
            normal = {(): 1}
            for a in reversed(idxs):
                normal = _collect((self._insert(a, u, memo), k) for u, k in normal.items())
            parts.append((normal, c.numerator * (d // c.denominator)))
        return AlgebraElement(self, {w: Fraction(n, d) for w, n in _collect(parts).items()})

    def _insert(self, a: int, u: tuple[int, ...], memo: dict) -> dict[tuple[int, ...], int]:
        """Normal form of e_a u for a normal word u: (a,) + u when a comes
        first, else e_a e_b -> e_b e_a + c(a, b) e_{a+b} on b = u[0]."""
        if not u or a <= u[0]:
            return {(a,) + u: 1}
        got = memo.get((a, u))
        if got is None:
            b, rest = u[0], u[1:]
            parts = [(self._insert(b, v, memo), k) for v, k in self._insert(a, rest, memo).items()]
            k, tgt = self._brackets.get((a, b)) or self._bracket(a, b)
            if k:
                if tgt is None:
                    raise ValidationError("merged letter left the truncated cone during rewriting")
                parts.append((self._insert(tgt, rest, memo), k))
            got = memo[a, u] = _collect(parts)
        return got

    def with_mode(self, mode: BracketMode | str) -> "PbwAlgebra":
        return PbwAlgebra._over(self._cone, mode)

    def _require_same(self, element: "AlgebraElement", name: str = "element") -> None:
        if not isinstance(element, AlgebraElement):  # one test on the hot path
            _check_args(**{name: element})
        if element.algebra.signature != self.signature:
            raise ValidationError("element belongs to a different algebra")


def _collect(parts) -> dict:
    """Sum of k * terms over (terms, k) pairs, zeros dropped."""
    out: dict = {}
    for terms, k in parts:
        for w, c in terms.items():
            out[w] = out.get(w, 0) + k * c
    return {w: c for w, c in out.items() if c}


class AlgebraElement:
    """Finite rational combination of PBW basis words."""

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: PbwAlgebra, terms: dict[tuple[int, ...], Fraction]):
        self.algebra = algebra
        self._terms = terms

    def coefficient(self, word: Sequence[Charge]) -> Fraction:
        """Coefficient of a normal-form basis word."""
        idxs: tuple[int, ...] = ()
        for ch in _sequence(word, "word must be a sequence of charges"):
            if isinstance(ch, Charge):
                idxs += (self.algebra.order.position(ch),)
            else:
                raise ValidationError("coefficient expects a word of charges")
        if any(idxs[k] > idxs[k + 1] for k in range(len(idxs) - 1)):
            raise ValidationError("coefficient expects a word in normal form")
        return self._terms.get(idxs, Fraction(0))

    def terms(self) -> list[tuple[tuple[Charge, ...], Fraction]]:
        charges = self.algebra.order.charges
        keys = sorted(self._terms, key=lambda w: (len(w), w))
        return [(tuple(charges[i] for i in w), self._terms[w]) for w in keys]

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self.algebra._require_same(other, "other")
        out = dict(self._terms)
        for w, c in other._terms.items():
            total = out.get(w, Fraction(0)) + c
            if total == 0:
                out.pop(w, None)
            else:
                out[w] = total
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self.algebra._require_same(other, "other")
        return self + (-1) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, scalar) -> "AlgebraElement":
        c = _exact(scalar)
        if c == 0:
            return AlgebraElement(self.algebra, {})
        return AlgebraElement(self.algebra, {w: c * v for w, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra.signature == other.algebra.signature
            and self._terms == other._terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self._terms:
            return "AlgebraElement(0)"
        parts = []
        for word, coeff in self.terms():
            if not word:
                parts.append(str(coeff))
            else:
                letters = " ".join("e" + str(ch.coords) for ch in word)
                parts.append(f"{coeff}*{letters}")
        return "AlgebraElement(" + " + ".join(parts) + ")"


_check_args = _checker({name: AlgebraElement for name in ("element", "left", "right", "x", "other")}
                       | {"spectrum": Spectrum, "terms": Mapping, "keep": Callable})

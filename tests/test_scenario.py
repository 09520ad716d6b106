import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from wallcross.algebra import BracketMode
from wallcross.errors import ValidationError
from wallcross.scenario import _fraction, format_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
[lattice]
rank = 2
boundary = 1 0 ; 0 1

[surface]
genus = 1

[central_charge]
matrix = 1 -1 ; 1 1

[quadratic_form]
matrix = 1 0 ; 0 1

[sector]
start = -1 1
end = 1 1

[truncation]
covector = 0 1
cutoff = 2
scan_box = 4

[mode]
value = plain

[spectrum]
entry = 1 0 : 1
"""


def with_lines(replacements: dict[str, str]) -> str:
    lines = MINIMAL.splitlines()
    out = []
    for line in lines:
        key = line.split("=")[0].strip() if "=" in line else None
        if key in replacements:
            out.append(replacements.pop(key))
        else:
            out.append(line)
    assert not replacements
    return "\n".join(out) + "\n"


def test_parse_primitive_scenario():
    sc = parse_scenario((SCENARIOS / "primitive.scn").read_text(encoding="utf-8"))
    assert sc.lattice.rank == 2
    assert sc.lattice.surface.dim == 2
    assert sc.z.matrix == ((Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1)))
    assert sc.keyframes == ()
    assert sc.mode is BracketMode.PLAIN
    assert len(sc.spectrum.items()) == 3
    assert sc.refinement is not None
    assert sc.refinement.basis_signs == (1, 1)
    assert len(sc.chains) == 2
    assert sc.chains[0].vertices[0].theta == Fraction(3, 10)
    # boundary classes were filled from the lattice
    assert sc.chains[0].vertices[0].boundary == (0, 1)


def test_parse_crossing_scenario():
    sc = parse_scenario((SCENARIOS / "crossing.scn").read_text(encoding="utf-8"))
    assert len(sc.keyframes) == 1
    assert sc.path_keyframes() == (sc.z, sc.keyframes[0])
    assert sc.trunc.cutoff == 2
    assert sc.chains == ()


def test_parse_print_round_trip():
    for name in ("primitive.scn", "crossing.scn"):
        first = parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))
        printed = format_scenario(first)
        assert parse_scenario(printed) == first
        # printing is idempotent on canonical text
        assert format_scenario(parse_scenario(printed)) == printed


def test_readme_scenario_example_parses():
    # the documented syntax, every section of it, is a scenario the parser reads
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    sc = parse_scenario(blocks[0])
    assert sc.lattice.rank == 2
    assert len(sc.keyframes) == 1
    assert sc.sector.end == (1, 1)
    assert len(sc.spectrum) == 1
    assert sc.refinement is not None
    assert len(sc.chains) == 1
    assert parse_scenario(format_scenario(sc)) == sc


def test_format_crossing_golden():
    sc = parse_scenario((SCENARIOS / "crossing.scn").read_text(encoding="utf-8"))
    assert format_scenario(sc) == """\
[lattice]
rank = 2
boundary = 1 0 ; 0 1

[surface]
genus = 1

[central_charge]
matrix = -3 -1 ; 1 1
keyframe = 1 -1 ; 1 1

[quadratic_form]
matrix = 1 2 ; 2 1

[sector]
start = -5 1
end = 5 1

[truncation]
covector = 0 1
cutoff = 2
scan_box = 4

[mode]
value = plain

[spectrum]
entry = 0 1 : 1
entry = 1 0 : 1

[refinement]
signs = 1 1
"""


def test_nonstandard_intersection_round_trips():
    text = MINIMAL.replace(
        "genus = 1", "genus = 1\nintersection = 0 2 ; -2 0"
    )
    sc = parse_scenario(text)
    assert sc.lattice.surface.intersection == ((0, 2), (-2, 0))
    assert "intersection = 0 2 ; -2 0" in format_scenario(sc)
    assert parse_scenario(format_scenario(sc)) == sc


def test_minimal_parses_without_optional_sections():
    sc = parse_scenario(MINIMAL)
    assert sc.refinement is None
    assert sc.chains == ()


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("[mode]", "[modes]"), "line 23: unknown section [modes]"),
        (lambda t: t.replace("rank = 2", "rang = 2"), "line 2: unknown key 'rang'"),
        (lambda t: t.replace("genus = 1", "genus = 1\ngenus = 2"), "duplicate key 'genus'"),
        (lambda t: "rank = 2\n" + t, "line 1: key outside a section"),
        (lambda t: t.replace("rank = 2", "rank 2"), "line 2: expected 'key = value'"),
        (lambda t: t.replace("[surface]\ngenus = 1\n", ""), "missing section [surface]"),
        (lambda t: t.replace("rank = 2\n", ""), "section [lattice] is missing key 'rank'"),
        (lambda t: t.replace("cutoff = 2", "cutoff = 1/0"), "line 20: malformed rational '1/0'"),
        (lambda t: t.replace("cutoff = 2", "cutoff = two"), "malformed rational 'two'"),
        (lambda t: t.replace("start = -1 1", "start = -1 0").replace("end = 1 1", "end = 1 0"),
         "sector not strictly convex"),
        (lambda t: t.replace("matrix = 1 -1 ; 1 1", "matrix = 1 -1 ; 2 -2"),
         "not negative definite on ker Z"),
        (lambda t: t.replace("matrix = 1 -1 ; 1 1", "matrix = 1 -1 3 ; 1 1 3"),
         "central charge rank must match the lattice"),
        (lambda t: t.replace("matrix = 1 0 ; 0 1", "matrix = 1 0 0 ; 0 1 0 ; 0 0 1"),
         "quadratic form rank must match the lattice"),
        (lambda t: t.replace("boundary = 1 0 ; 0 1", "boundary = 1 0 ; 0 1 ; 0 0"),
         "one row per homology basis vector"),
        (lambda t: t.replace("boundary = 1 0 ; 0 1", "boundary = 1 0 ; 0"),
         "matrix rows have unequal lengths"),
        (lambda t: t.replace("genus = 1", "genus = -1"), "line 6: genus must be non-negative"),
        (lambda t: t.replace("genus = 1", "genus = 2\nintersection = 0 1 ; -1 0"),
         "intersection matrix does not match the genus"),
        (lambda t: t.replace("value = plain", "value = fancy"), "mode must be 'plain' or 'twisted'"),
        (lambda t: t.replace("entry = 1 0 : 1", "entry = 1 0 1"), "needs '<coords> : <weight>'"),
        (lambda t: t.replace("entry = 1 0 : 1", "entry = 1 0 : 1\nentry = 1 0 : 2"),
         "duplicate spectrum charge (1, 0)"),
        (lambda t: t.replace("covector = 0 1", "covector = 1 0"),
         "positive on the closed sector"),
        (lambda t: t + "\n[chains]\nchain = 1/2 : 1 0 , 1/2 : 0 1\n",
         "pairwise distinct"),
        (lambda t: t + "\n[refinement]\nsigns = 1 1 1\n",
         "one sign per homology basis vector"),
    ],
)
def test_parse_errors(mangle, fragment):
    with pytest.raises(ValidationError, match=None) as err:
        parse_scenario(mangle(MINIMAL))
    assert fragment in str(err.value)


def test_comments_and_blank_lines_ignored():
    noisy = "# header comment\n\n" + MINIMAL.replace(
        "[sector]", "# about to open the sector\n[sector]"
    )
    assert parse_scenario(noisy) == parse_scenario(MINIMAL)


# -- round trip on generated scenarios ----------------------------------------

_ints = st.integers(-2, 2)
_rationals = st.fractions(-3, 3, max_denominator=4)


def _text_row(values) -> str:
    return " ".join(str(x) for x in values)


def _text_matrix(rows) -> str:
    return " ; ".join(_text_row(r) for r in rows)


@st.composite
def _scenario_texts(draw):
    """Scenario text from small random parts; most of it parses."""
    rank = draw(st.integers(1, 3))
    genus = draw(st.integers(1, 2))
    dim = 2 * genus

    def matrix(entries, rows, cols):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    out = ["[lattice]", f"rank = {rank}", f"boundary = {_text_matrix(matrix(_ints, dim, rank))}"]
    out += ["[surface]", f"genus = {genus}"]
    if draw(st.booleans()):
        skew = [[0] * dim for _ in range(dim)]
        for i, j in itertools.combinations(range(dim), 2):
            skew[i][j] = draw(_ints)
            skew[j][i] = -skew[i][j]
        out.append(f"intersection = {_text_matrix(skew)}")
    out += ["[central_charge]", f"matrix = {_text_matrix(matrix(_rationals, 2, rank))}"]
    out += [
        f"keyframe = {_text_matrix(matrix(_rationals, 2, rank))}"
        for _ in range(draw(st.integers(0, 2)))
    ]
    # a negative definite form passes the kernel check for every Z
    scale = draw(st.integers(1, 3))
    q = [[-scale if i == j else 0 for j in range(rank)] for i in range(rank)]
    out += ["[quadratic_form]", f"matrix = {_text_matrix(q)}"]
    a, b, c, d = (draw(st.integers(1, 3)) for _ in range(4))
    out += ["[sector]", f"start = {-a} {b}", f"end = {c} {d}"]
    covector = (draw(st.sampled_from((0, 1, -1, Fraction(1, 2)))), draw(st.integers(1, 3)))
    out += [
        "[truncation]",
        f"covector = {_text_row(covector)}",
        f"cutoff = {draw(st.fractions(0, 5, max_denominator=3))}",
        f"scan_box = {draw(st.integers(1, 5))}",
    ]
    out += ["[mode]", f"value = {draw(st.sampled_from(('plain', 'twisted')))}"]
    out += ["[spectrum]"]
    weights = draw(st.dictionaries(st.tuples(*[_ints] * rank), _rationals, max_size=4))
    out += [f"entry = {_text_row(ch)} : {w}" for ch, w in weights.items()]
    if draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
        out += ["[refinement]", f"signs = {_text_row(signs)}"]
    chains = []
    for _ in range(draw(st.integers(0, 2))):
        heights = draw(
            st.lists(
                st.fractions(0, 1, max_denominator=12).filter(lambda t: 0 < t < 1),
                min_size=1, max_size=3, unique=True,
            )
        )
        items = (f"{t} : {_text_row(draw(st.tuples(*[_ints] * rank)))}" for t in heights)
        chains.append("chain = " + " , ".join(items))
    if chains:
        out += ["[chains]"] + chains
    return "\n".join(out) + "\n"


@settings(max_examples=40)
@given(_scenario_texts())
def test_format_round_trips_on_generated_scenarios(text):
    try:
        sc = parse_scenario(text)
    except ValidationError:
        assume(False)
    printed = format_scenario(sc)
    assert parse_scenario(printed) == sc
    assert format_scenario(parse_scenario(printed)) == printed


# pieces of rational tokens: signs, ASCII digits with leading zeros, '_',
# non-ASCII digits (superscript two is no decimal digit, Arabic-Indic three
# is one), '/', '.', exponents, spaces and the empty string
_TOKEN_PIECES = st.sampled_from(
    ["", "+", "-", "0", "00", "7", "42", "_", "\u00b2", "\u0663", "/", ".", "e", "E-", " ", "x"]
)


@settings(derandomize=True, database=None, max_examples=400)
@given(st.lists(_TOKEN_PIECES, max_size=5).map("".join))
def test_fraction_token_agrees_with_fraction(token):
    _agrees_with_fraction(token)


def _agrees_with_fraction(token):
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        message = f"^line 3: malformed rational {re.escape(repr(token))}$"
        with pytest.raises(ValidationError, match=message):
            _fraction(token, 3)
    else:
        got = _fraction(token, 3)
        assert got == expected and type(got) is Fraction


@pytest.mark.parametrize("token", [
    "1/-2", "1/+2", "-1/2", "+1/2", "1 / 2", "1/ 2", "1/0", "-0/5", "007/010", "+0",
    "1/2/3", "1_0/2", "\u0661/2", "1/\u0662", "9" * 641, "9" * 640 + "/7", "1/" + "9" * 641,
])
def test_fraction_edge_token_agrees_with_fraction(token):
    # signed and spaced denominators, zero ones, leading zeros, and tokens
    # at and past the 640 digits that int() always reads
    _agrees_with_fraction(token)


# -- generated texts in every spelling the format allows ----------------------

# whitespace between tokens: ASCII, and two Unicode spaces that str.split()
# splits on but the parser's ASCII integer pattern does not take
_GAPS = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", "\u2003 "])


@st.composite
def _spelled(draw, value: Fraction) -> str:
    """One token for value: a sign or '+', leading zeros, and p/q unreduced
    by a common factor, or an integer without a denominator."""
    k = draw(st.integers(1, 4))
    num, den = abs(value.numerator) * k, value.denominator * k
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    zeros = draw(st.sampled_from(["", "0", "00"]))
    if den == k and draw(st.booleans()):  # an integer, spelt without '/'
        return f"{sign}{zeros}{num // k}"
    return f"{sign}{zeros}{num}/{draw(st.sampled_from(['', '0']))}{den}"


@st.composite
def _spelled_int(draw, value: int) -> str:
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    return f"{sign}{draw(st.sampled_from(['', '0', '00']))}{abs(value)}"


@st.composite
def _spelled_scenarios(draw):
    """(text, tokens): a valid rank-2 scenario text whose every number is
    spelt at random, with comments, blank lines and odd spacing, and the
    tokens of each rational field."""
    def gap():
        return draw(_GAPS)

    def frac(lo, hi, den=6):
        return draw(st.fractions(lo, hi, max_denominator=den))

    def row(tokens):
        return gap().join(tokens)

    def matrix(rows):
        return f"{gap()};{gap()}".join(row(r) for r in rows)

    z = [[draw(_spelled(frac(-4, 4))) for _ in range(2)] for _ in range(2)]
    keyframes = [
        [[draw(_spelled(frac(-4, 4))) for _ in range(2)] for _ in range(2)]
        for _ in range(draw(st.integers(0, 2)))
    ]
    # a negative definite Q passes the kernel check for every Z
    q_diag = [draw(st.integers(-3, -1)) for _ in range(2)]
    q = [[draw(_spelled(Fraction(q_diag[i] if i == j else 0))) for j in range(2)] for i in range(2)]
    # rays (-a, b) and (c, d) with a, b, c, d > 0, and a covector (x, y) with
    # y >= 4 > 3 |x|, positive on both rays since a, c <= 3 and b, d >= 1
    a, c = (frac(Fraction(1, 3), 3) for _ in range(2))
    b, d = (frac(1, 3) for _ in range(2))
    start = [draw(_spelled(-a)), draw(_spelled(b))]
    end = [draw(_spelled(c)), draw(_spelled(d))]
    covector = [draw(_spelled(frac(-1, 1, 4))), draw(_spelled(Fraction(draw(st.integers(4, 6)))))]
    cutoff = draw(_spelled(frac(0, 6, 3)))
    charges = draw(st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                            min_size=1, max_size=4, unique=True))
    weights = [draw(_spelled(frac(-3, 3, 4))) for _ in charges]
    thetas = [
        [draw(_spelled(t)) for t in draw(st.lists(
            st.fractions(0, 1, max_denominator=12).filter(lambda t: 0 < t < 1),
            min_size=1, max_size=3, unique=True))]
        for _ in range(draw(st.integers(0, 2)))
    ]
    tokens = dict(z=z, keyframes=keyframes, q=q, start=start, end=end,
                  covector=covector, cutoff=cutoff, weights=weights, thetas=thetas)

    def key(name, value):
        return f"{draw(st.sampled_from(['', '  ', chr(9)]))}{name}{gap()}={gap()}{value}{gap()}"

    sections = [
        ("lattice", [key("rank", draw(_spelled_int(2))),
                     key("boundary", matrix([[draw(_spelled_int(x)) for x in r] for r in ((1, 0), (0, 1))]))]),
        ("surface", [key("genus", draw(_spelled_int(1)))]),
        ("central_charge", [key("matrix", matrix(z))] + [key("keyframe", matrix(kf)) for kf in keyframes]),
        ("quadratic_form", [key("matrix", matrix(q))]),
        ("sector", [key("start", row(start)), key("end", row(end))]),
        ("truncation", [key("covector", row(covector)), key("cutoff", cutoff),
                        key("scan_box", draw(_spelled_int(draw(st.integers(1, 4)))))]),
        ("mode", [key("value", draw(st.sampled_from(["plain", "twisted"])))]),
        ("spectrum", [
            key("entry", f"{row([draw(_spelled_int(x)) for x in ch])}{gap()}:{gap()}{w}")
            for ch, w in zip(charges, weights)]),
        ("refinement", [key("signs", row([draw(_spelled_int(s)) for s in (1, -1)]))]),
    ]
    if thetas:
        sections.append(("chains", [
            key("chain", f"{gap()},{gap()}".join(
                f"{t}{gap()}:{gap()}{row([draw(_spelled_int(x)) for x in (1, 0)])}" for t in chain))
            for chain in thetas]))
    lines = []
    for name, body in sections:
        lines.append(f"{gap()}[{draw(st.sampled_from(['', ' ']))}{name}]")
        for line in body:
            lines += draw(st.lists(st.sampled_from(["", gap(), "# a comment", "  #" + gap()]), max_size=2))
            lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), tokens


def _exact(rows):
    return tuple(tuple(Fraction(t) for t in r) for r in rows)


@settings(max_examples=50)
@given(_spelled_scenarios())
def test_every_spelling_parses_to_fraction_of_its_token(case):
    text, tokens = case
    sc = parse_scenario(text)
    assert sc.z.matrix == _exact(tokens["z"])
    assert tuple(kf.matrix for kf in sc.keyframes) == tuple(_exact(kf) for kf in tokens["keyframes"])
    assert sc.q.matrix == _exact(tokens["q"])
    assert (sc.sector.start, sc.sector.end) == _exact((tokens["start"], tokens["end"]))
    assert sc.trunc.covector == _exact((tokens["covector"],))[0]
    assert sc.trunc.cutoff == Fraction(tokens["cutoff"])
    assert sorted(c for _, c in sc.spectrum.items()) == sorted(
        w for w in map(Fraction, tokens["weights"]) if w)
    assert [[v.theta for v in chain.vertices] for chain in sc.chains] == [
        sorted(map(Fraction, chain)) for chain in tokens["thetas"]]
    for value in (*sc.z.matrix[0], sc.trunc.cutoff, *sc.sector.start):
        assert type(value) is Fraction
    assert parse_scenario(format_scenario(sc)) == sc

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import wallcross.engine as engine
import wallcross.lattice as lattice
from conftest import build_setup, ray_invariants
from wallcross.algebra import BracketMode, PbwAlgebra, Spectrum
from wallcross.cli import COMMANDS, _apply_overrides, _ratio, cmd_cone, main, run
from wallcross.errors import ValidationError
from wallcross.lattice import CentralCharge, Sector, TruncationSet, cone_enumerate
from wallcross.refinement import to_twisted
from wallcross.scenario import format_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PRIMITIVE = str(SCENARIOS / "primitive.scn")
CROSSING = str(SCENARIOS / "crossing.scn")
KRONECKER = str(SCENARIOS / "kronecker.scn")
PENTAGON = str(SCENARIOS / "pentagon.scn")
BENCH_GOLDEN = SCENARIOS.parent / "bench" / "golden.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cone_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "cone")
    assert (code, err) == (0, "")
    assert out == (
        "(0, 1) height 1\n"
        "(1, 0) height 1\n"
        "(0, 2) height 2\n"
        "(1, 1) height 2\n"
        "(2, 0) height 2\n"
    )


def test_product_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "product")
    assert (code, err) == (0, "")
    assert out == (
        "1 -> 1\n"
        "e(0, 1) -> 1\n"
        "e(1, 1) -> 1\n"
        "e(1, 0) -> 1\n"
        "e(0, 1) e(0, 1) -> 1/2\n"
        "e(0, 1) e(1, 0) -> 1\n"
        "e(1, 0) e(1, 0) -> 1/2\n"
    )


def test_factorize_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "factorize")
    assert (code, err) == (0, "")
    assert out == "(0, 1) -> 1\n(1, 0) -> 1\n(1, 1) -> 1\n"


def test_multilink_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "multilink")
    assert (code, err) == (0, "")
    assert out == "chain 1: total = 1\nchain 2: total = 2\n"


def test_twist_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "twist")
    assert (code, err) == (0, "")
    assert out == "(0, 1) -> 1\n(1, 0) -> 1\n(1, 1) -> -1\n"


def test_walls_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", "walls")
    assert (code, err) == (0, "")
    assert out == (
        "t in [1/2, 1/2] first_type (0, 1) x (1, 0)\n"
        "t in [1/2, 1/2] first_type (0, 1) x (1, 1)\n"
        "t in [1/2, 1/2] first_type (0, 1) x (2, 0)\n"
        "t in [1/2, 1/2] first_type (0, 2) x (1, 0)\n"
        "t in [1/2, 1/2] first_type (0, 2) x (1, 1)\n"
        "t in [1/2, 1/2] first_type (0, 2) x (2, 0)\n"
        "t in [1/2, 1/2] first_type (1, 0) x (1, 1)\n"
        "t in [1/2, 1/2] first_type (1, 1) x (2, 0)\n"
    )


CROSS_GOLDEN = (
    "spectrum at t=0:\n"
    "  (0, 1) -> 1\n"
    "  (1, 0) -> 1\n"
    "event t in [1/2, 1/2] first_type (0, 1) x (1, 0)\n"
    "event t in [1/2, 1/2] first_type (0, 1) x (1, 1)\n"
    "event t in [1/2, 1/2] first_type (0, 1) x (2, 0)\n"
    "event t in [1/2, 1/2] first_type (0, 2) x (1, 0)\n"
    "event t in [1/2, 1/2] first_type (0, 2) x (1, 1)\n"
    "event t in [1/2, 1/2] first_type (0, 2) x (2, 0)\n"
    "event t in [1/2, 1/2] first_type (1, 0) x (1, 1)\n"
    "event t in [1/2, 1/2] first_type (1, 1) x (2, 0)\n"
    "jump on [1/2, 1/2]:\n"
    "  before:\n"
    "    (0, 1) -> 1\n"
    "    (1, 0) -> 1\n"
    "  after:\n"
    "    (0, 1) -> 1\n"
    "    (1, 0) -> 1\n"
    "    (1, 1) -> 1\n"
    "spectrum at t=1:\n"
    "  (0, 1) -> 1\n"
    "  (1, 0) -> 1\n"
    "  (1, 1) -> 1\n"
)


def test_cross_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", "cross")
    assert (code, err) == (0, "")
    assert out == CROSS_GOLDEN


def test_cross_twisted_mode_flips_the_sum(capsys):
    code, out, err = run_cli(
        capsys, "--scenario", CROSSING, "--command", "cross", "--mode", "twisted"
    )
    assert (code, err) == (0, "")
    assert out == CROSS_GOLDEN.replace("(1, 1) -> 1", "(1, 1) -> -1")


def _spectrum_block(lines: list[str], header: str) -> dict:
    out = {}
    for line in lines[lines.index(header) + 1:]:
        if not line.startswith("  ("):
            break
        coords, value = line.strip().split(" -> ")
        out[tuple(int(x) for x in coords.strip("()").split(", "))] = Fraction(value)
    return out


def test_cross_on_kronecker_quiver(capsys):
    # <g1, g2> = 2 and a(n g_i) = -1/n^2: one jump, which keeps every
    # a(n g_i) and gives Omega(1, 1) = -2 and Omega(n, n +- 1) = 1
    code, out, err = run_cli(capsys, "--scenario", KRONECKER, "--command", "cross")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("jump")] == ["jump on [1/2, 1/2]:"]
    before = _spectrum_block(lines, "spectrum at t=0:")
    assert before == {c: Fraction(-1, sum(c) ** 2) for n in range(1, 7) for c in ((n, 0), (0, n))}
    after = _spectrum_block(lines, "spectrum at t=1:")
    assert {c: after[c] for c in before} == before
    expected = {(p, q): 1 for p in range(7) for q in range(7) if abs(p - q) == 1 and p + q <= 6}
    expected[1, 1] = -2
    assert ray_invariants(after, 6) == expected


def test_cross_on_pentagon(capsys):
    # <g1, g2> = 1 and a(n g_i) = -1/n^2: the pentagon identity keeps every
    # a(n g_i) and adds exactly a(k(1, 1)) = -1/k^2 up to the cutoff
    code, out, err = run_cli(capsys, "--scenario", PENTAGON, "--command", "cross")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("jump")] == ["jump on [1/2, 1/2]:"]
    before = _spectrum_block(lines, "spectrum at t=0:")
    assert before == {c: Fraction(-1, sum(c) ** 2) for n in range(1, 9) for c in ((n, 0), (0, n))}
    after = _spectrum_block(lines, "spectrum at t=1:")
    assert after == {**before, **{(k, k): Fraction(-1, k * k) for k in range(1, 5)}}


# sha256 of cross's stdout on the wall-crossing scenarios the benchmark's
# golden file leaves out.  <g1, g2> = 2 on kronecker.scn is even, so the
# twisted signs flip nothing there and both modes print the same report
CROSS_SHA256 = {
    (KRONECKER, "6", "plain"): "e6c08272416726b1cabfc2f2b218fd2e1d6cb4f1d0441dbcdf57c0f2b212a8e4",
    (KRONECKER, "6", "twisted"): "e6c08272416726b1cabfc2f2b218fd2e1d6cb4f1d0441dbcdf57c0f2b212a8e4",
    (KRONECKER, "8", "plain"): "61bcf079f3234f406a83f0f3a79db8b8eb73ce68a2988bfdc2cd70c1fe2e4657",
    (KRONECKER, "8", "twisted"): "61bcf079f3234f406a83f0f3a79db8b8eb73ce68a2988bfdc2cd70c1fe2e4657",
    (PENTAGON, "8", "plain"): "9f0ba3893959dae7d31b446ec19577e26ac07394442061c66826f389eccb08f2",
    (PENTAGON, "8", "twisted"): "9d1680e4adcaac91e1fe0b239ad42bec951299436685258972d806f41c0a127c",
}


@pytest.mark.parametrize("scenario, lam, mode", CROSS_SHA256,
                         ids=[f"{Path(s).stem}-{lam}-{mode}" for s, lam, mode in CROSS_SHA256])
def test_cross_output_digest(capsys, scenario, lam, mode):
    code, out, err = run_cli(capsys, "--scenario", scenario, "--command", "cross",
                             "--lambda", lam, "--mode", mode)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CROSS_SHA256[scenario, lam, mode]


def test_lambda_override_shrinks_the_cone(capsys):
    code, out, err = run_cli(
        capsys, "--scenario", PRIMITIVE, "--command", "cone", "--lambda", "1"
    )
    assert (code, err) == (0, "")
    assert out == "(0, 1) height 1\n(1, 0) height 1\n"
    code, out, _ = run_cli(
        capsys, "--scenario", PRIMITIVE, "--command", "cone", "--lambda", "0"
    )
    assert code == 0
    assert out == "(empty)\n"



def test_overrides_rebuild_the_scenario_once(monkeypatch):
    sc = parse_scenario(Path(CROSSING).read_text(encoding="utf-8"))
    assert _apply_overrides(sc, None, None) is sc
    rebuilt = []
    replace = dataclasses.replace
    monkeypatch.setattr(dataclasses, "replace", lambda obj, **changes: (
        rebuilt.append(type(obj).__name__) or replace(obj, **changes)))
    both = _apply_overrides(sc, "3/2", "twisted")
    assert rebuilt == ["TruncationSet", "Scenario"]
    trunc = replace(sc.trunc, cutoff=Fraction(3, 2))
    assert both == replace(sc, trunc=trunc, mode=BracketMode.TWISTED)
    with pytest.raises(ValidationError, match="malformed rational '1/0'"):
        _apply_overrides(sc, "1/0", "twisted")


_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@settings(max_examples=150)
@given(
    st.lists(_RATIONALS, min_size=4, max_size=4),
    _RATIONALS,
    st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
    st.builds(Fraction, st.integers(1, 24), st.integers(1, 4)),
)
def test_cone_heights_equal_the_height_of_z(entries, c0, lift, cutoff):
    # crossing.scn's lattice, form and sector (rays (-5, 1) and (5, 1)) under
    # a rational Z and covector: c1 > 5 |c0| keeps the covector positive on
    # the sector, and the shipped scenarios, all integer, could not show a
    # wrongly scaled height
    base = parse_scenario(Path(CROSSING).read_text(encoding="utf-8"))
    z = CentralCharge((entries[:2], entries[2:]))
    trunc = TruncationSet((c0, 5 * abs(c0) + lift), cutoff, base.trunc.scan_box)
    sc = dataclasses.replace(base, z=z, trunc=trunc)
    try:
        members = cone_enumerate(sc.lattice, z, sc.q, sc.sector, trunc)
    except ValidationError:  # Z without a negative-definite kernel
        assume(False)
    expected = [f"{ch.coords} height {trunc.height(z.evaluate(ch))}" for ch in members]
    assert cmd_cone(sc) == (expected or ["(empty)"])


@settings(max_examples=300)
@given(st.integers(1, 10**12), st.integers(1, 10**6))
def test_cone_height_text_is_str_of_the_fraction(h, scale):
    # cone prints each height from the chart's int height and scale
    assert _ratio(h, scale) == str(Fraction(h, scale))


def test_selftest_golden(capsys):
    code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", "selftest")
    assert (code, err) == (0, "")
    assert out == (
        "ok cone (5 members)\n"
        "ok factorization round trip\n"
        "ok rewrite confluence\n"
        "ok refinement defining relation\n"
        "ok forest enumeration\n"
        "ok constant path has no walls\n"
        "selftest passed\n"
    )


def test_selftest_skips_boundary_riding_scan(capsys):
    code, out, err = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "selftest")
    assert (code, err) == (0, "")
    assert "skip wall scan: a member rides the sector boundary" in out
    assert out.endswith("selftest passed\n")


def test_selftest_on_an_empty_cone_skips_the_algebra_checks(capsys):
    # the algebra is built before the emptiness check, over no members
    code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", "selftest",
                             "--lambda", "0")
    assert (code, err) == (0, "")
    assert out == (
        "ok cone (0 members)\n"
        "skip algebra checks: the truncated cone is empty\n"
        "ok refinement defining relation\n"
        "ok forest enumeration\n"
        "ok constant path has no walls\n"
        "selftest passed\n"
    )


def test_failed_selftest_check_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(PbwAlgebra, "factorize", lambda self, element: Spectrum({}))
    code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", "selftest")
    assert (code, out) == (4, "")
    assert err == "error: reconstruction: selftest check failed: factorization\n"


def test_selftest_checks_hold_under_python_O():
    # assert statements vanish under -O; the checks must not
    script = (
        "import sys\n"
        "from wallcross.algebra import PbwAlgebra, Spectrum\n"
        "from wallcross.cli import main\n"
        "PbwAlgebra.factorize = lambda self, element: Spectrum({})\n"
        f"sys.exit(main(['--scenario', {CROSSING!r}, '--command', 'selftest']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, encoding="utf-8", cwd=SCENARIOS.parent / "src",
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: reconstruction: selftest check failed: factorization\n"


def test_repeated_runs_are_byte_identical(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "--scenario", CROSSING, "--command", "cross")
        outputs.add(out)
    assert len(outputs) == 1


def test_validation_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "cross")
    assert code == 2
    assert out == ""
    assert err.startswith("error: validation: ")
    assert err.count("\n") == 1

    code, _, err = run_cli(capsys, "--scenario", "/no/such/file", "--command", "cone")
    assert code == 2
    assert err.startswith("error: validation: ")


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(b"\xff" + (SCENARIOS / "primitive.scn").read_bytes())
    code, out, err = run_cli(capsys, "--scenario", str(bad), "--command", "cone")
    assert (code, out) == (2, "")
    assert err.startswith("error: validation: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_parse_error_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[lattice]\nrank = 2\nrange = 4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "--scenario", str(bad), "--command", "cone")
    assert code == 2
    assert "line 3: unknown key 'range'" in err


@pytest.mark.parametrize("frames", [
    ("-6 -2 ; 2 2", "-3 -1 ; 1 1"),
    ("-3 -1 ; 1 1", "-3 -1 ; 1 1", "-6 -2 ; 2 2", "-3 -1 ; 1 1", "-3 -1 ; 1 1", "-3 -1 ; 1 1"),
], ids=["A", "B"])
def test_cross_checks_the_cone_at_every_keyframe(tmp_path, capsys, frames):
    # crossing.scn from z0 = (-3 -1 ; 1 1) through 2 z0, where the top
    # members have left the truncation: path B pauses at z0 on either side,
    # so no sample reads 2 z0, and it exits 2 with path A's message
    text = (SCENARIOS / "crossing.scn").read_text(encoding="utf-8")
    scn = tmp_path / "doubled.scn"
    scn.write_text(text.replace("keyframe = 1 -1 ; 1 1", "\n".join(f"keyframe = {f}" for f in frames)),
                   encoding="utf-8")
    code, out, err = run_cli(capsys, "--scenario", str(scn), "--command", "cross")
    assert (code, out, err) == (2, "", "error: validation: transport requires the same truncated "
                                "cone membership under both central charges\n")


@pytest.mark.parametrize("rank, message", [
    ("2", "line 7: boundary matrix must have one row per homology basis vector"),
    ("0", "line 7: lattice rank must be positive"),
])
def test_huge_genus_is_rejected_before_its_form_is_built(tmp_path, capsys, rank, message):
    # the standard form of this genus would not fit in memory; the lattice's
    # checks on the boundary rows reject it first
    text = (SCENARIOS / "crossing.scn").read_text(encoding="utf-8")
    bad = tmp_path / "huge.scn"
    bad.write_text(text.replace("genus = 1", "genus = 99999999999").replace(
        "rank = 2", f"rank = {rank}"), encoding="utf-8")
    began = time.perf_counter()
    code, out, err = run_cli(capsys, "--scenario", str(bad), "--command", "cone")
    assert time.perf_counter() - began < 0.5
    assert (code, out, err) == (2, "", f"error: validation: {message}\n")


SECOND_TYPE = """\
[lattice]
rank = 2
boundary = 1 0 ; 0 1

[surface]
genus = 1

[central_charge]
matrix = 1 -1 ; 1 1
keyframe = 3 -1 ; 1 1

[quadratic_form]
matrix = 1 2 ; 2 1

[sector]
start = -2 1
end = 2 1

[truncation]
covector = 0 1
cutoff = 2
scan_box = 4

[mode]
value = plain

[spectrum]
entry = 1 0 : 1
"""


def test_second_type_wall_exits_3(tmp_path, capsys):
    path = tmp_path / "second.scn"
    path.write_text(SECOND_TYPE, encoding="utf-8")
    code, out, err = run_cli(capsys, "--scenario", str(path), "--command", "cross")
    assert code == 3
    assert out == ""
    assert err.startswith("error: second-type-wall: ")
    assert "splits as" in err


def test_first_type_wall_exits_2(tmp_path, capsys):
    path = tmp_path / "degenerate.scn"
    text = SECOND_TYPE.replace("matrix = 1 -1 ; 1 1", "matrix = -1 -1 ; 1 1")
    text = text.replace("entry = 1 0 : 1", "entry = 1 0 : 1\nentry = 0 1 : 1")
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "--scenario", str(path), "--command", "product")
    assert code == 2
    assert err.startswith("error: first-type-wall: ")


# det Z is (1-s)^2 on the first segment and -s^2 on the second, so the
# phases of (1, 0) and (0, 1) meet tangentially on the middle keyframe and
# swap; the cutoff keeps their sum out of the 2-member cone
TANGENTIAL = """
[lattice]
rank = 2
boundary = 1 0 ; 0 1

[surface]
genus = 1

[central_charge]
matrix = 1 1 ; 2 3
keyframe = 0 0 ; 2 2
keyframe = 1 1 ; 3 2

[quadratic_form]
matrix = 1 2 ; 2 1

[sector]
start = -5 1
end = 5 1

[truncation]
covector = 0 1
cutoff = 3
scan_box = 4

[mode]
value = plain

[spectrum]
entry = 1 0 : 1
entry = 0 1 : 1
"""


def test_tangential_keyframe_crossing(tmp_path, capsys):
    path = tmp_path / "tangential.scn"
    path.write_text(TANGENTIAL, encoding="utf-8")
    code, out, err = run_cli(capsys, "--scenario", str(path), "--command", "walls")
    assert (code, out, err) == (0, "t in [1/2, 1/2] first_type (0, 1) x (1, 0)\n", "")
    code, out, err = run_cli(capsys, "--scenario", str(path), "--command", "cross")
    assert (code, err) == (0, "")
    assert out == (
        "spectrum at t=0:\n"
        "  (0, 1) -> 1\n"
        "  (1, 0) -> 1\n"
        "event t in [1/2, 1/2] first_type (0, 1) x (1, 0)\n"
        "jump on [1/2, 1/2]:\n"
        "  before:\n"
        "    (0, 1) -> 1\n"
        "    (1, 0) -> 1\n"
        "  after:\n"
        "    (0, 1) -> 1\n"
        "    (1, 0) -> 1\n"
        "spectrum at t=1:\n"
        "  (0, 1) -> 1\n"
        "  (1, 0) -> 1\n"
    )


@pytest.mark.parametrize("lam", [2, 4, 6, 8])
def test_command_grid_matches_bench_golden(capsys, lam):
    """Every command on both scenarios in both modes gives the exit code,
    stdout digest and stderr recorded in the benchmark's golden file, at
    each of the benchmark's cutoffs."""
    golden = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))
    mismatched = []
    for scenario, digest in golden["scenario_sha256"].items():
        path = SCENARIOS / f"{scenario}.scn"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        for command in COMMANDS:
            for mode in ("plain", "twisted"):
                code, out, err = run_cli(
                    capsys, "--scenario", str(path), "--command", command,
                    "--lambda", str(lam), "--mode", mode,
                )
                name = f"{command}:{scenario}:lambda={lam}:{mode}"
                got = [code, hashlib.sha256(out.encode()).hexdigest(), err.strip()]
                if got != golden["cli"][name]:
                    mismatched.append(name)
    assert mismatched == []


def test_main_parser_is_reused_between_calls(capsys, monkeypatch):
    # the parser is built once, at import: a run after a rejected argument
    # list prints what the first run did, and the rejection is unchanged
    monkeypatch.setenv("COLUMNS", "80")
    first = run_cli(capsys, "--scenario", PRIMITIVE, "--command", "cone")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", PRIMITIVE, "--command", "bogus"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "usage: wallcross [-h] --scenario SCENARIO --command\n"
            "                 {cone,product,factorize,cross,walls,multilink,twist,selftest}\n"
            "                 [--lambda P/Q] [--mode {plain,twisted}]\n"
            "wallcross: error: argument --command: invalid choice: 'bogus' (choose from "
        )
    assert run_cli(capsys, "--scenario", PRIMITIVE, "--command", "cone") == first
    assert first[0] == 0 and first[2] == ""


def _call_counts(monkeypatch, *targets) -> Counter:
    """Calls of each (owner, name), counted under its key for this test."""
    counts = Counter()
    for owner, name, key in targets:
        original = getattr(owner, name)

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def _count_member_checks(monkeypatch, counts: Counter) -> None:
    """Count under "member checks" each cone built from explicit members:
    the one path that checks members it did not enumerate itself."""
    original = lattice._Cone.__init__
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        if signature.bind(*args, **kwargs).arguments.get("members") is not None:
            counts["member checks"] += 1
        original(*args, **kwargs)

    monkeypatch.setattr(lattice._Cone, "__init__", counted)


def test_member_check_counter_sees_explicit_members(monkeypatch):
    # the counter behind the tests below: members given by keyword or by
    # position are counted, an enumerated cone is not
    counts = Counter()
    _count_member_checks(monkeypatch, counts)
    s = build_setup()
    PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc)
    PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, members=(s.g1,))
    PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, "plain", (s.g1,))
    assert counts == {"member checks": 2}


def test_product_builds_one_chart_and_checks_the_covector_once(capsys, monkeypatch):
    # the fixed path of one product call: the parse checks the covector on
    # the sector and ker Z, and the structure's cone (which checks the
    # covector on ints) checks ker Z; its algebra orders the members on
    # that cone
    counts = _call_counts(
        monkeypatch,
        (lattice._Cone, "__init__", "cones"),
        (TruncationSet, "validate_for", "validate_for"),
        (lattice, "_kernel_rows", "kernel checks"),  # once per check of ker Z
    )
    code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", "product",
                             "--lambda", "2")
    assert (code, err) == (0, "") and out
    assert counts == {"cones": 1, "validate_for": 1, "kernel checks": 2}


def test_cross_and_walls_build_one_chart_per_central_charge(capsys, monkeypatch):
    # crossing.scn at lambda 8: the structure builds one cone, and each of
    # cross's 5 transports the cone of its own central charge, checking
    # none of the members it enumerated.  walls reads the members alone and
    # builds no algebra; cross builds two, the structure's for its product
    # and the target of the one transport that misses the memo
    counts = _call_counts(
        monkeypatch,
        (lattice._Cone, "__init__", "cones"),
        (PbwAlgebra, "_adopt", "algebras"),
        (engine, "transport_spectrum", "transports"),
    )
    _count_member_checks(monkeypatch, counts)
    for command, expected in (("cross", {"cones": 6, "algebras": 2, "transports": 5}),
                              ("walls", {"cones": 1})):
        counts.clear()
        code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", command,
                                 "--lambda", "8")
        assert (code, err) == (0, "") and out
        assert counts == expected


@pytest.mark.parametrize("scenario", [CROSSING, KRONECKER], ids=["crossing", "kronecker"])
def test_cross_converts_and_factorizes_once_per_generator_order(capsys, monkeypatch, scenario):
    # lambda 8: every transport still checks its own cone, but the 2
    # samples before the wall read the seeded spectrum of the source order
    # and the 3 after it share one order, so 1 factorization serves all 5
    counts = _call_counts(
        monkeypatch,
        (lattice._Cone, "__init__", "cones"),
        (engine, "transport_spectrum", "transports"),
        (PbwAlgebra, "convert", "converts"),
        (PbwAlgebra, "factorize", "factorizations"),
    )
    code, out, err = run_cli(capsys, "--scenario", scenario, "--command", "cross",
                             "--lambda", "8")
    assert (code, err) == (0, "") and out
    assert counts == {"cones": 6, "transports": 5, "converts": 1, "factorizations": 1}


def test_selftest_builds_one_cone_and_checks_no_members(capsys, monkeypatch):
    # the selftest's algebra enumerates the cone, and its first-type rule
    # is checked against wall_first_type's pair scan on those members,
    # which are not checked again
    counts = _call_counts(monkeypatch, (lattice._Cone, "__init__", "cones"))
    _count_member_checks(monkeypatch, counts)
    code, out, err = run_cli(capsys, "--scenario", CROSSING, "--command", "selftest")
    assert (code, err) == (0, "") and out.endswith("selftest passed\n")
    assert counts == {"cones": 1}


def test_with_mode_and_to_twisted_share_the_cone(monkeypatch):
    # a twin in the other mode reads its source's cone: no cone is built and
    # no member checked again, on an enumerated cone or on explicit members
    sc = parse_scenario((SCENARIOS / "crossing.scn").read_text(encoding="utf-8"))
    plain = PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, sc.trunc)
    explicit = PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, sc.trunc, members=plain.members[:3])
    element = plain.ray_product(sc.spectrum)
    counts = _call_counts(monkeypatch, (lattice._Cone, "__init__", "cones"),
                          (PbwAlgebra, "_adopt", "algebras"))
    _count_member_checks(monkeypatch, counts)
    twins = [alg.with_mode("twisted") for alg in (plain, explicit)]
    twisted = to_twisted(sc.refinement, element)
    assert counts == {"algebras": 3}
    for alg, twin in zip((plain, explicit), twins):
        assert twin._cone is alg._cone and twin.members == alg.members
        assert twin.mode is BracketMode.TWISTED and twin.order is alg.order
    assert twisted.algebra._cone is plain._cone


def _plane_image(text: str, g) -> str:
    """The scenario with every plane vector mapped by g: Z and each keyframe
    to g Z and the sector rays to g start and g end, and the covector to
    covector g^-1, so that every height stays what it was."""
    (a, b), (c, d) = g
    det = a * d - b * c

    def image(v):
        return a * v[0] + b * v[1], c * v[0] + d * v[1]

    def mapped(z):
        return CentralCharge(tuple(zip(*map(image, zip(*z.matrix)))))

    sc = parse_scenario(text)
    x, y = sc.trunc.covector
    return format_scenario(dataclasses.replace(
        sc, z=mapped(sc.z), keyframes=tuple(map(mapped, sc.keyframes)),
        sector=Sector(image(sc.sector.start), image(sc.sector.end)),
        trunc=dataclasses.replace(sc.trunc, covector=((x * d - y * c) / det, (y * a - x * b) / det))))


def _command_outputs(text: str) -> tuple:
    """(exit code, stdout, stderr) of every command at --lambda 2 and 4 in
    both modes, run in process on the scenario text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.scn"
        path.write_text(text, encoding="utf-8")
        runs = []
        for command in COMMANDS:
            for lam in ("2", "4"):
                for mode in ("plain", "twisted"):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(["--scenario", str(path), "--command", command,
                                     "--lambda", lam, "--mode", mode])
                    runs.append((command, lam, mode, code, out.getvalue(), err.getvalue()))
    return tuple(runs)


@functools.cache
def _shipped_outputs(name: str) -> tuple:
    return _command_outputs((SCENARIOS / f"{name}.scn").read_text(encoding="utf-8"))


_PLANE_ENTRY = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@pytest.mark.parametrize("name", ["crossing", "kronecker", "pentagon", "primitive"])
@settings(max_examples=4, deadline=None)
@given(g=st.tuples(st.tuples(_PLANE_ENTRY, _PLANE_ENTRY), st.tuples(_PLANE_ENTRY, _PLANE_ENTRY)))
def test_every_command_is_blind_to_an_orientation_preserving_change_of_plane(name, g):
    # GL+(2, Q) keeps every cross-product sign and, with the covector moved
    # by g^-1, every height: the clockwise order, the sector, the cutoff and
    # every event time, so every command prints the same bytes
    (a, b), (c, d) = g
    assume(a * d - b * c > 0)
    text = (SCENARIOS / f"{name}.scn").read_text(encoding="utf-8")
    assert _command_outputs(_plane_image(text, g)) == _shipped_outputs(name)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wallcross.cli",
         "--scenario", PRIMITIVE, "--command", "cone"],
        capture_output=True, text=True, encoding="utf-8", cwd=SCENARIOS.parent / "src",
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "(0, 1) height 1"


def test_walls_on_a_constant_path_reports_no_events():
    # the keyframe repeats the central charge, so no phases ever meet
    text = (SCENARIOS / "crossing.scn").read_text(encoding="utf-8")
    constant = text.replace("keyframe = 1 -1 ; 1 1", "keyframe = -3 -1 ; 1 1")
    assert constant != text
    assert run("walls", parse_scenario(constant)) == "no wall events\n"


def test_missing_sections_for_command(capsys):
    code, _, err = run_cli(capsys, "--scenario", CROSSING, "--command", "multilink")
    assert code == 2
    assert "needs a [chains] section" in err
    code, _, err = run_cli(capsys, "--scenario", CROSSING, "--command", "walls")
    assert code == 0

    # strip the refinement section and ask for a twist
    text = (SCENARIOS / "crossing.scn").read_text(encoding="utf-8")
    stripped = text[: text.index("[refinement]")]
    import tempfile, os

    fd, tmp = tempfile.mkstemp(suffix=".scn")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(stripped)
        code, _, err = run_cli(capsys, "--scenario", tmp, "--command", "twist")
        assert code == 2
        assert "needs a [refinement] section" in err
    finally:
        os.unlink(tmp)


def test_bad_lambda_override(capsys):
    code, _, err = run_cli(
        capsys, "--scenario", PRIMITIVE, "--command", "cone", "--lambda", "x/y"
    )
    assert code == 2
    assert "malformed rational 'x/y'" in err


# -- fuzzed scenario text -------------------------------------------------------

# Replacement tokens and inserted characters stay small: a fuzzed cutoff or
# scan_box can only stay near the shipped ones, so every run is quick.
_TOKENS = (
    "0", "1", "-1", "2", "3", "1/2", "1/0", "1.5", "x", "", ";", ":", ",", "=", "#", "[mode]",
)
_CHARS = "[]=;:,#-/ \tx\n"


@st.composite
def _fuzzed_texts(draw):
    base = draw(st.sampled_from(("primitive.scn", "crossing.scn")))
    lines = (SCENARIOS / base).read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kinds = ("delete", "duplicate", "swap", "insert", "erase") + ("token",) * 5
        kind = draw(st.sampled_from(kinds))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            tokens = lines[i].split(" ")
            first = 2 if tokens[1:2] == ["="] and len(tokens) > 2 else 0  # mostly values
            tokens[draw(st.integers(first, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(tokens)
        else:
            k = draw(st.integers(0, len(lines[i])))
            tail = lines[i][k + (kind == "erase"):]
            mid = draw(st.sampled_from(_CHARS)) if kind == "insert" else ""
            lines[i] = lines[i][:k] + mid + tail
        if not lines:
            break
    return "\n".join(lines) + "\n"


# No explain phase: it traces every line of each CLI run, and after a
# failure it ran for minutes and grew past a gigabyte.
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(
    _fuzzed_texts(),
    st.sampled_from(COMMANDS),
    st.sampled_from((None, "0", "1", "2", "3", "-1", "1/0", "x")),
    st.sampled_from((None, "plain", "twisted")),
)
def test_fuzzed_scenarios_exit_cleanly(text, command, cutoff, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.scn"
        path.write_text(text, encoding="utf-8")
        argv = ["--scenario", str(path), "--command", command]
        argv += ["--lambda", cutoff] if cutoff is not None else []
        argv += ["--mode", mode] if mode is not None else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")

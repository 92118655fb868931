"""Script parsing, report rendering, exit codes, output determinism."""

import contextlib
import gc
import io
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thickgen.cli import main, run_script
from thickgen.complexes import koszul
from thickgen.dsl import parse_script, render_complex, run_command
from thickgen.errors import ExponentLimitError, ParseError
from thickgen.polys import EXP_LIMIT
from thickgen.ideals import Ideal
from thickgen.rings import ZZ, Zmod

from random_complexes import random_complex


def run(text, **kw):
    out = io.StringIO()
    code = run_script(text, out=out, **kw)
    return code, out.getvalue()


def test_koszul_ann_frozen_line():
    code, text = run(
        "ring R = Z\n"
        "ideal I over R = (2)\n"
        "koszul I as K\n"
        "ann K\n"
    )
    assert code == 0
    assert "ann: (2)" in text.splitlines()


def test_idempotents_frozen_line():
    code, text = run("ring R = Zmod 6\nidempotents R\n")
    assert code == 0
    assert "idempotents: 0 1 3 4" in text.splitlines()


def test_homology_and_support_blocks():
    code, text = run(
        "ring R = Z\n"
        "ideal I over R = (6)\n"
        "koszul I as K\n"
        "homology K\n"
        "support K\n"
    )
    assert code == 0
    assert "command: homology" in text
    assert "H(0): R/(6)" in text
    assert "support: V(6)" in text
    assert "primes: (2) ; (3)" in text


def test_blocks_separated_by_single_blank_line():
    _, text = run("ring R = Z\nideal I over R = (2)\nkoszul I as K\nann K\nhomology K\n")
    assert "\n\n\n" not in text
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 3
    assert all(b.startswith("command: ") for b in blocks)


def test_parse_error_exit_one():
    code, text = run("ring R = Zmod\n")
    assert code == 1
    assert text == ""


def test_parse_error_message_has_position():
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_script("ring R = Frobenius 7\n", out=out)
    assert code == 1
    assert "line 1" in err.getvalue()


@pytest.mark.parametrize(
    "script,line,col",
    [
        ("ring R = Fp 4\n", 1, 10),
        ("ring R = Zmod 1\n", 1, 10),
        ("ring R = poly Q [x,x]\n", 1, 10),
        ("ring R = polyquot Q [t] (3)\n", 1, 10),
        ("ring R = Z\nideal I over R = (1/2)\n", 2, 18),
    ],
)
def test_bad_literal_is_a_parse_error_at_the_literal(script, line, col):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(script, machine=True)
    assert code == 1
    assert text == ""
    assert err.getvalue().startswith(f"parse error: line {line}, col {col}: ")
    assert "Traceback" not in err.getvalue()


def test_division_by_zero_over_zmod_is_a_parse_error():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run("ring R = Zmod 12\nideal I over R = (3/0)\n", machine=True)
    assert code == 1
    assert text == ""
    assert err.getvalue() == "parse error: line 2, col 18: division by zero\n"


def test_number_too_long_to_render_is_an_engine_error():
    script = "ring R = Z\nideal I over R = (2^100000)\nkoszul I as K\n"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(script, machine=True)
    assert code == 2
    assert text == ""
    assert err.getvalue() == "error: cannot render a number of 100001 bits\n"


EXPONENT_SCRIPT = "ring P = poly Q [x,y]\nideal I over P = (x^{e}, y)\nobstruct P I --max 2\n"


def test_exponent_past_the_limit_in_a_literal_is_a_parse_error():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(EXPONENT_SCRIPT.format(e=EXP_LIMIT + 1), machine=True)
    assert code == 1
    assert text == ""
    assert err.getvalue() == (
        f"parse error: line 2, col 18: a monomial exponent exceeds the limit {EXP_LIMIT}\n"
    )


def test_exponent_past_the_limit_in_an_ideal_power_is_an_engine_error():
    # x^(2^62) parses; its square in I^2 does not fit
    script = EXPONENT_SCRIPT.format(e=1 << 62)
    session = parse_script(script)
    with pytest.raises(ExponentLimitError):
        run_command(session, session.commands[0])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(script, machine=True)
    assert code == 2
    assert text == ""
    assert err.getvalue() == f"error: a monomial exponent exceeds the limit {EXP_LIMIT}\n"


def test_exponent_past_32_bits_keeps_its_output():
    code, text = run(EXPONENT_SCRIPT.format(e=1 << 32), machine=True)
    assert code == 0
    assert text == (
        "command: obstruct\n"
        "ring: Q[x,y] (grevlex)\n"
        "ideal: (x^4294967296, y)\n"
        "max: 2\n"
        "connected: yes\n"
        "stabilizes: no\n"
        "\n"
        "n: 2\n"
        "kind: lower-bound\n"
        "level: 2\n"
        "cones: 1\n"
        "generator-ann: (x^4294967296, y)\n"
        "target-ann: (x^8589934592, x^4294967296*y, y^2)\n"
        "generator: x^4294967296\n"
        "note: generator-ann I kills H*(K(I)) and H^0(K(I^n)) = R/I^n, so target-ann I^n "
        "contains ann H*(K(I^n)); this holds for any list of generators\n"
        "\n"
        "verdict: not-strongly-generated\n"
        "note: levels against a fixed Koszul generator grow without bound, so no single "
        "perfect complex strongly generates the category\n"
    )


@pytest.mark.parametrize(
    "script,line,col",
    [
        ("ring R = Z\nideal I over R = (2)\nobstruct R I --max {n}\n", 3, 20),
        ("ring R = Z\nwitness-principal R (2) {n} as W\n", 2, 25),
    ],
    ids=["expect_int", "parse_atom"],
)
def test_integer_token_too_long_for_int_is_a_parse_error(script, line, col):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(script.format(n="9" * 5000), machine=True)
    assert code == 1
    assert text == ""
    assert err.getvalue() == (
        f"parse error: line {line}, col {col}: integer of 5000 digits is too long\n"
    )


@pytest.mark.parametrize(
    "literal",
    ["Fp 1000000000039", "Fp 1000000000000000003", "poly Fp 1000000000000000003 [x]"],
)
def test_fp_modulus_past_the_primality_bound_is_a_parse_error(literal):
    # trial division stops at the factorization bound 10^12 instead of
    # running for minutes on an 18-digit prime
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code, text = run(f"ring R = {literal}\n", machine=True)
    assert time.perf_counter() - t0 < 5.0
    assert code == 1
    assert text == ""
    assert err.getvalue().startswith("parse error: line 1, col 10: ")
    assert "exceeds the primality bound" in err.getvalue()


def test_step_budget_ignores_the_environment(monkeypatch):
    script = "ring R = Z\nideal I over R = (6)\nkoszul I as K\nhomology K\n"
    plain = run(script, machine=True)
    monkeypatch.setenv("THICKGEN_MAX_STEPS", "abc")
    assert run(script, machine=True) == plain
    assert plain[0] == 0


@pytest.mark.parametrize(
    "ring,gens,ann",
    [
        ("Zmod 100", "(55, 64, 54, 37, 68)", "(1)"),
        ("Zmod 360", "(319, 131, 184, 354, 334)", "(1)"),
        ("Z", "(54, 32, 60, 24, 60, 54)", "(2)"),
    ],
)
def test_koszul_ann_with_large_kernel_lattices_is_fast(ring, gens, ann):
    # each ran past 60 s when kernel bases came from Smith transforms
    t0 = time.perf_counter()
    code, text = run(f"ring R = {ring}\nideal I over R = {gens}\nkoszul I as K\nann K\n")
    assert time.perf_counter() - t0 < 10.0
    assert code == 0
    assert f"ann: {ann}" in text.splitlines()


def test_engine_error_exit_two_machine_emits_nothing():
    script = (
        "ring R = Z\n"
        "ideal I over R = (2)\n"
        "koszul I as K\n"
        "ann K\n"
        "ann MISSING\n"
    )
    code, text = run(script, machine=True)
    assert code == 2
    assert text == ""  # buffered mode flushes only on success


def test_engine_error_human_mode_streams_prefix():
    script = "ring R = Z\nideal I over R = (2)\nkoszul I as K\nann K\nann MISSING\n"
    code, text = run(script)
    assert code == 2
    assert "ann: (2)" in text  # earlier block already streamed


def test_redefinition_is_a_parse_error():
    code, _ = run("ring R = Z\nring R = Q\n")
    assert code == 1


def test_machine_output_is_byte_deterministic():
    script = (
        "ring P = poly Q [x,y] grevlex\n"
        "ideal M over P = (x, y)\n"
        "obstruct P M --max 4\n"
    )
    runs = {run(script, machine=True)[1] for _ in range(2)}
    assert len(runs) == 1


def test_script_leaves_no_cyclic_garbage():
    # expression evaluation, squarefree splitting and the trial-division
    # enumeration behind `spec` build no self-referencing closures, so
    # reference counting frees everything a script allocates
    script = (
        "ring A = polyquot F5 [t] (t^7 + 2*t^5 + t^2 + 2)\n"
        "ideal I over A = (t^2 + 3*t, t + 4)\n"
        "koszul I as K\n"
        "homology K\n"
        "spec A\n"
    )
    assert run(script, machine=True)[0] == 0
    gc.collect()
    gc.disable()
    try:
        code, text = run(script, machine=True)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert code == 0 and "points: (t + 1) ; (t^2 + 2)" in text
    assert garbage == 0


def test_witness_roundtrip_through_bindings():
    script = (
        "ring R = Z\n"
        "witness-principal R (2) 3 as W\n"
        "ideal I over R = (2)\n"
        "koszul I as G\n"
        "ideal I3 over R = (8)\n"
        "koszul I3 as X\n"
        "validate-witness W X G\n"
    )
    code, text = run(script)
    assert code == 0
    assert "level: 3" in text and "valid: yes" in text


def test_thick_member_and_level_lb_commands():
    script = (
        "ring R = Z\n"
        "ideal A over R = (4)\n"
        "ideal B over R = (2)\n"
        "koszul A as X\n"
        "koszul B as G\n"
        "thick-member X G\n"
        "level-lb X G\n"
    )
    code, text = run(script)
    assert code == 0
    assert "membership: yes" in text
    assert "level: 2" in text


def test_obstruct_floor_is_two():
    code, _ = run("ring R = Z\nideal I over R = (2)\nobstruct R I --max 1\n")
    assert code == 1


ZMOD8 = "ring R = Zmod 8\nideal I over R = (2)\n"
ONE_RANK = "ring R = Z\ncomplex K over R = { deg 0..0 ; rank(0) = 1 }\n"


@pytest.mark.parametrize(
    "script,stderr",
    [
        (ZMOD8 + "obstruct R I --max 1\n", "line 3, col 20: --max must be at least 2"),
        (ZMOD8 + "nilpotence R I --max 0\n", "line 3, col 22: --max must be at least 1"),
        (ZMOD8 + "nilpotence R I -max 3\n", "line 3, col 16: expected --max"),
        (ZMOD8 + "obstruct R I --min 3\n", "line 3, col 14: expected --max"),
        ("ring R = Z\nwitness-principal R (2) 0\n", "line 2, col 25: power must be at least 1"),
        ("ring R = Z\nwitness-principal R 2 3\n", "line 2, col 21: expected '(', found '2'"),
        (ZMOD8 + "koszul I as\n", "line 4, col 1: expected binding name, found ''"),
        (ZMOD8 + "koszul I as R\n", "line 3, col 1: name 'R' is already bound"),
        (ONE_RANK + "thick-member K\n", "line 4, col 1: expected name, found ''"),
        ("spec 3\n", "line 1, col 6: expected name, found '3'"),
        ("frobnicate X\n", "line 1, col 1: unknown statement 'frobnicate'"),
        ("ring R = Z\nlevel-foo X\n", "line 2, col 1: unknown statement 'level'"),
        (
            ZMOD8 + "koszul I as K\nideal J over K = (2)\n",
            "line 4, col 14: 'K' is bound to a pending result, expected ring",
        ),
        ("ideal J over K = (2)\n", "line 1, col 14: unknown name 'K'"),
        ("ring R = Z\nideal I on R = (2)\n", "line 2, col 9: expected 'over', found 'on'"),
        ("ring R = poly Q [x,]\n", "line 1, col 20: expected variable, found ']'"),
        ("ring R = Z\nideal I over R = (2, 3\n", "line 3, col 1: expected ')', found ''"),
        (
            "ring R = Z\ncomplex K over R = { deg 0..1 ; d(0 = [[2]] }\n",
            "line 2, col 37: expected ')', found '='",
        ),
        (
            "ring R = Z\ncomplex K over R = { deg 0..1 ; rank(0) = 1 ; rank(0) = 2 }\n",
            "line 2, col 47: duplicate rank(0) entry",
        ),
        (
            ONE_RANK + "map f : K -> K = { c(0) = [[1]] ; c(0) = [[1]] }\n",
            "line 3, col 35: duplicate c(0) block",
        ),
        (ONE_RANK + "map f : K -> K = { c(0 = [[1]] }\n", "line 3, col 24: expected ')', found '='"),
        (ONE_RANK + "map f : K -> K = { d(0) = [[1]] }\n", "line 3, col 20: expected c(...), found 'd'"),
        (ONE_RANK + "map f : R -> K = { }\n", "line 3, col 9: 'R' is bound to a ring, expected complex"),
        (
            "ring R = Z\ncomplex K over R = { deg 0..1 ; d(0) = [[2, 3 }\n",
            "line 2, col 47: expected ']', found '}'",
        ),
    ],
    ids=[
        "obstruct-floor",
        "nilpotence-floor",
        "single-dash-flag",
        "wrong-flag",
        "power-floor",
        "bare-expr",
        "as-without-name",
        "as-rebinds",
        "missing-argument",
        "int-for-name",
        "unknown-statement",
        "unknown-hyphenated",
        "pending-kind",
        "unknown-binding",
        "over-keyword",
        "var-list-trailing-comma",
        "ideal-unclosed",
        "d-index-unclosed",
        "duplicate-rank",
        "duplicate-c",
        "c-index-unclosed",
        "map-entry-not-c",
        "map-source-kind",
        "matrix-row-unclosed",
    ],
)
def test_parse_error_bytes(script, stderr):
    assert run_machine(script) == (1, "", f"parse error: {stderr}\n")


@pytest.mark.parametrize(
    "literal,describe", [("poly Q [x]", "Q[x]"), ("poly Q [x,y]", "Q[x,y] (grevlex)")]
)
def test_polynomial_division_error_names_the_ring(literal, describe):
    script = f"ring R = {literal}\nideal I over R = (3/x)\n"
    stderr = f"parse error: line 2, col 18: x does not divide 3 in {describe}\n"
    assert run_machine(script) == (1, "", stderr)


def test_wrong_binding_kind_takes_its_article():
    stderr = "error: 'I' is bound to an ideal, expected ring\n"
    assert run_machine(ZMOD8 + "obstruct I I --max 3\n") == (2, "", stderr)


TIER2_ZERO = "ring P = poly Q [x,y]\ncomplex Z over P = { deg 0..0 }\n"


def test_zero_complex_over_tier_two_has_empty_support():
    stdout = (
        "command: thick-member\n"
        "membership: yes\n"
        "support-target: empty\n"
        "support-generator: empty\n"
        "\n"
        "command: support\n"
        "support: empty\n"
        "primes: \n"
        "\n"
        "command: homology\n"
        "trivial: yes\n"
    )
    script = TIER2_ZERO + "thick-member Z Z\nsupport Z\nhomology Z\n"
    assert run_machine(script) == (0, stdout, "")


@pytest.mark.parametrize("command", ["ann Z", "level-lb Z Z"])
def test_annihilator_of_a_zero_complex_over_tier_two_is_a_tier_error(command):
    stderr = "error: homology needs a Tier-1 ring, got Q[x,y] (grevlex)\n"
    assert run_machine(TIER2_ZERO + command + "\n") == (2, "", stderr)


def test_main_runs_a_script_file(tmp_path, capsys):
    text = "ring R = Z\nideal I over R = (6)\nkoszul I as K\nsupport K\nlevel-lb K K\n"
    path = tmp_path / "script.tg"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--machine"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (run_machine(text)[1], "")


def test_main_reports_an_unreadable_script(tmp_path, capsys):
    path = tmp_path / "missing.tg"
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize(
    "literal,elem,shown,n,target",
    [
        ("Z", "-2", "-2", 3, "[[-8]]"),
        ("Q", "2", "2", 2, "[[4]]"),
        ("poly Q [x]", "2*x", "2*x", 3, "[[8*x^3]]"),
        ("Z", "2", "2", 3, "[[8]]"),
        ("Zmod 12", "-2", "10", 2, "[[4]]"),
    ],
    ids=["Z-negative", "Q", "Q[x]", "Z", "Z/12-negative"],
)
def test_witness_principal_targets_the_power_of_the_element(literal, elem, shown, n, target):
    script = f"ring R = {literal}\nwitness-principal R ({elem}) {n}\n"
    stdout = (
        f"command: witness-principal\nelement: {shown}\npower: {n}\n"
        f"level: {n}\ncones: {n - 1}\ntarget: {{ deg -1..0 ; d(-1) = {target} }}\n"
    )
    assert run_machine(script) == (0, stdout, "")


def reparse_complex(X, ring_literal):
    script = f"ring R = {ring_literal}\ncomplex X over R = {render_complex(X)}\n"
    return parse_script(script).get("X", "complex")


def test_complex_literal_roundtrip_random():
    rng = random.Random(77)
    for ring, literal in ((ZZ, "Z"), (Zmod(9), "Zmod 9")):
        for _ in range(10):
            X, _, _ = random_complex(ring, rng)
            assert reparse_complex(X, literal) == X


def test_complex_literal_roundtrip_koszul():
    K = koszul(Ideal(ZZ, [2, 3]))
    assert reparse_complex(K, "Z") == K


def test_session_runs_commands_in_order():
    session = parse_script(
        "ring R = Zmod 12\nspec R\nidempotents R\n"
    )
    names = [c.name for c in session.commands]
    assert names == ["spec", "idempotents"]
    first = run_command(session, session.commands[0])
    assert first[0][0] == "command: spec"


def test_unbalanced_complex_braces_flag_line():
    with pytest.raises(ParseError):
        parse_script("ring R = Z\ncomplex X over R = { deg 0..1 ; d(0) = [[2]]\n")


# ------------------------------------------------------- bounded script fuzz

FUZZ_RINGS = [
    "Z",
    "Q",
    "Zmod 12",
    "Zmod 7",
    "Fp 5",
    "poly Q [x]",
    "poly F3 [x]",
    "polyquot F2 [x] (x^3 + x)",
    "polyquot Q [x] (x^2 - 1)",
    "poly Q [x,y]",
    "poly F5 [x,y] lex",
    "poly Q [x,y,z]",
]

EXPR = st.recursive(
    st.sampled_from([str(k) for k in range(7)] + ["x", "y", "z"]),
    lambda sub: st.one_of(
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})^{}".format, sub, st.integers(0, 6)),
    ),
    max_leaves=4,
)

SMALL = st.integers(0, 6)
COMPLEX_NAME = st.sampled_from(["X", "Y", "K"])


@st.composite
def complex_literal(draw, name):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.integers(-6, 6).map(str)
    matrix = ", ".join(
        "[" + ", ".join(draw(entries) for _ in range(cols)) + "]" for _ in range(rows)
    )
    lo = draw(st.integers(-1, 1))
    return f"complex {name} over R = {{ deg {lo}..{lo + 1} ; d({lo}) = [{matrix}] }}"


COMMAND = st.one_of(
    st.sampled_from(["koszul I", "koszul I as K", "spec R", "idempotents R"]),
    st.builds("homology {}".format, COMPLEX_NAME),
    st.builds("ann {}".format, COMPLEX_NAME),
    st.builds("support {}".format, COMPLEX_NAME),
    st.builds("thick-member {} {}".format, COMPLEX_NAME, COMPLEX_NAME),
    st.builds("level-lb {} {}".format, COMPLEX_NAME, COMPLEX_NAME),
    st.builds("witness-principal R ({}) {} as W".format, EXPR, SMALL),
    st.builds("validate-witness W {} {}".format, COMPLEX_NAME, COMPLEX_NAME),
    st.builds("nilpotence R I --max {}".format, SMALL),
    st.builds("obstruct R I --max {}".format, SMALL),
)


@st.composite
def fuzz_script(draw):
    gens = ", ".join(draw(st.lists(EXPR, min_size=1, max_size=2)))
    lines = [
        f"ring R = {draw(st.sampled_from(FUZZ_RINGS))}",
        f"ideal I over R = ({gens})",
        draw(complex_literal("X")),
        draw(complex_literal("Y")),
    ]
    lines += draw(st.lists(COMMAND, min_size=1, max_size=3))
    return "\n".join(lines) + "\n"


def run_machine(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_script(text, machine=True, out=out)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(script=fuzz_script())
def test_fuzzed_scripts_end_with_an_exit_code_and_repeat(script):
    first = run_machine(script)
    code, out, _ = first
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
    assert run_machine(script) == first


# ---------------------------------------------------------- token-level fuzz

TOKEN_PRELUDE = (
    "ring R = Zmod 12\n"
    "ideal I over R = (2)\n"
    "complex X over R = { deg 0..1 ; d(0) = [[2]] }\n"
)

LEXICON = (
    # keywords, ring heads and literal words
    ["ring", "ideal", "complex", "map", "over", "as", "deg", "d", "rank", "c"]
    + ["Z", "Q", "Zmod", "Fp", "F5", "poly", "polyquot", "lex", "grevlex", "x"]
    # command words, bound names and unbound names
    + ["koszul", "homology", "ann", "support", "thick-member", "level-lb"]
    + ["witness-principal", "validate-witness", "spec", "idempotents"]
    + ["nilpotence", "obstruct", "R", "I", "X", "K", "W", "U", "max"]
    + ["0", "1", "2", "3", "7", "12"]
    + ["->", "..", "--"] + list("-+*/^()[]{};,=:")
    + ["\n"] * 4
)


@example(soup=["witness-principal", "R", "(", "2", ")", "3", "as", "W"])
@settings(max_examples=200, deadline=None)
@given(soup=st.lists(st.sampled_from(LEXICON), max_size=30))
def test_token_soup_ends_with_an_exit_code_and_repeats(soup):
    script = TOKEN_PRELUDE + " ".join(soup) + "\n"
    first = run_machine(script)
    code, out, _ = first
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
    assert run_machine(script) == first

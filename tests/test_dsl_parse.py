"""Token positions and parse time of the script language.

tokenize is checked against a reference: a loop that matches one token
or one skipped run (whitespace, a comment, a newline) at a time and
tracks line and column by hand.  Both must give the same
(kind, text, line, col) list, or the same ParseError, on every
workload script, on every pinned parse-error script and on edge inputs.
"""

import random
import re
import time
from collections import namedtuple

import pytest

import test_cli
from test_workload_bytes import SEEDS, load_workloads
from thickgen.dsl import parse_script, tokenize
from thickgen.errors import ParseError

_REFERENCE_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>->|\.\.|[-+*/^()\[\]{};,=:])
    """,
    re.VERBOSE,
)

_RefToken = namedtuple("_RefToken", "kind text line col")


def reference_tokenize(text):
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                out.append(_RefToken(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    out.append(_RefToken("eof", "", line, col))
    return out


def outcome(tokenizer, text):
    """The token tuples, or the ParseError's (message, line, col)."""
    try:
        return [tuple(t) for t in tokenizer(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def assert_same_tokens(text):
    expected = outcome(reference_tokenize, text)
    assert outcome(tokenize, text) == expected, repr(text)
    return expected


def pinned_parse_error_scripts():
    (mark,) = [m for m in test_cli.test_parse_error_bytes.pytestmark if m.name == "parametrize"]
    return [script for script, _ in mark.args[1]]


def test_tokens_match_the_reference_on_every_workload_script():
    workloads = load_workloads()
    texts = [s.text for name in sorted(workloads) for seed in SEEDS for s in workloads[name](seed)]
    assert len(texts) == 645
    for text in texts:
        assert_same_tokens(text)


def test_tokens_match_the_reference_on_the_pinned_parse_errors():
    scripts = pinned_parse_error_scripts()
    assert len(scripts) == 24
    for text in scripts:
        assert_same_tokens(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "ring R = Z",
        "ring\tR =\tZ\n\tideal I over R = (2,\t3)\n",
        "ring R = Z\r\nideal I over R = (2)\r\n",
        "ring R = Z\n# a comment at the end",
        "ring R = Z # trailing",
        "ring R = Z   \n  \nideal I over R = (4)   ",
        "ring R = Z\nideal I over R = (2) $\nkoszul I\n",
        "ring R = Z\nideal I over R = (2)\t@",
        "ring R = Z\n\x0c",
        "   ",
        "#",
        "x->y..z-2^3",
    ],
    ids=[
        "empty",
        "newline",
        "no-newline",
        "tabs",
        "crlf",
        "comment-at-eof",
        "comment-after-code",
        "trailing-spaces",
        "bad-char-line-end",
        "bad-char-after-tab",
        "form-feed",
        "spaces-only",
        "bare-hash",
        "ops",
    ],
)
def test_tokens_match_the_reference_on_edge_inputs(text):
    assert_same_tokens(text)


def test_bad_character_reports_its_own_column():
    assert assert_same_tokens("ring R = Z\n  ideal $") == (
        "error",
        "line 2, col 9: unexpected character '$'",
        2,
        9,
    )


# ---------------------------------------------------------- parse time

PARSE_LIMIT_S = 5.0


def _timed_parse(text):
    t0 = time.perf_counter()
    session = parse_script(text)
    return time.perf_counter() - t0, session


def test_large_integer_complex_literal_parses_in_bounded_time():
    rng = random.Random(31)
    n = 200
    rows = ", ".join(
        "[" + ", ".join(str(rng.randint(-99, 99)) for _ in range(n)) + "]" for _ in range(n)
    )
    text = f"ring R = Z\ncomplex K over R = {{ deg 0..1 ; d(0) = [{rows}] }}\n"
    assert len(text) > 170_000
    elapsed, session = _timed_parse(text)
    kind, K = session.bindings["K"]
    assert kind == "complex" and K.rank(0) == K.rank(1) == n
    assert elapsed < PARSE_LIMIT_S, elapsed


def test_many_statements_parse_in_bounded_time():
    count = 4000
    text = "ring R = Z\n" + "".join(f"ideal I{i} over R = ({i % 97 + 2}, 6)\n" for i in range(count))
    elapsed, session = _timed_parse(text)
    assert len(session.bindings) == count + 1
    assert elapsed < PARSE_LIMIT_S, elapsed

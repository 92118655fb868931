"""The README's command-line example, run in --machine mode, prints the
committed bytes in tests/golden/: the documented script still parses
and runs, and its output does not drift."""

import contextlib
import io
import pathlib
import re

from thickgen.cli import run_script

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_script():
    """The first ```text block of README.md's "Command line" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    return re.search(r"```text\n(.*?)```", section, re.S).group(1)


def test_readme_example_machine_output_is_golden():
    script = readme_script()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_script(script, machine=True, out=out)
    assert (code, err.getvalue()) == (0, "")
    golden = (ROOT / "tests" / "golden" / "readme_example.machine.txt").read_bytes()
    assert out.getvalue().encode("utf-8") == golden

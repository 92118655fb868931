"""The README's command-line example, run in --machine mode, prints the
committed bytes in tests/golden/: the documented script still parses
and runs, and its output does not drift, in process and through the
command line with no third-party package importable."""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

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


def test_cli_runs_the_readme_example_without_site_packages(tmp_path):
    # -S hides site-packages: the CLI needs nothing beyond the standard
    # library and src/
    path = tmp_path / "readme.tg"
    path.write_text(readme_script(), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "thickgen.cli", "run", "--machine", str(path)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    golden = (ROOT / "tests" / "golden" / "readme_example.machine.txt").read_bytes()
    assert proc.stdout == golden


def test_importing_the_engine_does_not_load_argparse():
    # only cli.build_arg_parser needs argparse, so a process that imports
    # the package to run scripts (a benchmark worker) does not pay for it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, thickgen.cli, thickgen.dsl; print('argparse' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")

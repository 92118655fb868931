"""Command-line front end: run a script file, print report blocks.

Human mode streams blocks as commands finish; --machine buffers the
whole run and flushes only on success, so failed runs emit nothing on
stdout.  Exit codes: 0 success, 1 parse error, 2 engine error.
"""

import sys

from .dsl import parse_script, run_command
from .errors import EngineError, ParseError


def build_arg_parser():
    # imported here, so that importing the package for its engine (a
    # benchmark worker, a test) does not load argparse
    import argparse

    ap = argparse.ArgumentParser(
        prog="thickgen",
        description="exact homological calculator for perfect complexes "
        "over small commutative rings",
    )
    sub = ap.add_subparsers(dest="mode", required=True)
    runp = sub.add_parser("run", help="execute a script file")
    runp.add_argument("script", help="path to a script file")
    runp.add_argument(
        "--machine",
        action="store_true",
        help="buffered key: value output, byte-stable across runs",
    )
    return ap


def run_script(text, machine=False, out=None):
    out = out if out is not None else sys.stdout
    try:
        session = parse_script(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    buffered = []
    first = True
    for cmd in session.commands:
        try:
            blocks = run_command(session, cmd)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 1
        except EngineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for block in blocks:
            chunk = ("" if first else "\n") + "\n".join(block) + "\n"
            first = False
            if machine:
                buffered.append(chunk)
            else:
                out.write(chunk)
                out.flush()
    if machine:
        out.write("".join(buffered))
        out.flush()
    return 0


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.script}: {exc}", file=sys.stderr)
        return 2
    return run_script(text, machine=args.machine)


if __name__ == "__main__":
    sys.exit(main())

"""The seed 1-3 scripts of the benchmark's three workloads print the
committed bytes in --machine mode: for every script, the exit code, the
stderr text and the sha256 of stdout kept in tests/golden/.  Each script
also exits 0 with an output that the benchmark's own checker accepts,
so a golden rewritten from a wrong engine fails here too.

The scripts come from `perfbench/workloads.py` and the checker from
`perfbench/checks.py`, both loaded by path and only read.  After an
intended output change, rewrite the golden file with

    PYTHONPATH=src python tests/test_workload_bytes.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from thickgen.cli import run_script

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
GOLDEN = ROOT / "tests" / "golden" / "workload_bytes.json"
SEEDS = (1, 2, 3)


def load_bench_module(name):
    """perfbench/<name>.py as a module named perfbench_<name>."""
    # workloads.py and checks.py import their sibling arith.py as a
    # top-level module
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def load_workloads():
    return load_bench_module("workloads").WORKLOADS


def run_batch(generate, seed):
    """Script label -> [exit code, sha256 of stdout, stderr]."""
    out = {}
    for i, script in enumerate(generate(seed)):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run_script(script.text, machine=True, out=stdout)
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        out[f"{i:03d}-{script.name}"] = [code, digest, stderr.getvalue()]
    return out


WORKLOADS = load_workloads()
CHECKS = load_bench_module("checks")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_bytes_match_golden(workload):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for seed in SEEDS:
        assert run_batch(WORKLOADS[workload], seed) == golden[str(seed)][workload], f"seed {seed}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_outputs_pass_the_benchmark_checks(workload):
    for seed in SEEDS:
        for script in WORKLOADS[workload](seed):
            out = io.StringIO()
            assert run_script(script.text, machine=True, out=out) == 0, f"seed {seed} {script.name}"
            CHECKS.check_script(script, out.getvalue())


if __name__ == "__main__":
    batches = {
        str(seed): {name: run_batch(WORKLOADS[name], seed) for name in sorted(WORKLOADS)}
        for seed in SEEDS
    }
    GOLDEN.write_text(json.dumps(batches, indent=1, sort_keys=True) + "\n", encoding="utf-8")

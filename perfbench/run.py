"""Benchmark runner for thickgen: obstruct ladders and Tier-1 homology.

    python3 perfbench/run.py --workload obstruct-ladder --seed 1 --seconds 36 --trace 0

Builds the workload's scripts from the seed, then spends the run in
fresh worker processes, one after another, each running whole rounds of
the same batch through `thickgen.cli.run_script` in --machine mode.
Outputs are checked here, outside the timed region and without
importing thickgen.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Without --workload every workload runs once and the last line maps
each workload to its result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# worker processes per run; each runs whole rounds of the full batch
WORKERS = 2
# extra processes that only start, import thickgen and parse the batch
SETUP_SPAWNS = 5
# timed script runs per run, so that script_s.p90 has ten runs above it
MIN_SAMPLES = 100
# a run gives up (exit 2, no result) this long after it started, so
# that it always ends within the 180 s a run may take
RUN_DEADLINE_S = 170
SPAN_LIMIT = 200_000


def spawn(job, deadline):
    """Run one worker; return (report, seconds from launch to ready)."""
    launched = time.monotonic()
    timeout = max(1.0, deadline - launched)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running {timeout:.0f} s after launch; killed")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(out)
    return report, report["ready"] - launched


def check_outputs(scripts, reports):
    """(failed script indices, list of problems); a problem is an output
    that is wrong for a script not marked as a known fault, or two runs
    of one script that differ."""
    failed, problems = set(), []
    first = reports[0]
    for i, script in enumerate(scripts):
        error = None
        if first["codes"][i] != 0:
            error = f"exit code {first['codes'][i]}: {first['outputs'][i].strip()}"
        else:
            try:
                checks.check_script(script, first["outputs"][i])
            except checks.CheckError as exc:
                error = str(exc)
        if error is not None:
            failed.add(i)
            if not script.known_fault:
                problems.append(f"{script.name}: {error}")
        want = first["digests"][0][i]
        if any(row[i] != want for rep in reports for row in rep["digests"]):
            problems.append(f"{script.name}: two runs gave different --machine bytes")
    return failed, problems


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    scripts = workloads.WORKLOADS[name](seed)
    texts = [s.text for s in scripts]
    min_rounds = math.ceil(MIN_SAMPLES / (WORKERS * len(texts)))
    slice_s = seconds / WORKERS
    setup = []
    reports = []
    out_dir = os.path.join(HERE, "out")
    if trace:
        os.makedirs(out_dir, exist_ok=True)
    for w in range(WORKERS):
        job = dict(
            root=ROOT, scripts=texts, seconds=slice_s, min_rounds=min_rounds, trace=trace,
            spans_path=os.path.join(out_dir, f"spans-{name}-{seed}-w{w}.json.gz") if trace else None,
            span_limit=SPAN_LIMIT,
        )
        report, ready_s = spawn(job, deadline)
        reports.append(report)
        setup.append(ready_s)
    for _ in range(SETUP_SPAWNS):
        _, ready_s = spawn(dict(root=ROOT, scripts=texts, setup_only=True), deadline)
        setup.append(ready_s)

    t0 = time.perf_counter()
    failed_idx, problems = check_outputs(scripts, reports)
    check_s = time.perf_counter() - t0

    rounds = sum(r["rounds"] for r in reports)
    attempted = rounds * len(scripts)
    failed = rounds * len(failed_idx)
    samples = [t for r in reports for row in r["times"] for t in row]
    batch_s = sum(r["batch_s"] for r in reports)
    deciles = statistics.quantiles(samples, n=10)
    end_to_end = {
        "scripts_per_s": attempted / batch_s,
        "script_s.p50": statistics.median(samples),
        "script_s.p90": deciles[8],
        "peak_rss_mb": max(r["peak_rss_kb"] for r in reports) / 1024,
        "setup_s": statistics.median(setup),
    }
    if trace:
        metrics = {}
        for key in reports[0]["layers"]:
            vals = [r["layers"][key] for r in reports]
            if key.endswith(".max"):
                metrics[key] = max(vals)
            else:
                metrics[key] = sum(vals) / rounds
        metrics["check.s"] = check_s
    else:
        metrics = end_to_end
    return dict(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        problems=problems,
        samples=len(samples),
        traced_rate=end_to_end["scripts_per_s"],
        known=sorted({scripts[i].known_fault for i in failed_idx if scripts[i].known_fault}),
    )


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if sorted(layers) != sorted(spans.metric_names()):
        raise SystemExit("BENCHMARK.json per_layer does not match perfbench/spans.py")
    return e2e, layers


def report(name, seed, res, units, trace):
    print(f"{name} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
          f"samples {res['samples']} correct {res['correct']}")
    for fault in res["known"]:
        print(f"  known fault: {fault}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    if trace:
        print(f"  traced scripts_per_s {res['traced_rate']:.4f} 1/s")
    for key, unit in units:
        print(f"  {key} {res['metrics'][key]:.6g} {unit}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "thickgen", "__init__.py")):
        print(f"no thickgen sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    e2e, layers = load_spec()
    units = layers if args.trace else e2e
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        results[name] = report(name, args.seed, res, units, args.trace)
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

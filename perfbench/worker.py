"""One fresh process that runs a batch of scripts through thickgen.

Reads a JSON job on stdin, imports thickgen from the checkout's src/,
parses every script (the set-up the parent times), then runs whole
rounds of the batch through `thickgen.cli.run_script` in --machine mode
until its time slice is spent.  It writes one JSON report on stdout.
It never checks outputs: the parent does that, apart from the engine.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def main():
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import thickgen
    from thickgen.cli import run_script
    from thickgen.dsl import parse_script

    if not os.path.abspath(thickgen.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"thickgen imported from {thickgen.__file__}, not {src}")
    scripts = job["scripts"]
    for text in scripts:
        parse_script(text)
    ready = time.monotonic()
    report = {"ready": ready}
    if job.get("setup_only"):
        json.dump(report, sys.stdout)
        return 0

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    times, digests, codes, outputs = [], [], [], []
    rounds = 0
    began = time.perf_counter()
    clock = time.perf_counter
    while True:
        first = rounds == 0
        row_t, row_d = [], []
        for text in scripts:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = clock()
                code = run_script(text, machine=True, out=out)
                t1 = clock()
            row_t.append(t1 - t0)
            value = out.getvalue()
            row_d.append(hashlib.sha256(value.encode()).hexdigest())
            if first:
                codes.append(code)
                outputs.append(value if code == 0 else err.getvalue())
        times.append(row_t)
        digests.append(row_d)
        rounds += 1
        spent = clock() - began
        # stop when another round would end past the slice by more than
        # half a round, so that a run lasts about its --seconds
        if rounds >= job["min_rounds"] and spent + spent / rounds / 2 >= job["seconds"]:
            break
    report.update(
        rounds=rounds,
        batch_s=clock() - began,
        times=times,
        digests=digests,
        codes=codes,
        outputs=outputs,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        report["layers"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write(job["spans_path"], job["span_limit"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

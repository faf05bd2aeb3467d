#!/usr/bin/env python3
"""Benchmark of the `morita` package: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (see README.md).  The
exit code is nonzero when any item's outcome is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7    # set-up is timed this many times; the median is reported
RUN_LIMIT_S = 170    # the whole run ends well inside 180 s


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="morita benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    t_start = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "morita" / "__init__.py").is_file():
        return fail(f"no morita package under {src}; run from a checkout root")
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]

    def spawn(extra, timeout, **kw):
        try:
            return subprocess.run(base + extra, env=env, timeout=timeout, **kw)
        except subprocess.TimeoutExpired:
            return None

    # Set-up runs from before the process starts until the worker has
    # written its inputs; the worker reports when that was.  Timing the
    # whole subprocess instead would add its exit and the up to 50 ms by
    # which a wait with a timeout polls late.  Set-up is not scaled to the
    # reference speed (see reference.py): it is mostly process start and
    # imports, and unscaled it spread least.
    setup = []
    if not args.trace:
        for k in range(SETUP_SAMPLES):
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = spawn(["--setup-only", "--workdir", str(work / f"setup{k}")], 60,
                         stdout=subprocess.PIPE, text=True)
            if proc is None or proc.returncode != 0:
                return fail(f"set-up run failed: {proc and proc.returncode}")
            setup.append(json.loads(proc.stdout.splitlines()[-1])["setup_end"] - t0)

    out = work / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    out.unlink(missing_ok=True)
    left = RUN_LIMIT_S - (time.perf_counter() - t_start)
    proc = spawn(["--trace", str(args.trace), "--out", str(out),
                  "--workdir", str(work / f"{args.workload}-{args.seed}")], left)
    if proc is None:
        return fail(f"workload did not finish within {left:.0f} s")
    rc = proc.returncode
    if not out.is_file():
        return fail(f"workload exited with {rc} and wrote no result")
    result = json.loads(out.read_text(encoding="utf-8"))
    report = result.pop("report")
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        report["setup_samples_s"] = setup
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

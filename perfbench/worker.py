"""The workload process: generate inputs, run items back to back, measure.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS/OpenMP thread counts pinned to 1.  One process, one caller, no
threads: a closed loop with a single client.

Untraced (--trace 0): the timed items run in passes over the list until
the --seconds deadline, each only while it still fits, so every item's
runs are spread over the whole run.  An item's latency is the fastest of
its runs: on a shared machine whose speed swings by up to 2x within
seconds, that is the estimate the swings move least.  wall_s is the sum of
the items' latencies, the time one pass over the whole list takes.

The same machine also ran 1.5x slower for seconds to minutes at a time,
which the fastest run cannot remove when it covers a whole run.  So each
run of an item is scaled to a reference speed measured next to it (see
reference.py).  The unscaled figures are in the report line.

Traced (--trace 1): every item, the untimed ones too, runs once untraced
and once with the tracer installed; the ratio of the two totals is the
tracer's overhead.

The result is written as JSON to --out.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

T_START = time.perf_counter()

import numpy as np  # noqa: E402

import morita  # noqa: E402
from morita import cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_MS, Speed  # noqa: E402

TAIL_BEYOND = 10  # the tail percentile keeps at least this many items beyond it


def run_item(item) -> tuple:
    """(exit code or None, captured report text, seconds)."""
    gc.collect()  # start every item from the same heap state, as a fresh command would
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if item.call is not None:
                value = item.call()
                rc = 0
            else:
                rc = cli.main(list(item.argv))
    except SystemExit as exc:  # argparse rejects the command line
        rc, value = exc.code, None
    except Exception:
        rc, value = None, None
        err.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    if item.call is not None:
        text = repr(value) if rc == 0 else err.getvalue()
    else:
        text = out.getvalue()
    return rc, text, dt


class Batch:
    """Outcomes of every run of every item in one workload."""

    def __init__(self, items, trace=None, like=None):
        """`like`: a batch of the same items whose reports and outcomes this
        one shares, so a report must not change between the two."""
        self.items = items
        self.trace = trace
        self.latency = [[] for _ in items]
        self.ended = [[] for _ in items]  # perf_counter() at the end of each run
        self.first_text = like.first_text if like else [None] * len(items)
        self.outcome = like.outcome if like else ["ok"] * len(items)
        self.runs = 0
        self.wrong = 0
        self.speed = None  # a Speed sampled between items, if any

    def run(self, i):
        item = self.items[i]
        if self.trace is not None:
            self.trace.item = i
        rc, text, dt = run_item(item)
        self.ended[i].append(time.perf_counter())
        self.latency[i].append(dt)
        if self.speed is not None:
            self.speed.maybe_sample()
        self.runs += 1
        verdict = workloads.judge(item, rc, text)
        if self.first_text[i] is None:
            self.first_text[i] = text
        elif text != self.first_text[i]:
            verdict = "report differs between runs of the same item"
        if verdict not in ("ok", "exhausted"):
            self.mark_wrong(i, verdict)
        elif self.outcome[i] == "ok":
            self.outcome[i] = verdict

    def mark_wrong(self, i, why):
        self.wrong += 1
        self.outcome[i] = why
        sys.stderr.write(f"WRONG {self.items[i].label}: {why}\n")

    def passes(self, deadline):
        """One full pass, then passes until the deadline.

        After the first pass an item runs only while its fastest run still
        fits before the deadline, so the run ends near it.
        """
        for i in range(len(self.items)):
            self.run(i)
        ran = True
        while ran:
            ran = False
            for i in range(len(self.items)):
                if min(self.latency[i]) <= deadline - time.perf_counter():
                    self.run(i)
                    ran = True

    def latency_ms(self):
        """Each item's fastest run."""
        return [min(v) * 1e3 for v in self.latency]

    def scaled_ms(self):
        """Each item's fastest run, each run scaled to the reference speed
        measured around it."""
        return [min(dt * 1e3 * self.speed.scale(end - dt, end) for dt, end in zip(v, e))
                for v, e in zip(self.latency, self.ended)]

    def digest(self):
        h = hashlib.sha256()
        for text in self.first_text:
            h.update(text.encode("utf-8"))
        return h.hexdigest()


def tail(values):
    """(value, percentile) at the highest rank with TAIL_BEYOND items beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    k = n - TAIL_BEYOND  # 1-based rank
    return v[k - 1], 100.0 * k / n


def environment():
    # git must not look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    kernels = sys.modules.get("morita._kernels")
    backend = getattr(kernels, "active_backend", lambda: "unknown")()
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "morita": getattr(morita, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "kernels_backend": backend,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def times(lat):
    tail_ms, _pct = tail(lat)
    return {"wall_s": sum(lat) / 1e3, "item_p50_ms": statistics.median(lat),
            "item_tail_ms": tail_ms}


def measure(batch, seconds):
    t0 = time.perf_counter()
    batch.speed = Speed()
    batch.speed.sample()
    batch.passes(t0 + seconds)
    raw = times(batch.latency_ms())
    n = len(batch.items)
    completed = sum(1 for o in batch.outcome if o == "ok")
    units = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms"}
    metrics = {k: (v, units[k]) for k, v in times(batch.scaled_ms()).items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["completed_frac"] = (completed / n, "ratio")
    return metrics, {"tail_percentile": tail(batch.latency_ms())[1], "items": n,
                     "measured_s": time.perf_counter() - t0, "unscaled": raw,
                     "reference_runs": len(batch.speed.runs),
                     "reference_fastest_ms": REFERENCE_MS / batch.speed.scale()}


def measure_traced(batch, spans_path):
    """Each item runs once untraced and once traced, back to back.

    Which of the two goes first alternates from item to item, so warm-up
    and drift in machine speed fall on both sides of overhead_frac.
    """
    tr = tracer.Tracer()
    traced = Batch(batch.items, tr, like=batch)
    for i in range(len(batch.items)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                batch.run(i)
                continue
            tr.install()
            try:
                traced.run(i)
            finally:
                tr.uninstall()
    metrics = tr.metrics()
    metrics["trace.overhead_frac"] = (sum(v[0] for v in traced.latency)
                                      / sum(v[0] for v in batch.latency) - 1)
    units = tracer.metric_units()
    tr.write_spans(spans_path, [it.label for it in batch.items])
    info = {"notes": tr.notes, "spans": len(tr.spans), "spans_file": spans_path.name,
            "traced_exhausted": [{"item": batch.items[i].label, "budget": b}
                                 for (i, b) in tr.exhausted]}
    batch.runs += traced.runs
    batch.wrong += traced.wrong
    return {k: (v, units[k]) for k, v in metrics.items()}, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = Path(args.workdir).resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    items = workloads.build(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        # CLOCK_MONOTONIC is one clock for all processes, so run.py can time
        # set-up from before it started this process.
        print(json.dumps({"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if not args.trace:
        items = [it for it in items if it.timed]

    home = os.getcwd()
    os.chdir(workdir)  # reports name files relative to here
    batch = Batch(items)
    try:
        if args.trace:
            metrics, info = measure_traced(
                batch, workdir / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            metrics, info = measure(batch, args.seconds)
    finally:
        os.chdir(home)

    # unscaled latencies: what this machine took
    for item, ms, outcome, runs in zip(items, batch.latency_ms(), batch.outcome,
                                       batch.latency):
        print(f"  {ms:12.3f} ms  x{len(runs):<4d} {outcome:<9.9s} {item.label}")
    exhausted = [{"item": it.label, "pair": list(it.pair), "budget": it.budget}
                 for it, o in zip(items, batch.outcome) if o == "exhausted"]
    for e in exhausted:
        print(f"budget exhausted: {e['pair'][0]} vs {e['pair'][1]} "
              f"(budget {e['budget']} cells)")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_in_process_s": setup_s, "runs": batch.runs,
        "report_sha256": batch.digest(), "budget_exhausted": exhausted,
        "wrong": [{"item": it.label, "why": o} for it, o in zip(items, batch.outcome)
                  if o not in ("ok", "exhausted")],
        "environment": environment(), **info,
    }
    result = {
        "correct": batch.wrong == 0,
        "attempted": batch.runs,
        "failed": batch.wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0 if batch.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of one workload, in a fresh interpreter.

Reads a job as JSON on standard input, answers the workload's inputs one
after another until the time is up, checks every output, and prints one
JSON object as its last line of output.  ``run.py`` starts it; it is not
meant to be run by hand.

Job keys: workload, seed, seconds, min_items (inputs answered even when the
time is up), trace (record spans), spans_dir (where spans are written at
exit) and probes (also time the single-layer probes after the run).
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


def run_cli(argv, spans_path=None, problem=-1):
    """One command in its own interpreter, as a user runs it."""
    env = dict(os.environ)
    if spans_path is not None:
        env["PERFBENCH_SPANS"] = str(spans_path)
        env["PERFBENCH_PROBLEM"] = str(problem)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), *argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CLI_TIMEOUT_S} s", ""
    return proc.returncode, proc.stdout, proc.stderr


def probes(seed):
    """Single-layer timings, each the median of several repeats."""
    from bosonbounds import (
        Potential,
        PotentialKind,
        Problem,
        delta_1d_phi,
        inverse_square_coeff,
        moment_coeff,
    )

    rng = random.Random(f"probes:{seed}")
    out = {}

    params = [
        (PotentialKind(rng.choice(workloads.KINDS)), rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0), rng.uniform(0.5, 40.0))
        for _ in range(400)
    ]
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for kind, lam, mu, v in params:
            Problem(Potential(kind, lam, mu), 3, v)
        samples.append((time.perf_counter() - t0) / len(params) * 1e6)
    out["model.validate_us"] = statistics.median(samples)

    samples = []
    for _ in range(7):
        vs = [rng.uniform(0.5, 40.0) for _ in range(20)]
        t0 = time.perf_counter()
        for v in vs:
            delta_1d_phi(v)
        samples.append((time.perf_counter() - t0) / len(vs) * 1e6)
    out["numerics.delta_1d_phi_us"] = statistics.median(samples)

    # one untimed call fills the q-independent grids, so each timed call
    # below is cold in q only
    inverse_square_coeff(rng.uniform(1.5, 4.0))
    moment_coeff(rng.uniform(1.5, 4.0), 2)
    for name, fn in (("C2", lambda q: moment_coeff(q, 2)),
                     ("Cm1", lambda q: moment_coeff(q, -1)),
                     ("Cm2", inverse_square_coeff)):
        samples = []
        for _ in range(5):
            q = rng.uniform(1.5, 4.0)
            t0 = time.perf_counter()
            fn(q)
            samples.append((time.perf_counter() - t0) * 1e3)
        out[f"collective_field.moment_cold_ms.{name}"] = statistics.median(samples)
    return out


def main():
    job = json.load(sys.stdin)
    workload = job["workload"]
    cli = workload == "cli_calls"
    spans_dir = Path(job["spans_dir"]) if job["trace"] else None
    recorder = None
    if not cli:
        import bosonbounds  # noqa: F401  (import cost is setup_s, not the run)

        if job["trace"]:
            recorder = tracer.Recorder()
            tracer.install(recorder)
        run, check = {
            "phi_sweep": (workloads.run_phi, workloads.check_phi),
            "verify_grid": (workloads.run_verify, workloads.check_verify),
        }[workload]

    consumed, latencies, outputs, errors = [], [], [], []
    start = end = time.perf_counter()
    for i, item in enumerate(workloads.items(workload, job["seed"])):
        if i >= job["min_items"] and end - start >= job["seconds"]:
            break
        consumed.append(item)
        t0 = time.perf_counter()
        if cli:
            spans = spans_dir / f"cmd-{i}.json" if spans_dir else None
            outputs.append(run_cli(workloads.cli_argv(item), spans, i))
        else:
            if recorder:
                recorder.problem = i
            try:
                errs = check(item, run(item))
            except Exception as exc:  # a raising problem is a failed problem
                errs = [f"raised {exc!r}"]
            errors.append(errs)
        end = time.perf_counter()
        latencies.append(end - t0)
    if recorder:
        recorder.problem = -1

    if cli:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        for item, (code, out, err) in zip(consumed, outputs):
            try:
                errs = workloads.check_cli(item, code, out)
            except Exception as exc:
                errs = [f"check raised {exc!r}"]
            errors.append(errs + ([f"stderr: {err.strip()[-300:]}"] if errs and err else []))
        n_anchor, anchor_errors = workloads.anchors(workload, lambda argv: run_cli(argv)[:2])
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        n_anchor, anchor_errors = workloads.anchors(workload)

    result = {
        "done": len(consumed),
        "latencies_s": latencies,
        "failed": sum(1 for e in errors if e),
        "errors": [[i, e] for i, e in enumerate(errors) if e][:20],
        "anchors": n_anchor,
        "anchor_errors": anchor_errors,
        "peak_rss_kb": peak_kb,
        "digest": workloads.digest(consumed),
        "probes": probes(job["seed"]) if job["probes"] else {},
    }
    if recorder:
        recorder.dump(spans_dir / "worker.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""bosonbounds benchmark: one run of one workload, or a comparison of two result sets.

Run from the repository root:

    python3 perfbench/run.py --workload phi_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare perfbench/results-before perfbench/results

A run prints every metric by name with its unit, then, as its last line, a
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Each run also stores its full record,
with the environment it ran in, under ``--results`` (default
perfbench/results).  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

PER_LAYER = {
    "import.total_ms": "ms",
    "import.scipy_linalg_ms": "ms",
    "import.numpy_ms": "ms",
    "cli.self_ms": "ms",
    "closed_bounds.calls": "calls/problem",
    "closed_bounds.busy_ms": "ms/problem",
    "model.validate_us": "us",
    "collective_field.optimize.calls": "calls/problem",
    "collective_field.optimize.busy_ms": "ms/problem",
    "collective_field.optimize.p50_ms": "ms",
    "collective_field.optimize.max_ms": "ms",
    "collective_field.objective_evals_per_optimize": "calls",
    "collective_field.minimize_scale.busy_ms": "ms/problem",
    "collective_field.moment_cold_ms.C2": "ms",
    "collective_field.moment_cold_ms.Cm1": "ms",
    "collective_field.moment_cold_ms.Cm2": "ms",
    "numerics.delta_1d_phi_us": "us",
    "radial_oracle.ground_energy.calls": "calls/problem",
    "radial_oracle.ground_energy.busy_ms": "ms/problem",
    "radial_oracle.ground_energy.p50_ms.mu_pos": "ms",
    "radial_oracle.ground_energy.p50_ms.mu0": "ms",
    "radial_oracle.eig_solves": "solves/problem",
    "radial_oracle.eig_nodes": "nodes/problem",
    "trace.overhead_frac": "frac",
}

# Inputs always answered, even after the time is up.  The count metrics of
# the traced run are taken over this fixed prefix, so they repeat exactly
# for a given seed.
MIN_ITEMS = {"phi_sweep": 48, "verify_grid": 48, "cli_calls": 7}
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 5


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise RuntimeError("run exceeded its time limit")
        return left


def _communicate(cmd, env, deadline, stdin=None):
    """Run a child in its own process group; kill the group if time runs out."""
    with subprocess.Popen(
        cmd, env=env, text=True, start_new_session=True,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=deadline.left())
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
    return proc.returncode, out, err


def time_import(env, deadline):
    """Wall time from spawning an interpreter to ``import bosonbounds`` returning."""
    code = "import bosonbounds, sys; sys.stdout.write('ok\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, stdin=subprocess.DEVNULL) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=deadline.left())
    if line.strip() != b"ok" or proc.returncode != 0:
        raise RuntimeError(f"import bosonbounds failed: {err.decode()[-2000:]}")
    return elapsed


def import_breakdown(env, deadline):
    """Cumulative import times of the package, scipy.linalg and numpy, in ms."""
    code, _, err = _communicate([sys.executable, "-X", "importtime", "-c", "import bosonbounds"], env, deadline)
    if code != 0:
        raise RuntimeError(f"import bosonbounds failed: {err[-2000:]}")
    cumulative = {}
    for line in err.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if name not in cumulative and fields[1].strip().isdigit():
            cumulative[name] = int(fields[1]) / 1e3
    return {
        "import.total_ms": cumulative["bosonbounds"],
        "import.scipy_linalg_ms": cumulative.get("scipy.linalg", 0.0),
        "import.numpy_ms": cumulative.get("numpy", 0.0),
    }


def run_worker(job, env, deadline):
    code, out, err = _communicate([sys.executable, str(HERE / "worker.py")], env, deadline, json.dumps(job))
    if code != 0:
        raise RuntimeError(f"worker exited with {code}: {err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies_s):
    """Highest order statistic with at least ten samples beyond it."""
    lat = sorted(latencies_s)
    n = len(lat)
    k = max(n - 11, 0)
    return lat[k] * 1e3, {"percentile": 100.0 * (k + 1) / n, "samples": n, "beyond": n - k - 1}


def tally(results):
    """(attempted, failed) over worker results: inputs plus anchor checks."""
    attempted = sum(r["done"] + r["anchors"] for r in results)
    failed = sum(r["failed"] + len(r["anchor_errors"]) for r in results)
    return attempted, failed


def end_to_end(res, setup_s):
    attempted, failed = tally([res])
    tail_ms, tail_info = tail(res["latencies_s"])
    metrics = {
        "setup_s": setup_s,
        "problems_per_s": res["done"] / sum(res["latencies_s"]),
        "latency_p50_ms": statistics.median(res["latencies_s"]) * 1e3,
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
    }
    return metrics, tail_info


def load_spans(spans_dir, workload):
    if workload != "cli_calls":
        return tracer.load(spans_dir / "worker.json")
    spans = []
    for path in sorted(spans_dir.glob("cmd-*.json")):
        # ids restart in every process; give each command its own range
        offset = (int(path.stem.split("-")[1]) + 1) << 32
        for s in tracer.load(path):
            parent = None if s[tracer.PARENT] is None else s[tracer.PARENT] + offset
            spans.append((s[tracer.SID] + offset, parent) + s[2:])
    return spans


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(workload, seed, spans, done):
    """Per-layer metrics from the traced run's spans."""
    T = tracer
    n_prefix = min(MIN_ITEMS[workload], done)
    inputs = list(itertools.islice(workloads.items(workload, seed), done))
    selfs = T.self_times(spans)
    by_id = {s[T.SID]: s for s in spans}
    run = [s for s in spans if 0 <= s[T.PROBLEM] < done]
    prefix = [s for s in run if s[T.PROBLEM] < n_prefix]

    def named(group, name):
        return [s for s in group if s[T.NAME] == name]

    def ms(s):
        return (s[T.T1] - s[T.T0]) / 1e6

    m = {}
    cb_prefix = [s for s in prefix if T.layer_of(s[T.NAME]) == "closed_bounds"]
    m["closed_bounds.calls"] = len(cb_prefix) / n_prefix
    m["closed_bounds.busy_ms"] = sum(selfs[s[T.SID]] for s in run if T.layer_of(s[T.NAME]) == "closed_bounds") / 1e6 / done

    cli_self = {}
    for s in run:
        if T.layer_of(s[T.NAME]) == "cli":
            cli_self[s[T.PROBLEM]] = cli_self.get(s[T.PROBLEM], 0) + selfs[s[T.SID]]
    m["cli.self_ms"] = _median(list(cli_self.values())) / 1e6

    opt = [ms(s) for s in named(run, "collective_field.optimize")]
    opt_prefix = named(prefix, "collective_field.optimize")
    m["collective_field.optimize.calls"] = len(opt_prefix) / n_prefix
    m["collective_field.optimize.busy_ms"] = sum(opt) / done
    m["collective_field.optimize.p50_ms"] = _median(opt)
    m["collective_field.optimize.max_ms"] = max(opt, default=0.0)
    evals = sum(
        1 for s in named(prefix, "collective_field.minimize_scale")
        if any(a[T.NAME] == "collective_field.optimize" for a in T.ancestors(s, by_id))
    )
    m["collective_field.objective_evals_per_optimize"] = evals / len(opt_prefix) if opt_prefix else 0.0
    m["collective_field.minimize_scale.busy_ms"] = sum(
        ms(s) for s in named(run, "collective_field.minimize_scale")
        if not any(a[T.NAME] == s[T.NAME] for a in T.ancestors(s, by_id))
    ) / done

    ge = named(run, "radial_oracle.ground_energy")
    m["radial_oracle.ground_energy.calls"] = len(named(prefix, "radial_oracle.ground_energy")) / n_prefix
    m["radial_oracle.ground_energy.busy_ms"] = sum(ms(s) for s in ge) / done
    m["radial_oracle.ground_energy.p50_ms.mu_pos"] = _median([ms(s) for s in ge if inputs[s[T.PROBLEM]]["mu"] > 0.0])
    m["radial_oracle.ground_energy.p50_ms.mu0"] = _median([ms(s) for s in ge if inputs[s[T.PROBLEM]]["mu"] == 0.0])
    eig = named(prefix, T.EIG_SPAN)
    m["radial_oracle.eig_solves"] = len(eig) / n_prefix
    m["radial_oracle.eig_nodes"] = sum(s[T.SIZE] for s in eig) / n_prefix
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return version(dist)
    except PackageNotFoundError:
        return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(ROOT),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OMP_", "OPENBLAS_"))},
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def bench(args):
    src = ROOT / "src"
    if not (src / "bosonbounds" / "__init__.py").is_file():
        print(f"error: no bosonbounds package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    deadline = Deadline(RUN_LIMIT_S)
    wl, seed = args.workload, args.seed
    job = {"workload": wl, "seed": seed, "min_items": MIN_ITEMS[wl], "trace": False, "probes": False}
    record = {
        "workload": wl, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "env": environment(),
    }

    if args.trace:
        imports = [import_breakdown(env, deadline) for _ in range(IMPORTTIME_REPEATS)]
        metrics = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
        spans_dir = HERE / "spans" / f"{wl}-seed{seed}"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        plain = run_worker(dict(job, seconds=args.seconds / 2, probes=True), env, deadline)
        traced = run_worker(dict(job, seconds=args.seconds / 2, trace=True, spans_dir=str(spans_dir)), env, deadline)
        metrics.update(plain["probes"])
        metrics.update(per_layer(wl, seed, load_spans(spans_dir, wl), traced["done"]))
        # traced over untraced time per input, on the inputs both halves
        # answered; the median discounts bursts of load on the machine
        ratios = [t / p for t, p in zip(traced["latencies_s"], plain["latencies_s"])]
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        results = (plain, traced)
        units = PER_LAYER
    else:
        setup_s = statistics.median(time_import(env, deadline) for _ in range(SETUP_REPEATS))
        res = run_worker(dict(job, seconds=args.seconds), env, deadline)
        metrics, record["tail"] = end_to_end(res, setup_s)
        results = (res,)
        units = END_TO_END

    attempted, failed = tally(results)
    record.update(
        inputs_digest=[r["digest"] for r in results],
        latencies_ms=[[round(x * 1e3, 3) for x in r["latencies_s"]] for r in results],
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        errors=[e for r in results for e in r["errors"] + r["anchor_errors"]],
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{wl}-seed{seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {wl}  seed {seed}  trace {args.trace}  inputs sha256 {' '.join(record['inputs_digest'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if "tail" in record:
        t = record["tail"]
        print(f"  latency_tail_ms is p{t['percentile']:.1f} of {t['samples']} samples, {t['beyond']} beyond it")
    print(f"  fail_frac {record['fail_frac']:.6g} ({failed} of {attempted})")
    for err in record["errors"][:5]:
        print(f"  error: {err}")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_records(directory):
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], []).append(rec["metrics"])
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """'worse', 'unresolved' or 'ok' for one metric on one workload."""
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def compare(base_dir, new_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = _load_records(base_dir), _load_records(new_dir)
    worse = 0
    print(f"{'metric':18s} {'workload':12s} {'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for wl in workloads.WORKLOADS:
            if wl not in base or wl not in new:
                continue
            b = [r[name]["value"] for r in base[wl]]
            n = [r[name]["value"] for r in new[wl]]
            v, change = verdict(b, n, metric["better"], metric["bound"])
            worse += v == "worse"
            fb, fn = _quartiles(b), _quartiles(n)
            print(f"{name:18s} {wl:12s} {fb[1]:>12.5g} [{fb[0]:.5g}, {fb[2]:.5g}] {fn[1]:>12.5g} "
                  f"[{fn[0]:.5g}, {fn[2]:.5g}] {change:>+8.1%} {metric['bound']:>6.0%}  {v}")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(HERE / "results"), help="directory for run records")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"),
                        help="compare two directories of run records instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())

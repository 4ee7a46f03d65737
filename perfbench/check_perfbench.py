"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/check_perfbench.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


TIME_UNITS = ("ms", "us", "ms/problem")


def _prefix(workload, seed, n):
    return list(itertools.islice(workloads.items(workload, seed), n))


def _worker(job, pythonpath):
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_generator_is_deterministic_per_seed():
    ref = json.loads((HERE / "digests.json").read_text())
    for seed, per_workload in ref["seeds"].items():
        for workload in workloads.WORKLOADS:
            first = workloads.digest(_prefix(workload, int(seed), ref["prefix"]))
            again = workloads.digest(_prefix(workload, int(seed), ref["prefix"]))
            assert first == again == per_workload[workload]
    every = [d for per_workload in ref["seeds"].values() for d in per_workload.values()]
    assert len(set(every)) == len(every)


def _stratum(workload, item):
    lo, hi = (math.log(x) for x in workloads.V_RANGE)
    if workload == "cli_calls":
        return item["cmd"], item["kind"], item["mu"] >= workloads.CLI_MU[1][0]
    if workload == "verify_grid":
        g = item["mu"] * item["v"]
        return item["kind"], item["d"], 0 if g == 0.0 else 1 if g < 2.0 else 2
    mu_class = 0 if item["mu"] == 0.0 else 1 if item["mu"] < 1.0 else 2
    return item["kind"], int(4 * (math.log(item["v"]) - lo) / (hi - lo)), mu_class


def test_every_cycle_visits_every_stratum():
    for workload, n in {"phi_sweep": 24, "verify_grid": 24, "cli_calls": 14}.items():
        stream = _prefix(workload, 5, 3 * n)
        for c in range(3):
            assert len({_stratum(workload, i) for i in stream[c * n:(c + 1) * n]}) == n


def test_no_coupling_repeats_in_phi_sweep():
    vs = [item["v"] for item in _prefix("phi_sweep", 1, 5000)]
    assert len(set(vs)) == len(vs)
    assert min(vs) >= workloads.V_RANGE[0] and max(vs) <= workloads.V_RANGE[1]


def test_corrupted_result_is_counted_in_fail_frac(tmp_path):
    # a copy of the package whose eigensolver is off by one part in 10**4
    pkg = tmp_path / "bosonbounds"
    shutil.copytree(ROOT / "src" / "bosonbounds", pkg)
    source = (pkg / "radial_oracle.py").read_text()
    source = source.replace("        e = 2.0 * e_half - e\n    return e\n",
                            "        e = 2.0 * e_half - e\n    return e * (1.0 + 1e-4)\n")
    assert source.endswith("return e * (1.0 + 1e-4)\n")
    (pkg / "radial_oracle.py").write_text(source)
    job = {"workload": "verify_grid", "seed": 3, "seconds": 0.0, "min_items": 6, "trace": False, "probes": False}

    good = _worker(job, ROOT / "src")
    assert good["done"] == 6 and good["failed"] == 0 and good["anchor_errors"] == []

    # every problem fails, and so do the two eigensolver anchors
    bad = _worker(job, tmp_path)
    assert bad["failed"] == 6 and len(bad["anchor_errors"]) == 2
    assert run.tally([bad]) == (6 + bad["anchors"], 8)
    metrics, _ = run.end_to_end(bad, 0.3)
    assert metrics["pass_frac"] == pytest.approx(1.0 - 8 / (6 + bad["anchors"]))


def test_corrupted_cli_output_fails_the_bit_for_bit_check():
    item = next(i for i in workloads.items("cli_calls", 2) if i["cmd"] == "bounds")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), *workloads.cli_argv(item)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert workloads.check_cli(item, proc.returncode, proc.stdout) == []
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("FG upper"))
    last = line[-1]
    corrupted = proc.stdout.replace(line, line[:-1] + ("1" if last != "1" else "2"))
    assert workloads.check_cli(item, 0, corrupted)
    assert workloads.check_cli(item, 1, proc.stdout)


@pytest.mark.parametrize("workload", ["phi_sweep", "verify_grid"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    counts = []
    for k in range(2):
        spans_dir = tmp_path / str(k)
        spans_dir.mkdir()
        job = {"workload": workload, "seed": 4, "seconds": 0.0, "min_items": 4, "trace": True,
               "spans_dir": str(spans_dir), "probes": False}
        res = _worker(job, ROOT / "src")
        m = run.per_layer(workload, 4, run.load_spans(spans_dir, workload), res["done"])
        counts.append({k: v for k, v in m.items() if run.PER_LAYER[k] not in TIME_UNITS})
    assert counts[0] == counts[1]
    if workload == "phi_sweep":
        assert counts[0]["collective_field.optimize.calls"] == 1.0
        assert counts[0]["collective_field.objective_evals_per_optimize"] > 0
        assert counts[0]["radial_oracle.ground_energy.calls"] == 0.0
    else:
        assert counts[0]["collective_field.optimize.calls"] == 0.0
        assert counts[0]["radial_oracle.eig_solves"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, None, "cli.main", 0, 100, 0, 0),
        (1, 0, "collective_field.optimize", 10, 50, 0, 0),
        (2, 0, "collective_field.optimize", 40, 70, 0, 0),  # overlaps its sibling
        (3, 1, "numerics.minimize_1d", 20, 30, 0, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {0: 40, 1: 30, 2: 30, 3: 10}


def test_tail_keeps_ten_samples_beyond():
    value, info = run.tail([i / 1e3 for i in range(1, 101)])
    assert value == pytest.approx(90.0) and info == {"percentile": 90.0, "samples": 100, "beyond": 10}


def test_compare_flags_worse_and_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(steady, [x * 1.3 for x in steady], "lower", 0.2)[0] == "worse"
    assert run.verdict(steady, [x * 1.05 for x in steady], "lower", 0.2)[0] == "ok"
    assert run.verdict(steady, [x * 1.3 for x in steady], "higher", 0.2)[0] == "ok"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0]
    assert run.verdict(noisy, [x * 1.1 for x in noisy], "lower", 0.2)[0] == "unresolved"


def test_metric_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

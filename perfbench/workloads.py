"""Seeded inputs, the work done per input, and the correctness gate.

Every workload is an endless stream of inputs drawn from ``random.Random``
with the run's seed, so the same seed always yields the same inputs.  The
draws are stratified: each cycle of a stream visits every combination of
the properties that set the cost (potential kind, soft core present or
not, coupling range, dimension), in a seeded order with seeded values
inside each stratum.  Any prefix of a stream therefore has nearly the same
mix, which keeps one run comparable with the next.

The bosonbounds package is imported inside the functions that need it, so
this module can generate inputs without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("phi_sweep", "verify_grid", "cli_calls")
KINDS = ("oscillator", "kratzer")

V_RANGE = (0.5, 40.0)
LAM_RANGE = (0.5, 2.0)
# soft-core classes: none, weak, strong
MU_CLASSES = ((0.0, 0.0), (0.25, 1.0), (1.0, 3.0))
# the same classes for the soft-core coupling g = v*mu
G_CLASSES = ((0.0, 0.0), (0.5, 2.0), (2.0, 20.0))
DIMENSIONS = (3, 4, 5, 7)
# cli_calls coupling ranges, weak and strong
CLI_V = ((0.5, 5.0), (10.0, 20.0))
CLI_MU = ((0.25, 1.0), (2.0, 3.0))

# optimize searches q in the bracket (0.6, 12]; an optimum on its edge is
# a one-sided result, so a reported q_opt must lie strictly inside
Q_BRACKET = (0.6, 12.0)
# tolerances of the verify command's checks
ORACLE_RTOL = 1e-5
GAUSSIAN_RTOL = 1e-7


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _mu(rng, cls):
    lo, hi = MU_CLASSES[cls]
    return 0.0 if hi == 0.0 else _log_uniform(rng, lo, hi)


def _v_stratum(rng, k, n):
    lo, hi = math.log(V_RANGE[0]), math.log(V_RANGE[1])
    step = (hi - lo) / n
    return math.exp(rng.uniform(lo + k * step, lo + (k + 1) * step))


def _cycles(rng, strata):
    strata = list(strata)
    while True:
        rng.shuffle(strata)
        yield from strata


def _phi_sweep(rng):
    strata = [(k, vs, mc) for k in KINDS for vs in range(4) for mc in range(len(MU_CLASSES))]
    for kind, vs, mc in _cycles(rng, strata):
        yield {
            "kind": kind,
            "lam": _log_uniform(rng, *LAM_RANGE),
            "mu": _mu(rng, mc),
            "v": _v_stratum(rng, vs, 4),
        }


def _verify_grid(rng):
    # The soft core is drawn as the coupling g = v*mu, which sets the
    # eigenfunction's power law at the origin and so the eigensolver's
    # convergence; below g ~ 0.2 at d = 3 it raises "mesh too coarse".
    strata = [(k, d, gc) for k in KINDS for d in DIMENSIONS for gc in range(len(G_CLASSES))]
    for kind, d, gc in _cycles(rng, strata):
        v = _log_uniform(rng, *V_RANGE)
        lo, hi = G_CLASSES[gc]
        yield {
            "kind": kind,
            "lam": _log_uniform(rng, *LAM_RANGE),
            "mu": 0.0 if hi == 0.0 else _log_uniform(rng, lo, hi) / v,
            "v": v,
            "d": d,
        }


def _cli_calls(rng):
    commands = [("bounds", k) for k in KINDS] + [("bounds_phi", k) for k in KINDS]
    commands += [("physical", "oscillator")] + [("sweep", k) for k in KINDS]
    # every command once at weak and once at strong coupling; a strong
    # oscillator sweep runs its pool threads on the finest quadrature
    # levels at once, which sets the largest command's memory
    strata = [(cmd, kind, strong) for cmd, kind in commands for strong in (False, True)]
    for cmd, kind, strong in _cycles(rng, strata):
        v = _log_uniform(rng, *CLI_V[strong])
        item = {
            "cmd": cmd,
            "kind": kind,
            "lam": _log_uniform(rng, *LAM_RANGE),
            "mu": _log_uniform(rng, *CLI_MU[strong]),
        }
        if cmd == "physical":
            item["N"] = int(_log_uniform(rng, 10, 1000))
            item["V0"] = 2.0 * v / item["N"]
        elif cmd == "sweep":
            item["v_min"] = v
            item["v_max"] = 2.0 * v
            item["steps"] = 3
        else:
            item["v"] = v
        yield item


_GENERATORS = {"phi_sweep": _phi_sweep, "verify_grid": _verify_grid, "cli_calls": _cli_calls}


def items(workload: str, seed: int):
    """Endless seeded input stream of one workload."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(inputs) -> str:
    h = hashlib.sha256()
    for item in inputs:
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def cli_argv(item) -> list:
    """Command line a user would type for one cli_calls input."""
    flags = ["--potential", item["kind"], "--lambda", repr(item["lam"]), "--mu", repr(item["mu"])]
    cmd = item["cmd"]
    if cmd == "physical":
        return ["physical", "--N", str(item["N"]), "--V0", repr(item["V0"])] + flags
    if cmd == "sweep":
        return ["sweep", "--phi", "--format", "json", "--v-min", repr(item["v_min"]),
                "--v-max", repr(item["v_max"]), "--steps", str(item["steps"])] + flags
    argv = ["bounds", "--v", repr(item["v"])] + flags
    return argv + ["--phi"] if cmd == "bounds_phi" else argv


# ---------------------------------------------------------------------------
# work and checks; each check returns a list of error strings
# ---------------------------------------------------------------------------


def problem(item):
    from bosonbounds import Potential, PotentialKind, Problem

    return Problem(Potential(PotentialKind(item["kind"]), item["lam"], item["mu"]), item.get("d", 3), item["v"])


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_phi_chain(v, lower, phi, upper, q_opt):
    """The sweep's bound-chain test, with its cushion, plus the bracket test."""
    errors = []
    cushion = 1e-9 * max(1.0, abs(upper))
    if not lower - cushion <= phi <= upper + cushion:
        errors.append(f"chain F2 <= Fphi <= FG violated at v={v!r}: {lower!r}, {phi!r}, {upper!r}")
    if not Q_BRACKET[0] < q_opt < Q_BRACKET[1]:
        errors.append(f"q_opt={q_opt!r} not strictly inside {Q_BRACKET} at v={v!r}")
    return errors


def run_phi(item):
    from bosonbounds import bound_report

    return bound_report(problem(item), include_phi=True)


def check_phi(item, report):
    if None in (report.upper_phi, report.q_opt):
        return ["bound_report returned no collective-field bound"]
    return check_phi_chain(item["v"], report.lower, report.upper_phi, report.upper_gaussian, report.q_opt)


def run_verify(item):
    """Closed forms, eigensolver and, at d = 3, the q = 2 Gaussian point."""
    from bosonbounds import bound_report, ground_energy, minimize_scale

    prob = problem(item)
    report = bound_report(prob)
    numeric = ground_energy(prob)
    gauss = minimize_scale(prob, 2.0)[1] if prob.d == 3 else None
    return report, numeric, gauss


def check_verify(item, out):
    report, numeric, gauss = out
    errors = []
    if not _rel(numeric, report.lower) <= ORACLE_RTOL:
        errors.append(f"eigensolver {numeric!r} vs F2 {report.lower!r} beyond {ORACLE_RTOL}")
    if gauss is not None and not _rel(gauss, report.upper_gaussian) <= GAUSSIAN_RTOL:
        errors.append(f"q = 2 energy {gauss!r} vs FG {report.upper_gaussian!r} beyond {GAUSSIAN_RTOL}")
    return errors


def _fields(text):
    out = {}
    for line in text.splitlines():
        label, sep, value = line.partition(":")
        if sep:
            out[label.strip()] = value.strip()
    return out


def _expect_equal(errors, label, got, value):
    want = repr(float(value))
    if got != want:
        errors.append(f"{label}: printed {got!r}, library gives {want}")


def check_cli(item, returncode, stdout):
    """Parse one command's output and compare it bit for bit with the library."""
    from bosonbounds import (
        PhysicalSystem,
        bound_report,
        dimensionless_coupling,
        gaussian_upper,
        lower_bound,
        recover_energy,
    )

    if returncode != 0:
        return [f"exit code {returncode}"]
    errors = []
    cmd = item["cmd"]
    if cmd == "sweep":
        try:
            rows = json.loads(stdout)["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"sweep output does not parse: {exc!r}"]
        if len(rows) != item["steps"] or rows[0]["v"] != item["v_min"]:
            errors.append(f"sweep rows do not span the requested range: {[r['v'] for r in rows]}")
        for row in rows:
            rep = bound_report(problem(dict(item, v=row["v"])), include_phi=True)
            for col, value in (("F2_lower", rep.lower), ("FG_upper", rep.upper_gaussian),
                               ("Fphi_upper", rep.upper_phi), ("q_opt", rep.q_opt),
                               ("b_opt", rep.b_opt), ("sigma2", rep.sigma2)):
                if row.get(col) != value:
                    errors.append(f"sweep v={row['v']!r} {col}: printed {row.get(col)!r}, library gives {value!r}")
            errors += check_phi_chain(row["v"], row["F2_lower"], row["Fphi_upper"], row["FG_upper"], row["q_opt"])
        return errors

    f = _fields(stdout)
    try:
        if cmd == "physical":
            phys = PhysicalSystem(N=item["N"], V0=item["V0"])
            v = dimensionless_coupling(phys)
            prob = problem(dict(item, v=v))
            lo, hi = lower_bound(prob), gaussian_upper(prob)
            _expect_equal(errors, "v", f["v"], v)
            _expect_equal(errors, "F2 lower", f["F2 lower"], lo)
            _expect_equal(errors, "FG upper", f["FG upper"], hi)
            window = f"[{recover_energy(phys, lo)!r}, {recover_energy(phys, hi)!r}]"
            if f["physical window"] != window:
                errors.append(f"physical window: printed {f['physical window']!r}, library gives {window}")
            return errors
        rep = bound_report(problem(item), include_phi=cmd == "bounds_phi")
        _expect_equal(errors, "F2 lower", f["F2 lower"], rep.lower)
        _expect_equal(errors, "FG upper", f["FG upper"], rep.upper_gaussian)
        _expect_equal(errors, "sigma2", f["sigma2"], rep.sigma2)
        if rep.asymptote_lower is None:
            if not f["asymptote"].startswith("n/a"):
                errors.append(f"asymptote: printed {f['asymptote']!r} for mu = 0")
        else:
            _expect_equal(errors, "asymptote lower", f["asymptote lower"].split()[0], rep.asymptote_lower)
            _expect_equal(errors, "asymptote upper", f["asymptote upper"].split()[0], rep.asymptote_upper)
        if cmd == "bounds_phi":
            _expect_equal(errors, "Fphi upper", f["Fphi upper"], rep.upper_phi)
            _expect_equal(errors, "q_opt", f["q_opt"], rep.q_opt)
            _expect_equal(errors, "b_opt", f["b_opt"], rep.b_opt)
            errors += check_phi_chain(item["v"], rep.lower, rep.upper_phi, rep.upper_gaussian, rep.q_opt)
        elif "Fphi upper" in f:
            errors.append("Fphi printed without --phi")
    except KeyError as exc:
        errors.append(f"output lacks the field {exc}")
    return errors


# ---------------------------------------------------------------------------
# anchors: problems pinned at the tolerances of the test suite
# ---------------------------------------------------------------------------

# (kind, v, q_opt, Fphi) at lam = mu = 1, d = 3; q_opt to 2e-5, Fphi to rel 1e-8
PHI_ANCHORS = (
    ("oscillator", 2.0, 2.8587254282025905, 8.00537659614516),
    ("kratzer", 2.0, 2.0011207448818675, -0.23149810979051907),
    ("kratzer", 20.0, 3.2278395823269146, -3.1067490453766076),
)
KRATZER_V2_CLI = ["bounds", "--potential", "kratzer", "--v", "2", "--phi"]


def _phi_anchor_errors(label, q_opt, energy, q_ref, e_ref):
    errors = []
    if not abs(q_opt - q_ref) <= 2e-5:
        errors.append(f"{label}: q_opt {q_opt!r} vs {q_ref!r} beyond 2e-5")
    if not _rel(energy, e_ref) <= 1e-8:
        errors.append(f"{label}: Fphi {energy!r} vs {e_ref!r} beyond rel 1e-8")
    return errors


def anchors(workload, run_cli=None):
    """Run the workload's anchor checks; returns (attempted, error list)."""
    from bosonbounds import delta_1d_phi, ground_energy, minimize_scale

    errors = []
    if workload == "phi_sweep":
        for kind, v, q_ref, e_ref in PHI_ANCHORS:
            rep = run_phi({"kind": kind, "lam": 1.0, "mu": 1.0, "v": v})
            errors += _phi_anchor_errors(f"{kind} v={v}", rep.q_opt, rep.upper_phi, q_ref, e_ref)
        res = delta_1d_phi(1.0)
        if not (abs(res.q_opt - 1.6120693564010917) <= 1e-6 and _rel(res.energy, -0.16486861869027464) <= 1e-10):
            errors.append(f"delta_1d_phi(1): {res!r}")
        return len(PHI_ANCHORS) + 1, errors
    if workload == "verify_grid":
        cases = (({"kind": "kratzer", "lam": 1.0, "mu": 1.0, "v": 2.0}, -0.25),
                 ({"kind": "oscillator", "lam": 1.0, "mu": 0.0, "v": 4.0}, 6.0))
        for item, exact in cases:
            e = ground_energy(problem(item))
            if not _rel(e, exact) <= ORACLE_RTOL:
                errors.append(f"ground_energy {item}: {e!r} vs {exact}")
        e = minimize_scale(problem({"kind": "oscillator", "lam": 1.0, "mu": 1.0, "v": 2.0}), 2.0)[1]
        if not _rel(e, math.sqrt(66.0)) <= 1e-9:
            errors.append(f"q = 2 oscillator v=2: {e!r} vs sqrt(66)")
        return len(cases) + 1, errors
    returncode, stdout = run_cli(KRATZER_V2_CLI)
    f = _fields(stdout) if returncode == 0 else {}
    try:
        errors += _phi_anchor_errors("cli kratzer v=2", float(f["q_opt"]), float(f["Fphi upper"]),
                                     PHI_ANCHORS[1][2], PHI_ANCHORS[1][3])
    except (KeyError, ValueError):
        errors.append(f"cli kratzer v=2 anchor: exit {returncode}, output {stdout!r}")
    return 1, errors

"""Command-line front end.

Subcommands:

* ``bounds``    one problem instance, all bounds printed
* ``sweep``     CSV/JSON table of bounds over a coupling range
* ``physical``  physical-unit conversion and energy window
* ``verify``    built-in calibration checks

Exit codes: 0 success, 1 numerical or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import collective_field, radial_oracle
from .closed_bounds import bound_report, gaussian_upper, lower_bound
from .model import (
    PhysicalSystem,
    Potential,
    PotentialKind,
    Problem,
    delta_exact_energy,
    dimensionless_coupling,
    recover_energy,
)

CSV_HEADER = "v,F2_lower,FG_upper,Fphi_upper,q_opt,b_opt,sigma2"
CSV_COLUMNS = CSV_HEADER.split(",")


def _fmt(x) -> str:
    # shortest decimal that round-trips the double exactly
    x = float(x)
    if not math.isfinite(x):
        raise ArithmeticError(f"refusing to print the non-finite value {x!r}")
    return repr(x)


def _potential_from(args) -> Potential:
    return Potential(PotentialKind(args.potential), args.lam, args.mu)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    potential: Potential
    d: int
    v_min: float
    v_max: float
    steps: int
    include_phi: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.v_max) and 0.0 < self.v_min < self.v_max):
            raise ValueError(
                f"need 0 < v_min < v_max < inf, got v_min={self.v_min}, v_max={self.v_max}"
            )
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")


def sweep_rows(config: SweepConfig) -> list:
    """All sweep rows in ascending v, each from the checked ``bound_report``."""
    step = (config.v_max - config.v_min) / (config.steps - 1)
    rows = []
    for i in range(config.steps):
        # the last row sits exactly on v_max, which v_min + i*step can miss
        v = config.v_max if i == config.steps - 1 else config.v_min + i * step
        r = bound_report(Problem(config.potential, config.d, v), config.include_phi)
        values = (v, r.lower, r.upper_gaussian, r.upper_phi, r.q_opt, r.b_opt, r.sigma2)
        rows.append(dict(zip(CSV_COLUMNS, values)))
    return rows


def _render_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join("" if row[c] is None else _fmt(row[c]) for c in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def _render_json(config: SweepConfig, rows) -> str:
    payload = {
        "config": {
            "potential": config.potential.kind.value,
            "lambda": config.potential.lam,
            "mu": config.potential.mu,
            "d": config.d,
            "v_min": config.v_min,
            "v_max": config.v_max,
            "steps": config.steps,
            "include_phi": config.include_phi,
        },
        "rows": rows,
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        # newline="" keeps the LF endings exactly as rendered
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_sweep(args) -> int:
    config = SweepConfig(
        potential=_potential_from(args),
        d=args.d,
        v_min=args.v_min,
        v_max=args.v_max,
        steps=args.steps,
        include_phi=args.phi,
    )
    rows = sweep_rows(config)
    if args.format == "csv":
        _emit(_render_csv(rows), args.out)
    else:
        _emit(_render_json(config, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    prob = Problem(_potential_from(args), args.d, args.v)
    report = bound_report(prob, include_phi=args.phi)
    print(f"F2 lower        : {_fmt(report.lower)}")
    print(f"FG upper        : {_fmt(report.upper_gaussian)}")
    if report.upper_phi is not None:
        print(f"Fphi upper      : {_fmt(report.upper_phi)}")
        print(f"  q_opt         : {_fmt(report.q_opt)}")
        print(f"  b_opt         : {_fmt(report.b_opt)}")
    print(f"sigma2          : {_fmt(report.sigma2)}")
    if report.asymptote_lower is None:
        print("asymptote       : n/a (mu = 0, no linear large-v regime)")
    else:
        print(f"asymptote lower : {_fmt(report.asymptote_lower)} per unit v")
        print(f"asymptote upper : {_fmt(report.asymptote_upper)} per unit v")
    return 0


# ---------------------------------------------------------------------------
# physical
# ---------------------------------------------------------------------------


def cmd_physical(args) -> int:
    phys = PhysicalSystem(N=args.N, V0=args.V0, m=args.m, a=args.a, hbar=args.hbar)
    v = dimensionless_coupling(phys)
    # format every line before printing any: a value that overflows prints nothing
    lines = [f"v               : {_fmt(v)}"]
    if args.delta:
        e_dimless = delta_exact_energy(phys.N, v)
        lines.append(f"delta F_N(v)    : {_fmt(e_dimless)}")
        lines.append(f"physical energy : {_fmt(recover_energy(phys, e_dimless))}")
    else:
        report = bound_report(Problem(_potential_from(args), args.d, v), window_only=True)
        lo, hi = report.lower, report.upper_gaussian
        lines.append(f"F2 lower        : {_fmt(lo)}")
        lines.append(f"FG upper        : {_fmt(hi)}")
        lines.append(f"physical window : [{_fmt(recover_energy(phys, lo))}, {_fmt(recover_energy(phys, hi))}]")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _checks_delta():
    full = collective_field.delta_1d_phi(1.0)
    constrained = collective_field.delta_1d_phi(1.0, q=2.0)
    floor = delta_exact_energy(math.inf, 1.0)
    return [
        ("delta F_phi(1) full optimum", full.energy, -0.164868, 1e-4),
        ("delta F_phi(1) at q = 2", constrained.energy, -1.0 / (2.0 * math.pi), 1e-9),
        (
            "delta large-N floor below both",
            min(full.energy, constrained.energy) - floor,
            ">= 0",
            None,
        ),
    ]


def _checks_qcal():
    out = []
    published = {
        ("oscillator", 2.0): (2.8593, 5e-3),
        ("oscillator", 20.0): (4.460, 1e-2),
        ("kratzer", 2.0): (2.0017, 5e-3),
        ("kratzer", 20.0): (3.237, 1e-2),
    }
    for (kind, v), (expected, tol) in published.items():
        pot = Potential(PotentialKind(kind), 1.0, 1.0)
        prob = Problem(pot, 3, v)
        res = collective_field.optimize(prob)
        # the b-optimised energies at both powers show which one is lower
        e_expected = collective_field.minimize_scale(prob, expected)[1]
        note = f"E(observed)={_fmt(res.energy)} E(expected)={_fmt(e_expected)}"
        out.append((f"{kind} q_opt(v={v:g})", res.q_opt, expected, tol, note))
    return out


def _checks_gaussian():
    import numpy as np

    rng = np.random.default_rng(0)
    out = []
    for kind in ("oscillator", "kratzer"):
        worst = 0.0
        for _ in range(20):
            lam = float(rng.uniform(0.2, 5.0))
            mu = float(rng.uniform(0.2, 5.0))
            v = float(rng.uniform(0.5, 20.0))
            prob = Problem(Potential(PotentialKind(kind), lam, mu), 3, v)
            _, energy = collective_field.minimize_scale(prob, 2.0)
            ref = gaussian_upper(prob)
            worst = max(worst, abs(energy - ref) / abs(ref))
        out.append((f"{kind} q=2 equals Gaussian bound (max rel dev)", worst, 0.0, 1e-7))
    return out


def _checks_oracle():
    out = []
    for kind in ("oscillator", "kratzer"):
        worst = 0.0
        for lam in (0.5, 2.0):
            for mu in (0.0, 0.05, 0.5, 2.0):
                for v in (1.0, 10.0):
                    for d in (3, 4, 5):
                        prob = Problem(Potential(PotentialKind(kind), lam, mu), d, v)
                        exact = lower_bound(prob)
                        numeric = radial_oracle.ground_energy(prob)
                        worst = max(worst, abs(numeric - exact) / abs(exact))
        out.append((f"{kind} eigensolver vs closed form (max rel dev)", worst, 0.0, 1e-5))
    return out


_VERIFY_GROUPS = {
    "delta": _checks_delta,
    "qcal": _checks_qcal,
    "gaussian": _checks_gaussian,
    "oracle": _checks_oracle,
}


def cmd_verify(args) -> int:
    groups = [args.only] if args.only else list(_VERIFY_GROUPS)
    failures = 0
    for name in groups:
        for label, observed, expected, tol, *note in _VERIFY_GROUPS[name]():
            if tol is None:
                ok = observed >= 0.0
                detail = f"observed={_fmt(observed)} expected={expected}"
            else:
                ok = abs(observed - expected) <= tol
                detail = f"observed={_fmt(observed)} expected={_fmt(expected)} tol={_fmt(tol)}"
            print(f"{'PASS' if ok else 'FAIL'} {name}/{label}: {' '.join([detail, *note])}")
            failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_potential_flags(sub, with_v: bool):
    sub.add_argument(
        "--potential", choices=["oscillator", "kratzer"], default="oscillator"
    )
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sub.add_argument("--mu", type=float, default=1.0)
    sub.add_argument("--d", type=int, default=3)
    if with_v:
        sub.add_argument("--v", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonbounds",
        description="Ground-state energy bounds for N-boson systems with soft-core pair potentials.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_bounds = subs.add_parser("bounds", help="bounds for one problem instance")
    _add_potential_flags(p_bounds, with_v=True)
    p_bounds.add_argument(
        "--phi", action="store_true", help="include the variational collective-field bound"
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = subs.add_parser("sweep", help="bounds over a range of couplings")
    _add_potential_flags(p_sweep, with_v=False)
    p_sweep.add_argument("--v-min", type=float, default=2.0)
    p_sweep.add_argument("--v-max", type=float, default=20.0)
    p_sweep.add_argument("--steps", type=int, default=50)
    p_sweep.add_argument("--phi", action="store_true")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_phys = subs.add_parser("physical", help="physical-unit energy window")
    p_phys.add_argument("--N", type=int, required=True)
    p_phys.add_argument("--V0", type=float, required=True)
    p_phys.add_argument("--m", type=float, default=1.0)
    p_phys.add_argument("--a", type=float, default=1.0)
    p_phys.add_argument("--hbar", type=float, default=1.0)
    p_phys.add_argument(
        "--delta", action="store_true", help="use the exact 1-D delta-model energy"
    )
    _add_potential_flags(p_phys, with_v=False)
    p_phys.set_defaults(func=cmd_physical)

    p_verify = subs.add_parser("verify", help="built-in calibration checks")
    p_verify.add_argument("--only", choices=sorted(_VERIFY_GROUPS), default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

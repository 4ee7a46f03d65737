"""End-to-end tests for the command-line front end.

Everything goes through main(argv) so the exit-code contract is exercised
exactly as a shell would see it; one subprocess smoke test covers the
module entry point itself.
"""

import json
import logging
import math
import os
import subprocess
import sys

import pytest

from bosonbounds import Potential, PhiResult, Problem, bound_report, collective_field
from bosonbounds.cli import CSV_HEADER, SweepConfig, main, sweep_rows
from bosonbounds.numerics import QuadratureError


def src_env():
    """The environment with PYTHONPATH set to the source tree under test."""
    import bosonbounds

    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bosonbounds.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_fields(out):
    """Map 'label : value' lines to their raw value strings."""
    fields = {}
    for line in out.splitlines():
        if ":" in line:
            label, _, value = line.partition(":")
            fields[label.strip()] = value.strip()
    return fields


class TestBounds:
    def test_kratzer_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--potential", "kratzer", "--v", "2"
        )
        assert code == 0
        fields = parse_fields(out)
        assert float(fields["F2 lower"]) == pytest.approx(-0.25, rel=1e-12)
        assert float(fields["FG upper"]) == pytest.approx(-4.0 / (5.5 * math.pi), rel=1e-12)
        assert float(fields["sigma2"]) > 0.0
        assert float(fields["asymptote lower"].split()[0]) == pytest.approx(-0.25, rel=1e-12)
        assert "Fphi upper" not in fields

    def test_core_free_bounds_collapse(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--mu", "0", "--v", "4")
        assert code == 0
        fields = parse_fields(out)
        assert float(fields["F2 lower"]) == pytest.approx(6.0, rel=1e-12)
        assert float(fields["FG upper"]) == pytest.approx(6.0, rel=1e-12)
        assert "n/a (mu = 0" in out

    def test_phi_flag_adds_the_variational_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--v", "2", "--phi")
        assert code == 0
        fields = parse_fields(out)
        phi = float(fields["Fphi upper"])
        assert float(fields["F2 lower"]) <= phi <= float(fields["FG upper"])
        assert float(fields["q_opt"]) == pytest.approx(2.8587, abs=1e-3)
        assert float(fields["b_opt"]) > 0.0

    def test_phi_above_the_gaussian_bound_is_a_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            collective_field, "optimize", lambda prob: PhiResult(1e3, 2.5, 1.0, True)
        )
        code, out, err = run_cli(capsys, "bounds", "--v", "2", "--phi")
        assert code == 1
        assert out == ""
        assert "bound ordering violated" in err


class TestSweep:
    ARGS = ("sweep", "--v-min", "2", "--v-max", "20", "--steps", "4")

    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        vs = [float(line.split(",")[0]) for line in lines[1:]]
        assert vs == [2.0, 8.0, 14.0, 20.0]

    def test_endpoints_exact_with_two_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--v-min", "3", "--v-max", "7", "--steps", "2"
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows[0].split(",")[0] == "3.0"
        assert rows[1].split(",")[0] == "7.0"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_last_row_is_exactly_v_max(self, capsys, fmt):
        # v_min + 69*step lands one ulp below this v_max
        v_max = "21.697752557943122"
        code, out, _ = run_cli(
            capsys, "sweep", "--v-min", "7.56603832304708", "--v-max", v_max,
            "--steps", "70", "--format", fmt,
        )
        assert code == 0
        if fmt == "csv":
            assert out.splitlines()[-1].split(",")[0] == v_max
        else:
            payload = json.loads(out)
            assert len(payload["rows"]) == 70
            assert payload["rows"][-1]["v"] == payload["config"]["v_max"] == float(v_max)

    def test_phi_columns_empty_without_flag(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == cells[4] == cells[5] == ""
            assert cells[1] != "" and cells[2] != "" and cells[6] != ""

    def test_phi_columns_filled_with_flag(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS, "--phi")
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert all(cell != "" for cell in cells)
            assert float(cells[1]) <= float(cells[3]) <= float(cells[2]) + 1e-9

    def test_runs_are_bit_identical(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS, "--phi")
        _, second, _ = run_cli(capsys, *self.ARGS, "--phi")
        assert first == second

    def test_json_agrees_with_csv(self, capsys):
        _, csv_out, _ = run_cli(capsys, *self.ARGS, "--phi")
        _, json_out, _ = run_cli(capsys, *self.ARGS, "--phi", "--format", "json")
        payload = json.loads(json_out)
        assert payload["config"]["steps"] == 4
        assert payload["config"]["include_phi"] is True
        csv_rows = csv_out.splitlines()[1:]
        assert len(payload["rows"]) == len(csv_rows)
        columns = CSV_HEADER.split(",")
        for row, line in zip(payload["rows"], csv_rows):
            for name, cell in zip(columns, line.split(",")):
                # both sides render through repr, which round-trips doubles
                assert float(cell) == row[name]

    def test_out_file_matches_stdout_with_lf_endings(self, capsys, tmp_path):
        _, expected, _ = run_cli(capsys, *self.ARGS)
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8") == expected

    def test_rows_are_the_bound_reports(self):
        pot = Potential.kratzer(1.3, 0.6)
        rows = sweep_rows(SweepConfig(pot, 3, 2.0, 8.0, 3, include_phi=True))
        for row in rows:
            report = bound_report(Problem(pot, 3, row["v"]), include_phi=True)
            assert (
                row["F2_lower"], row["FG_upper"], row["Fphi_upper"],
                row["q_opt"], row["b_opt"], row["sigma2"],
            ) == (
                report.lower, report.upper_gaussian, report.upper_phi,
                report.q_opt, report.b_opt, report.sigma2,
            )
        assert [row["v"] for row in rows] == [2.0, 5.0, 8.0]

    def test_invalid_range_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--v-min", "5", "--v-max", "2", "--steps", "4"
        )
        assert code == 2
        assert "v_min" in err

    def test_single_step_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--v-min", "2", "--v-max", "4", "--steps", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("steps", [2.5, 3.0, "3"])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            SweepConfig(Potential.kratzer(), 3, 2.0, 8.0, steps)


class TestPhysical:
    def test_energy_window(self, capsys):
        code, out, _ = run_cli(capsys, "physical", "--N", "100", "--V0", "0.04")
        assert code == 0
        fields = parse_fields(out)
        assert float(fields["v"]) == pytest.approx(2.0, rel=1e-14)
        lo, hi = fields["physical window"].strip("[]").split(",")
        assert float(lo) == pytest.approx(99.0 * 5.0 * math.sqrt(2.0), rel=1e-9)
        assert float(hi) == pytest.approx(99.0 * math.sqrt(66.0), rel=1e-9)

    def test_delta_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "physical", "--N", "2", "--V0", "2", "--delta"
        )
        assert code == 0
        fields = parse_fields(out)
        assert float(fields["v"]) == pytest.approx(2.0, rel=1e-14)
        assert float(fields["delta F_N(v)"]) == pytest.approx(-1.0, rel=1e-14)
        assert float(fields["physical energy"]) == pytest.approx(-1.0, rel=1e-14)

    def test_too_few_particles_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "physical", "--N", "1", "--V0", "1")
        assert code == 2


class TestVerify:
    def test_gaussian_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "gaussian")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_delta_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "delta")
        assert code == 0
        assert out.count("PASS") == 3

    def test_oracle_group_passes(self, capsys):
        # the grid includes the core-free and weak-core rows
        code, out, _ = run_cli(capsys, "verify", "--only", "oracle")
        assert code == 0
        assert out.count("PASS") == 2
        assert "all checks passed" in out

    def test_calibration_group_reports_the_known_discrepancy(self, capsys):
        # the reference power for the oscillator at v = 20 is not where the
        # functional's minimum actually sits, so this one check fails by
        # design; everything else in the group passes
        code, out, _ = run_cli(capsys, "verify", "--only", "qcal")
        assert code == 1
        fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fail_lines) == 1
        assert "oscillator q_opt(v=20)" in fail_lines[0]
        assert "1 check(s) failed" in out
        # every line prints the b-optimised energy at both powers, and the
        # observed power is never the higher one
        qcal_lines = [line for line in out.splitlines() if "qcal/" in line]
        assert len(qcal_lines) == 4
        for line in qcal_lines:
            fields = dict(item.split("=", 1) for item in line.split() if "=" in item)
            assert float(fields["E(observed)"]) <= float(fields["E(expected)"]), line


class TestUsageErrors:
    def test_missing_required_coupling(self, capsys):
        assert run_cli(capsys, "bounds")[0] == 2

    def test_unknown_potential(self, capsys):
        assert run_cli(capsys, "bounds", "--potential", "coulomb", "--v", "1")[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("bounds", "--v", "2", "--mu", "nan"), "mu must be non-negative and finite"),
            (("bounds", "--v", "inf"), "v must be positive and finite"),
            (("bounds", "--v", "2", "--lambda", "inf"), "lam must be positive and finite"),
            (("physical", "--N", "10", "--V0", "inf"), "V0 must be positive and finite"),
            (("sweep", "--v-max", "inf"), "v_max=inf"),
        ],
    )
    def test_non_finite_input_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (("bounds", "--v", "1e300", "--potential", "kratzer"), 1),
            (("bounds", "--v", "1e200"), 1),
            # the coupling v itself overflows: a usage error
            (("physical", "--N", "1000", "--V0", "1e308", "--delta"), 2),
            (("physical", "--N", "1000", "--V0", "1e300", "--delta"), 1),
            # FG overflows inside bound_report
            (("physical", "--N", "1000000", "--V0", "1e300"), 1),
            # the physical energy overflows after F2 and FG are formatted
            (("physical", "--N", str(10**308), "--V0", "1e-300"), 1),
            # the soft-core coupling g = v*mu overflows inside optimize
            (("bounds", "--v", "1e300", "--mu", "1e10", "--phi"), 1),
            (("bounds", "--v", "1e300", "--mu", "1e10", "--phi", "--potential", "kratzer"), 1),
            # g is finite, but the unit problem's energy overflows in the q search
            (("bounds", "--v", "1", "--mu", "1e308", "--phi"), 1),
            # F2 and FG underflow to -0.0, which bounds nothing
            (("physical", "--potential", "kratzer", "--mu", "0", "--N", "2", "--V0", "1e-300"), 1),
        ],
        ids=[f"argv{i}" for i in range(10)],
    )
    def test_overflow_exits_nonzero_without_printing_it(self, capsys, caplog, argv, exit_code):
        with caplog.at_level(logging.WARNING):
            code, out, _ = run_cli(capsys, *argv)
        assert code == exit_code
        assert out == ""
        assert caplog.records == []

    def test_unwritable_out_file_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert not target.exists() and not target.parent.exists()

    def test_only_the_printed_numbers_are_checked(self, capsys):
        # sigma2 overflows at these Kratzer couplings; physical does not print
        # it and succeeds, bounds prints it and fails before printing anything
        code, out, _ = run_cli(
            capsys, "physical", "--potential", "kratzer", "--N", "2", "--V0", "1e-160"
        )
        assert code == 0
        assert "physical window" in out and "inf" not in out
        code, out, err = run_cli(capsys, "bounds", "--potential", "kratzer", "--v", "1e-170")
        assert code == 1
        assert out == ""
        assert "numerical failure" in err

    @pytest.mark.parametrize("v", ["1e-155", "1e-170"])
    def test_sigma2_overflow_is_named(self, capsys, v):
        # sigma2 overflows to inf at 1e-155 and its denominator underflows to
        # 0 at 1e-170; either way the failure says which number it was
        code, out, err = run_cli(capsys, "bounds", "--potential", "kratzer", "--mu", "0", "--v", v)
        assert code == 1
        assert out == ""
        assert "sigma2" in err

    def test_unconverged_quadrature_is_a_numerical_failure(self, capsys, monkeypatch):
        # QuadratureError is a RuntimeError, so main's RuntimeError clause
        # turns it into exit 1 with nothing printed on stdout
        def unconverged(p, q):
            raise QuadratureError(f"C_{p} did not converge for q = {q}", (1.0, 2.0))

        monkeypatch.setattr(collective_field, "_pair_moment", unconverged)
        code, out, err = run_cli(capsys, "bounds", "--potential", "kratzer", "--v", "2", "--phi")
        assert code == 1
        assert out == ""
        assert "numerical failure" in err
        assert "did not converge" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bosonbounds.cli", "bounds", "--v", "1", "--mu", "0"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert "F2 lower" in proc.stdout


class TestImport:
    def test_package_import_leaves_numpy_and_scipy_unloaded(self):
        # numpy, scipy.linalg and scipy.special are imported where they are
        # used, which keeps them out of the start-up time of every command
        code = (
            "import sys, bosonbounds; "
            "print(sorted(m for m in ('numpy', 'scipy.linalg', 'scipy.special') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def _run_fresh(self, argv, module="numpy"):
        """Run main(argv) in a fresh interpreter; return (module loaded, exit code)."""
        code = (
            "import sys; from bosonbounds.cli import main; "
            f"code = main({argv!r}); "
            f"print({module!r} in sys.modules, code)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        loaded, exit_code = proc.stdout.splitlines()[-1].split()
        return loaded == "True", int(exit_code)

    def test_kratzer_phi_command_leaves_scipy_special_unloaded(self):
        # C_-1 is summed as a series and C_-2 is a tanh-sinh integral, so no
        # command needs scipy.special
        argv = ["bounds", "--potential", "kratzer", "--v", "2", "--phi"]
        assert self._run_fresh(argv, "scipy.special") == (False, 0)

    @pytest.mark.parametrize(
        "argv", [["bounds", "--v", "2"], ["physical", "--N", "100", "--V0", "0.04"]]
    )
    def test_closed_form_commands_never_load_numpy(self, argv):
        assert self._run_fresh(argv) == (False, 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--v", "2", "--phi"],
            ["bounds", "--potential", "kratzer", "--v", "2", "--phi"],
            ["sweep", "--steps", "50", "--phi"],
            ["verify", "--only", "gaussian"],
        ],
    )
    def test_collective_field_commands_never_load_numpy(self, argv):
        # the pair moments are plain Python; only the eigensolver needs arrays
        assert self._run_fresh(argv) == (False, 0)

    @pytest.mark.parametrize("module", ["numpy", "scipy.linalg"])
    def test_eigensolver_loads_numpy_and_scipy_linalg_on_first_use(self, module):
        assert self._run_fresh(["verify", "--only", "oracle"], module) == (True, 0)

    def test_commands_load_no_heavy_stdlib_module(self):
        # dataclasses pulls in inspect, ast and dis; logging serves one
        # warning and json one output format, so neither is imported up front
        probe = (
            "import sys; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'logging', 'json') if m in sys.modules))"
        )
        commands = [
            ["bounds", "--v", "2"],
            ["bounds", "--v", "2", "--phi"],
            ["bounds", "--potential", "kratzer", "--v", "2", "--phi"],
            ["physical", "--N", "100", "--V0", "0.04"],
            ["sweep", "--steps", "3", "--phi"],
        ]
        code = "from bosonbounds.cli import main; " + "".join(f"assert main({a!r}) == 0; " for a in commands)
        outputs = []
        for source in ("pass; ", code):
            proc = subprocess.run(
                [sys.executable, "-c", source + probe], capture_output=True, text=True, env=src_env()
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.splitlines()[-1])
        bare, after_commands = outputs
        assert after_commands == bare

    def test_json_output_loads_json(self):
        assert self._run_fresh(["sweep", "--steps", "3", "--format", "json"], "json") == (True, 0)

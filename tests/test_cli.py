"""End-to-end command-line checks: JSON envelope shape, exit codes, stream
separation, file round trips, and CSV reproducibility, all in-process.
"""

import argparse
import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import complexou
from complexou import checks, cli, hermite, sde
from complexou.cli import main
from complexou.operator import THETA_BOUND, GeneratorParams
from complexou.semigroup import PropagatorParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_envelope(out):
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1, "stdout must carry exactly one JSON line"
    return json.loads(lines[0])


class TestEnvelope:
    def test_key_order_and_fields(self, capsys):
        code, out, _ = run_cli(capsys, "hermite", "roundtrip", "--max-degree", "6")
        env = parse_envelope(out)
        assert code == 0
        assert list(env.keys()) == ["command", "inputs", "results", "max_residual", "pass", "version"]
        assert env["pass"] is True

    def test_seed_echoed_when_stochastic(self, capsys):
        code, out, _ = run_cli(
            capsys, "operator", "chain-rule", "--theta", "0.785398", "--degree", "4",
            "--cases", "25", "--seed", "99",
        )
        env = parse_envelope(out)
        assert code == 0
        assert env["seed"] == 99
        assert env["pass"] is True

    def test_pretty_goes_to_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "quad", "selftest", "--pretty")
        assert code == 0
        parse_envelope(out)
        assert "command" in err
        assert "pass" in err


class TestHermiteCommands:
    def test_show_explicit_formula(self, capsys):
        # J_{1,1} = (z zbar - 2)/2
        code, out, _ = run_cli(capsys, "hermite", "show", "--m", "1", "--n", "1")
        env = parse_envelope(out)
        assert code == 0
        assert env["results"]["poly"] == [
            {"a": 0, "b": 0, "re": -1.0, "im": 0.0},
            {"a": 1, "b": 1, "re": 0.5, "im": 0.0},
        ]

    def test_show_creation_route_matches(self, capsys):
        _, out_a, _ = run_cli(capsys, "hermite", "show", "--m", "2", "--n", "1")
        _, out_b, _ = run_cli(capsys, "hermite", "show", "--m", "2", "--n", "1", "--route", "creation")
        pa = {(t["a"], t["b"]): complex(t["re"], t["im"]) for t in parse_envelope(out_a)["results"]["poly"]}
        pb = {(t["a"], t["b"]): complex(t["re"], t["im"]) for t in parse_envelope(out_b)["results"]["poly"]}
        assert pa.keys() == pb.keys()
        assert all(abs(pa[k] - pb[k]) <= 1e-12 for k in pa)

    def test_orthonormality_suite(self, capsys):
        code, out, _ = run_cli(capsys, "hermite", "orthonormality", "--max-degree", "10")
        env = parse_envelope(out)
        assert code == 0
        assert env["max_residual"] <= 1e-9

    def test_show_signed_zeros_are_pinned(self, capsys):
        # Every J[m,n] coefficient is real.  The explicit route prints each
        # imaginary part as +0.0; the creation route, whose subtractions are
        # replayed term by term, prints -0.0 exactly at these (m, n, a, b).
        creation_negative_zeros = {
            (1, 1, 0, 0), (1, 2, 0, 1), (1, 3, 0, 2), (1, 4, 0, 3), (1, 5, 0, 4),
            (1, 6, 0, 5), (1, 7, 0, 6), (3, 3, 0, 0), (3, 4, 0, 1), (3, 5, 0, 2),
        }
        for route, expected in (("explicit", set()), ("creation", creation_negative_zeros)):
            negative = set()
            for m in range(9):
                for n in range(9 - m):
                    _, out, _ = run_cli(
                        capsys, "hermite", "show", "--m", str(m), "--n", str(n), "--route", route
                    )
                    for t in parse_envelope(out)["results"]["poly"]:
                        assert t["im"] == 0.0
                        if math.copysign(1.0, t["im"]) < 0:
                            negative.add((m, n, t["a"], t["b"]))
            assert negative == expected, route

    def test_transform_degree_zero_is_identity(self, capsys):
        code, out, _ = run_cli(capsys, "hermite", "transform", "--degree", "0")
        env = parse_envelope(out)
        assert code == 0
        assert env["results"]["forward"] == [[{"re": 1.0, "im": 0.0}]]
        assert env["results"]["inverse"] == [[{"re": 1.0, "im": 0.0}]]

    def test_failing_tolerance_gives_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "hermite", "orthonormality", "--max-degree", "4", "--tol", "1e-20"
        )
        env = parse_envelope(out)
        assert code == 1
        assert env["pass"] is False


class TestOperatorCommands:
    def test_eigenvalue(self, capsys):
        code, out, _ = run_cli(capsys, "operator", "eigen", "--theta", "0", "--m", "2", "--n", "1")
        env = parse_envelope(out)
        assert code == 0
        assert env["results"]["lambda"] == {"re": -3.0, "im": -0.0} or env["results"]["lambda"] == {
            "re": -3.0,
            "im": 0.0,
        }
        assert env["results"]["abs"] == pytest.approx(3.0)

    def test_gamma_of_z_is_two(self, capsys):
        code, out, _ = run_cli(capsys, "operator", "gamma", "--phi", "z", "--psi", "z")
        env = parse_envelope(out)
        assert code == 0
        assert env["results"]["gamma"] == [{"a": 0, "b": 0, "re": 2.0, "im": 0.0}]

    def test_gamma_of_literals_at_the_degree_limit_reads_back(self, capsys):
        code, out, _ = run_cli(capsys, "operator", "gamma", "--phi", "z^64", "--theta", "0.3")
        assert code == 0
        entries = parse_envelope(out)["results"]["gamma"]
        assert max(t["a"] + t["b"] for t in entries) == 126

    def test_gamma_psi_defaults_to_phi(self, capsys):
        _, out_a, _ = run_cli(capsys, "operator", "gamma", "--phi", "z*zbar - 2")
        _, out_b, _ = run_cli(capsys, "operator", "gamma", "--phi", "z*zbar - 2", "--psi", "z*zbar - 2")
        assert parse_envelope(out_a)["results"]["gamma"] == parse_envelope(out_b)["results"]["gamma"]

    def test_normality_single_angle(self, capsys):
        code, out, _ = run_cli(capsys, "operator", "normality", "--theta", "0.6", "--degree", "5")
        env = parse_envelope(out)
        assert code == 0
        assert env["pass"] is True


class TestSemigroupCommands:
    def test_apply_half_life(self, capsys, tmp_path):
        f = tmp_path / "coeffs.json"
        f.write_text(json.dumps({"coeffs": [{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]}))
        code, out, _ = run_cli(
            capsys, "semigroup", "apply", "--theta", "0", "--t", "0.693147", "--input", str(f)
        )
        env = parse_envelope(out)
        assert code == 0
        (term,) = env["results"]["coeffs"]["coeffs"]
        assert (term["m"], term["n"]) == (1, 0)
        assert term["re"] == pytest.approx(0.5, abs=1e-6)
        assert term["im"] == pytest.approx(0.0, abs=1e-12)

    def test_apply_accepts_bare_list(self, capsys, tmp_path):
        f = tmp_path / "bare.json"
        f.write_text(json.dumps([{"m": 0, "n": 0, "re": 3.0, "im": 0.0}]))
        code, out, _ = run_cli(
            capsys, "semigroup", "apply", "--theta", "0.3", "--t", "2.0", "--input", str(f)
        )
        env = parse_envelope(out)
        assert code == 0
        (term,) = env["results"]["coeffs"]["coeffs"]
        assert term["re"] == pytest.approx(3.0)

    def test_apply_reads_theta_from_file(self, capsys, tmp_path):
        f = tmp_path / "with_theta.json"
        f.write_text(
            json.dumps({"theta": 0.0, "coeffs": [{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]})
        )
        code, out, _ = run_cli(
            capsys, "semigroup", "apply", "--t", str(math.log(2.0)), "--input", str(f)
        )
        env = parse_envelope(out)
        assert code == 0
        (term,) = env["results"]["coeffs"]["coeffs"]
        assert term["re"] == pytest.approx(0.5, abs=1e-12)

    def test_apply_reads_stdin(self, capsys, monkeypatch):
        coeffs = json.dumps([{"m": 1, "n": 0, "re": 1.0, "im": 0.0}])
        monkeypatch.setattr(sys, "stdin", io.StringIO(coeffs))
        code, out, _ = run_cli(
            capsys, "semigroup", "apply", "--theta", "0", "--t", str(math.log(2.0)), "--input", "-"
        )
        env = parse_envelope(out)
        assert code == 0
        (term,) = env["results"]["coeffs"]["coeffs"]
        assert term["re"] == pytest.approx(0.5, abs=1e-12)

    def test_apply_without_any_theta_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "naked.json"
        f.write_text(json.dumps([{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]))
        code, _, err = run_cli(capsys, "semigroup", "apply", "--t", "1.0", "--input", str(f))
        assert code == 2
        assert "error:" in err

    @pytest.mark.filterwarnings("error")
    def test_apply_closes_its_input_file(self, capsys, tmp_path):
        # an unclosed file shows as a ResourceWarning, an error here
        f = tmp_path / "coeffs.json"
        f.write_text(json.dumps([{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]))
        code, out, _ = run_cli(
            capsys, "semigroup", "apply", "--theta", "0.3", "--t", "1", "--input", str(f)
        )
        assert code == 0
        parse_envelope(out)

    def test_verify_normal_reports_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "semigroup", "verify-normal", "--theta", "0.7854", "--t", "1",
            "--degree", "3", "--points", "2",
        )
        env = parse_envelope(out)
        assert code == 0
        assert env["results"]["grid"] == {"theta": [0.7854], "t": [1.0]}
        assert "max_residual" in env["results"]

    def test_invariance_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "semigroup", "invariance", "--theta", "0.5236", "--t", "1", "--degree", "8"
        )
        env = parse_envelope(out)
        assert code == 0
        assert env["max_residual"] <= 1e-9


class TestSdeCommands:
    def test_simulate_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "sde", "simulate", "--theta", "0", "--x0-re", "1", "--x0-im", "0",
            "--t", "1", "--paths", "20000", "--seed", "7",
        )
        env = parse_envelope(out)
        assert code == 0
        assert env["seed"] == 7
        final = env["results"]["moments"][1]
        mean = complex(final["mean"]["re"], final["mean"]["im"])
        assert abs(mean - math.exp(-1.0)) <= 4.0 * final["mean_se"]
        assert final["expected_mean"]["re"] == pytest.approx(math.exp(-1.0))

    def test_simulate_abs_second_moment_has_its_target(self, capsys):
        # README's example: from x0 = 1, E|Z_t|^2 = |decay x0|^2 + variance, not
        # the variance (1.5061 against 1.0139 at t = 0.5)
        code, out, _ = run_cli(
            capsys, "sde", "simulate", "--theta", "0.7854", "--x0-re", "1", "--t", "0.5", "1",
            "--paths", "200000", "--seed", "7",
        )
        assert code == 0
        rows = parse_envelope(out)["results"]["moments"]
        for row in rows:
            mean, var = PropagatorParams(GeneratorParams(0.7854), row["t"]).transition_moments(1)
            assert complex(row["expected_mean"]["re"], row["expected_mean"]["im"]) == mean
            assert row["expected_variance"] == var
            assert row["expected_abs_second_moment"] == abs(mean) * abs(mean) + var
            gap = abs(row["abs_second_moment"] - row["expected_abs_second_moment"])
            assert gap <= sde.BAND_SE * row["abs_second_moment_se"] + 1e-15
        assert rows[1]["abs_second_moment"] > rows[1]["expected_variance"] + 0.4  # t = 0.5

    def test_csv_is_bit_reproducible(self, capsys, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            code, _, _ = run_cli(
                capsys, "sde", "simulate", "--theta", "0.3", "--x0-re", "0.5", "--t", "0.5", "1",
                "--paths", "1", "--seed", "11", "--csv", str(out_file),
            )
            assert code == 0
            paths.append(out_file)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_layout(self, capsys, tmp_path):
        out_file = tmp_path / "paths.csv"
        run_cli(
            capsys, "sde", "simulate", "--theta", "0", "--t", "1", "--paths", "3",
            "--seed", "5", "--csv", str(out_file),
        )
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "path_id,t,re,im"
        assert len(lines) == 1 + 3 * 2

    def test_csv_matches_csv_writer_reference(self, capsys, tmp_path, monkeypatch):
        # a small block size, so the 10 paths are written in three blocks
        monkeypatch.setattr(cli, "_CSV_BLOCK_PATHS", 4)
        out_file = tmp_path / "paths.csv"
        code, _, _ = run_cli(
            capsys, "sde", "simulate", "--theta", "0.3", "--x0-re", "-0.5", "--t", "1e-05", "0.25",
            "3", "--paths", "10", "--seed", "13", "--csv", str(out_file),
        )
        assert code == 0
        config = sde.SimConfig(
            params=GeneratorParams(0.3), x0=complex(-0.5, 0.0), t_grid=(0.0, 1e-05, 0.25, 3.0),
            n_paths=10, seed=13,
        )
        ensemble = sde.sample_exact(config)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["path_id", "t", "re", "im"])
        for i in range(config.n_paths):
            for k, t in enumerate(config.t_grid):
                state = complex(ensemble.states[i, k])
                writer.writerow([i, repr(float(t)), repr(state.real), repr(state.imag)])
        assert out_file.read_bytes() == reference.getvalue().encode("utf-8")

    def test_stationarity(self, capsys):
        code, out, _ = run_cli(
            capsys, "sde", "stationarity", "--theta", "0.7854", "--paths", "20000", "--seed", "7"
        )
        env = parse_envelope(out)
        assert code == 0
        assert env["pass"] is True
        assert env["results"]["abs_second_moment"] == pytest.approx(2.0, abs=0.1)

    def test_stationarity_passes_exactly_when_residual_within_tol(self, capsys):
        argv = ("sde", "stationarity", "--theta", "0.5", "--paths", "2000", "--seed", "3")
        ratio = parse_envelope(run_cli(capsys, *argv)[1])["max_residual"]
        for tol, code in ((ratio, 0), (ratio / 2, 1)):
            got, out, _ = run_cli(capsys, *argv, "--tol", repr(tol))
            assert got == code
            assert parse_envelope(out)["pass"] is (code == 0)

    def test_euler_scheme_requires_dt(self, capsys):
        code, _, err = run_cli(
            capsys, "sde", "simulate", "--theta", "0", "--t", "1", "--paths", "10",
            "--scheme", "euler",
        )
        assert code == 2
        assert "error:" in err


class TestExitCodes:
    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["operator", "eigen", "--m", "1", "--n", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("m, n, flag", [("-1", "0", "--m"), ("2", "-3", "--n")])
    def test_eigen_negative_index_is_usage_error(self, capsys, m, n, flag):
        # lambda[m,n] has a value at any m, n, but no basis element J[m,n] does
        with pytest.raises(SystemExit) as exc:
            main(["operator", "eigen", "--theta", "0.3", "--m", m, "--n", n])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"error: argument {flag}: not a non-negative integer" in err

    def test_eigen_index_too_large_for_a_float(self, capsys):
        code, out, err = run_cli(
            capsys, "operator", "eigen", "--theta", "0.3", "--m", "9" * 400, "--n", "0"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_domain_error_from_bad_angle(self, capsys):
        # 0.499999 pi is past THETA_BOUND = 0.4999 pi, where Gamma's
        # generator route no longer meets its tolerance
        for theta in ("2.0", repr(0.499999 * math.pi)):
            code, out, err = run_cli(
                capsys, "operator", "eigen", f"--theta={theta}", "--m", "1", "--n", "0"
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_angle_error_states_the_exact_bound(self, capsys):
        # the bound is printed to the bit: --theta at the printed value runs,
        # and the next float above it is the usage error that printed it
        def eigen(theta):
            return run_cli(capsys, "operator", "eigen", f"--theta={theta!r}", "--m", "1", "--n", "0")

        code, out, err = eigen(math.nextafter(THETA_BOUND, 2))
        assert code == 2
        assert out == ""
        stated = re.match(r"error: \|theta\| must be <= (\S+) ", err).group(1)
        assert float(stated) == THETA_BOUND
        assert eigen(float(stated))[0] == 0

    def test_expression_error(self, capsys):
        code, _, err = run_cli(capsys, "operator", "gamma", "--phi", "2z")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "phi",
        [
            "z^65",  # power above the limit
            "z^80*zbar^80 + z",
            "z^2000",
            "z^99999999999999999999",
            "(z^8)^9",  # nested powers
            "z^40*zbar^25",  # product above the limit
            "(z + zbar)^33*(z - 1)^32",
            "0*z^100",  # rejected by degree before the product is formed
        ],
    )
    def test_literal_above_degree_limit(self, capsys, phi):
        code, out, err = run_cli(capsys, "operator", "gamma", "--phi", phi, "--theta", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exceeds 64" in err

    @pytest.mark.parametrize("phi", ["z^64", "z^32*zbar^32", "z^64 + zbar^64", "(z - z)^100"])
    def test_literal_at_degree_limit(self, capsys, phi):
        code, _, _ = run_cli(capsys, "operator", "gamma", "--phi", phi, "--theta", "0.3")
        assert code == 0

    @pytest.mark.parametrize(
        "phi, position",
        [
            ("1e400*z", 0),  # literal overflows to inf
            ("z + 1e999", 4),
            ("2^3000*z", 2),  # power overflows
            ("1e200*1e200*z", 5),  # product overflows
            ("(1e200*z)^2", 10),
            ("1e308*z + 1e308*z", 8),  # sum overflows
            pytest.param("z^" + "9" * 4400, 2, id="z^(4400 digits)"),  # too long for int()
            pytest.param("(z - z)^" + "1" * 4301, 8, id="(z - z)^(4301 digits)"),
        ],
    )
    def test_non_finite_literal(self, capsys, phi, position):
        code, out, err = run_cli(capsys, "operator", "gamma", "--phi", phi, "--theta", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"at position {position}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("operator", "gamma", "--phi", "1e300*z", "--theta", "0.3"),
            ("operator", "gamma", "--phi", "1e300*z", "--psi", "1e10*z^2", "--theta", "-1.2"),
            ("operator", "gamma", "--phi", "1e200*z^2", "--theta", "0"),
        ],
    )
    def test_non_finite_result(self, capsys, argv):
        # each literal is finite, but Gamma overflows: no envelope can be JSON
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err
        assert "Traceback" not in err

    def test_non_finite_result_writes_no_csv(self, capsys, tmp_path):
        # the states are finite, but |z|^2 overflows in the moments
        f = tmp_path / "paths.csv"
        code, out, err = run_cli(
            capsys, "sde", "simulate", "--theta", "0.3", "--x0-re", "1e308", "--t", "0.5",
            "--paths", "4", "--csv", str(f),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err
        assert not f.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("sde", "simulate", "--theta", "0", "--t", "1", "--paths", "100"),
            ("sde", "stationarity", "--theta", "0.3", "--paths", "100"),
            ("verify-all", "--paths", "100"),
        ],
    )
    def test_allocation_failure_is_usage_error(self, capsys, monkeypatch, argv):
        # a --paths too large to allocate: the row loop's MemoryError is raised
        # here directly, since a huge request could be reserved by an
        # overcommitting host and then touched page by page
        def rows(config, states=None):
            raise MemoryError(f"Unable to allocate {config.n_paths} paths")

        monkeypatch.setattr(sde, "_rows", rows)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("operator", "gamma", "--phi", "z", "--tol", "inf"),
            ("operator", "gamma", "--phi", "z", "--theta=-inf"),
            ("sde", "simulate", "--theta", "0.3", "--x0-re", "nan", "--t", "1", "--paths", "4"),
            ("sde", "simulate", "--theta", "0.3", "--t", "1", "inf", "--paths", "4"),
        ],
    )
    def test_non_finite_float_argument(self, capsys, argv):
        # bad input is a usage error, not a non-finite result
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "usage:" in err and "not a finite number" in err

    # a negative degree or a count below 1 leaves a suite nothing to check,
    # which would otherwise pass with max_residual 0.0
    EMPTY_INPUTS = [
        (("operator", "chain-rule", "--theta", "0.3", "--cases", "0"),
         "--cases: not a positive integer: '0'"),
        (("operator", "chain-rule", "--theta", "0.3", "--cases", "-4"),
         "--cases: not a positive integer: '-4'"),
        (("operator", "normality", "--theta", "0.3", "--degree", "-2"),
         "--degree: not a non-negative integer: '-2'"),
        (("semigroup", "invariance", "--theta", "0.3", "--t", "1", "--degree", "-1"),
         "--degree: not a non-negative integer: '-1'"),
        (("semigroup", "verify-normal", "--theta", "0.3", "--t", "1", "--degree", "-1"),
         "--degree: not a non-negative integer: '-1'"),
        (("semigroup", "verify-normal", "--theta", "0.3", "--t", "1", "--points", "0"),
         "--points: not a positive integer: '0'"),
        (("hermite", "roundtrip", "--max-degree", "-1"),
         "--max-degree: not a non-negative integer: '-1'"),
        (("hermite", "orthonormality", "--max-degree", "-3"),
         "--max-degree: not a non-negative integer: '-3'"),
        # a non-integer keeps argparse's wording for type=int
        (("hermite", "roundtrip", "--max-degree", "x"), "--max-degree: invalid int value: 'x'"),
    ]

    @pytest.mark.parametrize(
        "argv, message", EMPTY_INPUTS, ids=[" ".join(argv) for argv, _ in EMPTY_INPUTS]
    )
    def test_empty_suite_input_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith("usage:") and f"error: argument {message}\n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("hermite", "roundtrip", "--max-degree", "0"),
            ("operator", "chain-rule", "--theta", "0.3", "--degree", "0", "--cases", "1"),
            ("semigroup", "verify-normal", "--theta", "0.3", "--t", "1", "--degree", "0",
             "--points", "1"),
        ],
    )
    def test_smallest_degree_and_count_accepted(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert parse_envelope(out)["pass"] is True

    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_warns_nothing(self, capsys):
        # outside pytest a numpy overflow warning would precede the error line
        code, _, err = run_cli(capsys, "operator", "gamma", "--phi", "1e300*z", "--theta", "0.3")
        assert code == 2
        assert err.count("\n") == 1

    @pytest.mark.parametrize("phi", ["1e300*z", "1e-300*z + 2^1000", "(1e100*z)^3"])
    def test_large_finite_literal(self, capsys, phi):
        code, out, _ = run_cli(
            capsys, "operator", "gamma", "--phi", phi, "--psi", "1", "--theta", "0.3"
        )
        assert code == 0
        assert parse_envelope(out)["pass"] is True

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "semigroup", "apply", "--theta", "0", "--t", "1",
            "--input", str(tmp_path / "missing.json"),
        )
        assert code == 2
        assert "error:" in err


    def test_verify_all_needs_two_paths(self, capsys):
        # 3 in fact: the variance's standard error of 2 samples is 0
        for paths in ("1", "2"):
            code, out, err = run_cli(capsys, "verify-all", "--paths", paths)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "n_paths must be >= 3" in err
            assert len(err.splitlines()) == 1

    def test_run_all_rejects_one_path_before_any_suite(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before n_paths was validated")

        monkeypatch.setattr(checks, "check_quadrature", must_not_run)
        with pytest.raises(ValueError, match="n_paths"):
            checks.run_all(n_paths=1)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_verify_all_rejects_a_seed_out_of_range_before_any_suite(
        self, capsys, monkeypatch, seed
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the seed was validated")

        for name in vars(checks).copy():
            if name.startswith("check_"):
                monkeypatch.setattr(checks, name, must_not_run)
        code, out, err = run_cli(capsys, "verify-all", "--paths", "3", "--seed", seed)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "64-bit" in err
        assert len(err.splitlines()) == 1

    def test_verify_all_takes_the_largest_seed(self, capsys):
        # the Monte Carlo suites seed angle i with seed + i, wrapped past 2^64 - 1
        code, out, _ = run_cli(
            capsys, "verify-all", "--paths", "3", "--seed", "18446744073709551615"
        )
        assert code in (0, 1)
        env = parse_envelope(out)
        assert env["seed"] == 2**64 - 1
        assert len(env["results"]["suites"]) == 18

    # a value for each required option of a seeded command
    SEEDED_REQUIRED = {"--theta": ["0.3"], "--t": ["1.0"], "--paths": ["3"]}

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize(
        "cmd", [c for c in cli.COMMANDS if c.seed], ids=lambda c: " ".join(c.words)
    )
    def test_every_seeded_command_rejects_a_seed_out_of_range(self, capsys, cmd, seed):
        # the suites draw with np.random.default_rng, which takes any
        # non-negative integer, so sde._check_seed must see every seed first
        argv = list(cmd.words)
        for flag, kwargs in cmd.options:
            if kwargs.get("required"):
                argv += [flag, *self.SEEDED_REQUIRED[flag]]
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a 64-bit unsigned integer\n"

    @pytest.mark.parametrize("argv", [
        ("operator", "normality", "--theta", "0.3", "--degree", "2"),
        ("sde", "simulate", "--theta", "0.3", "--t", "1.0", "--paths", "3"),
    ])
    def test_seeded_commands_take_the_largest_seed(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
        assert code in (0, 1)
        assert parse_envelope(out)["seed"] == 2**64 - 1

    def test_stationarity_needs_two_paths(self, capsys):
        code, out, err = run_cli(capsys, "sde", "stationarity", "--theta", "0.3", "--paths", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n_paths" in err
        code, out, _ = run_cli(capsys, "sde", "stationarity", "--theta", "0.3", "--paths", "2")
        assert code in (0, 1)
        assert parse_envelope(out)["inputs"]["paths"] == 2

    @pytest.mark.parametrize(
        "content",
        [
            {"coeffs": [{"m": 1, "n": 0, "re": 1.0}]},  # no "im"
            {"theta": 0.0},  # no "coeffs"
            {"coeffs": {"m": 1, "n": 0, "re": 1.0, "im": 0.0}},  # "coeffs" not a list
            [{"m": 1, "re": 1.0, "im": 0.0}],  # bare list, entry without "n"
            [3.0],  # bare list, entry not an object
            [{"m": None, "n": 0, "re": 1.0, "im": 0.0}],  # index not a number
            [{"m": 1.7, "n": 0, "re": 1.0, "im": 0.0}],  # index not an integer
            [{"m": True, "n": 0, "re": 1.0, "im": 0.0}],  # index a boolean
            [{"m": 1, "n": 0, "re": 1.0, "im": 0.0}, {"m": 1, "n": 0, "re": 2.0, "im": 0.0}],
            {"theta": [1], "coeffs": [{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]},  # theta a list
            [{"m": 40, "n": 25, "re": 1.0, "im": 0.0}],  # m + n above the basis limit
        ],
    )
    def test_malformed_coefficient_file(self, capsys, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content))
        code, out, err = run_cli(
            capsys, "semigroup", "apply", "--theta", "0", "--t", "1", "--input", str(f)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"m":0,"n":0,"re":NaN,"im":0}]', "re must be finite, got nan"),
            ('[{"m":0,"n":0,"re":1,"im":-Infinity}]', "im must be finite, got -inf"),
            ('{"theta":NaN,"coeffs":[]}', "theta must be finite, got nan"),
        ],
    )
    def test_non_finite_number_in_coefficient_file(self, capsys, tmp_path, monkeypatch,
                                                   text, message):
        # Python's json reads NaN and Infinity; the reader names the field
        f = tmp_path / "bad.json"
        f.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        for source in (str(f), "-"):
            outcome = run_cli(capsys, "semigroup", "apply", "--t", "1", "--input", source)
            assert outcome == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv", [("quad", "selftest"), ("hermite", "transform", "--degree", "2")]
    )
    def test_negative_tol_is_usage_error(self, capsys, argv):
        # malformed input, not a verification failure: no envelope
        for tol in ("-1", "-0.5"):
            outcome = run_cli(capsys, *argv, "--tol", tol)
            assert outcome == (2, "", f"error: tol must be >= 0, got {float(tol)!r}\n")
        for tol in ("0", "-0.0"):
            code, out, _ = run_cli(capsys, *argv, "--tol", tol)
            assert code in (0, 1)
            assert parse_envelope(out)["inputs"]["tol"] == 0.0


def subcommands(parser):
    """The {name: parser} map of a parser's subcommands, or {} for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestSuiteOptions:
    # each suite command with every option away from its default, against the
    # envelope of a direct checks call with explicit keywords: an option wired
    # to the wrong keyword changes the report even where the suite still passes
    CASES = [
        (
            ("hermite", "orthonormality", "--max-degree", "3", "--order", "9"),
            lambda: checks.check_orthonormality(max_degree=3, order=9),
            {"max_degree": 3, "order": 9},
            None,
        ),
        (
            ("hermite", "roundtrip", "--max-degree", "4"),
            lambda: checks.check_roundtrip(max_degree=4),
            {"max_degree": 4},
            None,
        ),
        (
            ("operator", "chain-rule", "--theta", "0.3", "--degree", "2", "--cases", "7",
             "--seed", "5"),
            lambda: checks.check_chain_rule(n_cases=7, max_degree_inner=2, thetas=(0.3,), seed=5),
            {"theta": 0.3, "degree": 2, "cases": 7},
            5,
        ),
        (
            ("operator", "normality", "--theta", "0.3", "--degree", "4", "--seed", "5"),
            lambda: checks.check_operator_normality(max_degree=4, thetas=(0.3,), seed=5),
            {"theta": 0.3, "degree": 4},
            5,
        ),
        (
            ("semigroup", "verify-normal", "--theta", "0.3", "--t", "0.5", "--degree", "3",
             "--points", "4", "--seed", "5"),
            lambda: checks.check_semigroup_normality(
                max_degree=3, thetas=(0.3,), ts=(0.5,), n_points=4, seed=5
            ),
            {"theta": 0.3, "t": 0.5, "degree": 3, "points": 4},
            5,
        ),
        (
            ("semigroup", "invariance", "--theta", "0.3", "--t", "0.5", "--degree", "4",
             "--seed", "5"),
            lambda: checks.check_invariance(max_degree=4, thetas=(0.3,), ts=(0.5,), seed=5),
            {"theta": 0.3, "t": 0.5, "degree": 4},
            5,
        ),
        (
            ("quad", "selftest", "--order", "10"),
            lambda: checks.check_quadrature(order=10),
            {"order": 10},
            None,
        ),
    ]

    @pytest.mark.parametrize(
        "argv, direct, inputs, seed", CASES, ids=[" ".join(c[0][:2]) for c in CASES]
    )
    def test_options_reach_their_keywords(self, capsys, argv, direct, inputs, seed):
        tol = 0.001
        code, out, _ = run_cli(capsys, *argv, "--tol", str(tol))
        report = direct()
        results = {**report.details, "suite": report.name}
        if argv[1] == "verify-normal":
            results["max_residual"] = report.max_residual
            results["grid"] = {"theta": [inputs["theta"]], "t": [inputs["t"]]}
        expected = {
            "command": " ".join(argv[:2]),
            "inputs": {**inputs, "tol": tol},
            "results": results,
            "max_residual": report.max_residual,
            "pass": report.max_residual <= tol,
            "version": complexou.__version__,
        }
        if seed is not None:
            expected["seed"] = seed
        assert code == 0
        assert parse_envelope(out) == expected
        # the same keys in the same order at every level
        assert out.strip() == json.dumps(expected, separators=(",", ":"))


class TestOptionDefaults:
    # each suite command's options with a default (and --seed), as the check_*
    # keywords they reach: TestSuiteOptions sets only other values, so this
    # is where a default that drifts from its suite's shows
    KEYWORDS = {
        ("hermite", "orthonormality"): (
            checks.check_orthonormality, {"max_degree": "max_degree", "order": "order"}),
        ("hermite", "roundtrip"): (checks.check_roundtrip, {"max_degree": "max_degree"}),
        ("operator", "chain-rule"): (
            checks.check_chain_rule,
            {"degree": "max_degree_inner", "cases": "n_cases", "seed": "seed"}),
        ("operator", "normality"): (
            checks.check_operator_normality, {"degree": "max_degree", "seed": "seed"}),
        ("semigroup", "verify-normal"): (
            checks.check_semigroup_normality,
            {"degree": "max_degree", "points": "n_points", "seed": "seed"}),
        ("semigroup", "invariance"): (
            checks.check_invariance, {"degree": "max_degree", "seed": "seed"}),
        ("quad", "selftest"): (checks.check_quadrature, {"order": "order"}),
        ("verify-all",): (checks.run_all, {"paths": "n_paths", "seed": "seed"}),
    }

    def test_every_suite_command_is_listed(self):
        suites = {cmd.words for cmd in cli.COMMANDS if cmd.run is not None}
        assert set(self.KEYWORDS) == suites | {("verify-all",)}

    @pytest.mark.parametrize("words", list(KEYWORDS), ids=" ".join)
    def test_defaults_are_the_keyword_defaults(self, words):
        cmd = next(c for c in cli.COMMANDS if c.words == words)
        check, keywords = self.KEYWORDS[words]
        defaulted = {flag[2:].replace("-", "_") for flag, kw in cmd.options if "default" in kw}
        assert set(keywords) == defaulted | ({"seed"} if cmd.seed else set())
        required = [a for flag, kw in cmd.options if kw.get("required") for a in (flag, "0.5")]
        args = cli.build_parser().parse_args([*words, *required])
        params = inspect.signature(check).parameters
        for dest, keyword in keywords.items():
            assert getattr(args, dest) == params[keyword].default, dest


class TestVerdictBoundary:
    # --tol at a command's own residual passes it, the next float below fails it
    CASES = [
        ("hermite", "orthonormality", "--max-degree", "3", "--order", "6"),
        ("hermite", "transform", "--degree", "3"),
        ("operator", "gamma", "--phi", "(1+i)*z^2*zbar - z", "--theta", "0.4"),
        ("sde", "stationarity", "--theta", "0.5", "--paths", "500", "--seed", "3"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(c[:2]) for c in CASES])
    def test_tol_at_the_residual(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        residual = parse_envelope(out)["max_residual"]
        assert code == 0 and residual > 0.0
        for tol, want in ((residual, 0), (np.nextafter(residual, 0.0), 1)):
            code, out, _ = run_cli(capsys, *argv, f"--tol={float(tol)!r}")
            env = parse_envelope(out)
            assert (code, env["pass"]) == (want, want == 0)
            assert (env["max_residual"], env["inputs"]["tol"]) == (residual, tol)


class TestDefaultTolerances:
    # a command without --tol judges its residual against the tol of the
    # report of its matching suite
    CASES = [
        (("hermite", "transform", "--degree", "2"), lambda: checks.check_transform(max_degree=2)),
        (("operator", "gamma", "--phi", "z*zbar"), lambda: checks.check_gamma(n_pairs=1, n_points=1)),
        (
            ("sde", "stationarity", "--theta", "0.5", "--paths", "2000"),
            lambda: checks.check_stationarity(n_paths=2000),
        ),
    ]

    @pytest.mark.parametrize("argv, suite", CASES, ids=[" ".join(c[0][:2]) for c in CASES])
    def test_default_tol_is_the_suite_tol(self, capsys, argv, suite):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert parse_envelope(out)["inputs"]["tol"] == suite().tol


class TestBranchParser:
    # (command line, exit code or ("exit", SystemExit code)); usage errors
    # inside a command (a missing option, a bad choice, a bad value, an option
    # of another command) come between valid calls, and the last five name no
    # command, so the whole tree parses and reports them
    CALLS = [
        (("hermite", "show", "--m", "2", "--n", "1", "--route", "creation"), 0),
        (("operator", "eigen", "--m", "1", "--n", "0"), ("exit", 2)),
        (("operator", "gamma", "--phi", "z*zbar - 2", "--theta", "0.4"), 0),
        (("hermite", "show", "--m", "1", "--n", "1", "--route", "spline"), ("exit", 2)),
        (("sde", "stationarity", "--theta", "0.5", "--paths", "500", "--seed", "3"), 0),
        (("sde", "simulate", "--theta", "x", "--t", "1", "--paths", "2"), ("exit", 2)),
        (("hermite", "transform", "--degree", "3", "--tol", "1e-12"), 0),
        (("verify-all", "--paths", "10", "--degree", "3"), ("exit", 2)),
        (("semigroup", "verify-normal", "--theta", "0.3", "--t", "0.5", "--degree", "3"), 0),
        (("quad", "selftest", "--order", "6"), 1),  # too few nodes: fails
        (("operator", "gamma", "--phi", "1e300*z", "--theta", "0.3"), 2),  # Gamma overflows
        ((), ("exit", 2)),
        (("hermite",), ("exit", 2)),
        (("hermite", "bogus"), ("exit", 2)),
        (("bogus", "show"), ("exit", 2)),
        (("hermite", "--help"), ("exit", 0)),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_main_reads_and_prints_as_the_whole_tree(self, capsys, monkeypatch):
        branch = [self.outcome(capsys, argv) for argv, _ in self.CALLS]
        assert [code for code, _, _ in branch] == [code for _, code in self.CALLS]
        whole = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda words=None: whole())
        assert branch == [self.outcome(capsys, argv) for argv, _ in self.CALLS]

    def test_each_branch_formats_its_command_as_the_whole_tree(self):
        tree = cli.build_parser()
        n_commands = 0
        for group, group_parser in subcommands(tree).items():
            for words, leaf in (
                [((group, name), p) for name, p in subcommands(group_parser).items()]
                or [((group,), group_parser)]
            ):
                node = cli.build_parser(list(words))
                for word in words:
                    node = subcommands(node)[word]
                assert node.format_help() == leaf.format_help()
                n_commands += 1
        assert n_commands == 15

    @pytest.mark.parametrize(
        "words", [[], ["hermite"], ["hermite", "bogus"], ["bogus", "show"], ["-h"], ["verify"]]
    )
    def test_no_branch_without_a_command(self, words):
        assert cli.build_parser(words) is None

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


PACKAGE = Path(complexou.__file__).parent


def function_name(code) -> str:
    """``module.qualname`` of a code object, the module named by its file."""
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def defined_functions() -> set[str]:
    """The ``module.qualname`` of every function and method written in the
    package's sources, nested ones included.  Lambdas, comprehensions and
    class bodies are left out, and so are dataclass-generated methods, which
    have no source."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                    stack.append(const)
                    if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                        names.add(function_name(const))
    return names


def call_main(argv) -> int:
    """main(argv)'s exit code; the whole tree's --help exits from argparse."""
    if argv == ["--help"]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        return exit_info.value.code
    return main(argv)


def run_profiled(argvs):
    """main(argv) for each argv under sys.setprofile: the exit codes, the
    text written to stdout and to stderr, and the names
    (:func:`defined_functions`) of the functions whose code never ran.  A
    function behind lru_cache may answer from its cache and open no frame,
    so its calls are read from its cache statistics."""
    cached = {
        function_name(obj.__wrapped__.__code__): obj
        for name, module in list(sys.modules.items()) if name.partition(".")[0] == "complexou"
        for obj in vars(module).values()
        if hasattr(obj, "cache_info") and inspect.isfunction(getattr(obj, "__wrapped__", None))
    }

    def lookups(fn):
        info = fn.cache_info()
        return info.hits + info.misses

    before = {name: lookups(fn) for name, fn in cached.items()}
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    out, err = io.StringIO(), io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [call_main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    ran = {function_name(code) for code in seen if Path(code.co_filename).parent == PACKAGE}
    ran.update(name for name, fn in cached.items() if lookups(fn) > before[name])
    return codes, out.getvalue(), err.getvalue(), defined_functions() - ran


@pytest.fixture(scope="module")
def umbrella():
    """One verify-all run at 2000 paths, profiled (:func:`run_profiled`)."""
    return run_profiled([["verify-all", "--paths", "2000", "--pretty"]])


# one valid call of every command but verify-all, one more for each choice of
# route or scheme and for the CSV output, and the whole tree's help; {input}
# is a coefficients file and {csv} a path to write
COMMAND_CALLS = [
    ["hermite", "show", "--m", "2", "--n", "1"],
    ["hermite", "show", "--m", "2", "--n", "1", "--route", "creation"],
    ["hermite", "orthonormality", "--max-degree", "3", "--order", "5"],
    ["hermite", "transform", "--degree", "3"],
    ["hermite", "roundtrip", "--max-degree", "3"],
    ["operator", "eigen", "--theta", "0.3", "--m", "2", "--n", "1"],
    ["operator", "gamma", "--phi", "z*zbar - 2", "--psi", "z^2"],
    ["operator", "chain-rule", "--theta", "0.3", "--degree", "2", "--cases", "2"],
    ["operator", "normality", "--theta", "0.3", "--degree", "2"],
    ["semigroup", "apply", "--theta", "0.3", "--t", "1", "--input", "{input}"],
    ["semigroup", "verify-normal", "--theta", "0.3", "--t", "1", "--degree", "2", "--points", "2"],
    ["semigroup", "invariance", "--theta", "0.3", "--t", "1", "--degree", "3"],
    ["sde", "simulate", "--theta", "0.3", "--t", "1", "--paths", "10"],
    ["sde", "simulate", "--theta", "0.3", "--t", "1", "--paths", "10", "--scheme", "euler",
     "--dt", "0.5"],
    ["sde", "simulate", "--theta", "0.3", "--t", "1", "--paths", "10", "--csv", "{csv}"],
    ["sde", "stationarity", "--theta", "0.3", "--paths", "100"],
    ["quad", "selftest", "--order", "10"],
    ["--help"],
]

_BENCH = "perfbench/ names it, so it waits on the benchmark change (ROADMAP item 1)"
_WWBAR = "called only by the PolyWWbar arithmetic, which waits on ROADMAP item 1"
_PROTOCOL = "object protocol a user needs"

# every function and method in the package that no suite and no command
# reaches, with the reason it stays (ROADMAP items 1 and 6-11); one that a
# route starts to call leaves, one that every route drops joins
UNREACHED = {
    "poly.PolyWWbar.__add__": _BENCH,
    "poly.PolyWWbar.__neg__": _BENCH,
    "poly.PolyWWbar.__sub__": _BENCH,
    "poly.PolyWWbar.__mul__": _BENCH,
    "poly.PolyWWbar.__pow__": _BENCH,
    "poly.PolyWWbar.constant": _WWBAR,
    "poly.PolyWWbar._check_compatible": _WWBAR,
    "spectral.SpectralCoeffs.__add__": _BENCH,
    "spectral.SpectralCoeffs.__sub__": _BENCH,
    "spectral.SpectralCoeffs.__mul__": _BENCH,
    "spectral.SpectralCoeffs.map_terms": _BENCH,
    "sde.StationarityReport.passed": _BENCH,
    "quadrature.QuadratureRule.order": _BENCH,
    "sde.euler_halving_probe": _BENCH,
    "quadrature.project": "the quadrature route of the expansion (ROADMAP items 6 and 9)",
    "operator.apply_generator_spectral": "a route of generator-parseval (ROADMAP item 7)",
    "operator.domain_seminorm_sq": "a route of generator-parseval (ROADMAP item 7)",
    "spectral.SpectralCoeffs.norm_sq": "a route of generator-parseval (ROADMAP item 7)",
    "hermite.hermite_product_poly": "the product route of basis-transform (ROADMAP item 8)",
    "poly.PolyZZbar.__truediv__":
        "hermite._hermite_rows divides a polynomial row by sqrt(k + 1) in "
        "hermite_product_poly (ROADMAP item 8)",
    "poly.PolyWWbar.__init__": _PROTOCOL + ": the validating constructor",
    "poly.PolyWWbar.__eq__": _PROTOCOL,
    "poly.PolyWWbar.__repr__": _PROTOCOL,
    "poly.PolyZZbar.__repr__": _PROTOCOL,
    "poly._Coeffs.__eq__": _PROTOCOL,
    "spectral.SpectralCoeffs.__repr__": _PROTOCOL,
    "poly._Coeffs.coeff": _PROTOCOL + "; the tests read coefficients through it",
    "cli._int_at_least": "builds the option types when cli is imported, before any command",
}


class TestVerifyAll:
    def test_umbrella_aggregates_all_suites(self, umbrella):
        (code,), out, err, _ = umbrella
        env = parse_envelope(out)
        assert code == 0
        assert env["pass"] is True
        suites = env["results"]["suites"]
        assert len(suites) == 18
        assert all(s["pass"] for s in suites)
        names = {s["name"] for s in suites}
        assert "quadrature-selftest" in names
        assert "sde-vs-mehler" in names
        assert "PASS" in err

    def test_exports_no_route_reaches(self, umbrella, tmp_path):
        words = {tuple(argv[:2]) for argv in COMMAND_CALLS if argv != ["--help"]}
        assert words == {cmd.words for cmd in cli.COMMANDS if cmd.words != ("verify-all",)}
        coeffs, paths = tmp_path / "coeffs.json", tmp_path / "paths.csv"
        coeffs.write_text(json.dumps([{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]))
        argvs = [[arg.format(input=coeffs, csv=paths) for arg in argv] for argv in COMMAND_CALLS]
        codes, _, _, left_out = run_profiled(argvs)
        assert codes == [0] * len(argvs)
        assert paths.read_text().startswith("path_id,t,re,im")
        assert umbrella[3] & left_out == set(UNREACHED)
        assert all(UNREACHED.values())


class TestNanResidual:
    """A NaN residual fails its suite, and as JSON holds no NaN, the command
    writes no envelope and exits 2 with one error line."""

    def check_usage_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err
        assert err.count("\n") == 1

    def test_suite_command(self, capsys, monkeypatch):
        synthesize = hermite.synthesize
        monkeypatch.setattr(hermite, "synthesize", lambda c: synthesize(c) * math.nan)
        self.check_usage_error(capsys, "hermite", "roundtrip", "--max-degree", "3")

    def test_verify_all(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "invariance_residual", lambda p, phi, rule: math.nan)
        self.check_usage_error(capsys, "verify-all", "--paths", "100")


def test_stationarity_command_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh process that runs the
    # stationarity suite, whose KS statistic is computed in numpy, loads no
    # scipy module at all
    src = str(Path(complexou.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; from complexou.cli import main; "
        "code = main(['sde', 'stationarity', '--theta', '0.5', '--paths', '2000']); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    envelope, loaded = out.stdout.strip().splitlines()
    assert json.loads(envelope)["command"] == "sde stationarity"
    assert loaded == "0 []"

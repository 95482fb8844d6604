"""End-to-end command-line checks: JSON envelope shape, exit codes, stream
separation, file round trips, and CSV reproducibility, all in-process.
"""

import argparse
import csv
import io
import json
import math

import pytest

from complexou import cli, sde
from complexou.cli import main
from complexou.operator import GeneratorParams


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

    def test_apply_without_any_theta_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "naked.json"
        f.write_text(json.dumps([{"m": 1, "n": 0, "re": 1.0, "im": 0.0}]))
        code, _, err = run_cli(capsys, "semigroup", "apply", "--t", "1.0", "--input", str(f))
        assert code == 2
        assert "error:" in err

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

    def test_domain_error_from_bad_angle(self, capsys):
        code, _, err = run_cli(capsys, "operator", "eigen", "--theta", "2.0", "--m", "1", "--n", "0")
        assert code == 2
        assert "error:" in err

    def test_expression_error(self, capsys):
        code, _, err = run_cli(capsys, "operator", "gamma", "--phi", "2z")
        assert code == 2
        assert "error:" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "semigroup", "apply", "--theta", "0", "--t", "1",
            "--input", str(tmp_path / "missing.json"),
        )
        assert code == 2
        assert "error:" in err


    def test_verify_all_needs_two_paths(self, capsys):
        code, out, err = run_cli(capsys, "verify-all", "--paths", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n_paths" in err

    def test_stationarity_needs_two_paths(self, capsys):
        code, out, err = run_cli(capsys, "sde", "stationarity", "--theta", "0.3", "--paths", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n_paths" in err

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


def subcommands(parser):
    """The {name: parser} map of a parser's subcommands, or {} for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


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
        whole = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda words=None: whole())
        assert branch == [self.outcome(capsys, argv) for argv, _ in self.CALLS]

    def test_each_branch_formats_its_command_as_the_whole_tree(self):
        tree = cli.build_parser()
        n_commands = 0
        for group, group_parser in subcommands(tree).items():
            for words, leaf in (
                [((group, name), p) for name, p in subcommands(group_parser).items()]
                or [((group,), group_parser)]
            ):
                node = cli._build_parser(list(words))
                for word in words:
                    node = subcommands(node)[word]
                assert node.format_help() == leaf.format_help()
                n_commands += 1
        assert n_commands == 15

    @pytest.mark.parametrize(
        "words", [[], ["hermite"], ["hermite", "bogus"], ["bogus", "show"], ["-h"], ["verify"]]
    )
    def test_no_branch_without_a_command(self, words):
        assert cli._build_parser(words) is None

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestVerifyAll:
    def test_umbrella_aggregates_all_suites(self, capsys):
        code, out, err = run_cli(capsys, "verify-all", "--paths", "2000", "--pretty")
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

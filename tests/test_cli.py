import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import plapt
from plapt import PlAptParams, Sample, WeightSpec, double_hill_components, quantile, sample
from plapt import cli
from plapt.cli import main, read_numeric_csv

from reference_tables import QUARTILE_US, TABLE_APT, TABLE_PSEUDO


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEvalCommands:
    def test_quantile_matches_library(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["quantile", "--alpha", "2", "--beta", "2.5", "--theta", "0.6", "--u", "0.25", "0.5"],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,quantile"
        p = PlAptParams(2.0, 2.5, 0.6)
        for line, u in zip(lines[1:], (0.25, 0.5)):
            got = float(line.split(",")[1])
            assert got == quantile(p, u)

    def test_cdf_and_pdf_and_hazard(self, capsys):
        for name in ("cdf", "pdf", "hazard"):
            rc, out, _ = run_cli(
                capsys,
                [name, "--alpha", "1", "--beta", "2", "--theta", "1", "--x", "0.5"],
            )
            assert rc == 0
            assert out.startswith("x," + name)

    @pytest.mark.parametrize(
        "name, flag, points",
        [
            ("quantile", "--u", (0.0, 1e-300, 0.25, 0.5, 0.999999999)),
            ("hazard", "--x", (0.0, 1e-300, 0.5, 30.0, 1e300)),
        ],
    )
    def test_every_point_is_the_library_value(self, capsys, name, flag, points):
        # all points go through one call; each line must read as the point's own call
        rc, out, _ = run_cli(
            capsys, [name, "--alpha", "0.5", "--beta", "1.1", "--theta", "0.6", flag, *map(repr, points)]
        )
        assert rc == 0
        p = PlAptParams(0.5, 1.1, 0.6)
        fn = getattr(plapt, name)
        want = [f"{flag[2:]},{name}"] + [f"{pt!r},{fn(p, pt)!r}" for pt in points]
        assert out.splitlines() == want

    def test_validation_exit_code(self, capsys):
        rc, _, err = run_cli(
            capsys,
            ["quantile", "--alpha", "2", "--beta", "2.5", "--theta", "0.6", "--u", "1.5"],
        )
        assert rc == 2
        assert "error" in err

    def test_digits_below_one_exit_code(self, capsys):
        for argv in (
            ["cdf", "--alpha", "1", "--beta", "2", "--theta", "1", "--x", "0.5", "--digits", "-1"],
            ["table", "--digits", "0"],
        ):
            rc, out, err = run_cli(capsys, argv)
            assert rc == 2
            assert out == ""
            assert "--digits" in err


class TestTable:
    def test_rows_match_library_quantiles(self, capsys):
        rc, out, _ = run_cli(capsys, ["table"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,alpha,beta,q1,q2,q3"
        assert len(lines) == 1 + 4 * 6
        for line in lines[1:]:
            theta, alpha, beta, *qs = map(float, line.split(","))
            p = PlAptParams(alpha, beta, theta)
            for u, q in zip(QUARTILE_US, qs):
                assert q == quantile(p, u)

    def test_digits_mode_agrees_with_reference_to_table_precision(self, capsys):
        # the reference tables hold 15 significant digits; at 7 significant
        # digits the printed values agree to 7-digit rounding
        rc, out, _ = run_cli(capsys, ["table", "--digits", "7"])
        assert rc == 0
        rows = {}
        for line in out.strip().splitlines()[1:]:
            theta, alpha, beta, *qs = map(float, line.split(","))
            rows[(theta, alpha, beta)] = qs
        for key, expected in {**TABLE_APT, **TABLE_PSEUDO}.items():
            got = rows[key]
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-6)

    def test_custom_grid(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["table", "--thetas", "1.0", "--pairs", "2:2.5", "--u", "0.5"]
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,alpha,beta,q1"
        assert len(lines) == 2

    def test_bad_pair_rejected(self, capsys):
        rc, _, err = run_cli(capsys, ["table", "--pairs", "nonsense"])
        assert rc == 2
        assert "pair" in err


class TestSampleAndCsv:
    def test_sample_roundtrip_preserves_floats(self, tmp_path, capsys):
        out_path = tmp_path / "draws.csv"
        rc, _, _ = run_cli(
            capsys,
            [
                "sample", "--alpha", "2", "--beta", "2.5", "--theta", "0.6",
                "--n", "500", "--seed", "42", "--output", str(out_path),
            ],
        )
        assert rc == 0
        values = read_numeric_csv(str(out_path))
        direct = sample(PlAptParams(2.0, 2.5, 0.6), 500, seed=42)
        assert np.array_equal(np.sort(values), direct.values)

    def test_seed_env_var_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PLAPT_SEED", "123")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sample", "--alpha", "2", "--beta", "2.5", "--theta", "0.6", "--n", "50"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--seed", "123", "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    def test_seed_env_var_non_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PLAPT_SEED", "abc")
        rc, _, err = run_cli(
            capsys, ["sample", "--alpha", "2", "--beta", "2.5", "--theta", "0.6", "--n", "5"]
        )
        assert rc == 2
        assert "PLAPT_SEED" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["sample", "--alpha", "2", "--beta", "2.5", "--theta", "0.6", "--n", "5"],
            ["experiment", "--kind", "maxima-gumbel", "--alpha", "2", "--beta", "2.5", "--theta", "0.6",
             "--n", "100", "--reps", "2"],
        ],
        ids=["sample", "experiment"],
    )
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_negative_seed_is_a_validation_error(self, capsys, monkeypatch, command, via_env):
        if via_env:
            monkeypatch.setenv("PLAPT_SEED", "-1")
        rc, out, err = run_cli(capsys, command if via_env else [*command, "--seed", "-1"])
        assert (rc, out) == (2, "")
        assert err.splitlines() == ["error: seed must be a nonnegative integer, got -1"]

    def test_replication_count_beyond_2_32_is_a_validation_error(self, capsys):
        rc, out, err = run_cli(capsys, [
            "experiment", "--kind", "maxima-gumbel", "--alpha", "2", "--beta", "2.5", "--theta", "0.6",
            "--n", "100", "--reps", str(2**32 + 1), "--seed", "1"])
        assert (rc, out) == (2, "")
        assert err.splitlines() == ["error: reps must lie in [1, 4294967296], got 4294967297"]

    @pytest.mark.parametrize(
        "command, message",
        [
            (["sample", "--n", "0"], "n must be >= 1, got 0"),
            (["experiment", "--kind", "maxima-gumbel", "--n", "99", "--reps", "3", "--seed", "1"],
             "n must be >= 100, got 99"),
            (["experiment", "--kind", "recovery", "--n", "1", "--reps", "3", "--seed", "1"], "n must be >= 2, got 1"),
            (["experiment", "--kind", "recovery", "--n", "10", "--reps", "0", "--seed", "1"],
             "reps must lie in [1, 4294967296], got 0"),
        ],
        ids=["sample-n", "maxima-n", "recovery-n", "reps"],
    )
    def test_count_below_its_range_is_a_validation_error(self, capsys, command, message):
        rc, out, err = run_cli(capsys, [*command, "--alpha", "2", "--beta", "2.5", "--theta", "1.5"])
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_count_beyond_the_float_range_is_a_validation_error(self, capsys):
        # not a traceback from float(n): exit 2 and the count's range
        big = 10**400
        rc, out, err = run_cli(capsys, [
            "experiment", "--kind", "maxima-gumbel", "--alpha", "2", "--beta", "2.5", "--theta", "1.5",
            "--n", str(big), "--reps", "3", "--seed", "1"])
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: n must lie in [100, 9007199254740992], got {big}"]

    def test_sample_count_beyond_the_float_range_is_a_validation_error(self, capsys):
        big = 10**400
        rc, out, err = run_cli(capsys, [
            "sample", "--alpha", "2", "--beta", "2.5", "--theta", "1.5", "--n", str(big), "--seed", "1"])
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: n must lie in [1, 9007199254740992], got {big}"]

    def test_sample_beyond_memory_is_a_validation_error(self, capsys):
        # 1e14 points are 728 TiB, beyond the address space: the allocation
        # fails at once, and its MemoryError is one error line, not a traceback
        rc, out, err = run_cli(capsys, [
            "sample", "--alpha", "2", "--beta", "2.5", "--theta", "1.5", "--n", str(10**14), "--seed", "1"])
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "TiB" in err

    @pytest.mark.parametrize("piece", [1, 3, 4096, 10**6])
    def test_sample_csv_is_the_same_in_any_piece_size(self, capsys, monkeypatch, piece):
        # the CSV is written in pieces of values: its bytes are those of the
        # whole text made at once
        n, seed = 5000, 8
        want = "\n".join(["x", *(repr(v) for v in sample(PlAptParams(2.0, 2.5, 1.5), n, seed).values.tolist())])
        monkeypatch.setattr(cli, "_SAMPLE_PIECE", piece)
        rc, out, _ = run_cli(capsys, [
            "sample", "--alpha", "2", "--beta", "2.5", "--theta", "1.5", "--n", str(n), "--seed", str(seed)])
        assert rc == 0
        assert out == want + "\n"

    def test_header_and_crlf_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x\r\n1.5\r\n2.5\r\n")
        assert list(read_numeric_csv(str(path))) == [1.5, 2.5]
        path.write_bytes(b"x\n\n1.5\n  \r\n2.5\n\n")  # blank lines are skipped
        assert list(read_numeric_csv(str(path))) == [1.5, 2.5]

    def test_negative_value_names_line(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        path.write_text("x\n1.0\n-2.0\n3.0\n")
        rc, _, err = run_cli(capsys, ["fit", "--input", str(path), "--alpha", "1"])
        assert rc == 2
        assert "line 3" in err
        # a second non-number is no header, and a non-finite value is refused
        for text, message in (("x\n1.0\ny\n", "line 3: not a number: 'y'"),
                              ("x\n1.0\ninf\n", "line 3: non-finite value 'inf'"),
                              ("1.0\nnan\n", "line 2: non-finite value 'nan'")):
            path.write_text(text)
            rc, _, err = run_cli(capsys, ["fit", "--input", str(path), "--alpha", "1"])
            assert (rc, err.splitlines()) == (2, [f"error: {message}"])

    def test_non_utf8_text_names_its_line(self, tmp_path, capsys):
        # a bad data row, a bad header, and a bad byte more than one read
        # buffer into the file, whose line counts from the file's start
        path = tmp_path / "bad.csv"
        for data, line in ((b"x\n1.0\n\xff2.0\n", 3), (b"\xe9t\xe9\n1.0\n", 1),
                           (b"x\n" + b"1.0\r\n" * 5000 + b"2.0\xc3\n", 5002)):
            path.write_bytes(data)
            for argv in (["fit", "--alpha", "2"], ["evi", "--k", "1"]):
                rc, _, err = run_cli(capsys, [*argv, "--input", str(path)])
                assert (rc, err.splitlines()) == (2, [f"error: line {line}: not UTF-8 text"])

    def test_empty_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        rc, _, err = run_cli(capsys, ["fit", "--input", str(path), "--alpha", "1"])
        assert rc == 2

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc, _, err = run_cli(
            capsys, ["fit", "--input", str(tmp_path / "nope.csv"), "--alpha", "1"]
        )
        assert rc == 4

    def test_multicolumn_rejected(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("1.0,2.0\n")
        rc, _, err = run_cli(capsys, ["fit", "--input", str(path), "--alpha", "1"])
        assert rc == 2
        assert "line 1" in err


class TestFit:
    def test_end_to_end_recovery(self, tmp_path, capsys):
        truth = PlAptParams(2.0, 2.5, 0.6)
        data_path = tmp_path / "data.csv"
        assert main(
            [
                "sample", "--alpha", "2", "--beta", "2.5", "--theta", "0.6",
                "--n", "10000", "--seed", "4242", "--output", str(data_path),
            ]
        ) == 0
        rc, out, _ = run_cli(capsys, ["fit", "--input", str(data_path), "--alpha", "2"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["convergence"]["converged"] is True
        assert payload["convergence"]["status"] == "converged"
        assert abs(payload["theta"] - truth.theta) <= 4.0 * payload["stderr_theta"]
        assert abs(payload["beta"] - truth.beta) <= 4.0 * payload["stderr_beta"]
        assert payload["aic"] == pytest.approx(4.0 - 2.0 * payload["loglik"])

    def test_alpha_grid_profile(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        main(
            [
                "sample", "--alpha", "1", "--beta", "1.5", "--theta", "3",
                "--n", "2000", "--seed", "7", "--output", str(data_path),
            ]
        )
        rc, out, _ = run_cli(
            capsys, ["fit", "--input", str(data_path), "--alpha-grid", "0.5", "1", "2"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["alpha"] in (0.5, 1.0, 2.0)
        assert payload["aic"] == pytest.approx(6.0 - 2.0 * payload["loglik"])

    @pytest.mark.parametrize("start", [[], ["--theta0", "1", "--beta0", "2"]])
    def test_overflowing_mean_rejected(self, tmp_path, capsys, start):
        # The sample is fitted at its own scale, 2**1024. From the default
        # start the fit reaches beta -> 1 and does not converge (exit 3), and
        # the JSON report says so; theta0 = 1 overflows at that scale, a
        # validation error (exit 2) that names the start point and the scale.
        path = tmp_path / "big.csv"
        path.write_text("x\n1e308\n1e308\n")
        rc, out, err = run_cli(capsys, ["fit", "--input", str(path), "--alpha", "2", *start])
        if start:
            assert (rc, out) == (2, "")
            assert err.splitlines() == [
                "error: start point (1.0, 2.0): theta0 * 2**1024 leaves the normal float range"
                " at the sample's scale 2**1024"
            ]
        else:
            assert rc == 3
            assert err == ""
            payload = json.loads(out)
            assert payload["convergence"]["status"] == "boundary_beta_one"
            assert payload["theta"] == 2.364275387356534e-308

    def test_failed_fit_exit_code(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        sample_argv = ["--alpha", "2", "--beta", "2.5", "--theta", "0.6", "--n", "300", "--seed", "3"]
        assert main(["sample", *sample_argv, "--output", str(data_path)]) == 0
        rc, out, err = run_cli(
            capsys, ["fit", "--input", str(data_path), "--alpha", "2", "--theta0", "1e-300", "--beta0", "2"]
        )
        assert (rc, out) == (3, "")
        assert err.splitlines() == ["numerical error: Hessian of the log-likelihood is not finite or is singular"]
        for start in (["--theta0", "1"], ["--beta0", "2"]):  # half a start point
            rc, out, err = run_cli(capsys, ["fit", "--input", str(data_path), "--alpha", "2", *start])
            assert (rc, out) == (2, "")
            assert err.splitlines() == ["error: provide both --theta0 and --beta0 or neither"]


class TestEvi:
    def _write_pareto(self, tmp_path, gamma=0.5, n=2000, seed=1):
        rng = np.random.default_rng(seed)
        values = rng.random(n) ** -gamma
        path = tmp_path / "pareto.csv"
        path.write_text("\n".join(["x"] + [repr(float(v)) for v in values]) + "\n")
        return path, values

    def test_hill_matches_library(self, tmp_path, capsys):
        path, values = self._write_pareto(tmp_path)
        rc, out, _ = run_cli(capsys, ["evi", "--input", str(path), "--k", "100"])
        assert rc == 0
        payload = json.loads(out)
        rep = double_hill_components(Sample(values), WeightSpec.hill(), k=100)
        assert payload["m_n"] == rep.m_n
        assert payload["a_n"] == rep.a_n
        assert payload["ci_low"] == rep.ci_low

    def test_power_weights_match_direct_formula(self, tmp_path, capsys):
        path, values = self._write_pareto(tmp_path, seed=2)
        tau, k = 0.5, 80
        rc, out, _ = run_cli(
            capsys, ["evi", "--input", str(path), "--k", str(k), "--tau", str(tau)]
        )
        assert rc == 0
        payload = json.loads(out)
        xs = np.sort(values)
        spacings = np.diff(np.log(xs[len(xs) - k - 1 :]))[::-1]
        j = np.arange(1, k + 1, dtype=float)
        direct = float(np.sum(j**tau * spacings) / np.sum(j ** (tau - 1.0)))
        assert payload["m_n"] == pytest.approx(direct, rel=5e-15)

    def test_k_too_large_rejected(self, tmp_path, capsys):
        path, _ = self._write_pareto(tmp_path, n=50)
        rc, _, err = run_cli(capsys, ["evi", "--input", str(path), "--k", "50"])
        assert rc == 2

    def test_non_finite_tau_rejected(self, tmp_path, capsys):
        path, _ = self._write_pareto(tmp_path, n=500)
        rc, out, err = run_cli(capsys, ["evi", "--input", str(path), "--k", "50", "--tau", "nan"])
        assert rc == 2
        assert out == ""
        assert "tau" in err
        # j**400 overflows from j = 6 on
        rc, out, err = run_cli(capsys, ["evi", "--input", str(path), "--k", "50", "--tau", "400"])
        assert rc == 2
        assert out == ""
        assert "weights must be positive and finite" in err

    def test_target_adds_test_block(self, tmp_path, capsys):
        path, _ = self._write_pareto(tmp_path, seed=3)
        rc, out, _ = run_cli(
            capsys, ["evi", "--input", str(path), "--k", "100", "--target", "0.5"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert 0.0 <= payload["test"]["p_value"] <= 1.0
        assert payload["z_stat"] == payload["test"]["z_stat"]


class TestExpansionAndExperiment:
    def test_expansion_json(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["expansion", "--alpha", "2", "--beta", "2.5", "--theta", "0.6",
             "--u", "1e-4", "1e-6"],
        )
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert rows[0]["c_ab"] < 0.0
        assert set(rows[0]["components"]) == {"constant", "log", "loglog", "inv_log", "remainder"}

    def test_expansion_underflow_exit_code(self, capsys):
        # at u = 5e-324 the Lambert argument underflows, but the expansion
        # works in logs and never forms it
        rc, out, err = run_cli(
            capsys, ["expansion", "--alpha", "2", "--beta", "2.5", "--theta", "1.5", "--u", "5e-324"]
        )
        assert (rc, err) == (0, "")
        (row,) = json.loads(out)
        assert abs(row["value"] - plapt.tail_quantile(PlAptParams(2.0, 2.5, 1.5), 5e-324)) < 1e-2

    def test_expansion_past_the_underflow_of_c(self, capsys):
        # from beta of about 745 the float C(alpha, beta) is -0.0; log(-C) is
        # formed in logs, so the terms stay finite and sum to the value
        rc, out, err = run_cli(capsys, ["expansion", "--alpha", "2", "--beta", "800", "--theta", "1", "--u", "1e-10"])
        assert (rc, err) == (0, "")
        (row,) = json.loads(out)
        assert sum(row["components"].values()) == pytest.approx(row["value"], rel=1e-14)
        assert abs(row["value"] - plapt.tail_quantile(PlAptParams(2.0, 800.0, 1.0), 1e-10)) < 1e-2

    def test_experiment_deterministic_through_cli(self, tmp_path, capsys):
        args = [
            "experiment", "--kind", "recovery", "--alpha", "2", "--beta", "2.5",
            "--theta", "0.6", "--n", "300", "--reps", "2", "--seed", "5",
        ]
        rc1, out1, _ = run_cli(capsys, args)
        rc2, out2, _ = run_cli(capsys, args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["config"]["kind"] == "recovery"
        assert len(payload["records"]) == 2

    def test_experiment_report_written_in_pieces(self, tmp_path, capsys, monkeypatch):
        # the report goes out a piece at a time, the same bytes to stdout
        # and to --output: the report text and a newline
        monkeypatch.setattr(plapt.montecarlo, "_WRITE_ROWS", 3)
        args = [
            "experiment", "--kind", "maxima-gumbel", "--alpha", "2", "--beta", "2.5",
            "--theta", "1.5", "--n", "1000", "--reps", "50", "--seed", "1",
        ]
        rc, out, _ = run_cli(capsys, args)
        path = tmp_path / "report.json"
        assert (rc, *run_cli(capsys, [*args, "--output", str(path)])) == (0, 0, "", "")
        cfg = plapt.ExperimentConfig(kind="maxima_gumbel", n=1000, reps=50, seed=1, truth=PlAptParams(2.0, 2.5, 1.5))
        assert path.read_bytes() == out.encode() == (plapt.run_experiment(cfg).to_json() + "\n").encode()

    def test_experiment_pareto_coverage(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["experiment", "--kind", "evi-coverage", "--n", "1000", "--reps", "5",
             "--seed", "3", "--pareto-gamma", "0.5"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert "coverage" in payload["summary"]

    def test_experiment_partial_truth_rejected(self, capsys):
        base = ["experiment", "--kind", "evi-coverage", "--n", "1000", "--reps", "2",
                "--seed", "3", "--pareto-gamma", "0.5"]
        for partial in (
            ["--beta", "2"],
            ["--alpha", "2", "--theta", "0.6"],
            ["--beta", "2", "--theta", "0.6"],
        ):
            rc, out, err = run_cli(capsys, base + partial)
            assert rc == 2
            assert out == ""
            assert "--alpha, --beta and --theta" in err


    def test_parser_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        evi = parser.parse_args(["evi", "--input", "x.csv", "--k", "1"])
        exp = parser.parse_args(["experiment", "--kind", "recovery", "--n", "10", "--reps", "1"])
        config = plapt.ExperimentConfig(kind="recovery", n=10, reps=1, seed=0, truth=PlAptParams(2.0, 2.5, 1.5))
        assert evi.s == exp.s == WeightSpec.hill().s == WeightSpec.power(0.5).s
        assert exp.k_exponent == config.k_exponent

    def test_experiment_non_finite_k_exponent_rejected(self, capsys):
        base = ["experiment", "--kind", "evi-coverage", "--pareto-gamma", "0.5",
                "--n", "100", "--reps", "2", "--k-exponent"]
        for value in ("nan", "inf"):
            rc, out, err = run_cli(capsys, base + [value])
            assert rc == 2
            assert out == ""
            assert "k_exponent" in err

    def test_experiment_infinite_pareto_gamma_rejected(self, capsys):
        rc, out, err = run_cli(
            capsys,
            ["experiment", "--kind", "evi-coverage", "--pareto-gamma", "inf",
             "--n", "100", "--reps", "3", "--seed", "1"],
        )
        assert (rc, out) == (2, "")
        assert "pareto_gamma must be a positive real, got inf" in err

    def test_experiment_unusable_weights_rejected(self, capsys):
        # j**1000 overflows at k = floor(500**0.6) = 41
        rc, out, err = run_cli(
            capsys,
            ["experiment", "--kind", "evi-coverage", "--pareto-gamma", "0.5",
             "--n", "500", "--reps", "2", "--tau", "1000"],
        )
        assert rc == 2
        assert out == ""
        assert "weights must be positive and finite" in err

    def test_experiment_unread_fields_rejected(self, capsys):
        truth = ["--alpha", "2", "--beta", "2.5", "--theta", "1.5"]
        for kind, extra, message in (
            ("evi-coverage", truth + ["--pareto-gamma", "0.5"], "not both"),
            ("recovery", truth + ["--tau", "0.5"], "weight"),
            ("maxima-gumbel", truth + ["--s", "2"], "weight"),
            ("model-compare", truth + ["--k-exponent", "nan"], "k_exponent"),
        ):
            rc, out, err = run_cli(
                capsys, ["experiment", "--kind", kind, "--n", "200", "--reps", "2", "--seed", "1"] + extra
            )
            assert rc == 2
            assert out == ""
            assert message in err

    def test_experiment_invalid_alpha_grid_rejected(self, capsys):
        base = ["experiment", "--kind", "model-compare", "--alpha", "2", "--beta", "2.5", "--theta", "1.5",
                "--n", "100", "--reps", "2", "--seed", "1", "--alpha-grid"]
        for grid in (["-1", "2"], ["nan"]):
            rc, out, err = run_cli(capsys, base + grid)
            assert rc == 2
            assert out == ""
            assert "alpha_grid" in err


def _assert_import_leaves_out(*modules):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(plapt.__file__))}
    code = f"import sys, plapt, plapt.cli; loaded = {set(modules)!r} & set(sys.modules); assert not loaded, loaded"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone
    _assert_import_leaves_out("scipy")


def test_import_leaves_numpy_random_unloaded():
    # a study loads numpy.random when it first draws, not at import
    _assert_import_leaves_out("numpy.random")


def test_import_starts_no_process_machinery():
    # every experiment runs in the calling process
    _assert_import_leaves_out("multiprocessing", "concurrent.futures")

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from nlsparse import FitConfig, fit, load_dataset_csv
from nlsparse import cli
from nlsparse.cli import main
from nlsparse.simulate import SimConfig, generate


@pytest.fixture()
def dataset_csv(tmp_path):
    cfg = SimConfig(n=80, d=6, s_star=2, noise_sd=1.0, toeplitz_rho=0.5, seed=50, trials=1)
    data, _ = generate(cfg, 0)
    path = tmp_path / "data.csv"
    header = "y," + ",".join(f"x{j}" for j in range(1, 7))
    rows = [header] + [
        ",".join(repr(float(v)) for v in (data.response[i], *data.design[i]))
        for i in range(data.n)
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_doc(text):
    pairs = {}
    beta = {}
    for line in text.strip().splitlines():
        if line.startswith("beta "):
            _, idx, value = line.split()
            beta[int(idx)] = float(value)
        else:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs, beta


class TestFitCommand:
    def test_explicit_lambda(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "fit", "--data", str(dataset_csv),
                               "--link", "paper", "--lambda", "0.05")
        assert code == 0
        doc, beta = parse_doc(out)
        assert doc["command"] == "fit"
        assert doc["converged"] == "true"
        assert doc["lambda"] == "0.05"
        assert int(doc["nonzeros"]) == len(beta)
        assert float(doc["kkt_residual"]) <= 1e-4

    def test_lambda_rule(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "fit", "--data", str(dataset_csv),
                               "--link", "paper", "--lambda-rule", "3", "--sigma", "1")
        assert code == 0
        doc, _ = parse_doc(out)
        expected = 3.0 * np.sqrt(np.log(6) / 80)
        assert float(doc["lambda"]) == pytest.approx(expected, rel=1e-12)

    def test_noiseless_lambda_rule_matches_library(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "fit", "--data", str(dataset_csv),
                               "--lambda-rule", "3", "--sigma", "0")
        assert code == 0
        noiseless = SimConfig(n=80, d=6, s_star=2, noise_sd=0.0)
        assert float(parse_doc(out)[0]["lambda"]) == noiseless.lambda_rule(3)

    def test_default_fit_matches_library(self, capsys, dataset_csv, paper):
        code, out, _ = run_cli(capsys, "fit", "--data", str(dataset_csv), "--lambda", "0.05")
        assert code == 0
        doc, beta = parse_doc(out)
        expected = fit(paper, load_dataset_csv(dataset_csv), FitConfig(lam=0.05))
        assert float(doc["kkt_residual"]) == expected.kkt_residual
        assert beta == {j + 1: float(expected.beta_hat[j])
                        for j in np.flatnonzero(expected.beta_hat)}

    def test_config_file_reaches_fit_config(self, capsys, dataset_csv, tmp_path, monkeypatch):
        seen = []

        def recording_fit(link, data, config):
            seen.append(config)
            return fit(link, data, config)

        monkeypatch.setattr(cli, "fit", recording_fit)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": 0.1, "max_iter": 500, "tol": 1e-3}))
        code, _, _ = run_cli(capsys, "fit", "--data", str(dataset_csv),
                             "--config", str(cfg_path), "--tol", "1e-6")
        assert code == 0
        assert seen == [FitConfig(lam=0.1, max_iter=500, tol=1e-6)]

    def test_line_search_constants_have_no_flag(self, dataset_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--data", str(dataset_csv), "--lambda", "0.1", "--eta", "2"])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --eta 2" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["zeta", "alpha_min", "max_linesearch"])
    def test_line_search_constants_are_no_config_keys(self, capsys, dataset_csv, tmp_path, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": 0.1, key: 1}))
        code, out, err = run_cli(capsys, "fit", "--data", str(dataset_csv),
                                 "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert err == f"nlsparse: error: config {cfg_path}: no option {key}\n"

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path / "missing.csv"),
                               "--lambda", "0.1")
        assert code == 1
        assert "missing.csv" in err

    def test_lambda_required(self, capsys, dataset_csv):
        code, _, err = run_cli(capsys, "fit", "--data", str(dataset_csv))
        assert code == 1
        assert "--lambda" in err

    def test_unknown_flag_exits_1(self, dataset_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--data", str(dataset_csv), "--lambda", "0.1", "--bogus"])
        assert excinfo.value.code == 1

    def test_output_file(self, capsys, dataset_csv, tmp_path):
        out_path = tmp_path / "result.txt"
        code, out, _ = run_cli(capsys, "fit", "--data", str(dataset_csv),
                               "--lambda", "0.05", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert "command=fit" in out_path.read_text()

    def test_unwritable_output_exits_1(self, capsys, dataset_csv, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--data", str(dataset_csv),
                               "--lambda", "0.05", "--output", str(tmp_path))
        assert code == 1
        assert err.startswith("nlsparse: error: cannot write") and "Traceback" not in err

    def test_config_file_with_cli_override(self, capsys, dataset_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": 0.2, "link": "paper"}))
        code, out, _ = run_cli(capsys, "fit", "--data", str(dataset_csv),
                               "--config", str(cfg_path))
        assert code == 0
        assert parse_doc(out)[0]["lambda"] == "0.2"
        code, out, _ = run_cli(capsys, "fit", "--data", str(dataset_csv),
                               "--config", str(cfg_path), "--lambda", "0.3")
        assert parse_doc(out)[0]["lambda"] == "0.3"


class TestTestCommand:
    def test_score_decision_line(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "test", "--data", str(dataset_csv),
                               "--lambda-rule", "3", "--sigma", "1",
                               "--coordinate", "5", "--method", "score",
                               "--delta", "0.05", "--rho-rule", "30")
        assert code == 0
        doc, _ = parse_doc(out)
        assert doc["reject"] in ("true", "false")
        assert 0.0 <= float(doc["p_value"]) <= 1.0
        assert (float(doc["p_value"]) < 0.05) == (doc["reject"] == "true")

    def test_wald_method(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "test", "--data", str(dataset_csv),
                               "--lambda", "0.1", "--coordinate", "1",
                               "--method", "wald", "--rho", "2.0")
        assert code == 0
        doc, _ = parse_doc(out)
        assert "alpha_bar" in doc and "sigma_w" in doc

    @pytest.mark.parametrize("method", ["score", "wald"])
    def test_dantzig_account(self, capsys, dataset_csv, method):
        # a small radius needs pivots; a radius above max|h_ag| is vacuous
        docs = []
        for rho in ("0.01", "1e6"):
            code, out, _ = run_cli(capsys, "test", "--data", str(dataset_csv),
                                   "--lambda", "0.1", "--coordinate", "1",
                                   "--method", method, "--rho", rho)
            assert code == 0
            docs.append(parse_doc(out)[0])
        tight, loose = docs
        assert tight["dantzig_vacuous"] == "false"
        assert int(tight["dantzig_pivots"]) >= 1
        assert float(tight["dantzig_l1"]) > 0.0
        assert loose["dantzig_vacuous"] == "true"
        assert loose["dantzig_pivots"] == "0"
        assert float(loose["dantzig_l1"]) == 0.0

    def test_degenerate_variance_exits_2(self, capsys, tmp_path):
        # dead covariate column: the tested direction carries no information
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 3))
        X[:, 1] = 0.0
        y = X[:, 0] + rng.standard_normal(30)
        path = tmp_path / "dead.csv"
        rows = [",".join(repr(float(v)) for v in (y[i], *X[i])) for i in range(30)]
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "test", "--data", str(path),
                               "--lambda", "0.05", "--link", "identity",
                               "--coordinate", "2", "--method", "score", "--rho", "1.0")
        assert code == 2
        assert "degenerate score variance" in err

    def test_reports_the_fit_it_tested(self, capsys, dataset_csv):
        args = ["--data", str(dataset_csv), "--lambda", "0.1", "--coordinate", "1",
                "--rho", "2.0"]
        for argv in (["test", *args, "--method", "score"], ["ci", *args]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            keys = [line.partition("=")[0] for line in out.splitlines()]
            assert keys[keys.index("lambda"):keys.index("rho")] == [
                "lambda", "converged", "iterations", "kkt_residual"]
            assert parse_doc(out)[0]["converged"] == "true"
            code, out, _ = run_cli(capsys, *argv, "--max-iter", "1")
            doc = parse_doc(out)[0]
            assert code == 0
            assert (doc["converged"], doc["iterations"]) == ("false", "1")

    def test_rho_rule_needs_sigma(self, capsys, dataset_csv):
        code, _, err = run_cli(capsys, "test", "--data", str(dataset_csv),
                               "--lambda", "0.1", "--coordinate", "1", "--method", "score")
        assert code == 1
        assert "sigma" in err


class TestCiCommand:
    def test_interval_contains_estimate(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "ci", "--data", str(dataset_csv),
                               "--lambda-rule", "3", "--sigma", "1",
                               "--coordinate", "1", "--delta", "0.05")
        assert code == 0
        doc, _ = parse_doc(out)
        lo, hi, mid = float(doc["ci_low"]), float(doc["ci_high"]), float(doc["alpha_bar"])
        assert lo <= mid <= hi

    def test_dantzig_account(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "ci", "--data", str(dataset_csv),
                               "--lambda", "0.1", "--coordinate", "1", "--rho", "0.01")
        assert code == 0
        doc, _ = parse_doc(out)
        assert doc["dantzig_vacuous"] == "false"
        assert int(doc["dantzig_pivots"]) >= 1
        assert float(doc["dantzig_l1"]) > 0.0


class TestSimulateCommand:
    def test_sweep_csv_and_seed_determinism(self, capsys, tmp_path):
        args = ["simulate", "--experiment", "sweep", "--d", "12", "--s-star", "2",
                "--n-grid", "40,80", "--trials", "3", "--seed", "7",
                "--sigma", "1", "--threads", "1"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("d,s_star,n,")
        assert len(lines) == 3

    def test_table_csv(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["simulate", "--experiment", "table", "--n", "50", "--d", "10",
                     "--s-star", "2", "--trials", "3", "--seed", "1",
                     "--mu-grid", "0,0.5", "--output", str(out), "--threads", "2"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,score_type1,score_power,wald_type1,wald_power,trials,excluded"
        assert len(lines) == 3

    def test_table_empty_mu_grid_exits_1(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code, _, err = run_cli(capsys, "simulate", "--experiment", "table", "--n", "50",
                               "--d", "10", "--s-star", "2", "--trials", "1", "--mu-grid", "",
                               "--threads", "1", "--output", str(out))
        assert code == 1
        assert "mu_grid" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_grid_cross_product(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["simulate", "--experiment", "sweep", "--d", "10",
                     "--s-star-grid", "2,3", "--n-grid", "40,80", "--trials", "2",
                     "--seed", "5", "--threads", "1", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 support sizes x 2 sample sizes
        assert lines[1].split(",")[:3] == ["10", "2", "40"]
        assert lines[4].split(",")[:3] == ["10", "3", "80"]

    def test_baseline_fewer_rows_than_folds_exits_1(self, capsys, tmp_path):
        out = tmp_path / "base.csv"
        code, _, err = run_cli(capsys, "simulate", "--experiment", "baseline", "--d", "16",
                               "--s-star", "2", "--n-grid", "4", "--trials", "1",
                               "--threads", "1", "--output", str(out))
        assert code == 1
        assert "cv_folds" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["sweep", "baseline"])
    def test_bad_lambda_rule_exits_1_before_any_trial(self, capsys, monkeypatch, tmp_path,
                                                      experiment):
        import nlsparse.simulate as sim

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        out = tmp_path / "rows.csv"
        code, stdout, err = run_cli(capsys, "simulate", "--experiment", experiment,
                                    "--n", "40,60", "--d", "12", "--s-star", "2",
                                    "--trials", "2", "--lambda-rule", "-1",
                                    "--output", str(out))
        assert (code, stdout) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("nlsparse: error: ")
        assert not out.exists()

    def test_baseline_small(self, capsys, tmp_path):
        out = tmp_path / "base.csv"
        code = main(["simulate", "--experiment", "baseline", "--n", "60", "--d", "10",
                     "--s-star", "2", "--trials", "2", "--seed", "2",
                     "--output", str(out), "--threads", "1"])
        assert code == 0
        assert "base_mean_l2" in out.read_text().splitlines()[0]

    def test_config_file_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "n": 40, "d": 8, "s_star": 2, "trials": 2, "seed": 3,
            "mu_grid": [0.0], "sigma": 1.0,
        }))
        code, out, _ = run_cli(capsys, "simulate", "--experiment", "table",
                               "--config", str(cfg), "--threads", "1")
        assert code == 0
        assert out.splitlines()[0].startswith("mu,")

    def test_missing_output_directory_exits_1_before_any_trial(self, capsys, monkeypatch,
                                                               tmp_path):
        import nlsparse.simulate as sim

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        code, _, err = run_cli(capsys, "simulate", "--experiment", "table", "--n", "50",
                               "--d", "10", "--s-star", "2", "--trials", "1",
                               "--output", str(tmp_path / "missing" / "t.csv"))
        assert code == 1
        assert err.startswith("nlsparse: error: cannot write") and "Traceback" not in err

    def test_config_file_sets_the_output(self, capsys, monkeypatch, tmp_path):
        import nlsparse.simulate as sim

        out = tmp_path / "t.csv"
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n": 40, "d": 8, "s_star": 2, "trials": 2, "mu_grid": [0],
                                   "threads": 1, "output": str(out)}))
        args = ["simulate", "--experiment", "table", "--config", str(cfg)]
        code, stdout, _ = run_cli(capsys, *args)
        assert (code, stdout) == (0, "")
        text = out.read_text()
        assert text.startswith("mu,")
        assert run_cli(capsys, *args, "--output", "-")[:2] == (0, text)

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        cfg.write_text(json.dumps({"n": 40, "d": 8, "s_star": 2,
                                   "output": str(tmp_path / "missing" / "t.csv")}))
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert err.startswith("nlsparse: error: cannot write")
        cfg.write_text(json.dumps({"n": 40, "d": 8, "s_star": 2, "output": 5}))
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert err.startswith("nlsparse: error: config") and "output" in err

    @pytest.mark.parametrize("config, key", [
        ({"n": "abc", "d": 8, "s_star": 2}, "n"),
        ({"n": 40, "d": 8, "s_star": 2, "threads": "two"}, "threads"),
        ({"n": 40, "d": 8.5, "s_star": 2}, "d"),
        ({"n": 40, "d": 8, "s_star": 2, "trials": [2]}, "trials"),
        ({"n": 40, "d": 8, "s_star": 2, "rho_rule": [0.1]}, "rho_rule"),
    ])
    def test_config_value_of_the_wrong_type_exits_1(self, capsys, tmp_path, config, key):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "simulate", "--experiment", "table", "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"nlsparse: error: config {cfg}: {key} must be ")
        assert "Traceback" not in err

    def test_config_values_are_read_as_flags_are(self, capsys, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n": "40", "d": 8, "s_star": 2, "trials": 2, "mu_grid": [0],
                                   "sigma": 1, "rho_rule": "30", "threads": 1}))
        code, out, _ = run_cli(capsys, "simulate", "--experiment", "table", "--config", str(cfg))
        assert code == 0
        flags = run_cli(capsys, "simulate", "--experiment", "table", "--n", "40", "--d", "8",
                        "--s-star", "2", "--trials", "2", "--mu-grid", "0", "--rho-rule", "30",
                        "--threads", "1")
        assert flags[:2] == (0, out)

    @pytest.mark.parametrize("command, config, key", [
        (["fit", "--data", "unread.csv"], {"lam": 0.1, "tolerance": 1e-6}, "tolerance"),
        (["simulate", "--experiment", "table"], {"n": 40, "d": 8, "s_star": 2, "trails": 2},
         "trails"),
        (["simulate", "--experiment", "sweep"], {"n_grid": [40, 80], "d": 8, "s_star": 2},
         "n_grid"),
    ])
    def test_config_key_that_names_no_option_exits_1(self, capsys, monkeypatch, tmp_path,
                                                     command, config, key):
        import nlsparse.simulate as sim

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"nlsparse: error: config {cfg}: no option {key}\n"

    def test_n_and_n_grid_are_one_option(self, capsys, tmp_path):
        args = ["simulate", "--experiment", "sweep", "--d", "10", "--s-star", "2",
                "--trials", "2", "--seed", "5", "--threads", "1"]
        texts = [run_cli(capsys, *args, flag, "40,80")[:2] for flag in ("--n", "--n-grid")]
        assert texts[0] == texts[1]
        assert texts[0][0] == 0 and len(texts[0][1].splitlines()) == 3

    @pytest.mark.parametrize("flag", ["--n", "--d", "--s-star"])
    def test_table_with_two_values_of_a_size_exits_1(self, capsys, monkeypatch, flag):
        import nlsparse.simulate as sim

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sim, "_map_trials", no_trials)
        sizes = {"--n": "40", "--d": "8", "--s-star": "2"}
        sizes[flag] += ",3"
        code, _, err = run_cli(capsys, "simulate", "--experiment", "table", "--trials", "1",
                               *[x for item in sizes.items() for x in item])
        assert code == 1
        assert err == ("nlsparse: error: simulate --experiment table takes one value of "
                       "each of --n, --d and --s-star\n")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_1(self, capsys, threads):
        code, _, err = run_cli(capsys, "simulate", "--experiment", "table", "--n", "40",
                               "--d", "8", "--s-star", "2", "--trials", "2", "--mu-grid", "0",
                               f"--threads={threads}")
        assert code == 1
        assert err == f"nlsparse: error: threads must be >= 1, got {threads}\n"

    def test_missing_dimensions_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--experiment", "sweep")
        assert code == 1
        assert "--n" in err


class TestCheckCommand:
    def test_gradients_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--kind", "gradients", "--trials", "5")
        assert code == 0
        assert out.startswith("PASS max_rel_grad=")

    def test_sparse_eigen_identity_condition(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--kind", "sparse-eigen", "--d", "10",
                               "--toeplitz-rho", "0", "--s-star", "2", "--k-star", "4")
        assert code == 0
        doc, _ = parse_doc(out.replace("PASS", "verdict=PASS"))
        assert doc["condition_holds"] == "true"

    def test_sparse_eigen_enumerates_the_k_star_supports_once(self, capsys, monkeypatch):
        argv = ["check", "--kind", "sparse-eigen", "--d", "10", "--toeplitz-rho", "0.5",
                "--s-star", "2", "--k-star", "4"]
        expected = run_cli(capsys, *argv)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert run_cli(capsys, *argv) == expected
        # k defaults to k* = 4: C(10, 4) = 210 supports, then C(10, 10) = 1 at 2k* + s*
        assert len(calls) == 211
        assert expected[0] == 2 and "condition_holds=false" in expected[1]

    def test_sparse_eigen_cap_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--kind", "sparse-eigen", "--d", "30",
                               "--toeplitz-rho", "0.5", "--k", "2")
        assert code == 2
        assert "too large for exhaustive enumeration" in err

    def test_sparse_eigen_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, np.eye(4), delimiter=",")
        code, out, _ = run_cli(capsys, "check", "--kind", "sparse-eigen",
                               "--matrix", str(path), "--k", "2")
        assert code == 0
        assert "rho_minus=1.0" in out

    @pytest.mark.parametrize("argv", [
        ["--kind", "gradients", "--seed", "-1"],
        ["--kind", "sparse-eigen", "--d", "0"],
        # not a covariance matrix
        ["--kind", "sparse-eigen", "--d", "4", "--toeplitz-rho", "1.5"],
    ])
    def test_bad_input_exits_1_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, "check", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("nlsparse: error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for sub in ("fit", "test", "ci", "simulate", "check"):
            assert sub in out

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--data", "--lambda", "--lambda-rule", "--sigma", "--output"):
            assert flag in out

    @pytest.mark.parametrize("command, shown", [
        ("simulate", ["trials per grid point (default 100)", "(default 0.25)", "(default 3)",
                      "(default 0.05)", "null-false coordinate for the table (default 1)"]),
        ("check", ["(default paper)", "(default 10)", "(default 50)", "RNG seed (default 0)",
                   "(default 0.95)"]),
        ("fit", ["(default paper)"]),
        ("ci", ["(default paper)", "(default 0.25)"]),
    ])
    def test_help_shows_the_parser_defaults(self, capsys, command, shown):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # help text wraps at any space
        for text in shown:
            assert text in out

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frob"])
        assert excinfo.value.code == 1

    def test_module_entry_point(self, dataset_csv):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "nlsparse", "fit", "--data", str(dataset_csv),
             "--lambda", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "command=fit" in proc.stdout


_TINY_TABLE = ["simulate", "--experiment", "table", "--n", "40", "--d", "8", "--s-star", "2",
               "--mu-grid", "0", "--trials", "2", "--seed", "3", "--threads", "1"]
# prints the OpenBLAS thread count of the child after its statements ran
_PRINT_THREADS = "from nlsparse.simulate import _openblas; print(_openblas()[0]())"


def _child_env(blas_threads=None):
    """The environment of a fresh interpreter that finds this nlsparse, with no
    BLAS thread variable set or with OPENBLAS_NUM_THREADS=blas_threads."""
    import nlsparse
    from nlsparse.__main__ import _BLAS_THREAD_VARS

    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    src = os.path.dirname(os.path.dirname(nlsparse.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def _child(args, blas_threads=None):
    """The standard output of ``python args`` in a fresh interpreter (see _child_env)."""
    proc = subprocess.run([sys.executable, *args], env=_child_env(blas_threads),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def openblas():
    from nlsparse.simulate import _openblas

    if _openblas() is None:
        pytest.skip("no OpenBLAS handle found")


class TestEntryPoint:
    def test_import_loads_no_numpy(self):
        assert _child(["-c", "import sys, nlsparse; print('numpy' in sys.modules)"]) == "False\n"

    def test_lazy_exports_resolve(self):
        code = """
import importlib, nlsparse
for name in nlsparse.__all__:
    assert getattr(nlsparse, name) is not None, name
    assert name in dir(nlsparse), name
for sub in ("cli", "dantzig", "diagnostics", "errors", "inference", "loss", "model",
            "simulate", "solver"):
    assert getattr(nlsparse, sub) is importlib.import_module("nlsparse." + sub), sub
from nlsparse import fit, InputError, run_inference_table
assert fit is nlsparse.solver.fit
namespace = {}
exec("from nlsparse import *", namespace)
assert set(nlsparse.__all__) <= set(namespace)
try:
    nlsparse.no_such_name
except AttributeError:
    print("ok")
"""
        assert _child(["-c", code]) == "ok\n"

    def test_simulate_loads_openblas_single_threaded(self, openblas):
        code = f"from nlsparse.__main__ import main; main({_TINY_TABLE!r}); {_PRINT_THREADS}"
        assert _child(["-c", code]).splitlines()[-1] == "1"

    def test_simulate_keeps_the_users_blas_threads(self, openblas):
        code = f"from nlsparse.__main__ import main; main({_TINY_TABLE!r}); {_PRINT_THREADS}"
        assert _child(["-c", code], blas_threads=2).splitlines()[-1] == "2"

    def test_fit_keeps_the_blas_default(self, openblas, dataset_csv):
        argv = ["fit", "--data", str(dataset_csv), "--lambda", "0.1"]
        code = f"from nlsparse.__main__ import main; main({argv!r}); {_PRINT_THREADS}"
        bare = _child(["-c", f"import numpy; {_PRINT_THREADS}"])
        assert _child(["-c", code]).splitlines()[-1] == bare.strip()

    def test_simulate_csv_independent_of_how_blas_loads(self, openblas, tmp_path):
        # at d = 128, n = 1600 OpenBLAS threads the matrix products
        argv = ["-m", "nlsparse", "simulate", "--experiment", "sweep", "--d", "128",
                "--s-star", "5", "--n-grid", "1600", "--trials", "2", "--seed", "7",
                "--threads", "2"]
        texts = set()
        for blas_threads in (None, 2):
            out = tmp_path / f"sweep_{blas_threads}.csv"
            _child(argv + ["--output", str(out)], blas_threads=blas_threads)
            texts.add(out.read_bytes())
        assert len(texts) == 1


# The two ways the command starts: ``python -m nlsparse``, and the entry function
# that the installed ``nlsparse`` script calls.
_LAUNCHERS = {"module": ["-m", "nlsparse"],
              "script": ["-c", "from nlsparse.__main__ import run; run()"]}
_EIGEN = ["check", "--kind", "sparse-eigen", "--d", "8", "--toeplitz-rho", "0.5"]


def _command(launcher, argv, env=None, **kwargs):
    return subprocess.run([sys.executable, *_LAUNCHERS[launcher], *argv],
                          env=env or _child_env(), timeout=120, **kwargs)


@pytest.mark.parametrize("launcher", sorted(_LAUNCHERS))
class TestExitPath:
    """The command process ends by os._exit; these check what it must keep."""

    @pytest.mark.parametrize("argv, code", [
        (_EIGEN, 0),
        (["simulate", "--bogus"], 1),
        (["check", "--kind", "sparse-eigen", "--d", "30", "--toeplitz-rho", "0.5"], 2),
        (_EIGEN + ["--s-star", "2", "--k-star", "2"], 2),
    ])
    def test_exit_codes(self, launcher, argv, code):
        proc = _command(launcher, argv, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_stdout_on_a_pipe_equals_the_output_file(self, launcher, tmp_path):
        argv = [*_TINY_TABLE[:-2], "--threads", "2"]  # a forked child must write nothing
        out = tmp_path / "table.csv"
        assert _command(launcher, argv + ["--output", str(out)]).returncode == 0
        piped = _command(launcher, argv + ["--output", "-"], stdout=subprocess.PIPE)
        assert piped.returncode == 0
        assert piped.stdout == out.read_bytes() != b""

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_pipe_exits_nonzero(self, launcher, buffered):
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:  # then the write fails inside main, not the flush after it
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _command(launcher, _EIGEN, env=env, stdout=write, stderr=subprocess.PIPE,
                            text=True)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == "nlsparse: error: cannot write to standard output (broken pipe)\n"
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_closed_stdout_with_an_output_file_exits_0(self, launcher, tmp_path):
        out = tmp_path / "report.txt"
        proc = _command(launcher, _EIGEN + ["--output", str(out)], capture_output=True,
                        preexec_fn=lambda: os.close(1))  # sys.stdout is None in the child
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().endswith("PASS\n")

    @pytest.mark.parametrize("to_group", [False, True], ids=["pid", "group"])
    def test_interrupt_prints_one_line_and_leaves_no_process(self, launcher, to_group,
                                                             tmp_path):
        argv = ["simulate", "--experiment", "table", "--n", "200", "--d", "512", "--s-star",
                "10", "--trials", "100", "--seed", "7", "--threads", "2",
                "--output", str(tmp_path / "table.csv")]
        proc = subprocess.Popen([sys.executable, *_LAUNCHERS[launcher], *argv],
                                env=_child_env(), stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            children = f"/proc/{proc.pid}/task/{proc.pid}/children"
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                try:  # interrupt once a trial process is forked
                    with open(children) as fh:
                        if fh.read().split():
                            break
                except FileNotFoundError:
                    pytest.skip("no /proc children list to see the forked trial processes")
                time.sleep(0.01)
            else:
                pytest.fail(f"simulate forked no trial process (exit code {proc.poll()})")
            time.sleep(0.2)  # the caller is past the fork, and the child into a trial
            # pid: as `kill -INT` and `timeout -s INT` send it; group: as Ctrl-C does
            (os.killpg if to_group else os.kill)(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert err == "nlsparse: interrupted\n"
        with pytest.raises(ProcessLookupError):  # nothing is left in its process group
            os.killpg(proc.pid, 0)
        assert not (tmp_path / "table.csv").exists()


def test_atexit_callback_registered_before_run_runs():
    code = "import atexit; atexit.register(lambda: print('atexit ran'));" + _LAUNCHERS["script"][1]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # the callback's output is flushed only after it
    proc = subprocess.run([sys.executable, "-c", code, *_EIGEN], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("PASS\natexit ran\n")


def test_import_cli_loads_neither_diagnostics_nor_json():
    code = "import sys, nlsparse.cli; print({'json', 'nlsparse.diagnostics'} & set(sys.modules))"
    assert _child(["-c", code]) == "set()\n"

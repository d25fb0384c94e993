import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import schattenreg
from schattenreg import (MarchenkoPastur, PowerLaw, SchattenIndex, error_integrals, geometry_table,
                         theory)
from schattenreg.cli import (
    cmd_basin,
    cmd_theory_curve,
    main,
    read_numeric_csv,
    report_summary_rows,
)
from schattenreg.cv import MODEL_NAMES, AlphaGrid, BenchReport
from schattenreg.exceptions import InvalidConfig, MissingTarget, ParseError


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# theory-curve
# ---------------------------------------------------------------------------

def test_theory_curve_ols_limit_row(tmp_path):
    # As alpha -> 0 every estimator reduces to OLS with error
    # sigma^2 lambda / (1 - lambda) = 1.0 for lambda = 0.5, sigma = 1.
    cfg = _write_cfg(tmp_path, "c.json", {
        "ensemble": "spherical", "lambda": 0.5, "sigma": 1.0, "beta": 1.0,
        "models": ["ridge"], "grid": {"lo": 1e-12, "hi": 10.0, "count": 3},
    })
    out = str(tmp_path / "curve.csv")
    assert main(["theory-curve", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    assert rows[0]["p"] == "ridge"
    assert float(rows[0]["alpha"]) == pytest.approx(1e-12)
    assert float(rows[0]["error"]) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("command, config", [
    ("theory-curve", {"ensemble": "spherical"}),
    ("theory-curve", {"ensemble": "diagonal", "gamma": 2.0}),
    ("basin", {"ensemble": "spherical"}),
    ("basin", {"ensemble": "diagonal"}),
], ids=["theory-curve-spherical", "theory-curve-diagonal", "basin-spherical", "basin-diagonal"])
def test_theory_outputs_repeat_in_process_and_match_a_fresh_process(tmp_path, command, config):
    # The second call in one interpreter reads the cached rule rows and
    # parser; a fresh process builds them.
    cfg = _write_cfg(tmp_path, "c.json", config)
    outs = [tmp_path / name for name in ("first.csv", "second.csv", "fresh.csv")]
    for out in outs[:2]:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    src = str(Path(schattenreg.__file__).parents[1])
    subprocess.run([sys.executable, "-c",
                    "import sys; from schattenreg.cli import main; sys.exit(main(sys.argv[1:]))",
                    command, "--config", cfg, "--out", str(outs[2])],
                   env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    first = outs[0].read_bytes()
    assert first and all(out.read_bytes() == first for out in outs[1:])


def test_theory_curve_csv_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "models": ["nuclear", "spectral"],
        "grid": {"lo": 1e-2, "hi": 1e2, "count": 5},
    })
    out = str(tmp_path / "curve.csv")
    assert main(["theory-curve", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    assert len(rows) == 10
    # 17 significant digits survive the text round trip exactly.
    direct = cmd_theory_curve(_read_json(cfg))
    for row, want in zip(rows, direct):
        assert float(row["error"]) == want["error"]
        assert float(row["alpha"]) == want["alpha"]


def test_theory_curve_byte_identical_reruns(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "models": ["ridge"], "grid": {"lo": 1e-2, "hi": 1e2, "count": 7},
    })
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["theory-curve", "--config", cfg, "--out", out1]) == 0
    assert main(["theory-curve", "--config", cfg, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_empty_grid_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {"grid": {"count": 0}})
    assert main(["theory-curve", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {"modells": ["ridge"]})
    assert main(["theory-curve", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_unknown_model_name_rejected():
    # The error names the key path alone; main adds the command.
    with pytest.raises(InvalidConfig, match=r"^models\[0\]: expected one of \['nuclear', "):
        cmd_theory_curve({"models": ["lasso"]})


def test_json_output_format(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "models": ["ridge"], "grid": {"lo": 1.0, "hi": 2.0, "count": 1},
    })
    out = str(tmp_path / "curve.json")
    assert main(["theory-curve", "--config", cfg, "--out", out,
                 "--format", "json"]) == 0
    payload = _read_json(out)
    assert payload["rows"][0]["p"] == "ridge"


# ---------------------------------------------------------------------------
# config errors and run keys
# ---------------------------------------------------------------------------

# (command, config, extra flags, what the error must name besides the command);
# a config given as a string is written as it stands, so it can repeat a key.
BAD_CONFIGS = [
    ("theory-curve", {"sigma": "abc"}, [], "sigma"),
    ("basin", {"sigmas": 1.0}, [], "sigmas"),
    ("basin", {"sigmas": [1, "x"]}, [], "sigmas[1]"),
    ("theory-curve", {"lambda": None}, [], "lambda"),
    ("simulate", {"n_obs": 20.7}, [], "n_obs"),
    ("simulate", {"n_obs": True}, [], "n_obs"),
    ("theory-curve", {"models": "ridge"}, [], "models"),
    ("simulate", {"seed": "x"}, [], "seed"),
    ("theory-curve", {"grid": {"count": 2.5}}, [], "grid: count"),
    ("theory-curve", {"grid": {"count": 0}}, [], "grid: count"),
    ("simulate", [1, 2], ["--seed", "3"], "JSON object"),
    ("theory-curve", {"format": "xml"}, [], "format"),
    # The output is named by --out and --format alone.
    ("theory-curve", {"out": "x.csv"}, [], "theory-curve: out: unknown key"),
    ("theory-curve", {"format": "json"}, [], "theory-curve: format: unknown key"),
    ("basin", {"models": ["nuclear"]}, [], "models"),
    # With no signal and no noise every curve is 0, Ridge's base included.
    ("basin", {"beta": 0, "sigmas": [1.0, 0]}, [], "sigmas"),
    # Sparse specs fail before any sampling.
    ("cv-bench", {"sparse": {"bogus": 1}}, [], "sparse: bogus"),
    ("cv-bench", {"sparse": {"n_large": -1}}, [], "sparse"),
    ("cv-bench", {"n_feat": 5, "sparse": {"n_large": 6}}, [], "sparse: n_large"),
    # Keys that the chosen ensemble does not read.
    ("cv-bench", {"beta": 100.0}, [], "beta"),
    ("cv-bench", {"ensemble": "spherical", "rho": 0.3}, [], "rho"),
    ("cv-bench", {"ensemble": "spherical", "gamma": 2.0}, [], "gamma"),
    ("cv-bench", {"ensemble": "diagonal", "n_test": 50}, [], "n_test"),
    ("simulate", {"ensemble": "diagonal", "gamma": 2.0, "n_test": 50}, [], "n_test"),
    ("simulate", {"gamma": 2.0}, [], "gamma"),
    ("theory-curve", {"gamma": 2.0}, [], "gamma"),
    # The diagonal theory has no default exponent.
    ("theory-curve", {"ensemble": "diagonal"}, [], "gamma: required by the diagonal ensemble"),
    ("simulate", {"ensemble": "diagonal"}, [], "gamma: required by the diagonal ensemble"),
    ("basin", {"gammas": [1.0]}, [], "gammas"),
    ("basin", {"lambda": 0.3}, [], "lambda"),
    ("basin", {"ensemble": "diagonal", "lambdas": [0.5]}, [], "lambdas"),
    # Counts are positive and seeds non-negative, checked before sampling.
    ("simulate", {"n_datasets": 0}, [], "n_datasets"),
    ("simulate", {}, ["--seed", "-1"], "seed"),
    ("theory-curve", {}, ["--seed", "-1"], "seed"),
    ("cv-bench", {"seed": -1}, [], "seed"),
    ("cv-bench", {"n_feat": 0}, [], "n_feat"),
    ("rff-bench", {"d_rbf": 0}, [], "d_rbf"),
    # Ranges are checked where the key is read, or by the config it builds.
    ("cv-bench", {"sigma": -1.0}, [], "sigma"),
    ("rff-bench", {"sigma": -1.0}, [], "sigma"),
    # A scale whose square overflows would make every error inf or nan.
    ("cv-bench", {"ensemble": "spherical", "beta": 1e200}, [],
     "cv-bench: beta must be small enough"),
    ("cv-bench", {"sparse": {"small_scale": 1e200}}, [],
     "cv-bench: sparse: small_scale must be small enough"),
    ("rff-bench", {"sigma": 1e200}, [], "rff-bench: sigma must be small enough"),
    # Its square is finite, but the test error's sum of squares overflowed: under
    # -W error this exited 1 in RowTestSet.mse.
    ("cv-bench", {"ensemble": "spherical", "beta": 1.3e154, "n_datasets": 3}, [],
     "cv-bench: beta must be small enough"),
    ("rff-bench", {"bandwidth": 0}, [], "bandwidth"),
    ("cv-bench", {"folds": 1}, [], "folds: "),
    ("rff-bench", {"folds": 1}, [], "folds: "),
    ("theory-curve", {"ensemble": "diagonal", "gamma": 0}, [], "gamma"),
    ("simulate", {"ensemble": "diagonal", "gamma": -2.0}, [], "gamma"),
    ("cv-bench", {"ensemble": "diagonal", "gamma": 0}, [], "gamma"),
    ("basin", {"ensemble": "diagonal", "gammas": [-1.0]}, [], "gammas[0]"),
    ("cv-bench", {"ensemble": "diagonal", "noise_kind": "point"}, [], "noise_kind: unknown key"),
    ("cv-bench", {"ensemble": "diagonal", "noise_half_width": 2.0}, [], "noise_half_width"),
    # The diagonal ensemble's Stiefel frames need d <= N.
    ("cv-bench", {"ensemble": "diagonal", "n_obs": 4}, [],
     "cv-bench: n_feat: the diagonal ensemble's Stiefel frames need n_feat <= n_obs, "
     "got n_feat 50 > n_obs 4"),
    # lambda is d/N: in (0, 1) for spherical, in (0, 1] for diagonal.
    ("basin", {"ensemble": "diagonal", "lambda": -1}, [], "basin: lambda: "),
    ("basin", {"ensemble": "diagonal", "lambda": 1.5}, [], "basin: lambda: "),
    ("basin", {"lambdas": [1.0]}, [], "basin: lambdas[0]: "),
    ("basin", {"lambdas": [0.5, 0.0]}, [], "basin: lambdas[1]: "),
    ("theory-curve", {"lambda": 1.0}, [], "theory-curve: lambda: "),
    ("theory-curve", {"ensemble": "diagonal", "gamma": 1.0, "lambda": 2}, [],
     "theory-curve: lambda: "),
    ("theory-curve", {"ensemble": "diagonal", "gamma": 1.0, "lambda": -0.5}, [],
     "theory-curve: lambda: "),
    ("simulate", {"lambda": 1.2}, [], "simulate: lambda: "),
    ("simulate", {"lambda": 0.001, "n_obs": 100}, [], "simulate: lambda: "),
    # The spherical theory is for d < N: d = round(lambda * n_obs) must stay below n_obs.
    ("simulate", {"lambda": 0.999, "n_obs": 100}, [], "simulate: lambda: "),
    ("simulate", {"lambda": 0.995, "n_obs": 100}, [], "simulate: lambda: "),
    ("simulate", {"ensemble": "diagonal", "gamma": 2.0, "lambda": 0.001, "n_obs": 100}, [],
     "simulate: lambda: "),
    ("simulate", {"ensemble": "diagonal", "gamma": 2.0, "lambda": 1.5, "n_obs": 20}, [],
     "simulate: lambda: "),
    ("real-data", {"target": "y", "train_size": 0}, ["table.csv"], "train_size"),
    ("real-data", {"target": "y", "n_splits": 0}, ["table.csv"], "n_splits"),
    # A list names each value once: a repeated model would share one report
    # entry, a repeated sigma or shape one basin row.
    ("cv-bench", {"models": ["ridge", "ridge"]}, [],
     "cv-bench: models: expected a non-empty list of distinct values, got ['ridge', 'ridge']"),
    ("cv-bench", {"models": ["nuclear", "ridge", "nuclear"]}, [], "cv-bench: models: "),
    ("rff-bench", {"models": ["ridge", "ridge"]}, [], "rff-bench: models: "),
    ("real-data", {"target": "y", "models": ["ridge", "ridge"]}, ["table.csv"],
     "real-data: models: "),
    ("simulate", {"models": ["spectral", "spectral"]}, [], "simulate: models: "),
    ("basin", {"sigmas": [1, 1.0]}, [], "basin: sigmas: "),
    ("basin", {"lambdas": [0.5, 0.5]}, [], "basin: lambdas: "),
    # Above gamma 1033 the power law's Gauss rule cannot be built: these
    # exited 1 with an OverflowError traceback, and 1e300 with "Eigenvalues did
    # not converge".
    *[("theory-curve", {"ensemble": "diagonal", "gamma": g}, [],
       "theory-curve: gamma must be at most 1033 ") for g in (1034, 2000, 1e6, 1e300)],
    ("simulate", {"ensemble": "diagonal", "gamma": 1e6}, [], "simulate: gamma must be "),
    ("basin", {"ensemble": "diagonal", "gammas": [2.0, 1034]}, [],
     "basin: gamma must be at most 1033 "),
    # beta^2 overflowed: theory-curve wrote nan and basin named its curve values.
    ("theory-curve", {"beta": 1e200}, [], "theory-curve: beta must be small enough "),
    ("basin", {"beta": 1e200}, [], "basin: beta must be small enough "),
    ("simulate", {"sigma": -1e200}, [], "simulate: sigma must be small enough "),
    # A negative scale was taken as its absolute value: theory-curve wrote a
    # curve labelled sigma -1, and basin two rows for one curve.
    ("theory-curve", {"sigma": -1}, [], "theory-curve: sigma must be finite and nonnegative"),
    ("theory-curve", {"beta": -5}, [], "theory-curve: beta must be finite and nonnegative"),
    ("basin", {"sigmas": [-1.0, 1.0]}, [], "basin: sigma must be finite and nonnegative"),
    ("basin", {"beta": -1}, [], "basin: beta must be finite and nonnegative"),
    ("simulate", {"sigma": -1}, [], "simulate: sigma must be finite and nonnegative"),
    # json.load kept a repeated key's last value, at any depth.
    ("theory-curve", '{"sigma": 1e400, "sigma": 1}', [], "theory-curve: sigma: repeated key"),
    ("theory-curve", '{"beta": -5, "beta": 1}', [], "theory-curve: beta: repeated key"),
    ("cv-bench", '{"grid": {"count": 3, "count": 4}}', [], "cv-bench: grid: count: repeated key"),
    ("basin", '{"sigmas": [1.0], "models": ["ridge"], "sigmas": [2.0]}', [],
     "basin: sigmas: repeated key"),
    # A repeated ensemble is named before the chosen ensemble's keys are checked.
    ("cv-bench", '{"gamma": 2, "ensemble": "diagonal", "ensemble": "spherical"}', [],
     "cv-bench: ensemble: repeated key"),
    # Every fold needs a row, checked before the first dataset is sampled.
    ("cv-bench", {"n_obs": 2}, [], "cv-bench: n_obs: 2 rows cannot fill 3 folds"),
    ("cv-bench", {"ensemble": "diagonal", "n_obs": 4, "n_feat": 2, "folds": 5}, [],
     "cv-bench: n_obs: 4 rows cannot fill 5 folds"),
    ("rff-bench", {"n_obs": 2}, [], "rff-bench: n_obs: 2 rows cannot fill 3 folds"),
    ("real-data", {"target": "y", "train_size": 2}, ["table.csv"],
     "real-data: train_size: 2 rows cannot fill 3 folds"),
]


@pytest.mark.parametrize("command, cfg, flags, named", BAD_CONFIGS,
                         ids=[f"{c} {json.dumps(cfg)}" for c, cfg, _, _ in BAD_CONFIGS])
def test_bad_config_exits_2_naming_command_and_key(tmp_path, capsys, monkeypatch,
                                                   command, cfg, flags, named):
    import schattenreg.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    for name in ("run_benchmark", "simulate_path_errors"):
        monkeypatch.setattr(cli, name, no_sampling)
    path = tmp_path / "c.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ")
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


def test_the_default_output_is_a_csv_named_after_the_command(tmp_path, monkeypatch):
    # --out and --format alone name the output; a config cannot.
    monkeypatch.chdir(tmp_path)
    path = _write_cfg(tmp_path, "c.json", {
        "models": ["ridge"], "grid": {"lo": 1.0, "hi": 2.0, "count": 1}})
    assert main(["theory-curve", "--config", path]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "theory_curve.csv"]
    assert (tmp_path / "theory_curve.csv").read_text().startswith("alpha,")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_se_sentinel_for_single_dataset(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "models": ["ridge"], "grid": {"lo": 1.0, "hi": 2.0, "count": 1},
        "n_obs": 20, "n_datasets": 1, "n_test": 50,
    })
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    assert rows[0]["se"] == ""
    assert float(rows[0]["empirical_mean"]) > 0.0
    assert float(rows[0]["theory"]) > 0.0


def test_simulate_seed_flag_changes_draws(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "models": ["ridge"], "grid": {"lo": 1.0, "hi": 2.0, "count": 1},
        "n_obs": 20, "n_datasets": 2, "n_test": 50,
    })
    outs = []
    for seed in (0, 1):
        out = str(tmp_path / f"sim{seed}.csv")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--seed", str(seed)]) == 0
        outs.append(_read_csv(out)[0]["empirical_mean"])
    assert outs[0] != outs[1]


@pytest.mark.parametrize("ensemble, lam, n_feat", [
    ("spherical", 0.99, 99),  # the largest d below N = 100
    ("diagonal", 1.0, 100),  # the diagonal theory covers d = N
])
def test_simulate_runs_at_the_largest_lambda_its_theory_covers(tmp_path, monkeypatch,
                                                               ensemble, lam, n_feat):
    import schattenreg.cli as cli

    drawn = []
    real = cli.simulate_path_errors

    def spy(ens_cfg, *args):
        drawn.append(ens_cfg.n_feat)
        return real(ens_cfg, *args)

    monkeypatch.setattr(cli, "simulate_path_errors", spy)
    cfg = _write_cfg(tmp_path, "c.json", {
        "ensemble": ensemble, "lambda": lam, "n_obs": 100, "n_datasets": 2,
        "models": ["ridge"], "grid": {"lo": 1.0, "hi": 2.0, "count": 1},
        **({"gamma": 1.0} if ensemble == "diagonal" else {"n_test": 50}),
    })
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert drawn == [n_feat]
    assert float(_read_csv(out)[0]["lambda"]) == lam


@pytest.mark.parametrize("ensemble", ["spherical", "diagonal"])
def test_simulate_theory_is_taken_at_the_sampled_aspect_ratio(tmp_path, ensemble):
    # lambda 0.335 and 0.34 both round to 34 features of 100 rows, so they
    # draw the same datasets; the theory column was once taken at each
    # configured lambda, 0.50149 against 0.51280 for spherical, and the
    # lambda column echoed 0.335 beside a theory at 0.34.
    cols = []
    for lam in (0.335, 0.34):
        cfg = _write_cfg(tmp_path, "c.json", {
            "ensemble": ensemble, "lambda": lam, "n_obs": 100, "n_datasets": 2,
            "models": ["ridge"], "grid": {"lo": 0.1, "hi": 10.0, "count": 3},
            **({"gamma": 1.0} if ensemble == "diagonal" else {"n_test": 50}),
        })
        out = str(tmp_path / f"sim{lam}.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        rows = _read_csv(out)
        cols.append(([r["empirical_mean"] for r in rows], [r["theory"] for r in rows]))
        assert {float(r["lambda"]) for r in rows} == {0.34}
    assert cols[0] == cols[1]
    want = error_integrals((SchattenIndex.FROBENIUS,),
                           MarchenkoPastur(0.34) if ensemble == "spherical" else PowerLaw(1.0),
                           AlphaGrid(0.1, 10.0, 3).values(), 0.34)[0].error(1.0, 1.0)
    assert [float(v) for v in cols[0][1]] == want.tolist()


def test_simulate_diagonal_without_gamma_fails_before_sampling(tmp_path, monkeypatch):
    import schattenreg.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cli, "simulate_path_errors", no_sampling)
    cfg = _write_cfg(tmp_path, "c.json", {"ensemble": "diagonal", "n_datasets": 2})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2


def test_rff_bench_spectral_only_runs(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {"models": ["spectral"], "n_datasets": 1,
                                          "d_rbf": 20, "n_obs": 30, "n_test": 50})
    out = tmp_path / "r.csv"
    assert main(["rff-bench", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((tmp_path / "r.csv.json").read_text())["report"]["models"] == ["spectral"]


# ---------------------------------------------------------------------------
# CSV ingestion and real-data
# ---------------------------------------------------------------------------

def _write_table(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_numeric_csv_ok(tmp_path):
    path = _write_table(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
    X, y = read_numeric_csv(path, "y")
    assert np.array_equal(X, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(y, [3.0, 6.0])


def test_read_numeric_csv_missing_target(tmp_path):
    path = _write_table(tmp_path, "a,b\n1,2\n")
    with pytest.raises(MissingTarget):
        read_numeric_csv(path, "y")


def test_read_numeric_csv_bad_value_has_location(tmp_path):
    path = _write_table(tmp_path, "a,y\n1,2\noops,4\n")
    with pytest.raises(ParseError, match=r":3:.*'oops'.*'a'"):
        read_numeric_csv(path, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_numeric_csv_non_finite_value_has_location(tmp_path, cell):
    path = _write_table(tmp_path, f"a,y\n1,2\n3,4\n5,{cell}\n")
    with pytest.raises(ParseError, match=rf":4:.*'{cell}'.*'y'"):
        read_numeric_csv(path, "y")


@pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "\uff11"])
def test_read_numeric_csv_rejects_what_only_python_reads_as_a_number(tmp_path, cell):
    # float() reads digit separators and non-ASCII digits: '1_000' was 1000,
    # Arabic-Indic 12 was 12.0 and a fullwidth 1 was 1.0.
    path = _write_table(tmp_path, f"a,y\n1,2\n{cell},4\n")
    with pytest.raises(ParseError, match=rf":3: non-numeric or non-finite value '{cell}' in "
                                         "column 'a'$"):
        read_numeric_csv(path, "y")


def test_read_numeric_csv_skips_blank_lines_keeping_line_numbers(tmp_path):
    # A blank line failed with "expected 2 fields, got 0", a blank last line too.
    path = _write_table(tmp_path, "a,y\n1,2\n\n3,4\n\n")
    X, y = read_numeric_csv(path, "y")
    assert np.array_equal(X, [[1.0], [3.0]]) and np.array_equal(y, [2.0, 4.0])
    path = _write_table(tmp_path, "a,y\n1,2\n\n3,oops\n")
    with pytest.raises(ParseError, match=":4: .*'oops'"):
        read_numeric_csv(path, "y")


@pytest.mark.parametrize("last, error", [("3,oops", ":4: .*'oops'"),
                                         ("3", ":4: expected 2 fields, got 1$")])
def test_read_numeric_csv_names_the_line_a_record_ends_on(tmp_path, last, error):
    # A record was numbered by its count, so past a quoted cell that spans two
    # lines an error on line 4 named line 3.
    path = _write_table(tmp_path, f'a,y\n"1\n",2\n{last}\n')
    with pytest.raises(ParseError, match=error):
        read_numeric_csv(path, "y")


def test_read_numeric_csv_with_only_blank_lines_has_no_data_rows(tmp_path):
    path = _write_table(tmp_path, "a,y\n\n\n")
    with pytest.raises(ParseError, match=f"^{re.escape(path)}: no data rows$"):
        read_numeric_csv(path, "y")


def test_read_numeric_csv_ragged_row(tmp_path):
    path = _write_table(tmp_path, "a,y\n1,2\n3\n")
    with pytest.raises(ParseError, match=":3:"):
        read_numeric_csv(path, "y")


@pytest.mark.parametrize("header, repeated", [("a,y,y", "y"), ("a,b,a,y", "a")])
def test_read_numeric_csv_repeated_column(tmp_path, header, repeated):
    path = _write_table(tmp_path, f"{header}\n{','.join('1' * len(header.split(',')))}\n")
    with pytest.raises(ParseError) as info:
        read_numeric_csv(path, "y")
    assert str(info.value).startswith(f"{path}: column '{repeated}' ")


def test_read_numeric_csv_byte_order_mark(tmp_path):
    # Spreadsheet programs save "CSV UTF-8" with a leading EF BB BF.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfy,x1,x2\n1,2,3\n4,5,6\n")
    X, y = read_numeric_csv(str(path), "y")
    assert np.array_equal(X, [[2.0, 3.0], [5.0, 6.0]])
    assert np.array_equal(y, [1.0, 4.0])


def test_read_numeric_csv_needs_a_feature_column(tmp_path):
    path = _write_table(tmp_path, "y\n1\n2\n")
    with pytest.raises(ParseError, match=f"^{re.escape(path)}: no feature column besides "
                                         "the target 'y'$"):
        read_numeric_csv(path, "y")


def test_real_data_with_only_the_target_column_exits_2(tmp_path, capsys):
    data = _write_table(tmp_path, "y\n" + "".join(f"{i}\n" for i in range(40)))
    cfg = _write_cfg(tmp_path, "c.json", {"target": "y", "train_size": 20})
    assert main(["real-data", data, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no feature column" in err
    assert "Traceback" not in err


def test_read_numeric_csv_empty(tmp_path):
    path = _write_table(tmp_path, "")
    with pytest.raises(ParseError):
        read_numeric_csv(path, "y")


def test_real_data_constant_target(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["x1,x2,y"]
    for _ in range(40):
        a, b = rng.standard_normal(2)
        lines.append(f"{a},{b},5.0")
    data = _write_table(tmp_path, "\n".join(lines) + "\n")
    cfg = _write_cfg(tmp_path, "c.json", {
        "target": "y", "train_size": 20, "n_splits": 3,
        "models": ["nuclear", "ridge"],
        "grid": {"lo": 1e-2, "hi": 1e2, "count": 3},
    })
    out = str(tmp_path / "rep.json")
    assert main(["real-data", data, "--config", cfg, "--out", out,
                 "--format", "json"]) == 0
    payload = _read_json(out)
    rep = payload["report"]
    assert rep["models"] == ["nuclear", "ridge"]
    # Centering on the train mean makes a constant target exactly learnable.
    for name in rep["models"]:
        assert rep["avg_error"][name] == pytest.approx(0.0, abs=1e-20)
    assert sum(rep["win_count"].values()) == 3


def _real_data_with_huge_column(tmp_path, column: int) -> int:
    """real-data's exit status on 40 rows of (x1, x2, y) whose `column` holds
    1e308, finite, in its first 30 rows, so its training mean overflows."""
    rng = np.random.default_rng(0)
    rows = np.column_stack([rng.standard_normal((40, 2)), np.ones(40)])
    rows[:30, column] = 1e308
    data = _write_table(tmp_path, "x1,x2,y\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    cfg = _write_cfg(tmp_path, "c.json", {"target": "y", "train_size": 20, "n_splits": 2})
    return main(["real-data", data, "--config", cfg, "--out", str(tmp_path / "r.csv")])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_real_data_target_whose_mean_overflows_exits_2(tmp_path, capsys):
    # Each value is finite, but the training mean overflows, so the centered
    # targets would not be; the split names y before it is factored.
    assert _real_data_with_huge_column(tmp_path, 2) == 2
    assert "error: real-data: y has a non-finite training mean" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_real_data_feature_whose_mean_overflows_exits_2(tmp_path, capsys):
    assert _real_data_with_huge_column(tmp_path, 1) == 2
    assert ("error: real-data: X column 1 has a non-finite training mean or standard "
            "deviation") in capsys.readouterr().err


def test_real_data_requires_target_key(tmp_path):
    data = _write_table(tmp_path, "a,y\n1,2\n3,4\n")
    cfg = _write_cfg(tmp_path, "c.json", {"train_size": 1, "n_splits": 1})
    assert main(["real-data", data, "--config", cfg,
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_real_data_train_size_too_large(tmp_path):
    data = _write_table(tmp_path, "a,y\n1,2\n3,4\n")
    cfg = _write_cfg(tmp_path, "c.json", {"target": "y", "train_size": 5})
    assert main(["real-data", data, "--config", cfg,
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_missing_file_exits_nonzero(tmp_path):
    assert main(["theory-curve", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("argv, message", [
    (["real-data", "--config", "c.json"], "real-data: the path of a CSV file is required"),
    (["basin", "table.csv"], "basin: takes no path, got 'table.csv'"),
    (["theory-curve", "--out", "x.csv", "table.csv"], "theory-curve: takes no path, got "),
    (["fit"], "argument command: invalid choice: 'fit'"),
], ids=["real-data-without-path", "basin-with-path", "path-after-options", "unknown-command"])
def test_only_real_data_takes_a_path(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_real_data_path_may_follow_the_options(tmp_path):
    data = _write_table(tmp_path, "a,b,y\n" + "".join(
        f"{i},{(i * 7) % 5},{i % 3}\n" for i in range(12)))
    cfg = _write_cfg(tmp_path, "c.json", {"target": "y", "train_size": 8, "n_splits": 2})
    outs = [str(tmp_path / f"r{k}.csv") for k in (1, 2)]
    assert main(["real-data", data, "--config", cfg, "--out", outs[0]]) == 0
    assert main(["real-data", "--config", cfg, "--out", outs[1], data]) == 0
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()


def test_cv_bench_samples_a_power_law_beyond_its_gauss_rule(tmp_path):
    # cv-bench only samples the diagonal ensemble's spectrum, so a gamma whose
    # Gauss rule theory-curve rejects still runs.
    cfg = _write_cfg(tmp_path, "c.json", {
        "ensemble": "diagonal", "gamma": 1e6, "n_obs": 20, "n_feat": 5, "n_datasets": 2,
        "models": ["ridge"], "grid": {"lo": 1e-2, "hi": 1e2, "count": 3}})
    out = str(tmp_path / "bench.csv")
    assert main(["cv-bench", "--config", cfg, "--out", out]) == 0
    assert np.isfinite(float(_read_csv(out)[0]["avg_error"]))


# ---------------------------------------------------------------------------
# benchmark commands through the CLI
# ---------------------------------------------------------------------------

_SMALL_GRID = {"grid": {"lo": 1e-2, "hi": 1e2, "count": 3}}
_SMALL_BENCH = {**_SMALL_GRID, "n_obs": 20, "n_datasets": 2, "n_test": 30}


def test_cv_bench_takes_a_beta_below_the_scale_bound_and_rejects_one_above(tmp_path, capsys):
    # The bound is about 3.1e144.  1.3e154 has a finite square, but its test
    # error's sum of squares overflowed.
    cfg = {**_SMALL_BENCH, "ensemble": "spherical", "n_feat": 5}
    below, above = tmp_path / "below.csv", tmp_path / "above.csv"
    path = _write_cfg(tmp_path, "below.json", {**cfg, "beta": 3e144})
    assert main(["cv-bench", "--config", path, "--out", str(below)]) == 0
    assert all(np.isfinite(float(row["avg_error"])) for row in _read_csv(below))
    path = _write_cfg(tmp_path, "above.json", {**cfg, "beta": 1.3e154})
    assert main(["cv-bench", "--config", path, "--out", str(above)]) == 2
    assert "error: cv-bench: beta must be small enough" in capsys.readouterr().err
    assert not above.exists()


_SUMMARY = "model,avg_error,win_count,win_prob,ridge_ratio"
HEADERS = [
    ("theory-curve", {}, "alpha,error,p,ensemble,lambda,beta,sigma,gamma"),
    ("simulate", {**_SMALL_GRID, "n_obs": 20, "n_datasets": 2, "n_test": 30},
     "alpha,estimator,empirical_mean,se,theory,ensemble,lambda,beta,sigma,gamma,n_obs,n_datasets"),
    ("basin", {"sigmas": [1.0], "lambdas": [0.5], "grid": {"lo": 1e-3, "hi": 1e5, "count": 60}},
     "estimator,sigma,shape_param,depth_pct,curvature_pct,edge_minimum,ensemble"),
    ("cv-bench", {**_SMALL_BENCH, "n_feat": 5}, _SUMMARY),
    ("rff-bench", {**_SMALL_BENCH, "d_rbf": 8}, _SUMMARY),
    ("real-data", {**_SMALL_GRID, "target": "y", "train_size": 8, "n_splits": 2}, _SUMMARY),
]


@pytest.mark.parametrize("command, cfg, columns", HEADERS, ids=[c for c, _, _ in HEADERS])
def test_csv_header_is_the_keys_of_the_json_rows(tmp_path, monkeypatch, command, cfg, columns):
    # The CSV's columns are its rows' keys, which the JSON output holds too: a
    # report's JSON holds the report that its summary rows are made from.
    monkeypatch.chdir(tmp_path)
    _write_table(tmp_path, "a,b,y\n" + "".join(f"{i},{(i * 7) % 5},{i % 3}\n" for i in range(12)))
    args = [command, *(["data.csv"] if command == "real-data" else []),
            "--config", _write_cfg(tmp_path, "c.json", cfg)]
    assert main([*args, "--out", "out.csv"]) == 0
    assert main([*args, "--out", "out.json", "--format", "json"]) == 0
    with open("out.csv", newline="") as fh:
        header, *lines = list(csv.reader(fh))
    payload = _read_json("out.json")
    if "rows" in payload:
        rows = payload["rows"]  # written with sorted keys
        assert all(sorted(row) == sorted(header) for row in rows)
    else:
        rows = report_summary_rows(BenchReport(**payload["report"]))
        assert all(list(row) == header for row in rows)
    assert header == columns.split(",")
    assert len(lines) == len(rows)

def test_cv_bench_writes_summary_and_matrix(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "ensemble": "equicorrelated", "n_obs": 20, "n_feat": 5, "sigma": 1.0,
        "models": ["nuclear", "ridge"], "n_datasets": 2, "n_test": 50,
        "grid": {"lo": 1e-2, "hi": 1e2, "count": 3},
    })
    out = str(tmp_path / "bench.csv")
    assert main(["cv-bench", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    assert [r["model"] for r in rows] == ["nuclear", "ridge"]
    payload = _read_json(out + ".json")
    assert np.array(payload["report"]["errors"]).shape == (2, 2)


def test_rff_bench_cli(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "d": 3, "d_rbf": 8, "n_obs": 20, "n_test": 30, "sigma": 0.5,
        "n_datasets": 2, "grid": {"lo": 1e-2, "hi": 1e2, "count": 3},
    })
    out = str(tmp_path / "rff.json")
    assert main(["rff-bench", "--config", cfg, "--out", out,
                 "--format", "json"]) == 0
    rep = _read_json(out)["report"]
    assert rep["models"] == ["nuclear", "ridge"]
    assert rep["ridge_ratio"]["ridge"] == pytest.approx(1.0)


def test_basin_cli(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "sigmas": [1.0], "lambdas": [0.5], "models": ["nuclear", "ridge"],
        "grid": {"lo": 1e-3, "hi": 1e5, "count": 200},
    })
    out = str(tmp_path / "basin.csv")
    assert main(["basin", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    by_est = {r["estimator"]: r for r in rows}
    assert set(by_est) == {"nuclear", "ridge"}
    # The base estimator reports zero by construction.
    assert float(by_est["ridge"]["depth_pct"]) == 0.0
    assert float(by_est["ridge"]["curvature_pct"]) == 0.0


def test_basin_rejects_unknown_grid_key(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "sigmas": [1.0], "lambdas": [0.5], "models": ["ridge"],
        "grid": {"lo": 1e-3, "hi": 1e5, "count": 50, "typo": 1},
    })
    assert main(["basin", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 2


def _count_rule_builds(monkeypatch, ensemble, measure_cls, run):
    """run() with measure_cls.rule counted per (shape, first alpha of the
    block, node count)."""
    calls = Counter()
    build = measure_cls.rule

    def counted(measure, alpha, n):
        shape = measure.lam if ensemble == "spherical" else measure.gamma
        calls[(shape, float(alpha[0, 0]), n)] += 1
        return build(measure, alpha, n)

    monkeypatch.setattr(measure_cls, "rule", counted)
    result = run()
    monkeypatch.undo()
    return calls, result


@pytest.mark.parametrize("ensemble, shapes, measure_cls", [
    ("spherical", {"lambdas": [0.3, 0.7]}, MarchenkoPastur),
    ("diagonal", {"gammas": [0.5, 2.0]}, PowerLaw),
], ids=["spherical", "diagonal"])
def test_basin_builds_each_rule_once_per_shape(monkeypatch, ensemble, shapes, measure_cls):
    count = 150  # several alpha blocks
    sigmas = [0.5, 1.0, 2.0]
    calls, rows = _count_rule_builds(monkeypatch, ensemble, measure_cls, lambda: cmd_basin(
        {"ensemble": ensemble, **shapes, "sigmas": sigmas,
         "grid": {"lo": 1e-3, "hi": 1e5, "count": count}}))
    # Once per (shape, block, n), whatever the number of estimators and sigmas.
    n_blocks = -(-count // theory._BLOCK)
    assert len(calls) == len(next(iter(shapes.values()))) * n_blocks * 2
    assert set(calls.values()) == {1}

    grid = AlphaGrid(1e-3, 1e5, count).values()
    curves = {}
    for p, name in MODEL_NAMES.items():
        for s in sigmas:
            for shape in next(iter(shapes.values())):
                lam, measure = ((shape, MarchenkoPastur(shape)) if ensemble == "spherical"
                                else (0.5, PowerLaw(shape)))
                (q,) = error_integrals((p,), measure, grid, lam)
                curves[(name, s, shape)] = q.error(1.0, s)
    cells = geometry_table(curves, grid)
    assert [(r["estimator"], r["sigma"], r["shape_param"]) for r in rows] == \
        [(c.estimator, c.sigma, c.shape_param) for c in cells]
    for r, c in zip(rows, cells):
        assert r["edge_minimum"] == c.edge_minimum
        np.testing.assert_allclose([r["depth_pct"], r["curvature_pct"]],
                                   [c.depth_pct, c.curvature_pct], rtol=1e-12)


@pytest.mark.parametrize("ensemble, shape, measure_cls", [
    ("spherical", {"lambda": 0.3}, MarchenkoPastur),
    ("diagonal", {"gamma": 2.0}, PowerLaw),
], ids=["spherical", "diagonal"])
def test_theory_curve_builds_each_rule_once(monkeypatch, ensemble, shape, measure_cls):
    count = 150  # several alpha blocks
    calls, rows = _count_rule_builds(monkeypatch, ensemble, measure_cls, lambda: cmd_theory_curve(
        {"ensemble": ensemble, **shape, "models": list(MODEL_NAMES.values()),
         "grid": {"lo": 1e-3, "hi": 1e5, "count": count}}))
    # Once per (block, n) for all three estimators.
    assert len(calls) == -(-count // theory._BLOCK) * 2
    assert set(calls.values()) == {1}
    assert [r["p"] for r in rows] == [name for name in MODEL_NAMES.values()
                                      for _ in range(count)]

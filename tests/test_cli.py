import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from schattenreg import error_integrals, geometry_table, theory
from schattenreg.cli import (
    cmd_basin,
    cmd_theory_curve,
    main,
    read_numeric_csv,
)
from schattenreg.cv import MODEL_NAMES, AlphaGrid
from schattenreg.exceptions import ConfigError, MissingTarget, ParseError


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
    with pytest.raises(ConfigError):
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

# (command, config, extra flags, what the error must name besides the command)
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
    ("basin", {"models": ["nuclear"]}, [], "models"),
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
    ("rff-bench", {"bandwidth": 0}, [], "bandwidth"),
    ("cv-bench", {"folds": 1}, [], "folds: "),
    ("rff-bench", {"folds": 1}, [], "folds: "),
    ("theory-curve", {"ensemble": "diagonal", "gamma": 0}, [], "gamma"),
    ("simulate", {"ensemble": "diagonal", "gamma": -2.0}, [], "gamma"),
    ("cv-bench", {"ensemble": "diagonal", "gamma": 0}, [], "gamma"),
    ("basin", {"ensemble": "diagonal", "gammas": [-1.0]}, [], "gammas[0]"),
    ("cv-bench", {"ensemble": "diagonal", "noise_kind": "bad"}, [], "noise_kind"),
    ("cv-bench", {"ensemble": "diagonal", "noise_half_width": 2.0}, [], "noise_half_width"),
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
    ("simulate", {"ensemble": "diagonal", "gamma": 2.0, "lambda": 0.001, "n_obs": 100}, [],
     "simulate: lambda: "),
    ("simulate", {"ensemble": "diagonal", "gamma": 2.0, "lambda": 1.5, "n_obs": 20}, [],
     "simulate: lambda: "),
    ("real-data", {"target": "y", "train_size": 0}, ["table.csv"], "train_size"),
    ("real-data", {"target": "y", "n_splits": 0}, ["table.csv"], "n_splits"),
]


@pytest.mark.parametrize("command, cfg, flags, named", BAD_CONFIGS,
                         ids=[f"{c} {json.dumps(cfg)}" for c, cfg, _, _ in BAD_CONFIGS])
def test_bad_config_exits_2_naming_command_and_key(tmp_path, capsys, monkeypatch,
                                                   command, cfg, flags, named):
    import schattenreg.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    for name in ("run_benchmark", "rff_benchmark", "simulate_path_errors"):
        monkeypatch.setattr(cli, name, no_sampling)
    path = _write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "x.csv"
    assert main([command, "--config", path, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ")
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, flags, written, fmt", [
    ({}, [], "theory_curve.csv", "csv"),
    ({"format": "json"}, [], "theory_curve.json", "json"),
    ({"format": "json"}, ["--format", "csv"], "theory_curve.csv", "csv"),
    ({"format": "csv"}, ["--format", "json"], "theory_curve.json", "json"),
    ({"format": "json", "out": "mine.out"}, [], "mine.out", "json"),
    ({"out": "mine.out"}, ["--out", "flag.out"], "flag.out", "csv"),
])
def test_format_and_out_precedence(tmp_path, monkeypatch, cfg, flags, written, fmt):
    # A flag wins over the config, the config over the csv default, and the
    # default file name follows the chosen format.
    monkeypatch.chdir(tmp_path)
    path = _write_cfg(tmp_path, "c.json", {
        "models": ["ridge"], "grid": {"lo": 1.0, "hi": 2.0, "count": 1}, **cfg})
    assert main(["theory-curve", "--config", path, *flags]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["c.json", written])
    text = (tmp_path / written).read_text()
    assert text.startswith('{\n  "rows"') == (fmt == "json")


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


def test_simulate_diagonal_without_gamma_fails_before_sampling(tmp_path, monkeypatch):
    import schattenreg.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cli, "simulate_path_errors", no_sampling)
    cfg = _write_cfg(tmp_path, "c.json", {"ensemble": "diagonal", "n_datasets": 2})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2


def test_rff_bench_spectral_only_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"models": ["spectral"], "n_datasets": 1})
    assert main(["rff-bench", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "spectral" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CSV ingestion and real-data
# ---------------------------------------------------------------------------

def _write_table(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_numeric_csv_ok(tmp_path):
    path = _write_table(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
    X, y, names = read_numeric_csv(path, "y")
    assert names == ["a", "b"]
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


def test_read_numeric_csv_ragged_row(tmp_path):
    path = _write_table(tmp_path, "a,y\n1,2\n3\n")
    with pytest.raises(ParseError, match=":3:"):
        read_numeric_csv(path, "y")


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


# ---------------------------------------------------------------------------
# benchmark commands through the CLI
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("ensemble, shapes, rule", [
    ("spherical", {"lambdas": [0.3, 0.7]}, "_mp_rule"),
    ("diagonal", {"gammas": [0.5, 2.0]}, "_density_rule"),
])
def test_basin_builds_each_rule_once_per_p_and_shape(monkeypatch, ensemble, shapes, rule):
    count = 150  # several alpha blocks
    sigmas = [0.5, 1.0, 2.0]
    calls = Counter()
    build = getattr(theory, rule)

    def counted(measure, alpha, n):
        shape = measure.lam if ensemble == "spherical" else measure.gamma
        calls[(shape, float(alpha[0, 0]), n)] += 1
        return build(measure, alpha, n)

    monkeypatch.setattr(theory, rule, counted)
    rows = cmd_basin({"ensemble": ensemble, **shapes, "sigmas": sigmas,
                      "grid": {"lo": 1e-3, "hi": 1e5, "count": count}})
    monkeypatch.undo()
    # Once per (p, shape, block, n), whatever the number of sigmas.
    n_blocks = -(-count // theory._BLOCK)
    assert len(calls) == len(next(iter(shapes.values()))) * n_blocks * 2
    assert set(calls.values()) == {len(MODEL_NAMES)}

    grid = AlphaGrid(1e-3, 1e5, count).values()
    curves = {}
    for p, name in MODEL_NAMES.items():
        for s in sigmas:
            for shape in next(iter(shapes.values())):
                lam, gamma = (shape, None) if ensemble == "spherical" else (0.5, shape)
                curves[(name, s, shape)] = error_integrals(p, ensemble, grid, lam,
                                                           gamma).error(1.0, s)
    cells = geometry_table(curves, grid)
    assert [(r["estimator"], r["sigma"], r["shape_param"]) for r in rows] == \
        [(c.estimator, c.sigma, c.shape_param) for c in cells]
    for r, c in zip(rows, cells):
        assert r["edge_minimum"] == c.edge_minimum
        np.testing.assert_allclose([r["depth_pct"], r["curvature_pct"]],
                                   [c.depth_pct, c.curvature_pct], rtol=1e-12)

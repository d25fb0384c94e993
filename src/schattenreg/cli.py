"""Command-line entry points, config parsing, CSV ingestion, result emission.

Subcommands: theory-curve, simulate, cv-bench, rff-bench, basin, real-data.
Each reads a JSON config file (--config), with --seed / --out / --format
overriding config values.  Unknown config keys are rejected.  Numeric output
uses 17 significant digits so files are bit-stable across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .basin import geometry_table
from .cv import (
    AlphaGrid,
    BenchReport,
    CVConfig,
    MODEL_NAMES,
    RFFBenchConfig,
    _bench_over_datasets,
    rff_benchmark,
    run_benchmark,
    simulate_path_errors,
)
from .ensembles import (
    Dataset,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    NoiseDensity,
    SparseSpec,
    SpectralDensity,
    SphericalGaussianConfig,
)
from .exceptions import ConfigError, MissingTarget, ParseError, SchattenRegError
from .spectrum import SchattenIndex
from .theory import theory_curve

FLOAT_FMT = "%.17g"

_NAME_TO_MODEL = {v: k for k, v in MODEL_NAMES.items()}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % v
    return str(v)


def write_rows(path: str, rows: list[dict], fieldnames: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in fieldnames])


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_keys(cfg: dict, allowed: set[str], command: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{command}: unknown config keys {sorted(unknown)}")


def _models(cfg: dict, default=("nuclear", "ridge", "spectral")) -> tuple[SchattenIndex, ...]:
    names = cfg.get("models", list(default))
    if not names:
        raise ConfigError("models list must be non-empty")
    try:
        return tuple(_NAME_TO_MODEL[n] for n in names)
    except KeyError as exc:
        raise ConfigError(f"unknown model name {exc.args[0]!r}") from None


def _alpha_grid(cfg: dict, lo=1e-4, hi=1e6, count=9) -> AlphaGrid:
    g = cfg.get("grid", {})
    _check_keys(g, {"lo", "hi", "count"}, "grid")
    count = int(g.get("count", count))
    if count < 1:
        raise ConfigError("alpha grid must contain at least one value")
    return AlphaGrid(lo=float(g.get("lo", lo)), hi=float(g.get("hi", hi)), count=count)


def _ensemble_config(cfg: dict):
    kind = cfg.get("ensemble", "equicorrelated")
    n_obs = int(cfg.get("n_obs", 100))
    n_feat = int(cfg.get("n_feat", 50))
    sigma = float(cfg.get("sigma", 1.0))
    beta = float(cfg.get("beta", 1.0))
    if kind == "spherical":
        return SphericalGaussianConfig(n_obs=n_obs, n_feat=n_feat, beta=beta, sigma=sigma)
    if kind == "diagonal":
        density = SpectralDensity.power_law(float(cfg.get("gamma", 2.0)))
        noise = NoiseDensity(
            kind=cfg.get("noise_kind", "point"),
            half_width=float(cfg.get("noise_half_width", 0.0)),
        )
        return DiagonalEnsembleConfig(
            n_obs=n_obs, n_feat=n_feat, spectral_density=density,
            noise_density=noise, beta=beta, sigma=sigma,
        )
    if kind == "equicorrelated":
        sparse = SparseSpec(**cfg["sparse"]) if cfg.get("sparse") else None
        return EquicorrelatedConfig(
            n_obs=n_obs, n_feat=n_feat, rho=float(cfg.get("rho", 0.0)),
            sigma=sigma, sparse=sparse,
        )
    raise ConfigError(f"unknown ensemble {kind!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

CURVE_FIELDS = ["alpha", "error", "p", "ensemble", "lambda", "beta", "sigma", "gamma"]


def cmd_theory_curve(cfg: dict) -> list[dict]:
    _check_keys(cfg, {"ensemble", "lambda", "beta", "sigma", "gamma", "models",
                      "grid", "seed", "out", "format"}, "theory-curve")
    ensemble = cfg.get("ensemble", "spherical")
    lam = float(cfg.get("lambda", 0.5))
    beta = float(cfg.get("beta", 1.0))
    sigma = float(cfg.get("sigma", 1.0))
    gamma = float(cfg["gamma"]) if "gamma" in cfg else None
    alphas = _alpha_grid(cfg, lo=1e-3, hi=1e5, count=100).values()
    rows = []
    for p in _models(cfg):
        curve = theory_curve(p, ensemble, alphas, lam, beta, sigma, gamma)
        for a, e in zip(curve.alphas, curve.errors):
            rows.append({
                "alpha": a, "error": e, "p": MODEL_NAMES[p], "ensemble": ensemble,
                "lambda": lam, "beta": beta, "sigma": sigma, "gamma": gamma,
            })
    return rows


SIM_FIELDS = ["alpha", "estimator", "empirical_mean", "se", "theory",
              "ensemble", "lambda", "beta", "sigma", "gamma", "n_obs", "n_datasets"]


def cmd_simulate(cfg: dict) -> list[dict]:
    _check_keys(cfg, {"ensemble", "lambda", "beta", "sigma", "gamma", "models",
                      "grid", "n_obs", "n_datasets", "n_test", "seed", "out",
                      "format"}, "simulate")
    ensemble = cfg.get("ensemble", "spherical")
    lam = float(cfg.get("lambda", 0.5))
    beta = float(cfg.get("beta", 1.0))
    sigma = float(cfg.get("sigma", 1.0))
    gamma = float(cfg["gamma"]) if "gamma" in cfg else None
    n_obs = int(cfg.get("n_obs", 100))
    n_datasets = int(cfg.get("n_datasets", 100))
    n_test = int(cfg.get("n_test", 5000))
    seed = int(cfg.get("seed", 0))
    models = _models(cfg)
    alphas = _alpha_grid(cfg, lo=1e-3, hi=1e5, count=30).values()
    n_feat = int(round(lam * n_obs))
    ens_cfg = _ensemble_config({
        "ensemble": ensemble, "n_obs": n_obs, "n_feat": n_feat,
        "beta": beta, "sigma": sigma,
        **({"gamma": gamma} if gamma is not None else {}),
    })

    # Build the theory curves first: a bad ensemble config fails before any sampling.
    curves = [theory_curve(p, ensemble, alphas, lam, beta, sigma, gamma) for p in models]
    mses = simulate_path_errors(ens_cfg, models, alphas, n_datasets, seed, n_test)

    rows = []
    for i, (p, curve) in enumerate(zip(models, curves)):
        for k, a in enumerate(alphas):
            se = (float(np.std(mses[i, k], ddof=1) / np.sqrt(n_datasets))
                  if n_datasets > 1 else None)
            rows.append({
                "alpha": a, "estimator": MODEL_NAMES[p],
                "empirical_mean": float(np.mean(mses[i, k])), "se": se,
                "theory": curve.errors[k], "ensemble": ensemble, "lambda": lam,
                "beta": beta, "sigma": sigma, "gamma": gamma,
                "n_obs": n_obs, "n_datasets": n_datasets,
            })
    return rows


SUMMARY_FIELDS = ["model", "avg_error", "win_count", "win_prob", "ridge_ratio"]


def report_summary_rows(report: BenchReport) -> list[dict]:
    rows = []
    for name in report.models:
        rows.append({
            "model": name,
            "avg_error": report.avg_error[name],
            "win_count": report.win_count[name],
            "win_prob": report.win_prob[name],
            "ridge_ratio": (report.ridge_ratio or {}).get(name),
        })
    return rows


def cmd_cv_bench(cfg: dict) -> BenchReport:
    _check_keys(cfg, {"ensemble", "n_obs", "n_feat", "rho", "sigma", "beta",
                      "gamma", "noise_kind", "noise_half_width", "sparse",
                      "models", "grid", "folds", "n_datasets", "n_test",
                      "seed", "out", "format"}, "cv-bench")
    ens_cfg = _ensemble_config(cfg)
    cv_cfg = CVConfig(
        folds=int(cfg.get("folds", 3)),
        grid=_alpha_grid(cfg),
        models=_models(cfg),
        n_datasets=int(cfg.get("n_datasets", 100)),
        seed=int(cfg.get("seed", 0)),
        n_test=int(cfg.get("n_test", 5000)),
    )
    return run_benchmark(ens_cfg, cv_cfg)


def cmd_rff_bench(cfg: dict) -> BenchReport:
    _check_keys(cfg, {"d", "d_rbf", "n_obs", "n_test", "sigma", "bandwidth",
                      "models", "grid", "folds", "n_datasets", "seed", "out",
                      "format"}, "rff-bench")
    rff_cfg = RFFBenchConfig(
        d=int(cfg.get("d", 10)),
        d_rbf=int(cfg.get("d_rbf", 100)),
        n_obs=int(cfg.get("n_obs", 100)),
        n_test=int(cfg.get("n_test", 1000)),
        sigma=float(cfg.get("sigma", 1.0)),
        bandwidth=float(cfg.get("bandwidth", 1.0)),
    )
    cv_cfg = CVConfig(
        folds=int(cfg.get("folds", 3)),
        grid=_alpha_grid(cfg),
        models=_models(cfg, default=("nuclear", "ridge")),
        n_datasets=int(cfg.get("n_datasets", 100)),
        seed=int(cfg.get("seed", 0)),
    )
    return rff_benchmark(rff_cfg, cv_cfg)


BASIN_FIELDS = ["estimator", "sigma", "shape_param", "depth_pct",
                "curvature_pct", "edge_minimum", "ensemble"]


def cmd_basin(cfg: dict) -> list[dict]:
    _check_keys(cfg, {"ensemble", "sigmas", "lambdas", "gammas", "lambda",
                      "beta", "models", "grid", "seed", "out", "format"},
                "basin")
    ensemble = cfg.get("ensemble", "spherical")
    beta = float(cfg.get("beta", 1.0))
    sigmas = [float(s) for s in cfg.get("sigmas", [0.5, 1.0, 2.0, 3.5])]
    if ensemble == "spherical":
        shapes = [float(v) for v in cfg.get("lambdas", [0.1, 0.5, 0.9])]
    else:
        shapes = [float(v) for v in cfg.get("gammas", [0.5, 1.0, 2.0])]
    lam_fixed = float(cfg.get("lambda", 0.5))
    grid = _alpha_grid(cfg, lo=1e-3, hi=1e5, count=500).values()
    names = [MODEL_NAMES[p] for p in _models(cfg)]
    curves = {}
    for name in names:
        p = _NAME_TO_MODEL[name]
        for s in sigmas:
            for shape in shapes:
                lam = shape if ensemble == "spherical" else lam_fixed
                gamma = None if ensemble == "spherical" else shape
                curves[(name, s, shape)] = theory_curve(p, ensemble, grid, lam, beta,
                                                        sigma=s, gamma=gamma).errors
    table = geometry_table(curves, ensemble, grid)
    return [{
        "estimator": c.estimator, "sigma": c.sigma, "shape_param": c.shape_param,
        "depth_pct": c.depth_pct, "curvature_pct": c.curvature_pct,
        "edge_minimum": c.edge_minimum, "ensemble": ensemble,
    } for c in table.cells]


def read_numeric_csv(path: str, target: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a headered, comma-separated, all-numeric CSV; returns
    (features, target vector, feature column names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if target not in header:
            raise MissingTarget(f"target column {target!r} not in header {header}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{i}: expected {len(header)} fields, got {len(row)}")
            bad = next((j for j, v in enumerate(row) if not _is_finite_float(v)), None)
            if bad is not None:
                raise ParseError(f"{path}:{i}: non-numeric or non-finite value "
                                 f"{row[bad]!r} in column {header[bad]!r}")
            rows.append([float(v) for v in row])
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.array(rows)
    t_idx = header.index(target)
    mask = np.ones(len(header), dtype=bool)
    mask[t_idx] = False
    return data[:, mask], data[:, t_idx], [h for h in header if h != target]


def _is_finite_float(v: str) -> bool:
    try:
        return math.isfinite(float(v))
    except ValueError:
        return False


def cmd_real_data(path: str, cfg: dict) -> BenchReport:
    """Repeated random train/test splits on a tabular dataset.

    Features are z-scored with statistics fit on the training split only, and
    train and test targets are centered on the training mean, which leaves
    every squared test error unchanged up to rounding; these choices are
    recorded in the output metadata.
    """
    _check_keys(cfg, {"target", "train_size", "n_splits", "models", "grid",
                      "folds", "seed", "out", "format"}, "real-data")
    if "target" not in cfg:
        raise ConfigError("real-data requires a 'target' column name")
    X_all, y_all, _ = read_numeric_csv(path, cfg["target"])
    n = X_all.shape[0]
    train_size = int(cfg.get("train_size", 300))
    if train_size >= n:
        raise ConfigError(f"train_size {train_size} must be below row count {n}")
    cv_cfg = CVConfig(
        folds=int(cfg.get("folds", 3)), grid=_alpha_grid(cfg), models=_models(cfg),
        n_datasets=int(cfg.get("n_splits", 200)), seed=int(cfg.get("seed", 0)),
    )

    def split(seed: int) -> Dataset:
        perm = np.random.default_rng(seed).permutation(n)
        tr, te = perm[:train_size], perm[train_size:]
        mu = X_all[tr].mean(axis=0)
        sd = X_all[tr].std(axis=0, ddof=0)
        sd[sd == 0] = 1.0
        y_mean = y_all[tr].mean()
        return Dataset(X_tr=(X_all[tr] - mu) / sd, Y_tr=y_all[tr] - y_mean,
                       X_te=(X_all[te] - mu) / sd, Y_te=y_all[te] - y_mean,
                       beta0=None, seed=seed)

    return _bench_over_datasets(split, cv_cfg, with_ratio=False)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _write_output(result, fields, out: str, fmt: str, meta: dict) -> None:
    if fields is not None:
        if fmt == "json":
            write_json(out, {"rows": result})
        else:
            write_rows(out, result, fields)
        return
    payload = {"report": result.to_dict(), "meta": meta}
    if fmt == "json":
        write_json(out, payload)
    else:
        write_rows(out, report_summary_rows(result), SUMMARY_FIELDS)
        write_json(out + ".json", payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="schattenreg",
        description="Bias-constrained linear estimators: theory curves, "
                    "simulations, and cross-validation benchmarks.",
    )
    # Subcommand -> (run, CSV fields of its rows); None marks a BenchReport.
    commands = {
        "theory-curve": (cmd_theory_curve, CURVE_FIELDS),
        "simulate": (cmd_simulate, SIM_FIELDS),
        "cv-bench": (cmd_cv_bench, None),
        "rff-bench": (cmd_rff_bench, None),
        "basin": (cmd_basin, BASIN_FIELDS),
        "real-data": (cmd_real_data, None),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        if name == "real-data":
            p.add_argument("path", help="CSV file with a header row")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = {}
        if args.config:
            with open(args.config) as fh:
                try:
                    cfg = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{args.config}: {exc}") from None
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = args.out or cfg.get("out") or f"{args.command.replace('-', '_')}.{args.format}"
        run, fields = commands[args.command]
        meta = {"config": cfg}
        if args.command == "real-data":
            result = run(args.path, cfg)
            meta["standardization"] = "features z-scored and target centered on train split"
        else:
            result = run(cfg)
        _write_output(result, fields, out, args.format, meta)
    except (SchattenRegError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points, config parsing, CSV ingestion, result emission.

Subcommands: theory-curve, simulate, cv-bench, rff-bench, basin, real-data.
Each reads one JSON object from --config against its table of keys; unknown
keys, and keys the chosen ensemble does not read, are rejected.  Counts are
positive JSON integers, the seed a non-negative one.  seed, out and format
may be set in the config; --seed, --out and --format win.  An error names the
command and the key ("simulate: n_obs: expected a positive integer, got
20.7") and exits 2, before any sampling.  Numeric output uses 17
significant digits so files are bit-stable across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .basin import DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_N, geometry_table
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
    DEFAULT_N_TEST,
    Dataset,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    NoiseDensity,
    RowTestSet,
    SparseSpec,
    SphericalGaussianConfig,
)
from .exceptions import (ConfigError, InvalidConfig, MissingTarget, ParseError,
                         SchattenRegError)
from .spectrum import SchattenIndex, gram_spectrum
from .theory import MarchenkoPastur, PowerLaw, error_integrals

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


# ---------------------------------------------------------------------------
# Config tables
# ---------------------------------------------------------------------------
# A table maps each key a command reads to (reader, default).  A reader takes
# the JSON value and its location, "<command>: <key>", and returns the parsed
# value or raises ConfigError at that location.

def _reader(kind, what: str, ok=lambda v: True, cast=lambda v, where: v):
    """Reader of a JSON value of Python type `kind`, never a bool, for which
    `ok` holds; returns cast(value, where)."""
    def read(value, where: str):
        if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
            raise ConfigError(f"{where}: expected {what}, got {value!r}")
        return cast(value, where)
    return read


def _one_of(choices, cast=lambda v, where: v):
    return _reader(str, f"one of {sorted(choices)}", choices.__contains__, cast)


def _list(item):
    # A repeated entry would name one output row or report entry twice.
    return _reader(list, "a non-empty list of distinct values",
                   lambda v: v and all(x not in v[:i] for i, x in enumerate(v)),
                   lambda v, where: tuple(item(x, f"{where}[{i}]") for i, x in enumerate(v)))


def _table(default, readers: dict):
    """Reader of a nested object: the dataclass `default` with the fields that
    the object names, each read by readers[field], replaced."""
    table = {k: (read, getattr(default, k)) for k, read in readers.items()}

    def cast(value, where: str):
        try:
            return dataclasses.replace(default, **_read_table(table, value, where))
        except InvalidConfig as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return _reader(dict, "a JSON object", cast=cast)


def _real(what: str, ok):
    return _reader((int, float), what, ok, lambda v, where: float(v))


_object = _reader(dict, "a JSON object")
_number = _real("a finite number", math.isfinite)
_positive = _real("a positive number", lambda v: math.isfinite(v) and v > 0)
_unit = _real("a number in [0, 1]", lambda v: 0 <= v <= 1)
_integer = _reader(int, "an integer")
_count = _reader(int, "a positive integer", lambda v: v > 0)
_folds = _reader(int, "an integer >= 2", lambda v: v >= 2)
# The aspect ratio d/N that the theory of each ensemble covers: the
# Marchenko-Pastur engine needs d < N, the Stiefel frames d <= N.
_spherical_lambda = _real("a number in (0, 1)", lambda v: 0 < v < 1)
_diagonal_lambda = _real("a number in (0, 1]", lambda v: 0 < v <= 1)
_seed = _reader(int, "a non-negative integer", lambda v: v >= 0)
_string = _reader(str, "a string")
_numbers = _list(_number)
_model_names = _list(_one_of(_NAME_TO_MODEL, lambda v, where: _NAME_TO_MODEL[v]))


def _read_table(table: dict, value, where: str) -> dict:
    unknown = sorted(set(_object(value, where)) - set(table))
    if unknown:
        raise ConfigError(f"{where}: {unknown[0]}: unknown key")
    return {key: reader(value[key], f"{where}: {key}") if key in value else default
            for key, (reader, default) in table.items()}


def parse(command: str, cfg, table: dict, ensembles: dict | None = None) -> dict:
    """Every key of `table`, read from `cfg` or set to its default.  `ensembles`
    maps each ensemble to the keys only it reads: all of them take defaults,
    but only the chosen ensemble's keys may be set, and they are read by that
    ensemble's readers."""
    if not ensembles:
        return _read_table(table, cfg, command)
    read, default = table["ensemble"]
    cfg = _object(cfg, command)
    chosen = read(cfg["ensemble"], f"{command}: ensemble") if "ensemble" in cfg else default
    others = {k: v for e, keys in ensembles.items() if e != chosen for k, v in keys.items()}
    stray = sorted(set(cfg) & set(others) - set(ensembles[chosen]))
    if stray:
        raise ConfigError(f"{command}: {stray[0]}: not read by the {chosen} ensemble")
    return _read_table({**others, **ensembles[chosen], **table}, cfg, command)


def _grid(default: AlphaGrid) -> tuple:
    return _table(default, {"lo": _number, "hi": _number, "count": _count}), default


RUN = {"seed": (_seed, 0), "out": (_string, None),
       "format": (_one_of({"csv", "json"}), None)}
MODELS = (_model_names, tuple(MODEL_NAMES))
BETA = {"beta": (_number, 1.0)}
THEORY = {**RUN, **BETA, "models": MODELS}
CURVE = {**THEORY, "sigma": (_number, 1.0)}
CV = {**RUN, "models": MODELS, "grid": _grid(AlphaGrid()), "folds": (_folds, 3)}
N_TEST = {"n_test": (_count, DEFAULT_N_TEST)}
N_DATASETS = {"n_datasets": (_count, 100)}
SPARSE = _table(SparseSpec(), {"n_large": _integer, "small_scale": _number})

# The theory of the diagonal ensemble has no default exponent.
THEORY_DIAGONAL = {"gamma": (_positive, None), "lambda": (_diagonal_lambda, 0.5)}
SPHERICAL_LAMBDA = {"lambda": (_spherical_lambda, 0.5)}
CURVE_ENSEMBLES = {"spherical": SPHERICAL_LAMBDA, "diagonal": THEORY_DIAGONAL}
THEORY_CURVE = {**CURVE, "ensemble": (_one_of(CURVE_ENSEMBLES), "spherical"),
                "grid": _grid(AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, 100))}

SIMULATE_ENSEMBLES = {"spherical": {**N_TEST, **SPHERICAL_LAMBDA}, "diagonal": THEORY_DIAGONAL}
SIMULATE = {**CURVE, **N_DATASETS, "ensemble": (_one_of(SIMULATE_ENSEMBLES), "spherical"),
            "grid": _grid(AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, 30)),
            "n_obs": (_count, 100)}

BASIN_ENSEMBLES = {
    "spherical": {"lambdas": (_list(_spherical_lambda), (0.1, 0.5, 0.9))},
    "diagonal": {"gammas": (_list(_positive), (0.5, 1.0, 2.0)),
                 "lambda": (_diagonal_lambda, 0.5)},
}
BASIN = {**THEORY, "ensemble": (_one_of(BASIN_ENSEMBLES), "spherical"),
         "grid": _grid(AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_N)),
         "sigmas": (_numbers, (0.5, 1.0, 2.0, 3.5))}

CV_BENCH_ENSEMBLES = {
    "spherical": {**N_TEST, **BETA},
    "diagonal": {**BETA, "gamma": (_positive, 2.0), "noise_half_width": (_unit, 0.0)},
    "equicorrelated": {**N_TEST, "rho": (_number, 0.0), "sparse": (SPARSE, None)},
}
CV_BENCH = {**CV, **N_DATASETS, "ensemble": (_one_of(CV_BENCH_ENSEMBLES), "equicorrelated"),
            "n_obs": (_count, 100), "n_feat": (_count, 50), "sigma": (_number, 1.0)}

RFF_BENCH = {**CV, **N_DATASETS,
             "models": (_model_names, (SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS)),
             "d": (_count, 10), "d_rbf": (_count, 100), "n_obs": (_count, 100),
             "n_test": (_count, 1000), "sigma": (_number, 1.0), "bandwidth": (_number, 1.0)}

REAL_DATA = {**CV, "target": (_string, None), "train_size": (_count, 300),
             "n_splits": (_count, 200)}

ENSEMBLE_CONFIGS = {"spherical": SphericalGaussianConfig, "diagonal": DiagonalEnsembleConfig,
                    "equicorrelated": EquicorrelatedConfig}


def _build(cls, o: dict, **given):
    """`cls` with each field taken from `given`, else from the option of its name."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in {**o, **given}.items() if k in names})


def _measure(command: str, o: dict):
    """The limiting spectral measure of o's ensemble: Marchenko-Pastur at
    aspect ratio o["lambda"] for spherical features, the power law of exponent
    o["gamma"], which has no default in the theory, for the diagonal ensemble."""
    if o["ensemble"] == "spherical":
        return MarchenkoPastur(o["lambda"])
    if o["gamma"] is None:
        raise ConfigError(f"{command}: gamma: required by the diagonal ensemble")
    return PowerLaw(o["gamma"])


def _cv_config(command: str, o: dict, rows: str, **given) -> CVConfig:
    """o's CVConfig, once the o[rows] training rows are known to fill its folds."""
    if o[rows] < o["folds"]:
        raise ConfigError(f"{command}: {rows}: {o[rows]} rows cannot fill {o['folds']} folds")
    return _build(CVConfig, o, **given)


def _ensemble_config(command: str, o: dict, **given):
    if o["ensemble"] == "diagonal":
        given["spectral_density"] = _measure(command, o)
    return _build(ENSEMBLE_CONFIGS[o["ensemble"]], o, **given)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

CURVE_FIELDS = ["alpha", "error", "p", "ensemble", "lambda", "beta", "sigma", "gamma"]


def cmd_theory_curve(cfg: dict) -> list[dict]:
    o = parse("theory-curve", cfg, THEORY_CURVE, CURVE_ENSEMBLES)
    alphas = o["grid"].values()
    rows = []
    for q in error_integrals(o["models"], _measure("theory-curve", o), alphas, o["lambda"]):
        for a, e in zip(alphas, q.error(o["beta"], o["sigma"])):
            # The columns after p echo the config.
            rows.append({"alpha": a, "error": e, "p": MODEL_NAMES[q.p],
                         **{key: o[key] for key in CURVE_FIELDS[3:]}})
    return rows


SIM_FIELDS = ["alpha", "estimator", "empirical_mean", "se", "theory",
              "ensemble", "lambda", "beta", "sigma", "gamma", "n_obs", "n_datasets"]


def cmd_simulate(cfg: dict) -> list[dict]:
    o = parse("simulate", cfg, SIMULATE, SIMULATE_ENSEMBLES)
    n_feat = round(o["lambda"] * o["n_obs"])
    if n_feat < 1:
        raise ConfigError(f"simulate: lambda: {o['lambda']:g} times n_obs {o['n_obs']} "
                          f"rounds to {n_feat} features, below 1")
    if o["ensemble"] == "spherical" and n_feat >= o["n_obs"]:
        # The Marchenko-Pastur theory column is for d < N (see _spherical_lambda).
        raise ConfigError(f"simulate: lambda: {o['lambda']:g} times n_obs {o['n_obs']} "
                          f"rounds to {n_feat} features, not below n_obs")
    models, n_datasets = o["models"], o["n_datasets"]
    alphas = o["grid"].values()
    # Build the theory curves first: a bad ensemble config fails before any sampling.
    curves = [q.error(o["beta"], o["sigma"]) for q in
              error_integrals(models, _measure("simulate", o), alphas, o["lambda"])]
    ens_cfg = _ensemble_config("simulate", o, n_feat=n_feat)
    mses = simulate_path_errors(ens_cfg, models, alphas, n_datasets, o["seed"])

    rows = []
    for i, (p, curve) in enumerate(zip(models, curves)):
        for k, a in enumerate(alphas):
            se = (float(np.std(mses[i, k], ddof=1) / np.sqrt(n_datasets))
                  if n_datasets > 1 else None)
            # The columns after theory echo the config.
            rows.append({
                "alpha": a, "estimator": MODEL_NAMES[p],
                "empirical_mean": float(np.mean(mses[i, k])), "se": se,
                "theory": curve[k], **{key: o[key] for key in SIM_FIELDS[5:]},
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
    o = parse("cv-bench", cfg, CV_BENCH, CV_BENCH_ENSEMBLES)
    noise = NoiseDensity(o["noise_half_width"])
    return run_benchmark(_ensemble_config("cv-bench", o, noise_density=noise),
                         _cv_config("cv-bench", o, "n_obs"))


def cmd_rff_bench(cfg: dict) -> BenchReport:
    o = parse("rff-bench", cfg, RFF_BENCH)
    return rff_benchmark(_build(RFFBenchConfig, o), _cv_config("rff-bench", o, "n_obs"))


BASIN_FIELDS = ["estimator", "sigma", "shape_param", "depth_pct",
                "curvature_pct", "edge_minimum", "ensemble"]


def cmd_basin(cfg: dict) -> list[dict]:
    o = parse("basin", cfg, BASIN, BASIN_ENSEMBLES)
    ensemble = o["ensemble"]
    if SchattenIndex.FROBENIUS not in o["models"]:
        raise ConfigError("basin: models: must include ridge, the base of every percentage")
    if o["beta"] == 0 and 0 in o["sigmas"]:
        raise ConfigError("basin: sigmas: 0 with beta 0 makes every curve 0, Ridge's too")
    grid = o["grid"].values()
    key, shapes = (("lambda", o["lambdas"]) if ensemble == "spherical"
                   else ("gamma", o["gammas"]))
    # One pass per shape: each Gauss rule (measure, alpha block, node count) is
    # built once and serves every estimator, and the integrals every sigma.
    integrals = {}
    for shape in shapes:
        at = {**o, key: shape}
        integrals[shape] = error_integrals(o["models"], _measure("basin", at), grid,
                                           at["lambda"])
    curves = {(MODEL_NAMES[p], s, shape): integrals[shape][m].error(o["beta"], s)
              for m, p in enumerate(o["models"]) for s in o["sigmas"] for shape in shapes}
    return [{
        "estimator": c.estimator, "sigma": c.sigma, "shape_param": c.shape_param,
        "depth_pct": c.depth_pct, "curvature_pct": c.curvature_pct,
        "edge_minimum": c.edge_minimum, "ensemble": ensemble,
    } for c in geometry_table(curves, grid)]


def read_numeric_csv(path: str, target: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a headered, comma-separated, all-numeric CSV; returns
    (features, target vector, feature column names)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a byte-order mark is dropped
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if repeated is not None:
            raise ParseError(f"{path}: column {repeated!r} appears more than once in the header")
        if target not in header:
            raise MissingTarget(f"target column {target!r} not in header {header}")
        if len(header) == 1:
            raise ParseError(f"{path}: no feature column besides the target {target!r}")
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
    o = parse("real-data", cfg, REAL_DATA)
    if o["target"] is None:
        raise ConfigError("real-data: target: required, the name of the target column")
    cv_cfg = _cv_config("real-data", o, "train_size", n_datasets=o["n_splits"])
    X_all, y_all, _ = read_numeric_csv(path, o["target"])
    n = X_all.shape[0]
    train_size = o["train_size"]
    if train_size >= n:
        raise ConfigError(f"real-data: train_size: {train_size} must be below row count {n}")

    def split(seed: int) -> Dataset:
        perm = np.random.default_rng(seed).permutation(n)
        tr, te = perm[:train_size], perm[train_size:]
        X_tr, y_tr = X_all[tr], y_all[tr]
        mu = X_tr.mean(axis=0)
        sd = X_tr.std(axis=0, ddof=0)
        sd[sd == 0] = 1.0
        X_tr -= mu
        X_tr /= sd
        y_mean = y_tr.mean()
        y_tr -= y_mean
        spectrum = gram_spectrum(X_tr)  # before the test rows are copied
        X_te = X_all[te]
        X_te -= mu
        X_te /= sd
        return Dataset(X_tr=X_tr, Y_tr=y_tr, test=RowTestSet(X_te, y_all[te] - y_mean),
                       beta0=None, spectrum=spectrum)

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


@lru_cache(maxsize=1)
def _parser(commands: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of the subcommands `commands`, built once per process:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="schattenreg",
        description="Bias-constrained linear estimators: theory curves, "
                    "simulations, and cross-validation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        if name == "real-data":
            p.add_argument("path", help="CSV file with a header row")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=["csv", "json"], default=None,
                       help="output format (default: the config's, else csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Subcommand -> (run, CSV fields of its rows); None marks a BenchReport.
    # Built per call, so that a replaced cmd_* function is the one that runs.
    commands = {
        "theory-curve": (cmd_theory_curve, CURVE_FIELDS),
        "simulate": (cmd_simulate, SIM_FIELDS),
        "cv-bench": (cmd_cv_bench, None),
        "rff-bench": (cmd_rff_bench, None),
        "basin": (cmd_basin, BASIN_FIELDS),
        "real-data": (cmd_real_data, None),
    }
    args = _parser(tuple(commands)).parse_args(argv)
    command = args.command

    try:
        cfg = {}
        if args.config:
            with open(args.config) as fh:
                try:
                    cfg = _object(json.load(fh), command)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{command}: {args.config}: {exc}") from None
        if args.seed is not None:
            cfg["seed"] = args.seed
        run, fields = commands[command]
        meta = {"config": cfg}
        if command == "real-data":
            result = run(args.path, cfg)
            meta["standardization"] = "features z-scored and target centered on train split"
        else:
            result = run(cfg)
        # The command has checked the config's out and format.
        fmt = args.format or cfg.get("format") or "csv"
        out = args.out or cfg.get("out") or f"{command.replace('-', '_')}.{fmt}"
        _write_output(result, fields, out, fmt, meta)
    except (SchattenRegError, OSError, ValueError) as exc:
        where = "" if isinstance(exc, ConfigError) else f"{command}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

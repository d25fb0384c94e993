"""Command-line entry points, config parsing, CSV ingestion, result emission.

Commands: theory-curve, simulate, cv-bench, rff-bench, basin, real-data;
real-data alone takes a path, the CSV file to read.  Each reads one JSON
object from --config against its table of keys; unknown keys, and keys the
chosen ensemble does not read, are rejected.  Counts are positive JSON
integers, the seed a non-negative one, and a key appears once.  The seed
may be set in the config, and --seed wins; the output is named by --out and
--format alone.  An error names the key ("n_obs: expected a positive
integer, got 20.7"), main adds the command ("error: simulate: n_obs: ..."),
and the run exits 2, before any sampling.  A CSV's header is its rows'
keys.  Numeric output uses 17 significant digits so files are bit-stable
across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .basin import DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_N, geometry_table
from .cv import (
    AlphaGrid,
    BenchReport,
    CVConfig,
    MODEL_NAMES,
    run_benchmark,
    simulate_path_errors,
)
from .ensembles import (
    DEFAULT_N_TEST,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    RealDataConfig,
    SparseSpec,
    SphericalGaussianConfig,
)
from .exceptions import InvalidConfig, MissingTarget, ParseError, SchattenRegError
from .rff import RFFBenchConfig
from .spectrum import SchattenIndex
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


def write_rows(path: str, rows: list[dict]) -> None:
    """rows under a header of the first row's keys, which every row has."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in rows[0]])


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Config tables
# ---------------------------------------------------------------------------
# A table maps each key a command reads to (reader, default).  A reader takes
# the JSON value and its location, the key path ("grid: count", "sigmas[1]"),
# and returns the parsed value or raises InvalidConfig at that location; main
# names the command.

def _at(where: str, what: str) -> str:
    return f"{where}: {what}" if where else what


def _reader(kind, what: str, ok=lambda v: True, cast=lambda v, where: v):
    """Reader of a JSON value of Python type `kind`, never a bool, for which
    `ok` holds; returns cast(value, where)."""
    def read(value, where: str):
        if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
            raise InvalidConfig(_at(where, f"expected {what}, got {value!r}"))
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
        fields = _read_table(table, value, where)  # its errors carry their key path
        try:
            return dataclasses.replace(default, **fields)
        except InvalidConfig as exc:
            raise InvalidConfig(f"{where}: {exc}") from None
    return _reader(dict, "a JSON object", cast=cast)


def _real(what: str, ok):
    return _reader((int, float), what, ok, lambda v, where: float(v))


class _JSONObject(dict):
    """A JSON object from json.load, with the first key it repeats (json.load
    keeps the last value), which _object rejects at the object's key path."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        keys = [k for k, _ in pairs]
        self.repeated = next((k for i, k in enumerate(keys) if k in keys[:i]), None)


def _distinct(value: dict, where: str) -> dict:
    repeated = getattr(value, "repeated", None)
    if repeated is not None:
        raise InvalidConfig(_at(where, f"{repeated}: repeated key"))
    return value


_object = _reader(dict, "a JSON object", cast=_distinct)
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
        raise InvalidConfig(_at(where, f"{unknown[0]}: unknown key"))
    return {key: reader(value[key], _at(where, key)) if key in value else default
            for key, (reader, default) in table.items()}


def parse(cfg, table: dict, ensembles: dict | None = None) -> dict:
    """Every key of `table`, read from `cfg` or set to its default.  `ensembles`
    maps each ensemble to the keys only it reads: all of them take defaults,
    but only the chosen ensemble's keys may be set, and they are read by that
    ensemble's readers."""
    if not ensembles:
        return _read_table(table, cfg, "")
    read, default = table["ensemble"]
    cfg = _object(cfg, "")
    chosen = read(cfg["ensemble"], "ensemble") if "ensemble" in cfg else default
    others = {k: v for e, keys in ensembles.items() if e != chosen for k, v in keys.items()}
    stray = sorted(set(cfg) & set(others) - set(ensembles[chosen]))
    if stray:
        raise InvalidConfig(f"{stray[0]}: not read by the {chosen} ensemble")
    return _read_table({**others, **ensembles[chosen], **table}, cfg, "")


def _grid(default: AlphaGrid) -> tuple:
    return _table(default, {"lo": _number, "hi": _number, "count": _count}), default


RUN = {"seed": (_seed, 0)}
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


def _measure(o: dict):
    """The limiting spectral measure of o's ensemble: Marchenko-Pastur at
    aspect ratio o["lambda"] for spherical features, the power law of exponent
    o["gamma"], which has no default in the theory, for the diagonal ensemble."""
    if o["ensemble"] == "spherical":
        return MarchenkoPastur(o["lambda"])
    if o["gamma"] is None:
        raise InvalidConfig("gamma: required by the diagonal ensemble")
    return PowerLaw(o["gamma"])


def _cv_config(o: dict, rows: str, **given) -> CVConfig:
    """o's CVConfig, once the o[rows] training rows are known to fill its folds."""
    if o[rows] < o["folds"]:
        raise InvalidConfig(f"{rows}: {o[rows]} rows cannot fill {o['folds']} folds")
    return _build(CVConfig, o, **given)


def _ensemble_config(o: dict, **given):
    if o["ensemble"] == "diagonal":
        given["spectral_density"] = _measure(o)
    return _build(ENSEMBLE_CONFIGS[o["ensemble"]], o, **given)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# The config keys that theory-curve's and simulate's rows end with.
ECHO = ("ensemble", "lambda", "beta", "sigma", "gamma")


def cmd_theory_curve(cfg: dict) -> list[dict]:
    o = parse(cfg, THEORY_CURVE, CURVE_ENSEMBLES)
    alphas = o["grid"].values()
    rows = []
    for q in error_integrals(o["models"], _measure(o), alphas, o["lambda"]):
        for a, e in zip(alphas, q.error(o["beta"], o["sigma"])):
            rows.append({"alpha": a, "error": e, "p": MODEL_NAMES[q.p],
                         **{key: o[key] for key in ECHO}})
    return rows


def cmd_simulate(cfg: dict) -> list[dict]:
    o = parse(cfg, SIMULATE, SIMULATE_ENSEMBLES)
    n_feat = round(o["lambda"] * o["n_obs"])
    if n_feat < 1:
        raise InvalidConfig(f"lambda: {o['lambda']:g} times n_obs {o['n_obs']} "
                          f"rounds to {n_feat} features, below 1")
    if o["ensemble"] == "spherical" and n_feat >= o["n_obs"]:
        # The Marchenko-Pastur theory column is for d < N (see _spherical_lambda).
        raise InvalidConfig(f"lambda: {o['lambda']:g} times n_obs {o['n_obs']} "
                          f"rounds to {n_feat} features, not below n_obs")
    models, n_datasets = o["models"], o["n_datasets"]
    alphas = o["grid"].values()
    # Build the theory curves first: a bad ensemble config fails before any
    # sampling.  They are taken at the sampled aspect ratio d/N, not at the
    # lambda it was rounded from.
    at = {**o, "lambda": n_feat / o["n_obs"]}
    curves = [q.error(o["beta"], o["sigma"]) for q in
              error_integrals(models, _measure(at), alphas, at["lambda"])]
    ens_cfg = _ensemble_config(o, n_feat=n_feat)
    mses = simulate_path_errors(ens_cfg, models, alphas, n_datasets, o["seed"])

    rows = []
    for i, (p, curve) in enumerate(zip(models, curves)):
        for k, a in enumerate(alphas):
            se = (float(np.std(mses[i, k], ddof=1) / np.sqrt(n_datasets))
                  if n_datasets > 1 else None)
            # The columns after theory echo the config, with lambda the
            # sampled ratio that both the theory and the datasets are at.
            rows.append({
                "alpha": a, "estimator": MODEL_NAMES[p],
                "empirical_mean": float(np.mean(mses[i, k])), "se": se,
                "theory": curve[k], **{key: at[key] for key in (*ECHO, "n_obs", "n_datasets")},
            })
    return rows


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
    o = parse(cfg, CV_BENCH, CV_BENCH_ENSEMBLES)
    return run_benchmark(_ensemble_config(o), _cv_config(o, "n_obs"))


def cmd_rff_bench(cfg: dict) -> BenchReport:
    o = parse(cfg, RFF_BENCH)
    return run_benchmark(_build(RFFBenchConfig, o), _cv_config(o, "n_obs"))


def cmd_basin(cfg: dict) -> list[dict]:
    o = parse(cfg, BASIN, BASIN_ENSEMBLES)
    ensemble = o["ensemble"]
    if SchattenIndex.FROBENIUS not in o["models"]:
        raise InvalidConfig("models: must include ridge, the base of every percentage")
    if o["beta"] == 0 and 0 in o["sigmas"]:
        raise InvalidConfig("sigmas: 0 with beta 0 makes every curve 0, Ridge's too")
    grid = o["grid"].values()
    key, shapes = (("lambda", o["lambdas"]) if ensemble == "spherical"
                   else ("gamma", o["gammas"]))
    # One pass per shape: each Gauss rule (measure, alpha block, node count) is
    # built once and serves every estimator, and the integrals every sigma.
    integrals = {}
    for shape in shapes:
        at = {**o, key: shape}
        integrals[shape] = error_integrals(o["models"], _measure(at), grid, at["lambda"])
    curves = {(MODEL_NAMES[p], s, shape): integrals[shape][m].error(o["beta"], s)
              for m, p in enumerate(o["models"]) for s in o["sigmas"] for shape in shapes}
    return [{**dataclasses.asdict(c), "ensemble": ensemble}
            for c in geometry_table(curves, grid)]


def read_numeric_csv(path: str, target: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a headered, comma-separated, all-numeric CSV, skipping blank
    lines; returns (features, target vector).  An error in a record names the
    file line the record ends on, past any quoted cell that spans lines."""
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
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{reader.line_num}: expected {len(header)} fields, "
                                 f"got {len(row)}")
            bad = next((j for j, v in enumerate(row) if not _is_finite_float(v)), None)
            if bad is not None:
                raise ParseError(f"{path}:{reader.line_num}: non-numeric or non-finite value "
                                 f"{row[bad]!r} in column {header[bad]!r}")
            rows.append([float(v) for v in row])
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.array(rows)
    t_idx = header.index(target)
    mask = np.ones(len(header), dtype=bool)
    mask[t_idx] = False
    return data[:, mask], data[:, t_idx]


def _is_finite_float(v: str) -> bool:
    # float() also reads digit separators and non-ASCII digits: '1_000', '١٢'.
    try:
        return v.isascii() and "_" not in v and math.isfinite(float(v))
    except ValueError:
        return False


def cmd_real_data(path: str, cfg: dict) -> BenchReport:
    """Repeated random train/test splits of a tabular dataset, each drawn by
    sample_real_data, whose standardization the output metadata records."""
    o = parse(cfg, REAL_DATA)
    if o["target"] is None:
        raise InvalidConfig("target: required, the name of the target column")
    cv_cfg = _cv_config(o, "train_size", n_datasets=o["n_splits"])
    X_all, y_all = read_numeric_csv(path, o["target"])
    n, train_size = X_all.shape[0], o["train_size"]
    if train_size >= n:
        raise InvalidConfig(f"train_size: {train_size} must be below row count {n}")
    return run_benchmark(RealDataConfig(X_all, y_all, train_size), cv_cfg)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _write_output(result, out: str, fmt: str, meta: dict) -> None:
    if isinstance(result, list):
        if fmt == "json":
            write_json(out, {"rows": result})
        else:
            write_rows(out, result)
        return
    payload = {"report": result.to_dict(), "meta": meta}
    if fmt == "json":
        write_json(out, payload)
    else:
        write_rows(out, report_summary_rows(result))
        write_json(out + ".json", payload)


def _parser(commands: tuple[str, ...]) -> argparse.ArgumentParser:
    """One parser for every command in `commands`: the command, the CSV path
    that real-data alone takes, and the four options."""
    parser = argparse.ArgumentParser(
        prog="schattenreg",
        description="Bias-constrained linear estimators: theory curves, "
                    "simulations, and cross-validation benchmarks.",
    )
    parser.add_argument("command", choices=commands)
    parser.add_argument("path", nargs="?", help="real-data: CSV file with a header row")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format (default: csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Command -> run, which returns rows or a BenchReport.  Built per call, so
    # that a replaced cmd_* function is the one that runs.
    commands = {"theory-curve": cmd_theory_curve, "simulate": cmd_simulate,
                "cv-bench": cmd_cv_bench, "rff-bench": cmd_rff_bench,
                "basin": cmd_basin, "real-data": cmd_real_data}
    parser = _parser(tuple(commands))
    # Intermixed, so that the path may also follow the options.
    args = parser.parse_intermixed_args(argv)
    command = args.command
    if command == "real-data" and args.path is None:
        parser.error("real-data: the path of a CSV file is required")
    if command != "real-data" and args.path is not None:
        parser.error(f"{command}: takes no path, got {args.path!r}")

    try:
        cfg = {}
        if args.config:
            with open(args.config) as fh:
                try:
                    cfg = _object(json.load(fh, object_pairs_hook=_JSONObject), "")
                except json.JSONDecodeError as exc:
                    raise InvalidConfig(f"{args.config}: {exc}") from None
        if args.seed is not None:
            cfg["seed"] = args.seed
        run = commands[command]
        meta = {"config": cfg}
        if command == "real-data":
            result = run(args.path, cfg)
            meta["standardization"] = "features z-scored and target centered on train split"
        else:
            result = run(cfg)
        out = args.out or f"{command.replace('-', '_')}.{args.format}"
        _write_output(result, out, args.format, meta)
    except (SchattenRegError, OSError, ValueError) as exc:
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

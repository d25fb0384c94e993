"""Per-unit checks of a workload's output files against the reference.

The reference outputs under ``reference/`` were written by the seed commit
of this benchmark for every seed in ``REFERENCE_SEEDS`` (``basin`` has no
random input, so one reference serves every seed).  A unit is one basin cell,
one ``simulate`` output row (the CLI writes no per-dataset values for
``simulate``; each row averages the replicate datasets), or one replicate
dataset of a CV report.  A unit fails when its values fall outside the
tolerances below.

Tolerances, as |got - want| <= atol + rtol |want|:

- ``basin`` ``depth_pct``: atol 1e-6 percentage points.  ``curvature_pct``:
  atol 1e-4 percentage points.  The curvature comes from a quadratic fit at a
  near-flat minimum, which amplifies a relative error in the curve by about
  3e4 (a 1e-11 relative perturbation of every curve value, the quadrature
  tolerance, moves it by up to 8e-7 points and moved no grid argmin), so
  the bound leaves two orders of magnitude for a different quadrature rule.
- every other float: rtol 1e-9, except selected alphas (rtol 1e-12, as they
  are grid values); counts, names and flags must match exactly.

For a seed outside ``REFERENCE_SEEDS`` the seed-dependent values have no
reference.  They are then checked for consistency instead: finite positive
errors, selected alphas on the grid, and summaries that agree with the
per-dataset values.  ``simulate``'s ``theory`` column does not depend on the
seed and is always compared with the default seed's reference.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import DEFAULT_SEED, Workload

SIM_SEEDED = ("empirical_mean", "se")
CV_GRID = (1e-4, 1e6, 9)  # the CLI's default alpha grid for cv-bench and rff-bench


class Comparison:
    """Tolerance checks that also track the largest relative deviation."""

    def __init__(self):
        self.max_rel_dev = 0.0

    def close(self, got, want, rtol: float = 1e-9, atol: float = 0.0) -> bool:
        got, want = float(got), float(want)
        if not (math.isfinite(got) and math.isfinite(want)):
            return got == want
        dev = abs(got - want)
        self.max_rel_dev = max(self.max_rel_dev, dev / abs(want) if want else dev)
        return dev <= atol + rtol * abs(want)

    def all_close(self, pairs, **tol) -> bool:
        return all([self.close(g, w, **tol) for g, w in pairs])


class Verdict:
    def __init__(self):
        self.units = 0
        self.failed = 0
        self.problems: list[str] = []

    def unit(self, ok: bool, what: str) -> None:
        self.units += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check(workload: Workload, seed: int, files: dict[str, str],
          references: dict[str, dict[str, str]]) -> tuple[Verdict, float]:
    """(verdict, max relative deviation) for one run's output files."""
    ref_seed = seed if workload.seeded else DEFAULT_SEED
    ref = references.get(str(ref_seed))
    default_ref = references[str(DEFAULT_SEED)]
    cmp, verdict = Comparison(), Verdict()
    if workload.kind == "basin":
        _check_basin(files, ref, cmp, verdict)
    elif workload.kind == "simulate":
        _check_simulate(files, ref, default_ref, cmp, verdict)
    else:
        _check_report(workload, seed, files, ref, cmp, verdict)
    return verdict, cmp.max_rel_dev


def _check_basin(files, ref, cmp, verdict):
    for name, text in ref.items():
        got = {(r["estimator"], r["sigma"], r["shape_param"], r["ensemble"]): r
               for r in _rows(files[name])}
        for w in _rows(text):
            key = (w["estimator"], w["sigma"], w["shape_param"], w["ensemble"])
            g = got.get(key)
            ok = g is not None and all([
                g["edge_minimum"] == w["edge_minimum"],
                cmp.close(g["depth_pct"], w["depth_pct"], rtol=0.0, atol=1e-6),
                cmp.close(g["curvature_pct"], w["curvature_pct"], rtol=0.0, atol=1e-4),
            ])
            verdict.unit(ok, f"{name} cell {key}")


def _check_simulate(files, ref, default_ref, cmp, verdict):
    (name,) = default_ref
    got = _rows(files[name])
    want_rows = _rows((ref or default_ref)[name])
    if len(got) != len(want_rows):
        verdict.problems.append(f"{name}: {len(got)} rows, reference has {len(want_rows)}")
        got = [None] * len(want_rows)
    for i, (g, w) in enumerate(zip(got, want_rows)):
        if g is None:
            verdict.unit(False, f"{name} row {i}")
            continue
        checks = [g.keys() == w.keys()]
        for col in w:
            if col in ("alpha", "theory") or (col in SIM_SEEDED and ref is not None):
                checks.append(cmp.close(g[col], w[col]))
            elif col in SIM_SEEDED:
                checks.append(math.isfinite(float(g[col])) and float(g[col]) > 0)
            else:
                checks.append(g[col] == w[col])
        verdict.unit(all(checks), f"{name} row {i}")


def _check_report(workload, seed, files, ref, cmp, verdict):
    (call,) = workload.calls
    got = json.loads(files[call.out + ".json"])
    rep = got["report"]
    models = rep["models"]
    n = len(rep["errors"][0])
    summary_ok = [
        got["meta"] == {"config": {**call.config, "seed": seed}},
        _csv_matches(_rows(files[call.out]), rep),
    ]
    if ref is not None:
        want = json.loads(ref[call.out + ".json"])["report"]
        summary_ok += [
            models == want["models"] and n == len(want["errors"][0]),
            rep.keys() == want.keys(),
            rep["win_count"] == want["win_count"],
            rep["win_prob"] == want["win_prob"],
            cmp.all_close((rep["avg_error"][m], want["avg_error"][m]) for m in models),
        ]
        if "ridge_ratio" in want:
            summary_ok.append(cmp.all_close(
                (rep["ridge_ratio"][m], want["ridge_ratio"][m]) for m in models))
    else:
        summary_ok.append(_summary_consistent(rep))
    summary_ok = all(summary_ok)
    if not summary_ok:
        verdict.problems.append(f"{call.out}: summary disagrees")
    lo, hi, count = CV_GRID
    grid = [10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * k / (count - 1))
            for k in range(count)]
    for j in range(n):
        errs = [row[j] for row in rep["errors"]]
        alphas = [row[j] for row in rep["selected_alphas"]]
        if ref is not None:
            ok = all([
                cmp.all_close(zip(errs, (row[j] for row in want["errors"]))),
                cmp.all_close(zip(alphas, (row[j] for row in want["selected_alphas"])),
                              rtol=1e-12),
            ])
        else:
            ok = (all(math.isfinite(e) and e > 0 for e in errs)
                  and all(any(abs(a - g) <= 1e-12 * g for g in grid) for a in alphas))
        verdict.unit(ok and summary_ok, f"{call.out} dataset {j}")


def _csv_matches(rows: list[dict], rep: dict) -> bool:
    """The CSV summary carries the same numbers as the JSON report."""
    if [r["model"] for r in rows] != rep["models"]:
        return False
    ratio = rep.get("ridge_ratio") or {}
    return all(
        float(r["avg_error"]) == rep["avg_error"][m]
        and int(r["win_count"]) == rep["win_count"][m]
        and float(r["win_prob"]) == rep["win_prob"][m]
        and (r["ridge_ratio"] == "" if m not in ratio else float(r["ridge_ratio"]) == ratio[m])
        for r, m in zip(rows, rep["models"]))


def _summary_consistent(rep: dict) -> bool:
    """Averages, wins and ratios agree with the per-dataset errors."""
    cmp = Comparison()  # a self-consistency check, not a reference deviation
    models, errors = rep["models"], rep["errors"]
    n = len(errors[0])
    winners = [min(range(len(models)), key=lambda i: (errors[i][j], i)) for j in range(n)]
    avg = {m: math.fsum(errors[i]) / n for i, m in enumerate(models)}
    checks = [
        rep["win_count"] == {m: winners.count(i) for i, m in enumerate(models)},
        rep["win_prob"] == {m: winners.count(i) / n for i, m in enumerate(models)},
        cmp.all_close(((rep["avg_error"][m], avg[m]) for m in models), rtol=1e-12),
    ]
    if "ridge_ratio" in rep:
        checks.append(cmp.all_close(
            ((rep["ridge_ratio"][m], avg[m] / avg["ridge"]) for m in models), rtol=1e-12))
    return all(checks)

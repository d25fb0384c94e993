"""schattenreg benchmark: time to solution of four CLI workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``./src``, so
nothing is built or installed.  Each solution runs in a fresh interpreter
(``child.py``) pinned to one BLAS thread, and solutions repeat until ``S``
seconds have passed: at least four, or two traced and two untraced.  A run
also makes three import-only starts, the first a warm-up that compiles
bytecode, to time set-up.

With ``--trace 0`` the result carries the end-to-end metrics: medians over
the solutions of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` traced solutions alternate with untraced ones and the result
carries the per-layer metrics of the traced solution with the median time;
its spans are kept in ``.benchmark_out/<workload>-seed<N>.spans.json``.
Every solution's outputs are checked against ``reference/`` (see
``check.py``) and against the first solution of the run, byte for byte.

The last line of standard output is the JSON result; the line before it
holds the run metadata, which is also written to
``.benchmark_out/<workload>-seed<N>-trace<T>.json`` with every sample.
Metric names and units come from ``BENCHMARK.json``; ``NOTES.md`` explains
them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check
from workloads import DEFAULT_SEED, HELD_OUT_SEED, REFERENCE_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 2
MIN_REPS = 4  # untraced solutions per run
MIN_TRACED_PAIRS = 2  # (untraced, traced) pairs per traced run
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # no solution starts that could end after this
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict[str, str]:
    """Environment of a solution: one BLAS thread, the checkout's sources first."""
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": os.pathsep.join(path)}


class Rep:
    """One solution: the child's report, its output files and their check."""

    def __init__(self, result: dict, files: dict[str, bytes], sidecar: Path | None):
        self.result, self.files, self.sidecar = result, files, sidecar
        self.units = self.failed = 0
        self.max_rel_dev = 0.0
        self.problems: list[str] = []

    @property
    def wall_s(self) -> float:
        return self.result["wall_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "schattenreg" / "cli.py").is_file():
        print("run.py: no ./src/schattenreg; run from the root of a schattenreg checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    references = json.loads((HERE / "reference" / f"{workload.name}.json").read_text())
    out_root = root / ".benchmark_out"
    work = out_root / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, workload, args.seed, references)
        runner.measure(args.seconds, bool(args.trace))
        return runner.report(spec, out_root, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Runner:
    def __init__(self, root: Path, work: Path, workload, seed: int, references: dict):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.references = references
        self.expected_units = check(workload, DEFAULT_SEED, references[str(DEFAULT_SEED)],
                                    references)[0].units
        self.env = child_env(root)
        self.setups: list[float] = []
        self.reps: list[Rep] = []
        self.traced: list[Rep] = []
        self._n = 0

    def _child(self, *extra: str) -> tuple[dict, Path]:
        self._n += 1
        out_dir = self.work / f"run{self._n}"
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), self.workload.name, str(self.seed),
             str(out_dir), *extra],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"benchmark child exited with {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        return json.loads(lines[-1]), out_dir

    def _solve(self, traced: bool) -> Rep:
        result, out_dir = self._child(*(("--trace",) if traced else ()))
        files = {f: (out_dir / f).read_bytes()
                 for f in self.workload.outputs() if (out_dir / f).is_file()}
        rep = Rep(result, files, out_dir / "spans.json" if traced else None)
        self._check(rep)
        return rep

    def _check(self, rep: Rep) -> None:
        failure = None
        if rep.result["error"] or any(rep.result["codes"]):
            failure = f"program failed: codes {rep.result['codes']}\n{rep.result['error'] or ''}"
        elif set(rep.files) != set(self.workload.outputs()):
            failure = f"missing outputs {sorted(set(self.workload.outputs()) - set(rep.files))}"
        elif self.reps and rep.files != self.reps[0].files:
            failure = "outputs differ from the first solution of this seed"
        else:
            texts = {k: v.decode() for k, v in rep.files.items()}
            try:
                verdict, rep.max_rel_dev = check(self.workload, self.seed, texts,
                                                 self.references)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                failure = f"malformed outputs: {exc!r}"
            else:
                rep.units, rep.failed, rep.problems = (verdict.units, verdict.failed,
                                                       verdict.problems)
        if failure:
            rep.units = rep.failed = self.expected_units
            rep.problems = [failure]

    def measure(self, seconds: float, trace: bool) -> None:
        t_start = time.perf_counter()
        self._child("--setup-only")  # warm-up: writes bytecode caches
        for _ in range(SETUP_SAMPLES):
            self.setups.append(self._child("--setup-only")[0]["setup_s"])
        t_measure = time.perf_counter()
        while True:
            t_rep = time.perf_counter()
            self.reps.append(self._solve(traced=False))
            if trace:
                self.traced.append(self._solve(traced=True))
            now = time.perf_counter()
            min_reps = MIN_TRACED_PAIRS if trace else MIN_REPS
            if len(self.reps) >= min_reps and now - t_measure >= seconds:
                break
            if now - t_start + (now - t_rep) > RUN_LIMIT_S:
                break

    def report(self, spec: dict, out_root: Path, trace: bool) -> int:
        reps = self.reps + self.traced
        attempted = sum(r.units for r in reps)
        failed = sum(r.failed for r in reps)
        walls = [r.wall_s for r in self.reps]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(self.setups + [r.result["setup_s"] for r in self.reps]),
            "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in self.reps),
        }
        sidecar = None
        if trace:
            mid = sorted(self.traced, key=lambda r: r.wall_s)[(len(self.traced) - 1) // 2]
            values.update(mid.result["layers"])
            values["trace.overhead_s"] = (statistics.median(r.wall_s for r in self.traced)
                                          - values["wall_s"])
            values["fail_frac"] = failed / attempted
            values["max_rel_dev"] = max(r.max_rel_dev for r in reps)
            sidecar = out_root / f"{self.workload.name}-seed{self.seed}.spans.json"
            shutil.copyfile(mid.sidecar, sidecar)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer" if trace else "end_to_end"]}

        meta = {
            "workload": self.workload.name,
            "seed": self.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seed_has_reference": self.seed in REFERENCE_SEEDS or not self.workload.seeded,
            "versions": self.reps[0].result["versions"],
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(self.root),
            "source_sha256": _source_digest(self.root),
            "cpu_s": statistics.median(r.result["cpu_s"] for r in self.reps),
            "fail_frac": failed / attempted,
            "max_rel_dev": max(r.max_rel_dev for r in reps),
            "problems": sorted({p for r in reps for p in r.problems})[:20],
            "samples": {
                "setup_s": self.setups + [r.result["setup_s"] for r in self.reps],
                "wall_s": walls,
                "traced_wall_s": [r.wall_s for r in self.traced],
                "peak_rss_mb": [r.result["peak_rss_mb"] for r in self.reps],
            },
            "spans_sidecar": str(sidecar.relative_to(self.root)) if sidecar else None,
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        (out_root / f"{self.workload.name}-seed{self.seed}-trace{int(trace)}.json").write_text(
            json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
        for name, m in metrics.items():
            print(f"{self.workload.name} {name} = {m['value']:.6g} {m['unit']}")
        for p in meta["problems"]:
            print(f"FAILED: {p}")
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
        return 0


def _git_commit(root: Path) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """Identifies the measured code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "schattenreg").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())

"""What `import schattenreg` loads, and what a CLI run loads after it.

Both run in a fresh interpreter, since this test session has long since
imported the whole of scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_out_optimize_and_integrate():
    loaded = json.loads(_run(
        "import json, sys, schattenreg; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"))
    assert not {"scipy.optimize", "scipy.integrate"} & set(loaded)
    assert "scipy.special" in loaded


def test_cli_runs_import_no_further_scipy(tmp_path):
    # Every subcommand, at small sizes: a scipy module first imported inside
    # a run would be paid for in that run's time, not in set-up.
    rng = np.random.default_rng(0)
    table = tmp_path / "table.csv"
    table.write_text("x1,x2,x3,y\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rng.standard_normal((40, 4))))
    grid = {"lo": 1e-2, "hi": 1e2, "count": 5}
    runs = {
        "theory-curve": (["theory-curve"], {"grid": grid}),
        "basin-spherical": (["basin"], {"ensemble": "spherical", "sigmas": [1.0],
                                        "lambdas": [0.5], "grid": grid}),
        "basin-diagonal": (["basin"], {"ensemble": "diagonal", "sigmas": [1.0],
                                       "gammas": [1.0], "grid": grid}),
        "simulate": (["simulate"], {"n_obs": 20, "n_datasets": 2, "n_test": 50,
                                    "grid": grid}),
        "cv-bench": (["cv-bench"], {"n_obs": 20, "n_feat": 5, "n_datasets": 2,
                                    "n_test": 50}),
        "rff-bench": (["rff-bench"], {"d_rbf": 30, "n_obs": 10, "n_datasets": 2,
                                      "n_test": 50}),
        "real-data": (["real-data", str(table)], {"target": "y", "train_size": 20,
                                                  "n_splits": 2}),
    }
    argvs = []
    for name, (command, cfg) in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        argvs.append(command + ["--config", str(path), "--out", str(tmp_path / f"{name}.csv")])
    new = json.loads(_run(
        "import json, sys\n"
        "from schattenreg import cli\n"
        "before = {m for m in sys.modules if m.startswith('scipy')}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted({m for m in sys.modules if m.startswith('scipy')} - before)))",
        json.dumps(argvs)))
    assert new == []

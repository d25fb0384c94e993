"""What `import schattenreg` loads, and what a CLI run loads after it.

Each case runs in a fresh interpreter, since this test session has long since
imported the whole of scipy, and a run in a shared process would hide the
imports that an earlier run already made.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# Makes every import of scipy, or of a part of it, fail.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def _run(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    loaded = json.loads(_run(
        "import json, sys, schattenreg; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"))
    assert loaded == []


GRID = {"lo": 1e-2, "hi": 1e2, "count": 5}
RUNS = {
    "theory-curve": (["theory-curve"], {"grid": GRID}),
    "basin-spherical": (["basin"], {"ensemble": "spherical", "sigmas": [1.0],
                                    "lambdas": [0.5], "grid": GRID}),
    "basin-diagonal": (["basin"], {"ensemble": "diagonal", "sigmas": [1.0],
                                   "gammas": [1.0], "grid": GRID}),
    "simulate": (["simulate"], {"n_obs": 20, "n_datasets": 2, "n_test": 50, "grid": GRID}),
    "cv-bench": (["cv-bench"], {"n_obs": 20, "n_feat": 5, "n_datasets": 2, "n_test": 50}),
    "rff-bench": (["rff-bench"], {"d_rbf": 30, "n_obs": 10, "n_datasets": 2, "n_test": 50}),
    "real-data": (["real-data", "table.csv"], {"target": "y", "train_size": 20,
                                               "n_splits": 2}),
}


def test_cli_runs_need_no_scipy_and_import_no_numpy_module(tmp_path):
    # A module first imported inside a run would be paid for in that run's
    # time, not in set-up; and no run needs scipy at all.  Text-mode open
    # loads locale, for the default encoding, in every command that writes,
    # and real-data's CSV reader the utf-8-sig codec, which drops a
    # byte-order mark.  concurrent.futures is not loaded at all: its imports
    # cost about 5 ms and 0.9 MB, and its thread pool holds cv-tall's peak
    # memory 8.5% higher than the calling thread does.
    rng = np.random.default_rng(0)
    table = tmp_path / "table.csv"
    table.write_text("x1,x2,x3,y\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rng.standard_normal((40, 4))))
    for name, (command, cfg) in RUNS.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(cfg))
        argv = [str(table) if a == "table.csv" else a for a in command] + [
            "--config", str(config), "--out", str(tmp_path / f"{name}.csv")]
        new = json.loads(_run(
            NO_SCIPY + "import json\n"
            "from schattenreg import cli\n"
            "before = set(sys.modules)\n"
            "assert cli.main(json.loads(sys.argv[1])) == 0\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))",
            json.dumps(argv)))
        assert set(new) <= {"locale", "_locale", "encodings.utf_8_sig"}, name


def test_every_exported_name_resolves():
    # The benchmark tracer wraps what each module's __all__ names and skips a
    # name that is missing, so a stale entry would otherwise pass unnoticed.
    import importlib
    import pkgutil

    import schattenreg

    for info in pkgutil.iter_modules(schattenreg.__path__):
        module = importlib.import_module(f"schattenreg.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name


def test_the_package_binds_each_module_list_once():
    # Each module's __all__ is the one list of its public names: the package
    # binds every name in them, and spectrum's three, and nothing else; and a
    # name listed by two modules would be bound from whichever came last.
    import importlib
    import pkgutil
    import types

    import schattenreg

    lists = [getattr(importlib.import_module(f"schattenreg.{info.name}"), "__all__", ())
             for info in pkgutil.iter_modules(schattenreg.__path__)]
    listed = [name for names in lists for name in names]
    assert sorted(n for n in set(listed) if listed.count(n) > 1) == []
    bound = {n for n, v in vars(schattenreg).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert bound == set(listed) | {"GramSpectrum", "SchattenIndex", "gram_spectrum"}

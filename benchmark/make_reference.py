"""Write the reference outputs the benchmark checks against.

    python3 benchmark/make_reference.py [WORKLOAD ...]

Run from the root of a checkout.  For each workload (default: all) it solves
once per seed in ``REFERENCE_SEEDS`` (once for ``basin``, which has no random
input) and stores the output files in ``reference/<workload>.json``.  The
committed references are the outputs of the commit that added the benchmark;
regenerate them only to add a seed or a workload, never to make a changed
program pass.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, child_env
from workloads import DEFAULT_SEED, REFERENCE_SEEDS, WORKLOADS


def main(names: list[str]) -> int:
    root = Path.cwd()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        refs = {}
        for seed in REFERENCE_SEEDS if workload.seeded else (DEFAULT_SEED,):
            with tempfile.TemporaryDirectory(dir=root) as out_dir:
                subprocess.run([sys.executable, str(HERE / "child.py"), name, str(seed), out_dir],
                               cwd=root, env=child_env(root), check=True, capture_output=True)
                refs[str(seed)] = {f: (Path(out_dir) / f).read_text()
                                   for f in workload.outputs()}
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{path}: seeds {sorted(refs, key=int)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

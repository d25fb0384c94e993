"""One timed solution of a workload, in a fresh interpreter.

    python3 benchmark/child.py WORKLOAD SEED OUT_DIR [--trace] [--setup-only]

Run from the root of a checkout with ``src`` on ``PYTHONPATH``.  Prints one
JSON line: ``setup_s`` (start of ``import schattenreg``, numpy and scipy
included, to the first call into ``cli.main``), ``wall_s`` (first call into
``cli.main`` until the last output file is written), ``peak_rss_mb``
(``ru_maxrss``), ``cpu_s``, the exit codes of the CLI calls and, with
``--trace``, the per-layer metrics; the spans go to ``OUT_DIR/spans.json``.
The outputs are left in OUT_DIR for ``run.py`` to check.
"""

import json
import os
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    workload, seed, out_dir = WORKLOADS[argv[0]], int(argv[1]), argv[2]
    argvs = []
    for i, call in enumerate(workload.calls):
        cfg_path = os.path.join(out_dir, f"config{i}.json")
        with open(cfg_path, "w") as fh:
            json.dump(call.config, fh)
        argvs.append([call.command, "--config", cfg_path, "--seed", str(seed),
                      "--out", os.path.join(out_dir, call.out)])

    t_import = time.perf_counter()
    import schattenreg.cli

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_main = time.perf_counter()
    result = {"setup_s": t_main - t_import}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return 0

    codes, error = [], None
    try:
        for args in argvs:
            codes.append(schattenreg.cli.main(args))
    except Exception:  # reported to run.py, which fails every unit of this run
        error = traceback.format_exc()
    t_end = time.perf_counter()

    ru = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "wall_s": t_end - t_main,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "codes": codes,
        "error": error,
        "versions": _versions(),
    })
    if tracer is not None:
        result["layers"] = tracer.summary(result["wall_s"])
        tracer.write(os.path.join(out_dir, "spans.json"))
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import numpy
    import scipy
    import schattenreg

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "schattenreg": schattenreg.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The four benchmark workloads: fixed CLI configs and the files each writes.

Every workload is one or more calls into ``schattenreg.cli.main`` at a stated
input size.  The workload seed is passed to the CLI as ``--seed``; ``basin``
has no random input, so its seed changes nothing.  Why each workload exists is
written in ``NOTES.md``.

This module imports only the standard library, so the timed child can load it
before the clock starts without paying for numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
# Later claims are confirmed on this seed, which is not used while tuning.
HELD_OUT_SEED = 1
# Seeds whose outputs are committed under reference/.
REFERENCE_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` invocation: subcommand, config and output file."""

    command: str
    config: dict
    out: str

    def outputs(self) -> tuple[str, ...]:
        # With the default csv format the report subcommands also write
        # the full report as <out>.json.
        if self.command in ("cv-bench", "rff-bench"):
            return (self.out, self.out + ".json")
        return (self.out,)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "basin" | "simulate" | "report": selects the output check
    calls: tuple[Call, ...]
    seeded: bool = True

    def outputs(self) -> tuple[str, ...]:
        return tuple(f for c in self.calls for f in c.outputs())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="basin",
            kind="basin",
            calls=(
                Call("basin", {"ensemble": "spherical"}, "basin_spherical.csv"),
                Call("basin", {"ensemble": "diagonal"}, "basin_diagonal.csv"),
            ),
            seeded=False,
        ),
        Workload(
            name="simulate",
            kind="simulate",
            calls=(
                Call("simulate", {"ensemble": "spherical", "lambda": 0.5, "n_obs": 100},
                     "simulate.csv"),
            ),
        ),
        Workload(
            name="cv-tall",
            kind="report",
            calls=(
                Call("cv-bench", {"n_obs": 2000, "n_feat": 1000, "n_datasets": 2},
                     "cv_tall.csv"),
            ),
        ),
        Workload(
            name="cv-wide",
            kind="report",
            calls=(
                Call("rff-bench", {"d_rbf": 1000, "n_obs": 100, "n_datasets": 3},
                     "cv_wide.csv"),
            ),
        ),
    )
}

"""Outside-in span recorder for the schattenreg package.

``Tracer.install`` wraps every function named in each package module's
``__all__`` (for a module without ``__all__``, every public function defined
in it), and rebinds the wrapper in every package namespace that imported the
original, so calls between modules and within a module both pass through it.
Classes are left alone, which keeps ``isinstance`` checks intact.  Functions
added to the package later are traced without changing this file.

Each call records a span (name, start, end, parent) in memory; ``write``
stores them in a sidecar file when the run ends.  A module's self time is the
duration of its spans minus the part covered by their child spans.

Counters are taken at the same boundaries by hooks keyed on the names the
package has today (``gram_spectrum``, ``predict``, ...).  A hook runs after
its call has returned, inside a ``trace.hook`` span of its own, so hashing
and bookkeeping are not charged to the layer being measured.  ``quad`` is
wrapped in every namespace that imported it, together with the integrand it
receives, to count evaluations and keep the largest error estimate.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# The package modules reported as layers, in pipeline order.
LAYERS = ("ensembles", "rff", "spectrum", "estimators", "cv", "theory", "basin", "cli")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0


def _arg_getter(fn, name: str):
    """Fetch parameter `name` of `fn` from a call's (args, kwargs)."""
    idx = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[idx] if len(args) > idx else kwargs[name]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._fingerprints: set[bytes] = set()

    # -- installation -------------------------------------------------------

    def install(self, package_name: str = "schattenreg") -> None:
        import scipy.integrate

        pkg = sys.modules[package_name]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package_name or n.startswith(package_name + ".")]
        wrappers = {}
        for mod in modules:
            if mod is pkg:
                continue  # the package namespace only re-exports
            layer = mod.__name__.rsplit(".", 1)[-1]
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    hook = self._hook_for(layer, n, fn, pkg)
                    wrappers[fn] = self._wrap(f"{layer}.{n}", fn, hook)
        real_quad = scipy.integrate.quad
        traced_quad = self._wrap_quad(real_quad)
        for mod in modules:
            for n, v in list(vars(mod).items()):
                if v is real_quad:
                    setattr(mod, n, traced_quad)
                elif inspect.isfunction(v) and v in wrappers:
                    setattr(mod, n, wrappers[v])

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
                spans.append(("trace.hook", end, clock(), parent))
            return result

        return traced

    def _wrap_quad(self, real_quad):
        counts = self.counts

        @functools.wraps(real_quad)
        def quad(func, a, b, *args, **kwargs):
            n = 0

            def counted(*x):
                nonlocal n
                n += 1
                return func(*x)

            result = real_quad(counted, a, b, *args, **kwargs)
            counts["theory.quad_calls"] += 1
            counts["theory.integrand_evals"] += n
            counts["theory.max_quad_err"] = max(counts["theory.max_quad_err"], float(result[1]))
            return result

        return quad

    # -- counters -------------------------------------------------------------

    def _hook_for(self, layer: str, name: str, fn, pkg):
        c = self.counts
        if layer == "spectrum" and name == "gram_spectrum":
            get_x = _arg_getter(fn, "X")

            def hook(args, kwargs, spec):
                X = get_x(args, kwargs)
                N, d = spec.n_obs, spec.n_feat
                c["spectrum.factorizations"] += 1
                # Nominal Gram-route cost: X^T X is 2 N d^2 flops and a
                # symmetric eigensolver with vectors about 9 d^3 (Golub & Van
                # Loan), both from shapes alone.
                c["spectrum.gflop"] += (2.0 * N * d * d + 9.0 * d ** 3) / 1e9
                c["spectrum.rank_deficient"] += spec.rank < d
                # Fingerprint: shape plus row and column sums, which tell
                # apart any two fold subsets of one matrix.
                X = np.asarray(X, dtype=float)
                h = hashlib.blake2b(repr(X.shape).encode(), digest_size=16)
                h.update(X.sum(axis=0).tobytes())
                h.update(X.sum(axis=1).tobytes())
                self._fingerprints.add(h.digest())
            return hook
        if layer == "estimators" and name == "fit_from_spectrum":
            def hook(args, kwargs, model):
                c["estimators.fits"] += 1
            return hook
        if layer == "estimators" and name == "predict":
            get_x = _arg_getter(fn, "X_test")

            def hook(args, kwargs, pred):
                c["estimators.predict_rows"] += len(get_x(args, kwargs))
            return hook
        if layer in ("ensembles", "rff") and name.startswith(("sample_", "make_")):
            dataset_cls = pkg.ensembles.Dataset

            def hook(args, kwargs, ds):
                if isinstance(ds, dataset_cls):
                    c["ensembles.sample_mb"] += sum(
                        a.nbytes for a in (ds.X_tr, ds.Y_tr, ds.X_te, ds.Y_te, ds.beta0)
                        if a is not None) / 1e6
            return hook
        if layer == "cv" and name == "kfold_select_alpha":
            get_cfg = _arg_getter(fn, "cfg")

            def hook(args, kwargs, alpha):
                grid = get_cfg(args, kwargs).grid.values()
                c["cv.picks"] += 1
                c["cv.edge_picks"] += alpha in (grid[0], grid[-1])
            return hook
        if layer == "theory" and name.startswith("err_"):
            def hook(args, kwargs, err):
                c["theory.evals"] += 1
            return hook
        if layer == "basin" and name == "locate_min_and_curvature":
            def hook(args, kwargs, geom):
                c["basin.minima"] += 1
                c["basin.edge_minima"] += bool(geom.edge_minimum)
            return hook
        return None

    # -- reporting --------------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a run whose time to solution was `wall_s`."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        write_s = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
            if name.startswith("cli.write_"):
                write_s += end - start
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in ("spectrum.factorizations", "spectrum.rank_deficient", "spectrum.gflop",
                    "estimators.fits", "estimators.predict_rows", "ensembles.sample_mb",
                    "theory.evals", "theory.quad_calls", "theory.integrand_evals",
                    "theory.max_quad_err"):
            out[key] = c[key]
        out.update({
            "spectrum.distinct_frac": _ratio(len(self._fingerprints),
                                             c["spectrum.factorizations"]),
            "cv.edge_pick_frac": _ratio(c["cv.edge_picks"], c["cv.picks"]),
            "basin.edge_min_frac": _ratio(c["basin.edge_minima"], c["basin.minima"]),
            "cli.write_s": write_s,
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(self_s[layer] for layer in LAYERS),
        })
        return out

    def write(self, path: str) -> None:
        """Sidecar: spans as [name, start_s, end_s, parent_index], times
        relative to the tracer's creation, plus the raw counters."""
        with open(path, "w") as fh:
            json.dump({
                "spans": [[n, s - self.t0, e - self.t0, p] for n, s, e, p in self.spans],
                "counters": dict(self.counts),
            }, fh)

"""Layer spans for the traced run, recorded from outside the library.

Each target is a public function of a ``triplespin`` module (plus the scipy
``minimize`` the prober binds, and ``QuantumState.__post_init__`` for state
validation). Installing a target rebinds every reference to that object in
the loaded ``triplespin`` modules to a wrapper that records one span: name,
start, end, parent span and job id. Spans live in flat in-memory arrays and
are written out once the run ends. A target that no longer exists is
reported as an absent layer, never as an error, so the library can drop or
rename private machinery without breaking the benchmark.

A call made while a span of the same name is innermost (``std_dev`` calling
``variance``, both ``moments.scalar``) opens no span and runs no hook, so
counts follow calls into a group, not the library's internal call graph.

A layer is the module before the first dot of a span name. Its self time is
the sum over its spans of duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

#: (module, attribute, span name, hook). Hooks add counts from the result.
TARGETS = (
    ("triplespin.cli", "dispatch", "cli.dispatch", None),
    ("triplespin.prober", "min_gap", "prober.min_gap", None),
    ("triplespin.prober", "scan_conjecture", "prober.scan_conjecture", None),
    ("triplespin.prober", "conjecture_gaps_batch", "prober.conjecture_gaps_batch", None),
    ("triplespin.prober", "minimize", "prober.minimize", "minimize"),
    ("triplespin.relations", "evaluate", "relations.evaluate", None),
    ("triplespin.relations", "soak_qubit", "relations.soak", "peak_bytes"),
    ("triplespin.moments", "expectation", "moments.scalar", None),
    ("triplespin.moments", "variance", "moments.scalar", None),
    ("triplespin.moments", "std_dev", "moments.scalar", None),
    ("triplespin.moments", "outcome_distribution", "moments.scalar", None),
    ("triplespin.moments", "shannon_entropy", "moments.scalar", None),
    ("triplespin.moments", "batch_expectation", "moments.batch", "rows"),
    ("triplespin.moments", "batch_variance", "moments.batch", "rows"),
    ("triplespin.states", "QuantumState.__post_init__", "states.validate", None),
    ("triplespin.states", "from_statevector", "states.build", None),
    ("triplespin.states", "density_from_bloch", "states.build", None),
    ("triplespin.states", "family_point", "states.build", None),
    ("triplespin.states", "random_pure_bloch", "states.random", "rows"),
    ("triplespin.states", "random_mixed_bloch", "states.random", "rows"),
    ("triplespin.states", "random_pure_vectors", "states.random", "rows"),
    ("triplespin.kernels", "qubit_relation_gaps", "kernels.qubit", "kernel"),
    ("triplespin.kernels", "triangle_analog_gaps", "kernels.triangle", "kernel"),
    ("triplespin.triangle", "sample_barycentric", "triangle.sample", None),
    ("triplespin.triangle", "scan", "triangle.scan", "peak_bytes"),
    ("triplespin.measure_sim", "run_sweep", "measure_sim.run_sweep", "rows"),
    ("triplespin.measure_sim", "analytic_row", "measure_sim.row", None),
    ("triplespin.measure_sim", "simulated_row", "measure_sim.row", None),
    ("triplespin.measure_sim", "simulate_expectation", "measure_sim.simulate", "shots"),
    ("triplespin.measure_sim", "exact_expectation", "measure_sim.exact", None),
    ("triplespin.measure_sim", "propagate_derived", "measure_sim.propagate", None),
    ("triplespin.measure_sim", "rows_to_csv", "measure_sim.render", None),
    ("triplespin.rng", "stream", "rng.stream", None),
    ("triplespin.spin_ops", "build_spin_operators", "spin_ops.build", None),
)

#: Spans that own a set of Nelder-Mead restarts.
PROBE_SPANS = ("prober.min_gap", "prober.scan_conjecture")


class Tracer:
    """Span and count recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.stack: list[int] = []
        self.current_job = -1
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        #: (owning probe span, final objective value, fatol) per restart.
        self.restarts: list[tuple[int, float, float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self._intern(name)
        stack, t0, t1 = self.stack, self.t0, self.t1
        push_name, push_parent, push_job = self.name_id.append, self.parent.append, self.job.append
        name_id, clock = self.name_id, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_id[stack[-1]] == nid:
                # a call within the span's own group (std_dev -> variance):
                # its time stays in the outer span and it is not counted again
                return fn(*args, **kwargs)
            sid = len(t0)
            push_name(nid)
            push_parent(stack[-1] if stack else -1)
            push_job(self.current_job)
            t1.append(0)
            stack.append(sid)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(name, args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- hooks

    def _rows(self, name, args, kwargs, result):
        self.counts[name + ".rows"] += len(result)

    def _kernel(self, name, args, kwargs, result):
        """Rows, and bytes computed from array sizes: the batch read plus the gaps written."""
        self._rows(name, args, kwargs, result)
        self.counts[name + ".bytes"] += np.asarray(args[0]).nbytes + result.nbytes

    def _shots(self, name, args, kwargs, result):
        self.counts[name + ".shots"] += int(result.shots)

    def _owning_probe(self) -> int:
        probe_ids = {self._ids[n] for n in PROBE_SPANS if n in self._ids}
        for sid in reversed(self.stack):
            if self.name_id[sid] in probe_ids:
                return sid
        return -1

    def _traced_minimize(self, minimize):
        span = self.wrap(minimize, "prober.minimize")

        def minimize_with_objective(fun, x0, *args, **kwargs):
            result = span(self.wrap(fun, "prober.objective"), x0, *args, **kwargs)
            fatol = float((kwargs.get("options") or {}).get("fatol", 0.0))
            self.restarts.append((self._owning_probe(), float(result.fun), fatol))
            return result

        return minimize_with_objective

    def _traced_peak(self, fn, name):
        """Span plus tracemalloc peak of the call, per row of work it did."""
        span = self.wrap(fn, name)

        def with_peak(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                result = span(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                if started:
                    tracemalloc.stop()
            self.counts[name + ".peak_bytes"] += peak
            self.counts[name + ".peak_rows"] += _work_rows(name, result)
            return result

        return functools.wraps(fn)(with_peak)

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in sys.modules.items() if n == "triplespin" or n.startswith("triplespin.")]
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = module
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if hook == "minimize":
                wrapper = self._traced_minimize(original)
            elif hook == "peak_bytes":
                wrapper = self._traced_peak(original, name)
            else:
                wrapper = self.wrap(original, name, getattr(self, f"_{hook}") if hook else None)
            if owner:  # a method: patch the class attribute
                self._undo.append((holder, leaf, original))
                setattr(holder, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -------------------------------------------------------------- output

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "t0_ns": np.frombuffer(self.t0, dtype=np.int64).copy(),
            "t1_ns": np.frombuffer(self.t1, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())

    def span_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = (a["t1_ns"] - a["t0_ns"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered[: len(dur)]
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()), "self_s": float(own[sel].sum())}
        return out

    def restart_agree_ratio(self) -> float:
        """Restarts ending within fatol of their campaign's best, over all restarts."""
        best: dict[int, float] = {}
        for owner, value, _ in self.restarts:
            best[owner] = min(value, best.get(owner, value))
        agree = sum(value - best[owner] <= tol for owner, value, tol in self.restarts)
        return agree / len(self.restarts) if self.restarts else 0.0


def _work_rows(name: str, result) -> int:
    """States a soak evaluated, or samples a triangle scan drew."""
    if name == "relations.soak":
        return int(getattr(result, "n_pure", 0) + getattr(result, "n_mixed", 0))
    return int(getattr(result, "samples", 0))

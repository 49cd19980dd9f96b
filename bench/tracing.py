"""Spans and counters around the calls into each skinlab module.

The program itself carries no tracing.  :class:`Tracer` replaces public
functions where they are looked up: ``skinlab.cli`` and ``skinlab.evolve``
import with ``from ... import``, so every module attribute bound to a traced
function is replaced, not only the defining module's.  ``numpy.linalg``
attributes are wrapped to count factorizations; numpy's internal calls
(the SVD inside ``cond``) do not go through them.

A span records its name, layer, start, end, parent and pass.  A layer's time
is the self time of its spans: duration minus the time of child spans.
Spans stay in memory until the traced run writes them out.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

DENSE_LINALG = ("eig", "eigvals", "svd", "cond", "inv")

# layer metric -> functions whose spans it sums, as (module, attribute)
FUNCTION_LAYERS = {
    "cli.load_config": [("cli", "load_config")],
    "cli.run_experiment": [("cli", "run_experiment")],
    "trajectories.run_ensemble": [("trajectories", "run_ensemble")],
    "liouvillian.build": [("liouvillian", "build_liouvillian")],
    "liouvillian.spectrum": [("liouvillian", "liouvillian_spectrum")],
    "liouvillian.stationary": [("liouvillian", "stationary_states")],
    "evolve.rk4": [("evolve", "propagate_master_rk4")],
    "evolve.entropy": [("evolve", "entropy_trace"), ("evolve", "von_neumann_entropy")],
    "bulk.wannier_density": [("bulk", "bulk_wannier_density")],
    "serialize.write_csv": [("serialize", "write_csv")],
    "serialize.write_json": [("serialize", "write_json")],
    "band.pbc_spectrum": [("band", "pbc_spectrum")],
    "lattice_ops.build": [("lattice_ops", "build_obc"), ("lattice_ops", "build_hatano_nelson")],
    "lattice_ops.obc_spectrum": [("lattice_ops", "obc_spectrum")],
}
METHOD_LAYERS = {
    "evolve.propagator_init": [("MasterPropagator", "__init__")],
    "evolve.propagate": [("MasterPropagator", "propagate")],
    "evolve.semiclassical": [("SemiclassicalPropagator", "__init__"),
                             ("SemiclassicalPropagator", "at")],
}
COUNTS = {"cli.experiments": "count", "trajectories.traj_steps": "count",
          "trajectories.batched_eigh_calls": "count", "liouvillian.dense_factorizations": "count",
          "liouvillian.superop_mb": "MB", "evolve.propagate_calls": "count",
          "evolve.rk4_steps": "count", "evolve.state_checks": "count",
          "serialize.bytes_written": "bytes"}
MODULES = ("cli", "band", "bulk", "evolve", "lattice_ops", "liouvillian", "serialize",
           "trajectories")


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric a traced pass reports."""
    units = {layer + "_s": "s" for layer in (*FUNCTION_LAYERS, *METHOD_LAYERS)}
    units.update(COUNTS)
    units.update({"trajectories.traj_steps_per_s": "1/s", "trajectories.max_norm_drift": "1",
                  "trace.spans": "count", "trace.span_cost_s": "s"})
    return units


class Tracer:
    """Installs wrappers into skinlab and numpy.linalg; collects spans and counts per pass."""

    def __init__(self):
        import skinlab
        self._skinlab = skinlab
        self._modules = [skinlab] + [getattr(skinlab, m) for m in MODULES]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(float)
        self.linalg_calls: dict = defaultdict(int)
        self.max_norm_drift = 0.0
        self.pass_index = -1
        self._n_sites = None
        self._span_cost = None

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        for layer, targets in FUNCTION_LAYERS.items():
            for module, attr in targets:
                original = getattr(getattr(self._skinlab, module), attr)
                wrapper = self._wrap(original, layer, f"{module}.{attr}")
                for mod in self._modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        for layer, targets in METHOD_LAYERS.items():
            for cls_name, attr in targets:
                cls = getattr(self._skinlab.evolve, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, layer, f"evolve.{cls_name}.{attr}"))
        for name in DENSE_LINALG + ("eigh", "eigvalsh"):
            self._patch(np.linalg, name, self._count_linalg(getattr(np.linalg, name), name))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, original, layer: str, name: str):
        hook = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)
        signature = inspect.signature(original)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if name == "cli.run_experiment":
                tracer._n_sites = signature.bind(*args, **kwargs).arguments["cfg"].n_sites
            start = time.perf_counter()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append({"name": name, "layer": layer, "parent": parent,
                                     "pass": tracer.pass_index, "start": start, "end": None})
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index]["end"] = time.perf_counter()
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    # --------------------------------------------------------- count hooks

    def _after_run_experiment(self, args, result):
        self._add("cli.experiments")

    def _after_run_ensemble(self, args, result):
        self._add("trajectories.traj_steps", args["n_traj"] * round(args["t_final"] / args["dt"]))
        self.max_norm_drift = max(self.max_norm_drift, float(np.abs(result.norms - 1.0).max()))

    def _after_build_liouvillian(self, args, result):
        self._add("liouvillian.superop_mb", result.L.nbytes / 2**20)

    def _after_propagate(self, args, result):
        self._add("evolve.propagate_calls")

    def _after_propagate_master_rk4(self, args, result):
        t, dt = args["t_final"], args.get("dt", 1e-3)
        self._add("evolve.rk4_steps", max(1, round(t / dt)) if t > 0 else 0)

    def _after_write_csv(self, args, result):
        self._add("serialize.bytes_written", result.stat().st_size)

    _after_write_json = _after_write_csv

    def _count_linalg(self, original, name: str):
        tracer = self

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            if name in DENSE_LINALG:
                side = (tracer._n_sites or 0) ** 2
                if len(shape) == 2 and shape[0] == shape[1] == side:
                    tracer._add("liouvillian.dense_factorizations")
                    with tracer._lock:
                        tracer.linalg_calls[f"{name}[{side}x{side}]"] += 1
            elif name == "eigh" and len(shape) == 3:
                tracer._add("trajectories.batched_eigh_calls")
            elif name == "eigvalsh":
                caller = sys._getframe(1)
                if (caller.f_globals.get("__name__") == "skinlab.evolve"
                        and caller.f_code.co_name in ("__post_init__", "propagate")):
                    tracer._add("evolve.state_checks")
            return original(a, *args, **kwargs)

        counted.__wrapped__ = original
        return counted

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to the call it wraps, timed on a no-op function."""
        def noop():
            return None

        traced = self._wrap(noop, "trace.calibration", "trace.noop")
        first = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        del self.spans[first:]
        return max((t2 - t1) - (t1 - t0), 0.0) / calls

    # ------------------------------------------------------------- passes

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.counts = defaultdict(float)
        self.linalg_calls = defaultdict(int)
        self.max_norm_drift = 0.0

    def pass_metrics(self, index: int) -> dict:
        """Per-layer values of one traced pass: self times, counts and ratios."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s["pass"] == index]
        child_time: dict = defaultdict(float)
        for _, s in mine:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        layer_time: dict = defaultdict(float)
        for i, s in mine:
            layer_time[s["layer"]] += s["end"] - s["start"] - child_time[i]
        metrics = {layer + "_s": layer_time.get(layer, 0.0)
                   for layer in (*FUNCTION_LAYERS, *METHOD_LAYERS)}
        metrics.update({key: self.counts.get(key, 0.0) for key in COUNTS})
        ensemble_s = layer_time["trajectories.run_ensemble"]
        steps = metrics["trajectories.traj_steps"]
        metrics["trajectories.traj_steps_per_s"] = steps / ensemble_s if ensemble_s else 0.0
        metrics["trajectories.max_norm_drift"] = self.max_norm_drift
        if self._span_cost is None:
            self._span_cost = self.span_cost()
        metrics["trace.spans"] = len(mine)
        metrics["trace.span_cost_s"] = len(mine) * self._span_cost
        return metrics

"""Per-layer timing of ``repro`` from outside the program.

:func:`install` rebinds the public entry points of each layer to thin
timing wrappers, in this process only; no source file changes.  Each
wrapper keeps a frame on a :class:`LayerRecorder` stack so that nested
layers split cleanly into *inclusive* time (a layer's outermost calls,
children included) and *self* time (minus the time of wrapped calls
made inside it).  The root frame is the benchmark's own timed region:
its self time is the part of the wall time no layer claims.

Pool workers started by :func:`repro.parallel.sweep_map` are forked, so
they inherit the wrappers.  At fork the recorder starts afresh in the
child; whenever a worker's stack empties it folds its totals into
``repro.observability`` counters (prefix ``perfbench.``), and the
existing worker-snapshot merge carries them back to the parent.  The
parent keeps its own totals privately, which keeps the parent's
timeline (where self times add up to the wall time) apart from the
workers' concurrent time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

PREFIX = "perfbench."

#: The recorder :func:`install` wired in.  Block runners reach it
#: through this name because they are pickled into pool workers, which
#: must use the recorder they inherited at fork, not a copy.
_ACTIVE: "LayerRecorder | None" = None

#: Layers whose (parent-process) self time is reported on its own; the
#: self time of every other frame (the root and ``parallel.task``)
#: counts as unattributed.
REPORTED = (
    "netsim.routing",
    "experiments.matmul.traffic",
    "experiments.matmul",
    "netsim.batchroute",
    "netsim.stacked",
    "netsim.fairness",
    "simmpi.run",
    "parallel.sweep",
    "isoperimetry.exact",
    "isoperimetry.bounds",
)


class LayerRecorder:
    """Stack of open layer frames plus accumulated totals.

    ``totals`` maps ``"<layer>.<stat>"`` to a number; stats are
    ``calls``, ``incl_s`` (outermost calls only), ``self_s`` and any
    per-layer work counts (``routes``, ``scenarios``, ...).
    """

    def __init__(self) -> None:
        from repro import observability

        self._obs = observability
        self.in_worker = False
        self._announced = False
        self.stack: list[list] = []
        self.totals: dict[str, float] = defaultdict(float)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.in_worker = True
        self._announced = False
        self.stack = []
        self.totals = defaultdict(float)

    def call(self, layer, fn, args, kwargs, work=None, deltas=()):
        """Run ``fn(*args, **kwargs)`` inside a frame of *layer*."""
        stack = self.stack
        outer = not stack or stack[-1][0] != layer
        counters = self._obs.OBS.counters
        before = [counters.get(k, 0.0) for k in deltas] if outer else ()
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            incl = time.perf_counter() - t0
            stack.pop()
            totals = self.totals
            totals[layer + ".self_s"] += incl - frame[1]
            if stack:
                stack[-1][1] += incl
            if outer:
                totals[layer + ".calls"] += 1
                totals[layer + ".incl_s"] += incl
                if work is not None:
                    for stat, value in work(args, kwargs).items():
                        totals[f"{layer}.{stat}"] += value
                for key, old in zip(deltas, before):
                    stat = key.rsplit(".", 1)[1]
                    totals[f"{layer}.{stat}"] += counters.get(key, 0.0) - old
            if self.in_worker and not stack:
                self._flush()

    def _flush(self) -> None:
        """Worker side: move totals into observability counters."""
        observability = self._obs
        if not self._announced:
            observability.counter_add(PREFIX + "worker_procs")
            self._announced = True
        for key, value in self.totals.items():
            observability.counter_add(PREFIX + key, value)
        self.totals = defaultdict(float)

    def root(self, fn):
        """Run *fn* as the root frame; returns ``(result, wall_s)``."""
        t0 = time.perf_counter()
        result = self.call("root", fn, (), {})
        return result, time.perf_counter() - t0

    def worker_totals(self) -> dict[str, float]:
        """Totals the pool workers shipped back (parent side)."""
        n = len(PREFIX)
        return {
            k[n:]: v
            for k, v in self._obs.OBS.counters.items()
            if k.startswith(PREFIX)
        }


def _wrap(recorder, layer, fn, work=None, deltas=()):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs, work, deltas)

    return wrapper


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to *original* at
    *replacement* (covers ``from x import f`` copies)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def run_timed_block(fn, chunk):
    """Module-level (picklable) body of a timed block runner."""
    return _ACTIVE.call("parallel.task", fn, (chunk,), {})


def _n_routes(args, kwargs):
    src = kwargs["src"] if "src" in kwargs else args[1]
    return {"routes": len(src)}


def _n_scenarios(args, kwargs):
    stack = args[0]
    stack = getattr(stack, "stack", stack)  # StackedFluidSimulation
    return {"scenarios": stack.num_scenarios}


def install(recorder: LayerRecorder) -> None:
    """Wrap every measured layer entry point in this process."""
    import dataclasses

    global _ACTIVE
    _ACTIVE = recorder

    from repro import parallel
    from repro.experiments import matmul
    from repro.isoperimetry import bounds
    from repro.isoperimetry.exact import ExactSolver
    from repro.netsim import batchroute, fairness
    from repro.netsim.fluid import StackedFluidSimulation
    from repro.netsim.network import LinkNetwork
    from repro.simmpi import VirtualMpi

    def everywhere(layer, fn, **kw):
        _rebind_everywhere(fn, _wrap(recorder, layer, fn, **kw))

    def method(cls, name, layer, **kw):
        setattr(cls, name, _wrap(recorder, layer, getattr(cls, name), **kw))

    # Routing: the scalar router where the CAPS driver binds it.
    matmul.dimension_ordered_route = _wrap(
        recorder, "netsim.routing", matmul.dimension_ordered_route
    )
    method(LinkNetwork, "path_to_links", "netsim.routing")
    everywhere("experiments.matmul.traffic", matmul.step_traffic_matrix)
    everywhere("experiments.matmul", matmul.run_caps_on_geometry)
    everywhere(
        "netsim.batchroute",
        batchroute.batch_dimension_ordered_routes,
        work=_n_routes,
    )
    everywhere(
        "netsim.batchroute",
        batchroute.batch_fault_aware_routes,
        work=_n_routes,
    )
    method(StackedFluidSimulation, "solve", "netsim.stacked",
           work=_n_scenarios)
    everywhere(
        "netsim.stacked",
        fairness.stacked_max_min_fair_rates,
        work=_n_scenarios,
    )
    everywhere(
        "netsim.fairness",
        fairness.max_min_fair_rates,
        deltas=("netsim.fairness.flows", "netsim.fairness.rounds"),
    )
    method(VirtualMpi, "run", "simmpi.run")
    everywhere("parallel.sweep", parallel.sweep_map)
    for task_fn, runner in list(parallel._BLOCK_RUNNERS.items()):
        parallel._BLOCK_RUNNERS[task_fn] = dataclasses.replace(
            runner,
            block_fn=functools.partial(run_timed_block, runner.block_fn),
        )
    method(ExactSolver, "min_perimeter", "isoperimetry.exact")
    everywhere("isoperimetry.bounds", bounds.torus_isoperimetric_bound)


def layer_metrics(recorder: LayerRecorder, wall_s: float) -> dict:
    """Per-layer metrics of one traced run.

    Layer ``.s`` figures sum the parent and every pool worker;
    ``unattributed_s`` and ``parallel.dispatch_s`` live on the parent's
    timeline.
    """
    parent = recorder.totals
    workers = recorder.worker_totals()

    def total(key):
        return parent.get(key, 0.0) + workers.get(key, 0.0)

    counters = recorder._obs.OBS.counters

    def counter(name):
        return float(counters.get(name, 0.0))

    reported_self = sum(parent.get(f"{l}.self_s", 0.0) for l in REPORTED)
    procs = max(1.0, workers.get("worker_procs", 0.0))
    hits = counter("simmpi.route_cache.hits")
    misses = counter("simmpi.route_cache.misses")
    metrics = {
        "netsim.routing.calls": total("netsim.routing.calls"),
        "netsim.routing.s": total("netsim.routing.incl_s"),
        "experiments.matmul.traffic_s": total(
            "experiments.matmul.traffic.incl_s"
        ),
        "experiments.matmul.self_s": total("experiments.matmul.self_s"),
        "netsim.batchroute.calls": total("netsim.batchroute.calls"),
        "netsim.batchroute.routes": total("netsim.batchroute.routes"),
        "netsim.batchroute.s": total("netsim.batchroute.incl_s"),
        "netsim.stacked.calls": total("netsim.stacked.calls"),
        "netsim.stacked.scenarios": total("netsim.stacked.scenarios"),
        "netsim.stacked.s": total("netsim.stacked.incl_s"),
        "netsim.fairness.calls": total("netsim.fairness.calls"),
        "netsim.fairness.flows": total("netsim.fairness.flows"),
        "netsim.fairness.rounds": total("netsim.fairness.rounds"),
        "netsim.fairness.s": total("netsim.fairness.incl_s"),
        "simmpi.run.s": total("simmpi.run.incl_s"),
        "simmpi.self_s": total("simmpi.run.self_s"),
        "simmpi.loop_events": counter("simmpi.loop_events"),
        "simmpi.route_cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "parallel.sweep.s": parent.get("parallel.sweep.incl_s", 0.0),
        "parallel.dispatch_s": (
            parent.get("parallel.sweep.incl_s", 0.0)
            - parent.get("parallel.task.incl_s", 0.0)
            - workers.get("parallel.task.incl_s", 0.0) / procs
        ),
        "parallel.tasks": counter("parallel.tasks"),
        "parallel.blocks": counter("parallel.blocks"),
        "parallel.pool_declined": (
            counter("parallel.adaptive_serial")
            + counter("parallel.fallback_serial")
        ),
        "isoperimetry.exact.calls": total("isoperimetry.exact.calls"),
        "isoperimetry.exact.s": total("isoperimetry.exact.incl_s"),
        "isoperimetry.bounds.s": total("isoperimetry.bounds.incl_s"),
        "unattributed_s": wall_s - reported_self,
    }
    return metrics


def check_accounting(ck, recorder: LayerRecorder) -> None:
    """Checks that the pool workers' share of the totals came back.

    Every block a sweep runs is timed once, in the parent or in a
    worker, so the timed block count on both sides must equal the
    sweep's own ``parallel.blocks`` count; a lost or doubled worker
    merge breaks it.  Workers run concurrently, so their summed block
    time cannot exceed the parent's sweep time times their number.
    """
    parent = recorder.totals
    workers = recorder.worker_totals()
    blocks = recorder._obs.OBS.counters.get("parallel.blocks", 0.0)
    ck.expect(
        "every sweep block timed once, pool workers included",
        lambda: parent.get("parallel.task.calls", 0.0)
        + workers.get("parallel.task.calls", 0.0) == blocks,
    )
    ck.expect(
        "worker block time <= workers x parent sweep time",
        lambda: workers.get("parallel.task.incl_s", 0.0)
        <= workers.get("worker_procs", 0.0)
        * parent.get("parallel.sweep.incl_s", 0.0),
    )

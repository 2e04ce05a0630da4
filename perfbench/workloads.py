"""The benchmark's five workloads, driven through ``repro``'s public API.

Each workload is a :class:`Workload` with

* ``setup(seed, scale)`` — build the inputs (untimed by the run, timed
  as set-up): everything random derives from *seed*, and the run gets
  only these inputs;
* ``run(inputs)`` — the timed part;
* ``record(result)`` — the simulated statistics kept as reference;
* ``check(ck, inputs, result, ref, full)`` — reference comparison (when
  *ref* applies), the paper's gates at full scale, and invariants that
  hold for any seed;
* ``headline(result)`` — the paper comparison, where one exists.

``scale`` is ``"full"`` (the benchmark) or ``"tiny"`` (``smoke.py``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import REL

#: Seed whose inputs the reference values in ``reference.json`` were
#: recorded with.
DEFAULT_SEED = 0

LINK_BW = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # do the inputs depend on the seed?
    setup: Callable
    run: Callable
    record: Callable
    check: Callable
    headline: Callable = lambda result: None


def _gap_pct(simulated: float, paper: float) -> float:
    return abs(simulated / paper - 1.0) * 100.0


# --------------------------------------------------------------------- #
# caps_strong_scaling — Table 4 / Figure 6 through the scalar router


def caps_setup(seed: int, scale: str) -> dict:
    from repro.experiments.strongscaling import (
        STRONG_SCALING_MATRIX_DIM,
        STRONG_SCALING_TABLE4,
    )
    from repro.kernels.caps import CapsConfig, caps_steps

    if scale == "full":
        table, n = list(STRONG_SCALING_TABLE4), STRONG_SCALING_MATRIX_DIM
    else:
        table = [
            (2, 343, 4, (2, 1, 1, 1), (2, 1, 1, 1)),
            (4, 686, 4, (4, 1, 1, 1), (2, 2, 1, 1)),
        ]
        n = 2744
    rounds = 0
    for _mp, ranks, _cores, _cur, _prop in table:
        steps = caps_steps(CapsConfig(n=n, num_ranks=ranks))
        rounds += 2 * sum(s.group_size - 1 for s in steps)
    return {"table": table, "matrix_dim": n, "ops": rounds}


def caps_run(inputs: dict):
    from repro.experiments.strongscaling import run_strong_scaling

    return run_strong_scaling(
        matrix_dim=inputs["matrix_dim"], table=inputs["table"]
    )


def caps_record(result) -> dict:
    return {
        curve: [
            {
                "communication_time": p.communication_time,
                "computation_time": p.computation_time,
                "step_times": list(p.result.step_times),
            }
            for p in getattr(result, curve)
        ]
        for curve in ("current", "proposed")
    }


def caps_check(ck, inputs, result, ref, full) -> None:
    table = inputs["table"]
    for curve, col in (("current", 3), ("proposed", 4)):
        for i, row in enumerate(table):
            tag = f"{curve}[{row[0]}mp]"

            def point(i=i, curve=curve):
                return getattr(result, curve)[i]

            ck.expect(f"{tag} geometry", lambda i=i, row=row, col=col,
                      point=point: point().result.geometry.dims == row[col])
            ck.close(
                f"{tag} comm = sum of steps",
                lambda point=point: point().communication_time,
                # comm is the step sum; recompute it from the steps
                _safe(lambda point=point: sum(point().result.step_times)),
            )
            ck.expect(f"{tag} steps > 0", lambda point=point: min(
                point().result.step_times) > 0)
    if ref is not None:
        rec = _safe(lambda: caps_record(result))
        for curve, points in ref.items():
            for i, want in enumerate(points):
                for field, value in want.items():
                    ck.close(f"{curve}[{i}] {field}",
                             lambda curve=curve, i=i, field=field:
                             rec[curve][i][field],
                             value)
    # Rows whose two geometries coincide must simulate identically.
    for i, row in enumerate(table):
        if row[3] == row[4]:
            ck.close(f"unique geometry {row[0]}mp",
                     lambda i=i: result.current[i].result.step_times,
                     _safe(lambda i=i: result.proposed[i].result.step_times))
    if full:
        # Figure 6: linear on proposed geometries, sub-linear on current.
        ck.expect("Fig 6 proposed speedup in [2.8, 5.5]",
                  lambda: 2.8 <= result.speedup("proposed") <= 5.5)
        ck.expect("Fig 6 proposed speedup above current",
                  lambda: result.speedup("proposed")
                  > result.speedup("current"))


def caps_headline(result) -> dict:
    from repro.analysis.paperdata import FIGURE_6_STRONG_SCALING_TIMES

    paper = FIGURE_6_STRONG_SCALING_TIMES["proposed"]
    measured = paper[2] / paper[8]
    sim = result.speedup("proposed")
    return {"what": "Fig 6 proposed 2->8 midplane communication speedup",
            "simulated": sim, "paper": measured,
            "gap_pct": _gap_pct(sim, measured)}


def _safe(fn):
    """Expected value computed from the result; NaN if that fails (the
    comparison then fails too)."""
    try:
        return fn()
    except Exception:
        return math.nan


# --------------------------------------------------------------------- #
# fluid_sweeps — Figures 3/4 pairing grid plus a fluid fault sweep


def fluid_setup(seed: int, scale: str) -> dict:
    from repro.allocation.enumeration import (
        achievable_midplane_counts,
        enumerate_geometries,
    )
    from repro.allocation.geometry import PartitionGeometry
    from repro.machines.catalog import JUQUEEN, MIRA

    full = scale == "full"
    grids = {
        m.name: [
            g
            for c in achievable_midplane_counts(m)
            if full or c <= 2
            for g in enumerate_geometries(m, c)
        ]
        for m in (MIRA, JUQUEEN)
    }
    fault = {
        "geometry": PartitionGeometry((4, 2, 1, 1) if full else (1, 1, 1, 1)),
        "max_failures": 4 if full else 1,
        "trials": 25 if full else 3,
        "seed": seed,
    }
    scenarios = 1 + fault["max_failures"] * fault["trials"]
    return {
        "grids": grids,
        "fault": fault,
        "jobs": os.cpu_count() or 1,
        "ops": sum(len(g) for g in grids.values()) + scenarios,
    }


def fluid_run(inputs: dict) -> dict:
    from repro.experiments.faultstudy import fluid_fault_sweep
    from repro.experiments.pairing import run_pairing_sweep

    jobs = inputs["jobs"]
    pairing = {
        name: run_pairing_sweep(grid, jobs=jobs)
        for name, grid in inputs["grids"].items()
    }
    f = inputs["fault"]
    rows = fluid_fault_sweep(
        f["geometry"], max_failures=f["max_failures"], trials=f["trials"],
        seed=f["seed"], jobs=jobs,
    )
    return {"pairing": pairing, "faults": rows}


def _disconnected(row) -> int:
    return 0 if row.degraded is None else row.degraded.disconnected_flows


def fluid_record(result) -> dict:
    return {
        "pairing": {
            name: [
                [list(r.geometry.dims), r.time_seconds, r.min_rate,
                 r.max_rate, r.num_flows]
                for r in rows
            ]
            for name, rows in result["pairing"].items()
        },
        "faults": [
            [r.failures, r.trial, r.seed, r.bandwidth, _disconnected(r)]
            for r in result["faults"]
        ],
    }


def fluid_check(ck, inputs, result, ref, full) -> None:
    from repro.analysis.paperdata import TABLE_1_MIRA_IMPROVED
    from repro.experiments.faultstudy import surviving_bisection_bandwidth
    from repro.faults import FaultSet
    from repro.sharedmem import active_segments

    for name, grid in inputs["grids"].items():
        def rows(name=name):
            return result["pairing"][name]

        ck.expect(f"{name} geometries in order",
                  lambda grid=grid, rows=rows:
                  [r.geometry for r in rows()] == grid)
        ck.close(f"{name} one flow per node",
                 lambda rows=rows: [r.num_flows for r in rows()],
                 [g.num_nodes for g in grid])
        ck.expect(f"{name} times positive",
                  lambda rows=rows: min(r.time_seconds for r in rows()) > 0)
    if full:
        # Figure 3: x2 at 4/8/16 midplanes, bisection-limited 4/3 at 24.
        for row in TABLE_1_MIRA_IMPROVED:
            mp = row["midplanes"]
            want = 4.0 / 3.0 if mp == 24 else 2.0
            ck.close(f"Fig 3 ratio at {mp} midplanes",
                     lambda row=row: _pairing_ratio(result, row), want,
                     rel=1e-6)

    f = inputs["fault"]
    n_rows = 1 + f["max_failures"] * f["trials"]
    faults = lambda: result["faults"]  # noqa: E731
    ck.expect("fault sweep row count", lambda: len(faults()) == n_rows)
    ck.expect("fault seeds derive from the input seed", lambda: [
        r.seed for r in faults()] == [
        f["seed"] + 1000 * r.failures + r.trial for r in faults()])
    ck.close("k=0 row equals the cut arithmetic",
             lambda: faults()[0].bandwidth,
             surviving_bisection_bandwidth(f["geometry"].network(),
                                           FaultSet()))
    ck.expect("surviving bandwidths non-negative",
              lambda: min(r.bandwidth for r in faults()) >= 0)
    if ref is not None:
        rec = _safe(lambda: fluid_record(result))
        for name, want in ref["pairing"].items():
            ck.expect(f"{name} pairing geometries",
                      lambda name=name, want=want: [
                          r[0] for r in rec["pairing"][name]]
                      == [w[0] for w in want])
            for j, label in enumerate(
                ("time", "min_rate", "max_rate", "num_flows"), start=1
            ):
                ck.close(f"{name} pairing {label}",
                         lambda name=name, j=j: [
                             r[j] for r in rec["pairing"][name]],
                         [w[j] for w in want])
        for j, label in enumerate(
            ("failures", "trial", "seed", "bandwidth", "disconnected")
        ):
            ck.close(f"fault rows {label}",
                     lambda j=j: [r[j] for r in rec["faults"]],
                     [w[j] for w in ref["faults"]])
    ck.expect("no repro segment left in /dev/shm",
              lambda: active_segments() == [])


def _pairing_ratio(result, table_row) -> float:
    times = {r.geometry.dims: r.time_seconds
             for r in result["pairing"]["Mira"]}
    return times[table_row["current"]] / times[table_row["proposed"]]


def fluid_headline(result) -> dict:
    from repro.analysis.paperdata import (
        PAIRING_MEASURED_RATIO_FLOOR,
        TABLE_1_MIRA_IMPROVED,
    )

    sims = [_pairing_ratio(result, r) for r in TABLE_1_MIRA_IMPROVED
            if r["midplanes"] in (4, 8, 16)]
    sim = sum(sims) / len(sims)
    return {"what": "Fig 3 Mira pairing ratio at 4/8/16 midplanes vs "
                    "the measured floor",
            "simulated": sim, "paper": PAIRING_MEASURED_RATIO_FLOOR,
            "gap_pct": _gap_pct(sim, PAIRING_MEASURED_RATIO_FLOOR)}


# --------------------------------------------------------------------- #
# simmpi workloads — the event engine on a static exchange

ROUNDS = 3


def _world(torus, peers: np.ndarray, volumes: np.ndarray) -> dict:
    from repro.netsim.network import LinkNetwork
    from repro.simmpi import SendRecv, VirtualMpi

    world = VirtualMpi(torus, link_bandwidth=LINK_BW)
    world.warm_routes([(r, int(p)) for r, p in enumerate(peers)])
    peer_of = peers.tolist()
    vols = volumes.tolist()

    def program(rank, size):
        for k in range(ROUNDS):
            yield SendRecv(peer=peer_of[rank], gb=vols[rank][k], tag=k)

    return {
        "world": world,
        "program": program,
        "peers": peers,
        "volumes": volumes,
        "max_rate": float(LinkNetwork(torus, LINK_BW).capacities.max()),
    }


def _staggered(seed: int, n: int, step: float) -> np.ndarray:
    """Per-rank volumes, distinct per rank so completions come one flow
    per event.  The seed jitters each rank's stagger by less than half a
    step: the volumes change with the seed, their order does not."""
    stagger = np.arange(n) + 0.5 * np.random.default_rng(seed).random(n)
    return 0.25 + step * stagger[:, None] + 0.05 * np.arange(ROUNDS)[None, :]


def _antipodes(torus) -> np.ndarray:
    n = torus.num_vertices
    coords = np.stack(np.unravel_index(np.arange(n), torus.dims), axis=1)
    d = np.asarray(torus.dims)
    return np.ravel_multi_index(tuple(((coords + d // 2) % d).T), torus.dims)


def neighbour_setup(seed: int, scale: str) -> dict:
    from repro.topology import Torus

    torus = Torus((64, 32) if scale == "full" else (8, 4))
    n = torus.num_vertices
    world = _world(torus, np.arange(n) ^ 1, _staggered(seed, n, 0.001))
    return {"worlds": {"torus": world}, "ops": n * ROUNDS}


def contended_setup(seed: int, scale: str) -> dict:
    from repro.allocation.geometry import PartitionGeometry
    from repro.topology import Torus

    if scale == "full":
        tori = {label: PartitionGeometry(dims).bgq_network() for label, dims
                in (("current", (4, 1, 1, 1)), ("proposed", (2, 2, 1, 1)))}
    else:
        tori = {"current": Torus((8, 2)), "proposed": Torus((4, 4))}
    n = tori["current"].num_vertices
    volumes = _staggered(seed, n, 1e-5)
    worlds = {label: _world(t, _antipodes(t), volumes)
              for label, t in tori.items()}
    return {"worlds": worlds, "ops": len(worlds) * n * ROUNDS}


def simmpi_run(inputs: dict) -> dict:
    return {label: w["world"].run(w["program"])
            for label, w in inputs["worlds"].items()}


def simmpi_record(result) -> dict:
    return {
        label: {
            "time": r.time,
            "reroutes": r.reroutes,
            "restores": r.restores,
            "degraded_flow_seconds": r.degraded_flow_seconds,
            **{field: [getattr(s, field) for s in r.ranks]
               for field in ("finish_time", "gb_sent", "messages_sent",
                             "compute_seconds")},
        }
        for label, r in result.items()
    }


def simmpi_check(ck, inputs, result, ref, full) -> None:
    for label, w in inputs["worlds"].items():
        def run(label=label):
            return result[label]

        def ranks(field, run=run):
            return [getattr(s, field) for s in run().ranks]

        vols = w["volumes"]
        ck.close(f"{label} bytes sent = program volume",
                 lambda ranks=ranks: ranks("gb_sent"), vols.sum(axis=1))
        ck.close(f"{label} messages sent",
                 lambda ranks=ranks: ranks("messages_sent"),
                 np.full(len(vols), ROUNDS))
        ck.expect(f"{label} makespan >= volume / link bandwidth",
                  lambda run=run, vols=vols, w=w: run().time
                  >= vols.sum(axis=1).max() / w["max_rate"] * (1 - REL))
        ck.close(f"{label} makespan = last finish",
                 lambda run=run: run().time,
                 _safe(lambda ranks=ranks: max(ranks("finish_time"))))
    if ref is not None:
        rec = _safe(lambda: simmpi_record(result))
        for label, want in ref.items():
            for field, value in want.items():
                ck.close(f"{label} {field}",
                         lambda label=label, field=field: rec[label][field],
                         value)


def neighbour_check(ck, inputs, result, ref, full) -> None:
    simmpi_check(ck, inputs, result, ref, full)
    # rank ^ 1 is a torus neighbour over a link no other pair uses, so
    # each round lasts as long as the pair's larger message.
    w = inputs["worlds"]["torus"]
    vols = w["volumes"]
    pair_max = np.maximum(vols, vols[w["peers"]])
    ck.close("dedicated-link finish times",
             lambda: [s.finish_time for s in result["torus"].ranks],
             pair_max.sum(axis=1) / LINK_BW)


def contended_check(ck, inputs, result, ref, full) -> None:
    simmpi_check(ck, inputs, result, ref, full)
    if full:
        # The paper's x2: proposed doubles the bisection bandwidth.
        ck.expect("current/proposed makespan ratio ~2",
                  lambda: 1.9 <= _contended_ratio(result) <= 2.1)


def _contended_ratio(result) -> float:
    return result["current"].time / result["proposed"].time


def contended_headline(result) -> dict:
    from repro.analysis.paperdata import PAIRING_MEASURED_RATIO_FLOOR

    sim = _contended_ratio(result)
    return {"what": "antipodal exchange current/proposed makespan ratio "
                    "vs the measured pairing floor",
            "simulated": sim, "paper": PAIRING_MEASURED_RATIO_FLOOR,
            "gap_pct": _gap_pct(sim, PAIRING_MEASURED_RATIO_FLOOR)}


# --------------------------------------------------------------------- #
# isoperimetry_probe — the section 3 conjecture by exhaustive search


def iso_setup(seed: int, scale: str) -> dict:
    from repro.isoperimetry.exact import ExactSolver

    tori = [(3, 3), (4, 3), (4, 4), (5, 4)] if scale == "full" else [
        (3, 3), (4, 3)]
    subsets = 0
    for dims in tori:
        n = math.prod(dims)
        subsets += sum(math.comb(n, t) for t in range(1, n // 2 + 1))
    # The probe returns only a counterexample; record the per-t minimum
    # perimeters it computes on the way so they can be checked.
    profile: list[tuple[int, int, float]] = []
    original = ExactSolver.min_perimeter

    def recording(self, t):
        out = original(self, t)
        profile.append((self.num_vertices, t, out[0]))
        return out

    ExactSolver.min_perimeter = recording
    return {"tori": tori, "profile": profile, "ops": subsets}


def iso_run(inputs: dict) -> dict:
    from repro.isoperimetry import conjecture_counterexample

    inputs["profile"].clear()
    found = [conjecture_counterexample(dims) for dims in inputs["tori"]]
    return {"tori": inputs["tori"], "counterexamples": found,
            "profile": list(inputs["profile"])}


def _profiles(result) -> list[list[float]]:
    """Per-torus minimum perimeters for t = 1..|V|/2, in probe order."""
    out, it = [], iter(result["profile"])
    for dims in result["tori"]:
        n = math.prod(dims)
        rows = [next(it) for _ in range(n // 2)]
        if [(v, t) for v, t, _ in rows] != [(n, t) for t in
                                            range(1, n // 2 + 1)]:
            raise ValueError(f"profile of {dims} out of order")
        out.append([cut for _, _, cut in rows])
    return out


def iso_record(result) -> dict:
    return {"profile": _profiles(result)}


def iso_check(ck, inputs, result, ref, full) -> None:
    from repro.isoperimetry.bounds import torus_isoperimetric_bound

    profiles = _safe(lambda: _profiles(result))
    for i, dims in enumerate(inputs["tori"]):
        n = math.prod(dims)
        ck.expect(f"{dims} no counterexample to the conjecture",
                  lambda i=i: result["counterexamples"][i] is None)
        bounds = [torus_isoperimetric_bound(dims, t).value
                  for t in range(1, n // 2 + 1)]
        ck.expect(f"{dims} exact >= Theorem 3.1 bound for every t",
                  lambda i=i, bounds=bounds: all(
                      e >= b - 1e-9 for e, b in
                      zip(profiles[i], bounds, strict=True)))
        if ref is not None:
            ck.close(f"{dims} minimum perimeters",
                     lambda i=i: profiles[i],
                     ref["profile"][i])


# --------------------------------------------------------------------- #

WORKLOADS = {
    w.name: w
    for w in (
        Workload("caps_strong_scaling", False, caps_setup, caps_run,
                 caps_record, caps_check, caps_headline),
        Workload("fluid_sweeps", True, fluid_setup, fluid_run,
                 fluid_record, fluid_check, fluid_headline),
        Workload("simmpi_neighbour", True, neighbour_setup, simmpi_run,
                 simmpi_record, neighbour_check),
        Workload("simmpi_contended", True, contended_setup, simmpi_run,
                 simmpi_record, contended_check, contended_headline),
        Workload("isoperimetry_probe", False, iso_setup, iso_run,
                 iso_record, iso_check),
    )
}

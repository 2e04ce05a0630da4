"""Command-line interface: ``python -m repro`` / ``repro-nets``.

Subcommands
-----------
``machines``
    List the machine catalog with sizes and bisection bandwidths.
``analyze <machine>``
    Best/worst geometry per achievable size; flag improvable ones.
``geometry <dims...>``
    Inspect one partition geometry (bandwidth, node dims, shape).
``pairing <dims...>``
    Simulate the bisection pairing benchmark on a geometry.
``table <1-7>`` / ``figure <1-7>``
    Regenerate a paper table or figure as ASCII.
``advise <machine> <size> <available-dims...> --wait S --fraction F``
    Run the contention-aware scheduling advisor on a job.
``faults --machine M --size P --max-failures K``
    Geometry-robustness table: surviving bisection bandwidth of the
    default vs optimal geometry under sampled link failures.

``trace summarize <path>``
    Render the spans, counters, and cache stats of a recorded JSONL
    trace.
``lint [paths...]``
    Run the reprolint static-analysis pass (see
    :mod:`repro.staticcheck` and ``docs/static_analysis.md``); exits
    non-zero on unsuppressed findings unless ``--soft``.

The sweep-shaped subcommands (``pairing --sweep``, ``design-search``,
``variability``, ``faults``) accept ``--jobs N`` to evaluate their grids
across N worker processes (0 = auto-detect); results are bit-identical
to ``--jobs 1`` (see :mod:`repro.parallel`).  Note the distinction on
``variability``: ``--num-jobs`` is the *stream length* (identical jobs
per selection rule) while ``--jobs`` is, as everywhere else, the worker
process count.

The same sweep subcommands accept ``--trace PATH`` to record a JSONL
trace of the run (spans, counters, merged worker cache stats; see
:mod:`repro.observability`), equivalent to setting ``REPRO_TRACE=PATH``
in the environment, and ``--checkpoint PATH`` to journal completed
tasks to a JSONL checkpoint: a killed sweep re-run with the same
arguments and checkpoint resumes from the completed tasks and produces
bit-identical output (see :mod:`repro.resilience`).

``faults --fluid-sweep`` runs the flow-level fault scenario sweep on
the optimal geometry instead of the cut-arithmetic ranking table;
scenarios whose failures sever some antipodal pair are printed as
DEGRADED rows (with the disconnect witness) instead of aborting.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


def _add_trace_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a JSONL observability trace of this run to PATH "
        "(same as REPRO_TRACE=PATH; inspect with 'trace summarize')",
    )


def _add_checkpoint_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="journal completed sweep tasks to a JSONL checkpoint at "
        "PATH and resume from it on restart (bit-identical to an "
        "uninterrupted run)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-nets",
        description=(
            "Network Partitioning and Avoidable Contention (SPAA 2020) "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list the machine catalog")

    p = sub.add_parser("analyze", help="analyze a machine's allocations")
    p.add_argument("machine", help="machine name (e.g. mira, juqueen)")
    p.add_argument(
        "--improvable-only",
        action="store_true",
        help="show only sizes where geometry matters",
    )

    p = sub.add_parser("geometry", help="inspect a partition geometry")
    p.add_argument("dims", type=int, nargs="+", help="midplane dimensions")

    p = sub.add_parser("pairing", help="simulate the pairing benchmark")
    p.add_argument("dims", type=int, nargs="*", help="midplane dimensions")
    p.add_argument("--rounds", type=int, default=26)
    p.add_argument(
        "--sweep", metavar="MACHINE",
        help="instead of one geometry, sweep the best and worst "
        "geometries of every achievable size of MACHINE",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --sweep (0 = auto; default: 1)",
    )
    _add_trace_flag(p)
    _add_checkpoint_flag(p)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=range(1, 8))

    p = sub.add_parser("figure", help="regenerate a paper figure's data")
    p.add_argument("number", type=int, choices=range(1, 8))

    p = sub.add_parser(
        "design-search",
        help="rank machine geometries against a baseline (Section 5)",
    )
    p.add_argument("baseline", help="baseline machine (e.g. juqueen)")
    p.add_argument("--max-midplanes", type=int, default=56)
    p.add_argument("--top", type=int, default=10)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for candidate scoring (0 = auto)",
    )
    _add_trace_flag(p)
    _add_checkpoint_flag(p)

    p = sub.add_parser(
        "variability",
        help="run-time spread of size-only requests (Section 4.3 risk)",
    )
    p.add_argument("machine")
    p.add_argument("size", type=int, help="job size in midplanes")
    p.add_argument("--num-jobs", type=int, default=100,
                   help="identical jobs per selection rule (default: 100)")
    p.add_argument("--fraction", type=float, default=0.6,
                   help="contention-bound fraction of run time")
    p.add_argument("--runtime", type=float, default=3600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, one selection rule each (0 = auto)",
    )
    _add_trace_flag(p)
    _add_checkpoint_flag(p)

    p = sub.add_parser(
        "faults",
        help="geometry robustness under sampled link failures",
    )
    p.add_argument(
        "--machine", default="mira",
        help="machine name (default: mira)",
    )
    p.add_argument(
        "--size", type=int, default=16,
        help="partition size in midplanes (default: 16)",
    )
    p.add_argument(
        "--max-failures", type=int, default=8,
        help="largest sampled failure count K (default: 8)",
    )
    p.add_argument(
        "--trials", type=int, default=20,
        help="failure draws per failure count (default: 20)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the trial grid (0 = auto)",
    )
    p.add_argument(
        "--fluid-sweep", action="store_true",
        help="run the flow-level fault scenario sweep on the optimal "
        "geometry (batch fault-masked routing); disconnected "
        "scenarios appear as DEGRADED rows instead of aborting",
    )
    _add_trace_flag(p)
    _add_checkpoint_flag(p)

    p = sub.add_parser(
        "lint",
        help="run the reprolint static-analysis pass "
        "(determinism, float-discipline, checkpoint contracts)",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to PATH instead of stdout",
    )
    p.add_argument(
        "--soft", action="store_true",
        help="report findings but always exit 0 (advisory pass, used "
        "for benchmarks/ in CI)",
    )
    p.add_argument(
        "--rules", metavar="ID[,ID...]", default=None,
        help="comma-separated rule ids to run (default: all; see "
        "docs/static_analysis.md)",
    )
    p.add_argument(
        "--no-docs-check", action="store_true",
        help="skip the REPRO_* knob <-> docs drift check",
    )
    p.add_argument(
        "--show-suppressed", action="store_true",
        help="also list suppressed findings with their reasons",
    )

    p = sub.add_parser(
        "trace",
        help="inspect a recorded JSONL observability trace",
    )
    p.add_argument(
        "action", choices=["summarize"],
        help="what to do with the trace file",
    )
    p.add_argument("path", help="JSONL trace written by --trace/REPRO_TRACE")

    p = sub.add_parser("advise", help="scheduling advisor for a hinted job")
    p.add_argument("machine")
    p.add_argument("size", type=int, help="job size in midplanes")
    p.add_argument(
        "available", type=int, nargs="+",
        help="geometry currently available (midplane dims)",
    )
    p.add_argument(
        "--wait", type=float, default=600.0,
        help="expected seconds until an optimal partition frees up",
    )
    p.add_argument(
        "--runtime", type=float, default=3600.0,
        help="estimated runtime on an optimal partition (s)",
    )
    p.add_argument(
        "--fraction", type=float, default=0.5,
        help="contention-bound fraction of the runtime [0, 1]",
    )
    return parser


def _cmd_machines() -> int:
    from .analysis.report import render_table
    from .machines.catalog import MACHINES

    rows = [
        {
            "name": m.name,
            "midplanes": m.num_midplanes,
            "nodes": m.num_nodes,
            "geometry": m.midplane_dims,
            "bisection": m.bisection_bandwidth(),
        }
        for m in MACHINES.values()
    ]
    print(
        render_table(
            rows,
            ["name", "geometry", "midplanes", "nodes", "bisection"],
            title="Blue Gene/Q machine catalog",
        )
    )
    return 0


def _cmd_analyze(machine_name: str, improvable_only: bool) -> int:
    from .allocation.optimizer import best_worst_table
    from .analysis.report import render_table
    from .machines.catalog import get_machine

    machine = get_machine(machine_name)
    rows = []
    for r in best_worst_table(machine):
        if improvable_only and not r.is_improved:
            continue
        rows.append(
            {
                "midplanes": r.num_midplanes,
                "nodes": r.num_nodes,
                "worst": r.current.dims,
                "worst_bw": r.current_bw,
                "best": r.proposed.dims,
                "best_bw": r.proposed_bw,
                "gain": f"x{r.improvement:.2f}",
            }
        )
    print(
        render_table(
            rows,
            ["midplanes", "nodes", "worst", "worst_bw", "best",
             "best_bw", "gain"],
            title=f"{machine.name} {machine.midplane_dims}: geometry "
            "best/worst per size",
        )
    )
    return 0


def _cmd_geometry(dims: Sequence[int]) -> int:
    from .allocation.geometry import PartitionGeometry

    geo = PartitionGeometry(tuple(dims))
    print(f"geometry        : {geo.label()}")
    print(f"midplanes       : {geo.num_midplanes}")
    print(f"compute nodes   : {geo.num_nodes}")
    print(f"node dimensions : {geo.node_dims}")
    print(f"bisection (norm): {geo.normalized_bisection_bandwidth}")
    print(f"bisection (GB/s): {geo.bisection_bandwidth_gb_per_s():.0f}")
    print(f"BW per node     : {geo.bandwidth_per_node:.4f}")
    print(f"ring-shaped     : {geo.is_ring()}")
    return 0


def _cmd_pairing(
    dims: Sequence[int],
    rounds: int,
    sweep: str | None,
    jobs: int,
    checkpoint: str | None = None,
) -> int:
    from .allocation.geometry import PartitionGeometry
    from .experiments.pairing import PairingParameters, run_pairing

    params = PairingParameters(rounds=rounds)
    if sweep is not None:
        return _cmd_pairing_sweep(sweep, params, jobs, checkpoint)
    if not dims:
        raise ValueError(
            "pairing needs a geometry (midplane dims) or --sweep MACHINE"
        )
    geo = PartitionGeometry(tuple(dims))
    res = run_pairing(geo, params)
    print(f"geometry      : {geo.label()} ({geo.num_nodes} nodes)")
    print(f"pairs         : {res.num_flows}")
    print(f"rate per flow : {res.min_rate:.3f}..{res.max_rate:.3f} GB/s")
    print(f"time          : {res.time_seconds:.2f} s")
    return 0


def _cmd_pairing_sweep(
    machine_name: str, params, jobs: int, checkpoint: str | None = None,
) -> int:
    from .allocation.optimizer import best_worst_table
    from .analysis.report import render_table
    from .experiments.pairing import run_pairing_sweep
    from .machines.catalog import get_machine

    machine = get_machine(machine_name)
    comparisons = best_worst_table(machine)
    geometries = []
    for r in comparisons:
        geometries.append(r.current)
        geometries.append(r.proposed)
    results = run_pairing_sweep(
        geometries, params, jobs=jobs, checkpoint=checkpoint
    )
    rows = []
    for r, worst_res, best_res in zip(
        comparisons, results[0::2], results[1::2]
    ):
        rows.append(
            {
                "midplanes": r.num_midplanes,
                "worst": r.current.dims,
                "worst_s": f"{worst_res.time_seconds:.1f}",
                "best": r.proposed.dims,
                "best_s": f"{best_res.time_seconds:.1f}",
                "speedup": (
                    f"x{worst_res.time_seconds / best_res.time_seconds:.2f}"
                ),
            }
        )
    print(render_table(
        rows,
        ["midplanes", "worst", "worst_s", "best", "best_s", "speedup"],
        title=f"{machine.name}: pairing benchmark, worst vs best "
        f"geometry per size",
    ))
    return 0


def _cmd_table(number: int) -> int:
    from .analysis import tables
    from .analysis.report import render_table

    fn = getattr(tables, f"table{number}")
    data = fn()
    if number == 5:
        rows = []
        for size in sorted(data):
            row = {"midplanes": size}
            for name, val in data[size].items():
                row[name] = "-" if val is None else (
                    f"{'x'.join(map(str, val[0]))} ({val[1]})"
                )
            rows.append(row)
        cols = ["midplanes"] + list(next(iter(data.values())))
        print(render_table(rows, cols, title=f"Table {number}"))
        return 0
    cols = list(data[0].keys()) if data else []
    print(render_table(data, cols, title=f"Table {number}"))
    return 0


def _cmd_figure(number: int) -> int:
    from .analysis import figures
    from .analysis.report import render_series

    fn = getattr(figures, f"figure{number}")
    series = fn()
    print(render_series(series, title=f"Figure {number}"))
    return 0


def _cmd_advise(
    machine_name: str,
    size: int,
    available: Sequence[int],
    wait: float,
    runtime: float,
    fraction: float,
) -> int:
    from .allocation.advisor import JobRequest, SchedulingAdvisor
    from .allocation.geometry import PartitionGeometry
    from .allocation.policy import FreeCuboidPolicy
    from .machines.catalog import get_machine

    machine = get_machine(machine_name)
    advisor = SchedulingAdvisor(FreeCuboidPolicy(machine))
    job = JobRequest(
        num_midplanes=size,
        optimal_runtime=runtime,
        contention_fraction=fraction,
    )
    avail = PartitionGeometry(tuple(available))
    decision = advisor.decide(job, avail, expected_wait=wait)
    print(f"machine          : {machine.name}")
    print(f"available        : {avail.label()} "
          f"(BW {avail.normalized_bisection_bandwidth})")
    print(f"recommendation   : {decision.action.upper()}")
    print(f"allocate-now time: {decision.available_time:.0f} s")
    print(f"wait-then-run    : {decision.wait_time:.0f} s")
    print(f"regret avoided   : {decision.regret:.0f} s")
    breakeven = advisor.breakeven_wait(job, avail)
    print(f"break-even wait  : {breakeven:.0f} s")
    return 0


def _cmd_faults(
    machine_name: str,
    size: int,
    max_failures: int,
    trials: int,
    seed: int,
    jobs: int,
    fluid_sweep: bool = False,
    checkpoint: str | None = None,
) -> int:
    from .analysis.report import render_table
    from .experiments.faultstudy import (
        default_geometry_for_machine,
        degraded_bisection_study,
    )
    from .machines.catalog import get_machine
    from .allocation.optimizer import best_geometry_for_machine

    machine = get_machine(machine_name)
    default = default_geometry_for_machine(machine, size)
    optimal = best_geometry_for_machine(machine, size)
    if fluid_sweep:
        return _cmd_faults_fluid(
            machine, optimal, max_failures, trials, seed, jobs, checkpoint
        )
    rows = [
        {
            "failures": r.failures,
            "trials": r.trials,
            "default_mean": f"{r.default_mean_bw:.1f}",
            "default_min": f"{r.default_min_bw:.0f}",
            "optimal_mean": f"{r.optimal_mean_bw:.1f}",
            "optimal_min": f"{r.optimal_min_bw:.0f}",
            "stable": f"{100 * r.ranking_stable_fraction:.0f}%",
        }
        for r in degraded_bisection_study(
            machine, size, max_failures=max_failures, trials=trials,
            seed=seed, jobs=jobs, checkpoint=checkpoint,
        )
    ]
    print(render_table(
        rows,
        ["failures", "trials", "default_mean", "default_min",
         "optimal_mean", "optimal_min", "stable"],
        title=(
            f"{machine.name} {size} midplanes: surviving bisection, "
            f"default {default.label()} vs optimal {optimal.label()} "
            f"(seed {seed})"
        ),
    ))
    return 0


def _cmd_faults_fluid(
    machine, geometry, max_failures: int, trials: int, seed: int,
    jobs: int, checkpoint: str | None,
) -> int:
    from .analysis.report import render_table
    from .experiments.faultstudy import fluid_fault_sweep

    results = fluid_fault_sweep(
        geometry, max_failures=max_failures, trials=trials, seed=seed,
        jobs=jobs, checkpoint=checkpoint,
    )
    rows = []
    degraded_count = 0
    for r in results:
        if r.degraded is not None:
            degraded_count += 1
            w_src, w_dst = r.degraded.witness
            rows.append({
                "failures": r.failures,
                "trial": r.trial,
                "seed": r.seed,
                "bandwidth": f"{r.bandwidth:.3f}",
                "status": (
                    f"DEGRADED ({r.degraded.disconnected_flows} flows "
                    f"cut, witness {tuple(w_src)}-{tuple(w_dst)})"
                ),
            })
        else:
            rows.append({
                "failures": r.failures,
                "trial": r.trial,
                "seed": r.seed,
                "bandwidth": f"{r.bandwidth:.3f}",
                "status": "ok",
            })
    print(render_table(
        rows,
        ["failures", "trial", "seed", "bandwidth", "status"],
        title=(
            f"{machine.name} optimal geometry {geometry.label()}: "
            f"flow-level surviving bisection under sampled link "
            f"failures (seed {seed}, {degraded_count} degraded)"
        ),
    ))
    return 0


def _cmd_design_search(
    baseline: str, max_midplanes: int, top: int, jobs: int,
    checkpoint: str | None = None,
) -> int:
    from .analysis.report import render_table
    from .experiments.designsearch import design_search
    from .machines.catalog import get_machine

    machine = get_machine(baseline)
    search = design_search(
        max_midplanes, machine, jobs=jobs, checkpoint=checkpoint,
    )
    rows = [
        {
            "geometry": c.machine.midplane_dims,
            "midplanes": c.machine.num_midplanes,
            "dominates": c.dominated_baseline,
            "wins": c.wins,
            "total_bw": c.total_bandwidth,
        }
        for c in search[:top]
    ]
    print(render_table(
        rows,
        ["geometry", "midplanes", "dominates", "wins", "total_bw"],
        title=f"Top {len(rows)} of {len(search)} machine designs vs "
        f"{machine.name} (<= {max_midplanes} midplanes)",
    ))
    return 0


def _cmd_variability(
    machine_name: str,
    size: int,
    num_jobs: int,
    fraction: float,
    runtime: float,
    seed: int,
    jobs: int,
    checkpoint: str | None = None,
) -> int:
    from .allocation.advisor import JobRequest
    from .allocation.policy import FreeCuboidPolicy
    from .allocation.variability import SELECTION_RULES, simulate_job_streams
    from .analysis.report import render_table
    from .machines.catalog import get_machine

    machine = get_machine(machine_name)
    policy = FreeCuboidPolicy(machine)
    job = JobRequest(
        num_midplanes=size,
        optimal_runtime=runtime,
        contention_fraction=fraction,
    )
    reports = simulate_job_streams(
        policy, job, num_jobs, SELECTION_RULES, seed=seed, jobs=jobs,
        checkpoint=checkpoint,
    )
    rows = [
        {
            "selection": rep.selection,
            "mean_s": rep.mean,
            "stdev_s": rep.stdev,
            "spread": rep.spread,
            "geometries": rep.distinct_geometries,
        }
        for rep in reports
    ]
    print(render_table(
        rows,
        ["selection", "mean_s", "stdev_s", "spread", "geometries"],
        title=f"{machine.name}: {num_jobs} identical {size}-midplane jobs, "
        f"contention fraction {fraction}",
    ))
    return 0


def _cmd_lint(
    paths: Sequence[str],
    fmt: str,
    output: str | None,
    soft: bool,
    rules: str | None,
    no_docs_check: bool,
    show_suppressed: bool,
) -> int:
    from pathlib import Path

    from . import staticcheck

    only = None
    if rules is not None:
        only = [r.strip() for r in rules.split(",") if r.strip()]
    result = staticcheck.analyze_paths(paths, rules=only, root=Path.cwd())
    if result.files_scanned == 0:
        print(
            f"error: no Python files under {', '.join(map(str, paths))}",
            file=sys.stderr,
        )
        return 2

    if not no_docs_check and only is None:
        docs = staticcheck.find_docs_dir(Path(paths[0]) if paths else Path())
        if docs is not None:
            result.findings.extend(staticcheck.check_knob_docs(docs))
            result.findings.sort()

    if fmt == "json":
        report = staticcheck.render_json(result)
    else:
        report = staticcheck.render_text(
            result, verbose_suppressed=show_suppressed
        )
    if output is not None:
        Path(output).write_text(report + "\n", encoding="utf-8")
        print(f"lint: report -> {output}", file=sys.stderr)
    else:
        print(report)
    if soft or result.clean:
        return 0
    return 1


def _cmd_trace(action: str, path: str) -> int:
    from . import observability
    from .analysis.report import render_table

    assert action == "summarize"
    try:
        summary = observability.summarize_jsonl(path)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2

    span_rows = [
        {
            "span": name,
            "count": agg["count"],
            "total_s": f"{agg['total_s']:.4f}",
            "mean_ms": f"{1000 * agg['mean_s']:.3f}",
        }
        for name, agg in sorted(
            summary["spans"].items(),
            key=lambda kv: -kv[1]["total_s"],
        )
    ]
    counter_rows = [
        {"counter": name, "value": f"{value:g}"}
        for name, value in sorted(summary["counters"].items())
    ] + [
        {"counter": f"{name} (gauge)", "value": f"{value:g}"}
        for name, value in sorted(summary["gauges"].items())
    ]
    cache_rows = [
        {
            "cache": name,
            "hits": info["hits"],
            "misses": info["misses"],
            "hit_rate": f"{100 * info['hit_rate']:.0f}%",
            "size": f"{info['size']}/{info['maxsize']}",
        }
        for name, info in sorted(summary["caches"].items())
        if info["hits"] or info["misses"]
    ]
    print(render_table(
        span_rows, ["span", "count", "total_s", "mean_ms"],
        title=f"Spans ({summary['span_events']} individual events)",
    ))
    print()
    print(render_table(counter_rows, ["counter", "value"],
                       title="Counters"))
    print()
    print(render_table(
        cache_rows, ["cache", "hits", "misses", "hit_rate", "size"],
        title="Caches (merged across worker processes)",
    ))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from . import observability

    trace_path = getattr(args, "trace", None) or (
        observability.env_trace_path()
    )
    prior_enabled = observability.enabled()
    if trace_path and args.command != "trace":
        observability.enable()
    try:
        return _dispatch(args, trace_path, observability)
    finally:
        if not prior_enabled and observability.enabled():
            # --trace enabled collection for this invocation only:
            # restore the pre-call state so in-process callers (tests)
            # stay clean, even on error exits.
            observability.disable()
            observability.reset()


def _dispatch(args, trace_path, observability) -> int:
    code: int | None = None
    try:
        if args.command == "machines":
            code = _cmd_machines()
        elif args.command == "analyze":
            code = _cmd_analyze(args.machine, args.improvable_only)
        elif args.command == "geometry":
            code = _cmd_geometry(args.dims)
        elif args.command == "pairing":
            code = _cmd_pairing(args.dims, args.rounds, args.sweep,
                                args.jobs, args.checkpoint)
        elif args.command == "table":
            code = _cmd_table(args.number)
        elif args.command == "figure":
            code = _cmd_figure(args.number)
        elif args.command == "faults":
            code = _cmd_faults(
                args.machine, args.size, args.max_failures, args.trials,
                args.seed, args.jobs, args.fluid_sweep, args.checkpoint,
            )
        elif args.command == "design-search":
            code = _cmd_design_search(
                args.baseline, args.max_midplanes, args.top, args.jobs,
                args.checkpoint,
            )
        elif args.command == "variability":
            code = _cmd_variability(
                args.machine, args.size, args.num_jobs, args.fraction,
                args.runtime, args.seed, args.jobs, args.checkpoint,
            )
        elif args.command == "lint":
            code = _cmd_lint(
                args.paths, args.format, args.output, args.soft,
                args.rules, args.no_docs_check, args.show_suppressed,
            )
        elif args.command == "trace":
            code = _cmd_trace(args.action, args.path)
        elif args.command == "advise":
            code = _cmd_advise(
                args.machine, args.size, args.available,
                args.wait, args.runtime, args.fraction,
            )
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code is None:
        raise AssertionError(f"unhandled command {args.command!r}")
    if trace_path and args.command != "trace" and code == 0:
        n = observability.export_jsonl(trace_path)
        print(f"trace: {n} records -> {trace_path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""One workload sample in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is ``setup`` (set-up only), ``plain`` (set-up, one untraced run,
checks) or ``traced`` (the same with the layer wrappers and
``repro.observability`` on).  Prints one JSON object on its last line.
``--record-reference`` instead runs every workload at the default seed
and rewrites ``reference.json`` next to this file.

Every sample is a new process, so memos and batch-route slot tables
start empty, as on every CLI invocation.  Run from the repository root
with ``src`` on ``PYTHONPATH`` (``run.py`` does both).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _knobs() -> dict:
    from repro import env

    return {k.name: env.get_raw(k.name) for k in env.knobs()}


def sample(name: str, seed: int, mode: str, scale: str) -> dict:
    import numpy as np

    import repro
    from checks import Checks
    from workloads import DEFAULT_SEED, WORKLOADS

    src = Path.cwd() / "src"
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    wl = WORKLOADS[name]
    inputs = wl.setup(seed, scale)
    out = {"setup_s": time.perf_counter() - T_START, "ops": inputs["ops"]}
    if mode == "setup":
        return out

    recorder = None
    if mode == "traced":
        from repro import observability

        import layertrace

        recorder = layertrace.LayerRecorder()
        layertrace.install(recorder)
        observability.reset()
        observability.enable()

    def timed():
        return wl.run(inputs)

    error = None
    t0 = time.perf_counter()
    try:
        if recorder is None:
            result = timed()
            wall = time.perf_counter() - t0
        else:
            result, wall = recorder.root(timed)
    except Exception as exc:  # the checks below then all fail
        result, wall = None, time.perf_counter() - t0
        error = f"{type(exc).__name__}: {exc}"

    ck = Checks()
    if recorder is not None:
        out["layers"] = layertrace.layer_metrics(recorder, wall)
        layertrace.check_accounting(ck, recorder)
        observability.disable()

    full = scale == "full"
    ref = None
    if full and (seed == DEFAULT_SEED or not wl.seeded):
        ref = json.loads(REFERENCE.read_text())[name]
    wl.check(ck, inputs, result, ref, full)
    headline = None
    if result is not None and full:
        headline = wl.headline(result)
    out.update(
        wall_s=wall,
        peak_rss_mb=_peak_rss_mb(),
        attempted=ck.attempted,
        failed=ck.failed,
        failures=ck.failures,
        error=error,
        headline=headline,
        knobs=_knobs(),
        numpy=np.__version__,
        reference_checked=ref is not None,
    )
    return out


def record_reference() -> None:
    from workloads import DEFAULT_SEED, WORKLOADS

    ref = {}
    for name, wl in WORKLOADS.items():
        ref[name] = wl.record(wl.run(wl.setup(DEFAULT_SEED, "full")))
    REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "plain", "traced"),
                   default="plain")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    print(json.dumps(sample(args.workload, args.seed, args.mode, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

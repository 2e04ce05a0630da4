"""Paper-scale benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample runs ``worker.py`` in a
fresh interpreter (set-up, one timed run, output checks).  Samples
repeat until ``--seconds`` of measuring is spent (the last one may run
past it).  Set-up-only samples are interleaved so that ``setup_s``
rests on at least ``MIN_SETUP_SAMPLES`` samples.

``--trace 0`` reports the end-to-end metrics (medians over untraced
samples).  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics (medians over traced samples) and the
tracing overhead.  The line before the last holds the run's provenance;
the last line is the result object.  Exit status 2 means nothing could
be measured.  Workload names and metric units come from
``BENCHMARK.json``; a run whose metrics differ from the ones it names
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 11
#: Start no sample after this many seconds, and kill any sample still
#: running at ``HARD_LIMIT_S``: a run must end within 180 s.
DEADLINE_S = 120.0
HARD_LIMIT_S = 170.0


def load_spec(root: Path) -> dict | None:
    """``BENCHMARK.json``: the workload names and each metric's unit."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        return {
            "workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _sample(root: Path, env: dict, args, mode: str, timeout: float) -> dict:
    """Run one worker; its JSON, or a failed stand-in."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--mode", mode,
           "--scale", args.scale]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    took = time.perf_counter() - t0
    try:
        rec = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(err)
        return {"crashed": True, "took": took}
    rec["took"] = took
    return rec


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _provenance(root: Path, args, cleared, samples, setups) -> dict:
    rev = dirty = None
    if (root / ".git").exists():
        def git(*a):
            return subprocess.run(["git", *a], cwd=root, text=True,
                                  capture_output=True).stdout.strip()
        rev = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    first = next((s for s in samples if "knobs" in s), {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "scale": args.scale,
        "git_revision": rev,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "repro_env": first.get("knobs"),
        "cleared_env": cleared,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "samples": len(samples),
        "wall_s_samples": [s["wall_s"] for s in samples],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "reference_checked": first.get("reference_checked"),
        "headline": first.get("headline"),
        "failures": sorted({f for s in samples for f in s.get("failures", [])
                            })[:20],
        "errors": sorted({s["error"] for s in samples if s.get("error")}),
    }


def main(argv=None) -> int:
    root = Path.cwd()
    spec = load_spec(root)
    if spec is None:
        print(f"error: no readable BENCHMARK.json under {root}; run from "
              "the repository root", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec["workloads"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for smoke.py")
    args = p.parse_args(argv)

    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository "
              "root", file=sys.stderr)
        return 2
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"

    start = time.perf_counter()

    def sample(mode: str) -> dict:
        return _sample(root, env, args, mode,
                       HARD_LIMIT_S - (time.perf_counter() - start))

    modes = ("plain", "traced") if args.trace else ("plain",)
    samples: dict[str, list] = {m: [] for m in modes}
    setup_only: list[dict] = []
    took: list[float] = []

    def crashed() -> int:
        return sum(1 for m in modes for s in samples[m] if s.get("crashed")) \
            + sum(1 for s in setup_only if s.get("crashed"))

    def top_up_setups(target: float) -> None:
        # Spread over the run, so that set-up time is not sampled in one
        # burst at its end.
        while (not args.trace and not crashed()
               and len(samples["plain"]) + len(setup_only) < target
               and time.perf_counter() - start < DEADLINE_S):
            setup_only.append(sample("setup"))

    while True:
        for mode in modes:
            s = sample(mode)
            samples[mode].append(s)
            took.append(s["took"])
        top_up_setups(MIN_SETUP_SAMPLES * min(
            1.0, (time.perf_counter() - start) / args.seconds))
        elapsed = time.perf_counter() - start
        cycle = statistics.median(took) * len(modes)
        if (crashed() or elapsed >= args.seconds
                or elapsed + cycle > DEADLINE_S):
            break
    top_up_setups(MIN_SETUP_SAMPLES)
    runs = [s for m in modes for s in samples[m]]
    ok = [s for s in runs if not s.get("crashed")]
    if not ok:
        print("error: no sample completed", file=sys.stderr)
        return 2
    setups = ok + [s for s in setup_only if not s.get("crashed")]
    n_crashed = crashed()
    attempted = sum(s.get("attempted", 0) for s in runs) + n_crashed
    failed = sum(s.get("failed", 0) for s in runs) + n_crashed
    plain = [s for s in samples["plain"] if not s.get("crashed")]
    if args.trace:
        traced = [s for s in samples["traced"] if not s.get("crashed")]
        if not traced or not plain:
            print("error: no traced/untraced pair completed",
                  file=sys.stderr)
            return 2
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values["trace_overhead_pct"] = 100.0 * (
            _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0)
        units = spec["per_layer"]
    else:
        wall = _median(ok, "wall_s")
        values = {
            "wall_s": wall,
            "setup_s": _median(setups, "setup_s"),
            "ops_per_s": ok[0]["ops"] / wall,
            "peak_rss_mb": _median(ok, "peak_rss_mb"),
            # The worst sample's, so that one failed check moves the
            # rate by at least 1 / (checks per sample).
            "check_pass_rate": 0.0 if n_crashed else min(
                1.0 - s["failed"] / s["attempted"] for s in ok),
        }
        units = spec["end_to_end"]
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not "
              "both measured and named in BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"record": _provenance(root, args, cleared, ok, setups)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

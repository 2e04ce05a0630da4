"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run from the repository root.  Runs every workload through ``run.py
--scale tiny``, untraced and traced, on seed 0 and on a held-out seed,
and checks that each run exits 0, is correct with no failed check, and
reports exactly the metrics ``BENCHMARK.json`` names, each with its
unit.  Takes about a minute.  Exits 1 if anything is off.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import load_spec
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = (0, 7)


def smoke(root: Path, name: str, seed: int, trace: int, spec: dict) -> list:
    """Problems with one tiny run, as strings."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"failed checks: {record['failures']}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics/units {got} != {want}")
    if not trace and result["metrics"]["check_pass_rate"]["value"] != 1.0:
        problems.append("check_pass_rate below 1")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = load_spec(root)
    if spec is None:
        print("error: run from the repository root", file=sys.stderr)
        return 1
    bad = 0
    if sorted(spec["workloads"]) != sorted(WORKLOADS):
        print(f"workloads differ: BENCHMARK.json {spec['workloads']}, "
              f"workloads.py {sorted(WORKLOADS)}")
        bad += 1
    for name in spec["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                problems = smoke(root, name, seed, trace, spec)
                status = "ok" if not problems else "FAIL"
                print(f"{status:4} {name} seed={seed} trace={trace}")
                for p in problems:
                    print(f"     {p}")
                bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI guard: fail when a tracked metric regresses against the trajectory.

Reads the ``BENCH_perf.json`` trajectory that the benchmark harnesses
(``benchmarks/bench_perfbaseline.py``, ``benchmarks/bench_faults.py``)
append to.  Different harnesses append different records, so the guard
works **per key**: for every metric name ever recorded it takes the
newest record carrying that key and the most recent *comparable*
earlier record carrying it (same CPU count and platform — cross-runner
comparisons are noise), and fails when the metric regressed by more
than the allowed factor.

Three metric families are guarded, told apart by suffix:

``*_s``
    Wall-clock timings — lower is better; a regression is growth by
    more than ``MAX_REGRESSION_FACTOR``.  Timings below an absolute
    floor are skipped (a 2 ms blip on a 1 ms measurement is jitter).
``*_per_s``
    Throughput rates — higher is better; a regression is a drop below
    ``baseline / MAX_REGRESSION_FACTOR``.
``*_speedup``
    Dimensionless higher-is-better ratios (``pairing_vector_speedup``,
    ``simmpi_engine_speedup``): guarded like rates — a drop below
    ``baseline / MAX_REGRESSION_FACTOR`` fails.

Anything else (``*_pct``, ``*_rate``, metadata) is skipped: other
derived metrics have their own in-bench assertions.

Usage::

    python benchmarks/check_perf_regression.py [path/to/BENCH_perf.json]

Exit status 0 when no comparable baseline exists for any key (first
run on a new runner), or when every metric is within bounds; 1 on
regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: A timing must grow (a rate must shrink) by more than this factor to
#: count as a regression.
MAX_REGRESSION_FACTOR = 2.0

#: Timings shorter than this (seconds) are jitter-dominated; skip them.
ABSOLUTE_FLOOR_S = 0.005

DEFAULT_BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def load_history(path: Path) -> list[dict]:
    try:
        history = json.loads(path.read_text())
    except FileNotFoundError:
        return []
    except (json.JSONDecodeError, OSError) as exc:
        print(f"perf guard: cannot read {path}: {exc}")
        return []
    return history if isinstance(history, list) else []


def comparable(a: dict, b: dict) -> bool:
    """Records are comparable when taken on equivalent runners."""
    return (
        a.get("cpu_count") == b.get("cpu_count")
        and a.get("platform") == b.get("platform")
    )


def classify(key: str) -> str | None:
    """``"rate"`` for ``*_per_s``, ``"timing"`` for ``*_s``,
    ``"speedup"`` for ``*_speedup``, else None."""
    if key.endswith("_per_s"):
        return "rate"
    if key.endswith("_s"):
        return "timing"
    if key.endswith("_speedup"):
        return "speedup"
    return None


def tracked_keys(history: list[dict]) -> list[str]:
    """Every guarded metric name appearing anywhere in the trajectory."""
    keys: set[str] = set()
    for rec in history:
        timings = rec.get("timings")
        if isinstance(timings, dict):
            keys.update(k for k in timings if classify(k) is not None)
    return sorted(keys)


def latest_pair(
    history: list[dict], key: str
) -> tuple[tuple[dict, float] | None, tuple[dict, float] | None]:
    """(current, baseline) for one key: each a ``(record, value)`` pair.

    *current* is the newest record carrying a numeric *key*; *baseline*
    is the next older comparable record carrying it.  Either may be
    ``None`` when absent.
    """
    current: tuple[dict, float] | None = None
    for rec in reversed(history):
        timings = rec.get("timings")
        if not isinstance(timings, dict):
            continue
        val = timings.get(key)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            continue
        if current is None:
            current = (rec, float(val))
        elif comparable(current[0], rec):
            return current, (rec, float(val))
    return current, None


def check(history: list[dict]) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    if not history:
        print("perf guard: no bench records yet; nothing to check")
        return []

    failures: list[str] = []
    checked = 0
    for key in tracked_keys(history):
        kind = classify(key)
        current, baseline = latest_pair(history, key)
        if current is None:
            continue
        if baseline is None:
            print(f"perf guard: {key}: no comparable baseline; skipped")
            continue
        now = current[1]
        before = baseline[1]
        if kind == "timing":
            if before < ABSOLUTE_FLOOR_S and now < ABSOLUTE_FLOOR_S:
                continue
            checked += 1
            limit = max(before * MAX_REGRESSION_FACTOR, ABSOLUTE_FLOOR_S)
            regressed = now > limit
            unit, bound = "s", f"> x{MAX_REGRESSION_FACTOR} limit {limit:.4f}s"
            arrow = f"{before:.4f}s -> {now:.4f}s"
        else:  # rate or speedup: higher is better
            if before <= 0:
                continue
            checked += 1
            limit = before / MAX_REGRESSION_FACTOR
            regressed = now < limit
            unit = "/s" if kind == "rate" else "x"
            bound = (
                f"< baseline/{MAX_REGRESSION_FACTOR} limit "
                f"{limit:.2f}{unit}"
            )
            arrow = f"{before:.2f}{unit} -> {now:.2f}{unit}"
        status = "ok"
        if regressed:
            status = "REGRESSED"
            failures.append(
                f"{key}: {now:.4f}{unit} vs baseline {before:.4f}{unit} "
                f"({bound})"
            )
        print(f"perf guard: {key}: {arrow} [{status}]")
    print(f"perf guard: {checked} metric(s) checked against baselines")
    return failures


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_BENCH_FILE
    failures = check(load_history(path))
    if failures:
        print(f"perf guard: {len(failures)} regression(s):")
        for message in failures:
            print(f"  {message}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

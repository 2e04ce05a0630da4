"""Counted output checks: every named ``expect``/``close`` call is one
attempted check, however many elements it compares.

A check whose value cannot be computed (the workload raised, or the
result is missing a field) fails rather than aborting, so a crashed
workload fails every check it still had to run.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance against recorded reference values.
REL = 1e-9


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {why}")

    def expect(self, name: str, predicate) -> None:
        """One check: ``predicate()`` must return true."""
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a crashed check is a failed check
            self._fail(name, f"{type(exc).__name__}: {exc}")
            return
        if not ok:
            self._fail(name, "false")

    def close(self, name: str, actual, expected, rel: float = REL) -> None:
        """One check: every element of ``actual()`` matches *expected*."""
        want = np.asarray(expected, dtype=float)
        self.attempted += 1
        try:
            got = np.asarray(actual(), dtype=float)
        except Exception as exc:
            self._fail(name, f"{type(exc).__name__}: {exc}")
            return
        if got.shape != want.shape:
            self._fail(name, f"shape {got.shape} != {want.shape}")
            return
        bad = int(np.count_nonzero(~np.isclose(got, want, rtol=rel, atol=0)))
        if bad:
            self._fail(name, f"{bad} of {want.size} elements differ")

"""Run-time variability under size-only allocation requests.

JUQUEEN-style policies let users request only a partition *size*; the
scheduler then picks any permissible geometry.  Section 4.3 of the paper
warns that this produces inconsistent performance — identical jobs run
at different speeds depending on the geometry they happen to receive,
and repeated scaling studies can reach wrong conclusions.

This module quantifies that effect: a stream of identical jobs is pushed
through a policy under different geometry-selection rules, and the
resulting run-time distribution is summarized.  Selection rules:

* ``"best"`` / ``"worst"`` — deterministic extremes;
* ``"random"`` — uniformly random permissible geometry (seeded);
* ``"first-fit"`` — deterministic but arbitrary (enumeration order) —
  how a naive scheduler might behave.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .. import observability
from .._validation import check_nonnegative_int, check_positive_int
from ..parallel import sweep_map
from .advisor import JobRequest
from .geometry import PartitionGeometry
from .policy import AllocationPolicy

__all__ = [
    "VariabilityReport",
    "simulate_job_stream",
    "simulate_job_streams",
    "SELECTION_RULES",
]

SELECTION_RULES = ("best", "worst", "random", "first-fit")


@dataclass(frozen=True)
class VariabilityReport:
    """Distribution of run times for identical size-only jobs.

    Attributes
    ----------
    runtimes:
        Per-job simulated run times (seconds).
    geometries:
        The geometry each job received.
    """

    selection: str
    runtimes: tuple[float, ...]
    geometries: tuple[PartitionGeometry, ...]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.runtimes)

    @property
    def stdev(self) -> float:
        if len(self.runtimes) < 2:
            return 0.0
        return statistics.stdev(self.runtimes)

    @property
    def spread(self) -> float:
        """max / min run time — 1.0 means perfectly consistent."""
        return max(self.runtimes) / min(self.runtimes)

    @property
    def distinct_geometries(self) -> int:
        return len(set(self.geometries))


def simulate_job_stream(
    policy: AllocationPolicy,
    job: JobRequest,
    num_jobs: int,
    selection: str = "random",
    seed: int = 0,
) -> VariabilityReport:
    """Run *num_jobs* identical size-only requests through *policy*.

    Each job's run time follows the :class:`JobRequest` model: the
    contention-bound share inflates by the ratio between the best
    permissible bandwidth and the allocated geometry's.

    Examples
    --------
    >>> from repro.allocation.policy import juqueen_policy
    >>> job = JobRequest(8, 3600.0, 0.5)
    >>> rep = simulate_job_stream(juqueen_policy(), job, 10, "random")
    >>> rep.spread > 1.0   # geometry roulette shows up as variance
    True
    """
    if selection not in SELECTION_RULES:
        raise ValueError(
            f"selection must be one of {SELECTION_RULES}, got {selection!r}"
        )
    check_positive_int(num_jobs, "num_jobs")
    check_nonnegative_int(seed, "seed")
    geos = policy.permissible_geometries(job.num_midplanes)
    if not geos:
        raise ValueError(
            f"{policy.machine.name} policy supports no partition of "
            f"{job.num_midplanes} midplanes"
        )
    best_bw = geos[0].normalized_bisection_bandwidth
    rng = np.random.default_rng(seed)

    picked: list[PartitionGeometry] = []
    for i in range(num_jobs):
        if selection == "best":
            picked.append(geos[0])
        elif selection == "worst":
            picked.append(geos[-1])
        elif selection == "first-fit":
            # Enumeration order is bandwidth-sorted; a naive scheduler's
            # "first fitting shape" is modelled as the lexicographically
            # first dims tuple, which for elongated-first enumeration is
            # usually a poor geometry.
            picked.append(min(geos, key=lambda g: g.dims[::-1]))
        else:  # random
            picked.append(geos[int(rng.integers(len(geos)))])

    runtimes = tuple(job.runtime_on(g, best_bw) for g in picked)
    return VariabilityReport(
        selection=selection,
        runtimes=runtimes,
        geometries=tuple(picked),
    )


def _stream_task(
    task: tuple[AllocationPolicy, JobRequest, int, str, int],
) -> VariabilityReport:
    policy, job, num_jobs, selection, seed = task
    return simulate_job_stream(policy, job, num_jobs, selection, seed=seed)


def simulate_job_streams(
    policy: AllocationPolicy,
    job: JobRequest,
    num_jobs: int,
    selections: Sequence[str] = SELECTION_RULES,
    seed: int = 0,
    jobs: int | None = 1,
    checkpoint=None,
) -> list[VariabilityReport]:
    """One :func:`simulate_job_stream` per selection rule, optionally in
    parallel.

    Every rule's stream uses the *same* base seed (matching what a
    serial loop over :func:`simulate_job_stream` would do), so the
    reports are bit-identical to the serial path regardless of *jobs*.
    *checkpoint* (a JSONL path) journals completed rule streams and
    resumes a killed sweep from them (see :mod:`repro.resilience`).
    """
    with observability.span(
        "experiment.variability", rules=len(selections)
    ):
        return sweep_map(
            _stream_task,
            [(policy, job, num_jobs, rule, seed) for rule in selections],
            jobs=jobs,
            checkpoint=checkpoint,
        )

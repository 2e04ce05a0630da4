"""Deterministic sweep executor.

Every sweep-shaped experiment in this repository — pairing curves,
fault-study grids, design searches, variability streams — evaluates a
pure task function over a fixed grid of (geometry, seed) points.  This
module runs such grids through **one executor** while keeping the
results **bit-identical** to ``[fn(t) for t in tasks]``:

* tasks are enumerated once, up front, in a deterministic order;
* randomness is injected only through explicit per-task seeds (see
  :func:`split_seeds`) derived from the caller's base seed, never from
  worker identity, scheduling order, or wall-clock;
* the sweep is cut into contiguous **blocks**, run on one serial loop
  (:func:`_run_serial`) or one process-pool loop (:func:`_run_pool`),
  and harvested **in task order** whatever the completion order;
* ``jobs=1`` — and any environment where a process pool cannot be
  created (restricted sandboxes, recursive pools) — runs the same
  blocks in-process, so parallelism is an optimization, never a
  semantic.

A block runs through the task function's registered *block form*
(:func:`register_block_runner`) when it has one, else through the
per-task body ``[fn(t) for t in chunk]``, which stays the oracle.
Retries, backoff, timeouts, quarantine and checkpoint/resume are
:class:`repro.resilience.ResiliencePolicy` and
:class:`repro.resilience.SweepCheckpoint` settings on the same loops.

Task functions must be module-level callables and their arguments and
results picklable; the experiment drivers keep their workers at module
scope for exactly this reason.
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from . import env, observability
from ._validation import check_nonnegative_int, check_positive_int
from .resilience import (
    ResiliencePolicy,
    SweepCheckpoint,
    TaskFailure,
    _fn_name,
    _maybe_test_kill,
    _short_repr,
    task_key,
)

__all__ = [
    "sweep_map",
    "split_seeds",
    "resolve_jobs",
    "BlockRunner",
    "register_block_runner",
    "unregister_block_runner",
    "block_runner_for",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment knob: default worker count when a caller passes ``jobs=0``.
_JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to a concrete worker count.

    ``None`` or ``0`` means "auto": the ``REPRO_JOBS`` environment
    variable if set and valid, else the machine's CPU count.  Anything
    else must be a positive integer and is returned unchanged.

    An invalid ``REPRO_JOBS`` (negative, zero, empty, or non-numeric)
    is not silently swallowed: a :class:`RuntimeWarning` names the bad
    value before the explicit fall back to the CPU count.
    """
    if jobs is None or jobs == 0:
        raw = env.get_raw(_JOBS_ENV)
        if raw is not None:
            try:
                val: int | None = int(raw)
            except ValueError:
                val = None
            if val is not None and val >= 1:
                return val
            fallback = os.cpu_count() or 1
            warnings.warn(
                f"ignoring invalid {_JOBS_ENV}={raw!r} (expected a "
                f"positive integer); falling back to the CPU count "
                f"({fallback})",
                RuntimeWarning,
                stacklevel=2,
            )
            return fallback
        return os.cpu_count() or 1
    return check_positive_int(jobs, "jobs")


def split_seeds(seed: int, n: int) -> tuple[int, ...]:
    """*n* statistically independent child seeds of *seed*.

    Uses :class:`numpy.random.SeedSequence` spawning, so the children
    are a pure function of ``(seed, n)`` — the same grid gets the same
    seeds no matter how many workers evaluate it, and nearby base seeds
    do not produce correlated streams (unlike ``seed + i`` arithmetic).

    Examples
    --------
    >>> split_seeds(0, 3) == split_seeds(0, 3)
    True
    >>> len(set(split_seeds(7, 100)))
    100
    """
    check_nonnegative_int(seed, "seed")
    check_nonnegative_int(n, "n")
    ss = np.random.SeedSequence(seed)
    return tuple(int(child.generate_state(1)[0]) for child in ss.spawn(n))


def _merge_worker_snapshots(
    snapshots: Iterable[observability.TraceSnapshot],
) -> None:
    """Merge the final (highest-seq) snapshot of every worker pid.

    Snapshots are cumulative per worker process (counters, span totals,
    memo hit/miss counts), so keeping only the last one per pid merges
    each worker exactly once.
    """
    final: dict[int, observability.TraceSnapshot] = {}
    for snap in snapshots:
        cur = final.get(snap.pid)
        if cur is None or snap.seq > cur.seq:
            final[snap.pid] = snap
    for snap in final.values():
        observability.merge_snapshot(snap)


# ----------------------------------------------------------------------
# Block forms of task functions
#
# Some task functions have a *block form* — a module-level callable that
# evaluates a whole list of tasks in one vectorized pass (e.g. the
# stacked fluid solver advancing hundreds of fault scenarios in one
# numpy water-fill) and returns one result per task, bit-identical to
# ``[fn(t) for t in tasks]``.  Registering that block form lets the
# executor run each block through it: the per-scenario python overhead
# amortizes across the block.  ``REPRO_VECTOR=0`` disables block forms
# entirely, and the differential suite pins block results to the
# per-task ones.

#: Sweeps at or below this many tasks run in-process — pool startup
#: costs more than it saves at this size (the designsearch crossover
#: seam in BENCH_perf.json, where the parallel sweep ran ~1.7x *slower*
#: than serial).  Sweeps with an explicit policy are exempt: they ask
#: for crash isolation, which only a pool gives.
_SMALL_SWEEP_TASKS = 32

#: Smallest sweep worth a block form; a single task runs per-task.
_MIN_BLOCK_TASKS = 2

#: Scheduler cost model, calibrated coarse on purpose: these only have
#: to get the *sign* of "does a pool pay for itself" right, and tests
#: monkeypatch them to force either branch deterministically.
#: Estimated cost of spawning one pool worker (fork + warmup).
_POOL_SPAWN_S = 0.015
#: Estimated per-block dispatch cost (pickle + queue round-trip).
_DISPATCH_S = 0.002
#: Adaptive chunk sizing aims for blocks of roughly this wall-clock.
_TARGET_BLOCK_S = 0.25


@dataclass(frozen=True)
class BlockRunner:
    """A registered block form of a task function.

    Attributes
    ----------
    block_fn:
        Module-level callable mapping a list of tasks to a list of
        results (one per task, in order, bit-identical to the scalar
        task function applied per task).
    max_block_tasks:
        Upper bound on tasks per block — caps peak memory of the
        stacked solve.
    """

    block_fn: Callable[[Sequence[Any]], Sequence[Any]]
    max_block_tasks: int = 256


_BLOCK_RUNNERS: dict[Callable[..., Any], BlockRunner] = {}


def register_block_runner(
    task_fn: Callable[[_T], _R],
    block_fn: Callable[[Sequence[_T]], Sequence[_R]],
    *,
    max_block_tasks: int = 256,
) -> None:
    """Register *block_fn* as the batched form of *task_fn*.

    Both callables must be module-level (picklable) functions.  The
    contract is strict: ``block_fn(tasks)`` must return exactly
    ``[task_fn(t) for t in tasks]`` — the differential test suite
    enforces bit-identity, and the executor validates the result count
    of every block.
    """
    check_positive_int(max_block_tasks, "max_block_tasks")
    _BLOCK_RUNNERS[task_fn] = BlockRunner(
        block_fn=block_fn, max_block_tasks=max_block_tasks
    )


def unregister_block_runner(task_fn: Callable[..., Any]) -> None:
    """Remove *task_fn*'s block registration (test hygiene)."""
    _BLOCK_RUNNERS.pop(task_fn, None)


def block_runner_for(
    fn: Callable[..., Any]
) -> BlockRunner | None:
    """The active block runner for *fn*, or ``None``.

    Returns ``None`` when no block form is registered **or** when
    ``REPRO_VECTOR=0`` disables the vector paths — callers need no
    separate knob check.
    """
    reg = _BLOCK_RUNNERS.get(fn)
    if reg is None:
        return None
    from .netsim.batchroute import vector_enabled

    return reg if vector_enabled() else None


def _block_size(n: int, workers: int, runner: BlockRunner | None) -> int:
    """Tasks per block for *n* tasks on *workers* workers.

    A pool aims for roughly four blocks per worker so stragglers
    load-balance.  In-process, a block form gets one maximal block
    (the stacked solve's amortization is the whole point) while the
    per-task body runs one task per block, so each result is harvested
    — and journaled — the moment it exists.  Capped by the runner's
    ``max_block_tasks``.
    """
    if workers > 1:
        size = -(-n // (workers * 4))
    else:
        size = n if runner is not None else 1
    cap = runner.max_block_tasks if runner is not None else n
    return max(1, min(size, cap))


def _plan_adaptive(
    n: int, workers: int, runner: BlockRunner, per_task_s: float
) -> tuple[int, int] | None:
    """Chunk plan ``(block_size, workers)`` for the post-probe rest.

    Sizes blocks from the *measured* per-task cost — small enough to
    load-balance (≈4 blocks per worker), but no finer than blocks of
    ``_TARGET_BLOCK_S`` wall-clock need — then projects pool cost
    (worker spawn + per-block dispatch + compute split across workers)
    against just finishing serially.  Returns ``None`` when the pool
    would not pay for itself: the crossover that made
    ``designsearch_parallel_s`` worse than serial is decided by
    arithmetic here, not hoped away.  Workers are capped at the planned
    block count — a pool process with no block to run is pure spawn
    cost.
    """
    workers = min(workers, n)
    by_balance = max(1, -(-n // (workers * 4)))
    by_time = (
        max(1, int(_TARGET_BLOCK_S / per_task_s))
        if per_task_s > 0
        else by_balance
    )
    size = max(1, min(by_balance, by_time, runner.max_block_tasks))
    num_blocks = -(-n // size)
    workers = min(workers, num_blocks)
    if workers <= 1:
        return None
    serial_s = per_task_s * n
    pool_s = (
        workers * _POOL_SPAWN_S
        + num_blocks * _DISPATCH_S
        + serial_s / workers
    )
    if pool_s >= serial_s:
        return None
    return size, workers


# ----------------------------------------------------------------------
# The executor core


class _Body:
    """One block of a sweep; picklable, so it runs in-process or in a
    pool worker alike.

    Returns ``(values, error)``: the results of the leading tasks that
    completed and, when a task raised, its exception (the task at
    ``values``' length; later tasks of the chunk did not run).  A block
    form that raises falls back to the per-task body for the chunk.
    The chaos kill hook fires for every index of a block form's chunk
    before it runs, and for each task before the per-task body runs it.
    """

    __slots__ = ("fn", "block_fn")

    def __init__(
        self,
        fn: Callable[[Any], Any],
        block_fn: Callable[[Sequence[Any]], Sequence[Any]] | None,
    ):
        self.fn = fn
        self.block_fn = block_fn

    def __call__(
        self, indices: Sequence[int], chunk: Sequence[Any]
    ) -> tuple[list[Any], Exception | None]:
        if self.block_fn is not None:
            for i in indices:
                _maybe_test_kill(i)
            try:
                with observability.span(
                    "parallel.block", tasks=len(chunk)
                ):
                    values = list(self.block_fn(chunk))
            except Exception:
                observability.counter_add("parallel.block_fallbacks")
            else:
                if len(values) != len(chunk):
                    raise RuntimeError(
                        f"block runner "
                        f"{getattr(self.block_fn, '__qualname__', self.block_fn)!r}"
                        f" returned {len(values)} results for a block of "
                        f"{len(chunk)} tasks"
                    )
                return values, None
        values = []
        for i, task in zip(indices, chunk):
            _maybe_test_kill(i)
            try:
                values.append(self.fn(task))
            except Exception as exc:
                return values, exc
        return values, None


def _in_worker(
    body: _Body, indices: Sequence[int], chunk: Sequence[Any]
) -> tuple[list[Any], Exception | None, observability.TraceSnapshot]:
    """Pool entry point: a block plus the worker's metric snapshot."""
    values, error = body(indices, chunk)
    return values, error, observability.worker_snapshot()


_PENDING = object()


class _Sweep:
    """Mutable bookkeeping of one sweep, shared by both loops."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        policy: ResiliencePolicy,
        runner: BlockRunner | None = None,
    ):
        self.fn = fn
        self.tasks = tasks
        self.policy = policy
        self.runner = runner
        self.results: list[Any] = [_PENDING] * len(tasks)
        self.attempts: dict[int, int] = {}
        self.ckpt: SweepCheckpoint | None = None
        self.keys: list[str] = []
        self.blocks = 0
        self.workers = 1
        self.pool_rebuilds = 0

    def resume(self, ckpt: SweepCheckpoint) -> None:
        """Fill results journaled by an earlier run; journal the rest."""
        name = _fn_name(self.fn)
        self.keys = [task_key(t) for t in self.tasks]
        done = ckpt.load(name)
        resumed = 0
        for i, key in enumerate(self.keys):
            if key in done:
                self.results[i] = done[key]
                resumed += 1
        if resumed:
            observability.counter_add("resilience.resumed_tasks", resumed)
        ckpt.open_for_append(name, len(self.tasks))
        self.ckpt = ckpt

    def pending(self) -> list[int]:
        return [i for i, r in enumerate(self.results) if r is _PENDING]

    def plan(self, pending: Sequence[int], workers: int) -> list[list[int]]:
        """Contiguous blocks over *pending*; one task each under a
        ``task_timeout`` (a timeout bounds one task, not a block)."""
        if self.policy.task_timeout is not None:
            size = 1
        else:
            size = _block_size(len(pending), workers, self.runner)
        return [
            list(pending[s : s + size])
            for s in range(0, len(pending), size)
        ]

    def body(self) -> _Body:
        block_fn = self.runner.block_fn if self.runner is not None else None
        return _Body(self.fn, block_fn)

    def chunk(self, block: Sequence[int]) -> list[Any]:
        return [self.tasks[i] for i in block]

    def harvest(
        self,
        block: Sequence[int],
        values: Sequence[Any],
        error: Exception | None,
    ) -> None:
        """Store (and journal) a block's results; retry or fail the task
        that raised.  Tasks after it stay pending for the next round."""
        if self.runner is not None:
            self.blocks += 1
        for i, value in zip(block, values):
            self.results[i] = value
            if self.ckpt is not None:
                self.ckpt.record(self.keys[i], i, value)
        if error is not None:
            i = block[len(values)]
            if not self.retry(i):
                self.fail(i, error)

    def retry(self, index: int) -> bool:
        """Count a failed attempt; back off and return True if the task
        may run again (it stays pending)."""
        attempts = self.attempts[index] = self.attempts.get(index, 0) + 1
        if attempts > self.policy.max_retries:
            return False
        observability.counter_add("resilience.retries")
        time.sleep(self.policy.backoff(attempts))  # repro: allow-wallclock retry backoff; delays rerun, never changes results
        return True

    def fail(self, index: int, exc: BaseException) -> None:
        """A task exhausted its retries: quarantine or raise."""
        if not self.policy.quarantine:
            raise exc
        observability.counter_add("resilience.quarantined")
        self.results[index] = TaskFailure(
            index=index,
            task=_short_repr(self.tasks[index]),
            error_type=type(exc).__name__,
            error=str(exc),
            attempts=self.attempts.get(index, 0),
        )


def _run_serial(sweep: _Sweep) -> None:
    """The serial loop: every pending block in-process, until none is
    left.  The kill hook fires here too — in-process it terminates the
    driver itself, which is what the checkpoint/resume chaos tests
    want: a deterministic mid-sweep death."""
    body = sweep.body()
    while pending := sweep.pending():
        for block in sweep.plan(pending, 1):
            values, error = body(block, sweep.chunk(block))
            sweep.harvest(block, values, error)


class _PoolRestart(Exception):
    """Internal: unwind to the pool-rebuild handler."""

    def __init__(self, reason: str):
        self.reason = reason


def _run_pool(sweep: _Sweep, workers: int) -> None:
    """The pool loop: submit blocks, collect them in order, rebuild the
    pool when it breaks.

    A ``BrokenProcessPool`` (a worker died, e.g. the chaos kill hook
    firing mid-block) or a timed-out task shuts the pool down and
    re-plans blocks over the tasks still pending — completed tasks
    were already harvested (and journaled) individually, so the new
    blocking need not match the old one.  After
    ``policy.max_pool_rebuilds`` rebuilds the rest runs serially.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    # A pool process with no block to run is pure fork cost.
    workers = min(workers, len(sweep.plan(sweep.pending(), workers)))

    def make_pool() -> ProcessPoolExecutor:
        # The initializer zeroes fork-inherited counters so each
        # worker's cumulative snapshot is a clean delta (see
        # observability.reset_worker).
        return ProcessPoolExecutor(
            max_workers=workers, initializer=observability.reset_worker
        )

    try:
        executor: Any = make_pool()
    except (ImportError, NotImplementedError, OSError, PermissionError) as exc:
        # No usable process pool on this platform/sandbox: the sweep
        # still completes, just serially — but never invisibly.
        warnings.warn(
            f"cannot create a process pool "
            f"({type(exc).__name__}: {exc}); running the sweep serially",
            RuntimeWarning,
            stacklevel=3,
        )
        observability.counter_add("parallel.fallback_serial")
        _run_serial(sweep)
        return
    sweep.workers = workers
    timeout = sweep.policy.task_timeout
    body = sweep.body()
    snapshots: list[observability.TraceSnapshot] = []
    clean = False
    try:
        while pending := sweep.pending():
            blocks = sweep.plan(pending, workers)
            try:
                futures = [
                    executor.submit(_in_worker, body, b, sweep.chunk(b))
                    for b in blocks
                ]
                for block, fut in zip(blocks, futures):
                    try:
                        values, error, snap = fut.result(timeout=timeout)
                    except FuturesTimeout:
                        observability.counter_add("resilience.timeouts")
                        i = block[0]
                        if not sweep.retry(i):
                            sweep.fail(i, TimeoutError(
                                f"task exceeded {timeout}s wall-clock "
                                f"budget"
                            ))
                        # Either way the worker is stuck on this task:
                        # only a new pool gets it back.
                        raise _PoolRestart(f"task {i} timed out") from None
                    snapshots.append(snap)
                    sweep.harvest(block, values, error)
            except (_PoolRestart, BrokenProcessPool) as err:
                reason = getattr(err, "reason", "worker process died")
                executor.shutdown(wait=False, cancel_futures=True)
                executor = None
                sweep.pool_rebuilds += 1
                observability.counter_add("resilience.pool_rebuilds")
                left = len(sweep.pending())
                if sweep.pool_rebuilds > sweep.policy.max_pool_rebuilds:
                    warnings.warn(
                        f"process pool irrecoverable after "
                        f"{sweep.policy.max_pool_rebuilds} rebuild(s) "
                        f"(last: {reason}); degrading to serial "
                        f"execution for the remaining {left} task(s)",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    observability.counter_add("resilience.fallback_serial")
                    _run_serial(sweep)
                    break
                warnings.warn(
                    f"rebuilding worker pool ({reason}); re-planning "
                    f"blocks over {left} unfinished task(s)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                executor = make_pool()
        clean = True
    finally:
        if executor is not None:
            # A failed sweep may leave a worker stuck: never wait on it.
            executor.shutdown(wait=clean, cancel_futures=True)
    _merge_worker_snapshots(snapshots)


def _run_adaptive(sweep: _Sweep, workers: int) -> None:
    """Probe-timed plan for a block form: the first block runs
    in-process and is timed; the measured per-task cost sizes the
    remaining blocks and decides — by projected cost, see
    :func:`_plan_adaptive` — whether a pool pays for itself at all.  A
    sweep whose pool would cost more than it saves finishes serially,
    so ``jobs>1`` is never a pessimization."""
    pending = sweep.pending()
    probe = pending[: _block_size(len(pending), workers, sweep.runner)]
    start = time.perf_counter()  # repro: allow-wallclock chunk-size probe; steers scheduling only, never task results
    values, error = sweep.body()(probe, sweep.chunk(probe))
    probe_s = time.perf_counter() - start  # repro: allow-wallclock chunk-size probe; steers scheduling only, never task results
    sweep.harvest(probe, values, error)
    rest = sweep.pending()
    if not rest:
        return
    plan = _plan_adaptive(
        len(rest), workers, sweep.runner, max(probe_s / len(probe), 1e-9)
    )
    if plan is None:
        observability.counter_add("parallel.adaptive_serial")
        _run_serial(sweep)
        return
    size, workers = plan
    sweep.runner = dataclasses.replace(sweep.runner, max_block_tasks=size)
    _run_pool(sweep, workers)


def sweep_map(
    fn: Callable[[_T], _R],
    tasks: Iterable[_T],
    jobs: int | None = 1,
    *,
    policy: ResiliencePolicy | None = None,
    checkpoint: str | os.PathLike[str] | SweepCheckpoint | None = None,
) -> list[_R]:
    """Map *fn* over *tasks*, optionally across worker processes.

    Parameters
    ----------
    fn:
        Pure task function.  For ``jobs > 1`` it must be a module-level
        callable with picklable arguments and results.
    tasks:
        The task grid; consumed eagerly so ordering is fixed before any
        worker starts.
    jobs:
        Worker processes.  ``1`` runs serially in-process; ``None``/``0``
        resolves via :func:`resolve_jobs` (``REPRO_JOBS`` or CPU count).
        The effective count is additionally capped at the machine's CPU
        count; when that cap leaves a single worker, the sweep runs
        serially (a one-worker pool is pure IPC overhead).
    policy:
        Optional :class:`repro.resilience.ResiliencePolicy`: bounded
        retries, per-task timeouts and poison-task quarantine.  Without
        one a task exception propagates unchanged, with no retry.
    checkpoint:
        Optional JSONL checkpoint path (or
        :class:`repro.resilience.SweepCheckpoint`): completed task
        results are journaled as they finish and a restarted sweep
        resumes from them instead of recomputing.

    Returns
    -------
    list
        One result per task, **in task order** — bit-identical to
        ``[fn(t) for t in tasks]``.

    Notes
    -----
    Pool *creation* failures (platforms without process support) degrade
    to the serial loop; a pool that breaks mid-sweep is rebuilt.
    Exceptions raised by *fn* itself always propagate (or quarantine,
    under a policy) — a failing task is a bug, not a reason to fall
    back.

    When *fn* has a registered block runner (see
    :func:`register_block_runner`) and ``REPRO_VECTOR`` is not disabled,
    each block runs through the runner's vectorized block function —
    same results, bit-identical, but hundreds of scenarios advance in
    one numpy pass.  Sweeps of at most ``_SMALL_SWEEP_TASKS`` tasks run
    in-process, where pool startup would dominate.

    Every sweep opens a ``parallel.sweep`` span and adds to the
    ``parallel.sweeps``/``parallel.tasks`` counters, whatever ``jobs``
    is.  Each pool block additionally carries the worker's cumulative
    metric snapshot (:mod:`repro.observability`); the final snapshot
    per worker is merged into this process at sweep completion, so memo
    hit/miss accounting (:func:`repro.caching.cache_stats`) and — when
    tracing is enabled — counters and span totals reflect worker-side
    activity.  The merge never changes results.

    Without a policy the sweep runs as
    ``ResiliencePolicy(max_retries=0)`` plus the small-sweep cutoff and
    the probe-timed plan; an explicit policy skips both, so a pool
    isolates every task whenever ``jobs`` allows.
    """
    task_list = list(tasks)
    jobs = resolve_jobs(jobs)
    adaptive = policy is None
    sweep = _Sweep(
        fn, task_list, policy or ResiliencePolicy(max_retries=0)
    )
    ckpt: SweepCheckpoint | None = None
    if checkpoint is not None:
        ckpt = (
            checkpoint
            if isinstance(checkpoint, SweepCheckpoint)
            else SweepCheckpoint(checkpoint)
        )
        sweep.resume(ckpt)
    pending = sweep.pending()
    if len(pending) >= _MIN_BLOCK_TASKS:
        # Looked up per sweep: REPRO_VECTOR=0 and test registrations
        # take effect at call time.
        sweep.runner = block_runner_for(fn)
    try:
        with observability.span(
            "parallel.sweep", tasks=len(task_list), pending=len(pending)
        ):
            workers = min(jobs, len(pending), os.cpu_count() or 1)
            if workers <= 1 or (
                adaptive and len(pending) <= _SMALL_SWEEP_TASKS
            ):
                _run_serial(sweep)
            elif adaptive and sweep.runner is not None:
                _run_adaptive(sweep, workers)
            else:
                _run_pool(sweep, workers)
    finally:
        if ckpt is not None:
            ckpt.close()
    if observability.OBS.enabled:
        observability.counter_add("parallel.sweeps")
        observability.counter_add("parallel.tasks", len(task_list))
        if sweep.blocks:
            observability.counter_add("parallel.blocks", sweep.blocks)
        observability.gauge_set("parallel.workers", sweep.workers)
        if not adaptive or ckpt is not None:
            observability.counter_add("resilience.sweeps")
            observability.counter_add("resilience.tasks", len(task_list))
    return sweep.results

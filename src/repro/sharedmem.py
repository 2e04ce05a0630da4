"""Leak accounting for named shared-memory segments.

No sweep ships its payload through shared memory: every task list and
result of the experiment drivers is a few KB, which the pool's pickle
pipe moves faster than any segment could be set up.  What remains is
the invariant the benchmark and the tests check — no process of this
package leaves a ``/dev/shm`` segment under :data:`SEGMENT_PREFIX`
behind.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["active_segments", "SEGMENT_PREFIX"]

#: Prefix of every segment name this package would create.
SEGMENT_PREFIX = "repro-shm-"


def active_segments() -> list[str]:
    """Names of live ``/dev/shm`` segments under :data:`SEGMENT_PREFIX`.

    Empty on platforms without a visible ``/dev/shm``.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(
        p.name
        for p in shm_dir.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
    )

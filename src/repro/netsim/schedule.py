"""Round-based communication schedules over a simulated network.

Many parallel communication patterns — collectives, the CAPS BFS
exchanges, FFT transposes — execute as a sequence of globally
synchronized *rounds*, each round a set of point-to-point transfers.
This module provides the common machinery:

* :class:`RouteCache` — memoized dimension-ordered routing from dense
  node indices to link-id arrays;
* :class:`TransferRound` — one round: parallel ``(src, dst, volume)``
  transfers between node indices;
* :func:`simulate_rounds` — total time under the static bottleneck
  model (each round completes when its most loaded link drains), the
  same model the experiment harnesses use.  Each round is one batch
  route over its inter-node transfers plus one weighted ``bincount``;
  under ``REPRO_VECTOR=0`` the per-transfer scalar loop over
  :meth:`RouteCache.links` runs instead, as the oracle.

Volumes are in the same units as link capacity × time (the experiments
use GB and GB/s).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..topology.torus import Torus
from .batchroute import batch_dimension_ordered_routes, vector_enabled
from .network import LinkNetwork
from .routing import dimension_ordered_route

__all__ = ["RouteCache", "TransferRound", "simulate_rounds"]


class RouteCache:
    """Memoized routing between dense node indices of a torus network."""

    def __init__(self, network: LinkNetwork, torus: Torus, tie: str = "parity"):
        if network.topology is not torus and network.topology != torus:
            raise ValueError(
                "network was built over a different topology than the "
                "provided torus"
            )
        self._net = network
        self._torus = torus
        self._verts = list(torus.vertices())
        self._tie = tie
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def network(self) -> LinkNetwork:
        return self._net

    @property
    def torus(self) -> Torus:
        return self._torus

    @property
    def tie(self) -> str:
        return self._tie

    @property
    def num_nodes(self) -> int:
        return len(self._verts)

    def links(self, src: int, dst: int) -> np.ndarray:
        """Directed link ids of the route from node index *src* to *dst*."""
        key = (src, dst)
        path = self._cache.get(key)
        if path is None:
            path = self._net.path_to_links(
                dimension_ordered_route(
                    self._torus, self._verts[src], self._verts[dst],
                    tie=self._tie,
                )
            )
            self._cache[key] = path
        return path


@dataclass(frozen=True)
class TransferRound:
    """One synchronized round of point-to-point transfers.

    Attributes
    ----------
    sources, destinations:
        Dense node indices, same length.
    volumes:
        Per-transfer volume; a scalar applies to every transfer.  Any
        real number (Python or NumPy scalar) is accepted; volumes must
        be finite and non-negative, since a negative load could mask the
        real bottleneck.
    label:
        Optional description (shown by reporting helpers).
    """

    sources: tuple[int, ...]
    destinations: tuple[int, ...]
    volumes: tuple[float, ...] | float
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.destinations):
            raise ValueError(
                f"{len(self.sources)} sources but "
                f"{len(self.destinations)} destinations"
            )
        if self._scalar_volume:
            volumes = (self.volumes,)
        else:
            volumes = self.volumes
            if not hasattr(volumes, "__len__"):
                raise TypeError(
                    "volumes must be a real number or a sequence of "
                    f"them, got {type(volumes).__name__}"
                )
            if len(volumes) != len(self.sources):
                raise ValueError(
                    f"{len(volumes)} volumes for "
                    f"{len(self.sources)} transfers"
                )
        for v in volumes:
            if not isinstance(v, numbers.Real):
                raise TypeError(f"volume {v!r} is not a real number")
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(
                    f"volumes must be finite and non-negative, got {v!r}"
                )

    @property
    def _scalar_volume(self) -> bool:
        return isinstance(self.volumes, numbers.Real)

    def volume_of(self, i: int) -> float:
        if self._scalar_volume:
            return float(self.volumes)
        return float(self.volumes[i])

    @property
    def total_volume(self) -> float:
        if self._scalar_volume:
            return float(self.volumes) * len(self.sources)
        return float(sum(self.volumes))


def simulate_rounds(
    cache: RouteCache, rounds: Iterable[TransferRound]
) -> tuple[float, list[float]]:
    """Bottleneck-model time of a round sequence: ``(total, per-round)``.

    Each round's time is its most loaded link's volume divided by that
    link's capacity; rounds are globally synchronized so times add.
    Intra-node transfers (src == dst) are free.
    """
    net = cache.network
    batch = vector_enabled()
    per_round: list[float] = []
    for rnd in rounds:
        if batch:
            src = np.asarray(rnd.sources, dtype=np.int64)
            dst = np.asarray(rnd.destinations, dtype=np.int64)
            volumes = np.broadcast_to(
                np.asarray(rnd.volumes, dtype=float), src.shape
            )
            inter = src != dst
            # Bit-identical to the scalar loop below (see
            # ``LinkNetwork.load_of_flows``).
            pm = batch_dimension_ordered_routes(
                cache.torus, src[inter], dst[inter], tie=cache.tie
            )
            load = net.load_of_flows(pm, volumes[inter])
        else:
            load = np.zeros(net.num_links, dtype=float)
            for i, (s, d) in enumerate(zip(rnd.sources, rnd.destinations)):
                if s == d:
                    continue
                path = cache.links(s, d)
                if len(path):
                    load[path] += rnd.volume_of(i)
        if load.any():
            per_round.append(float((load / net.capacities).max()))
        else:
            per_round.append(0.0)
    return sum(per_round), per_round

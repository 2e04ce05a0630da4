"""Unit tests for round-based schedules and collectives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.netsim.collectives import (
    pairwise_alltoall,
    recursive_doubling_allreduce,
    ring_allgather,
    ring_pass,
)
from repro.netsim.network import LinkNetwork
from repro.netsim.schedule import RouteCache, TransferRound, simulate_rounds
from repro.topology.torus import Torus


@pytest.fixture
def ring8():
    torus = Torus((8,))
    net = LinkNetwork(torus, link_bandwidth=2.0)
    return torus, net, RouteCache(net, torus)


class TestTransferRound:
    def test_scalar_volume(self):
        r = TransferRound((0, 1), (1, 2), 3.0)
        assert r.volume_of(0) == 3.0
        assert r.total_volume == 6.0

    def test_vector_volume(self):
        r = TransferRound((0, 1), (1, 2), (1.0, 2.0))
        assert r.volume_of(1) == 2.0
        assert r.total_volume == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TransferRound((0,), (1, 2), 1.0)
        with pytest.raises(ValueError):
            TransferRound((0, 1), (1, 2), (1.0,))


class TestSimulateRounds:
    def test_single_transfer(self, ring8):
        _, _, cache = ring8
        total, per = simulate_rounds(
            cache, [TransferRound((0,), (1,), 6.0)]
        )
        assert total == pytest.approx(3.0)  # 6 GB over 2 GB/s
        assert per == [pytest.approx(3.0)]

    def test_intranode_free(self, ring8):
        _, _, cache = ring8
        total, _ = simulate_rounds(
            cache, [TransferRound((0,), (0,), 100.0)]
        )
        assert total == 0.0

    def test_rounds_add(self, ring8):
        _, _, cache = ring8
        r = TransferRound((0,), (1,), 2.0)
        total, per = simulate_rounds(cache, [r, r, r])
        assert total == pytest.approx(3.0)
        assert len(per) == 3

    def test_shared_link_sums_load(self, ring8):
        _, _, cache = ring8
        # Two transfers both crossing link 0->1.
        rnd = TransferRound((0, 0), (1, 2), 2.0)
        total, _ = simulate_rounds(cache, [rnd])
        assert total == pytest.approx(2.0)  # 4 GB on the shared link

    def test_cache_reuse(self, ring8):
        _, _, cache = ring8
        a = cache.links(0, 3)
        b = cache.links(0, 3)
        assert a is b


class TestCollectives:
    def test_allgather_round_count(self):
        assert len(ring_allgather(8, 1.0)) == 7
        assert ring_allgather(1, 1.0) == []

    def test_allgather_each_round_is_shift(self):
        for rnd in ring_allgather(5, 1.0):
            for s, d in zip(rnd.sources, rnd.destinations):
                assert d == (s + 1) % 5

    def test_allreduce_round_count(self):
        assert len(recursive_doubling_allreduce(8, 1.0)) == 3

    def test_allreduce_requires_power_of_two(self):
        with pytest.raises(ValueError):
            recursive_doubling_allreduce(6, 1.0)

    def test_allreduce_partners_symmetric(self):
        for rnd in recursive_doubling_allreduce(8, 1.0):
            pairs = set(zip(rnd.sources, rnd.destinations))
            assert all((b, a) in pairs for a, b in pairs)

    def test_alltoall_round_count_and_offsets(self):
        rounds = pairwise_alltoall(6, 1.0)
        assert len(rounds) == 5
        for j, rnd in enumerate(rounds, start=1):
            for s, d in zip(rnd.sources, rnd.destinations):
                assert d == (s + j) % 6

    def test_alltoall_total_volume(self):
        rounds = pairwise_alltoall(4, 2.0)
        assert sum(r.total_volume for r in rounds) == 4 * 3 * 2.0

    def test_ring_pass_mirrors_allgather(self):
        a = ring_allgather(6, 1.5)
        b = ring_pass(6, 1.5)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.sources == rb.sources
            assert ra.destinations == rb.destinations

    def test_collective_times_on_ring(self, ring8):
        """Allgather on the 8-ring: each round moves 1 GB one hop on
        every link simultaneously -> 0.5 s per round, 7 rounds."""
        _, _, cache = ring8
        total, per = simulate_rounds(cache, ring_allgather(8, 1.0))
        assert total == pytest.approx(7 * 0.5)

    def test_alltoall_round_costs_on_ring(self, ring8):
        """Shift-round costs on the 8-ring: near-antipodal offsets (3
        and 5) are the worst — they load one direction with 3 hops per
        flow (the tornado effect) — while the exact-half offset 4 is
        parity-split across both directions and costs less."""
        _, _, cache = ring8
        _, per = simulate_rounds(cache, pairwise_alltoall(8, 1.0))
        assert per == [0.5, 1.0, 1.5, 1.0, 1.5, 1.0, 0.5]
        assert max(per) == per[2] == per[4]


class TestValidation:
    def test_route_cache_topology_mismatch(self):
        t1 = Torus((8,))
        t2 = Torus((4,))
        net = LinkNetwork(t1, link_bandwidth=1.0)
        with pytest.raises(ValueError):
            RouteCache(net, t2)


class TestTransferRoundVolumes:
    """Volume validation: any real scalar, never negative or non-finite."""

    @pytest.mark.parametrize(
        "volume", [np.int64(2), np.float32(1.0), np.float64(0.5), 3, 0.0]
    )
    def test_numpy_and_python_scalars_accepted(self, volume):
        r = TransferRound((0, 1), (1, 0), volume)
        assert r.volume_of(1) == float(volume)
        assert r.total_volume == 2 * float(volume)

    def test_numpy_scalar_round_simulates(self, ring8):
        _, _, cache = ring8
        total, _ = simulate_rounds(
            cache, [TransferRound((0,), (1,), np.int64(6))]
        )
        assert total == 3.0

    @pytest.mark.parametrize(
        "volumes",
        [-1.0, np.float64(-2.0), (1.0, -2.0), (1.0, np.int64(-1))],
    )
    def test_negative_rejected(self, volumes):
        with pytest.raises(ValueError, match="non-negative"):
            TransferRound((0, 1), (1, 0), volumes)

    @pytest.mark.parametrize(
        "volumes",
        [math.nan, math.inf, np.float32(np.inf), (1.0, math.nan)],
    )
    def test_non_finite_rejected(self, volumes):
        with pytest.raises(ValueError, match="finite"):
            TransferRound((0, 1), (1, 0), volumes)

    def test_non_real_rejected(self):
        with pytest.raises(TypeError):
            TransferRound((0, 1), (1, 0), None)
        with pytest.raises(TypeError):
            TransferRound((0, 1), (1, 0), (1.0, "2"))


class TestBatchRouting:
    def test_rounds_route_with_the_cache_tie(self):
        """An exact-half transfer follows the cache's tie-break: parity
        sends 1 -> 3 down through node 0, positive sends it up through
        node 2; the same-direction transfer 2 -> 3 only shares a link
        with the positive route."""
        torus = Torus((4,))
        net = LinkNetwork(torus, link_bandwidth=1.0)
        rnd = TransferRound((1, 2), (3, 3), 1.0)
        parity, _ = simulate_rounds(RouteCache(net, torus), [rnd])
        positive, _ = simulate_rounds(
            RouteCache(net, torus, tie="positive"), [rnd]
        )
        assert parity == 1.0
        assert positive == 2.0

"""Batch-routed drivers against the scalar oracle, compared with ``==``.

The CAPS driver (:func:`run_caps_on_geometry`) and the round-schedule
simulator (:func:`simulate_rounds`) route each exchange round with one
batch route and sum link loads with one weighted ``bincount``.  Under
``REPRO_VECTOR=0`` they fall back to the scalar router, pair by pair.
Both must give the same floats bit for bit: a dimension-ordered route
never repeats a link, and ``bincount`` adds weights in input order,
which is the per-link order of the scalar loop.
"""

from __future__ import annotations

import pytest

from repro.allocation.geometry import PartitionGeometry
from repro.experiments.futurekernels import run_fft_transpose, run_nbody_sweep
from repro.experiments.matmul import run_caps_on_geometry
from repro.netsim.collectives import pairwise_alltoall
from repro.netsim.network import LinkNetwork
from repro.netsim.schedule import RouteCache, TransferRound, simulate_rounds


def _both(monkeypatch, fn):
    """``(batch, oracle)`` results of *fn* with the vector path on/off."""
    monkeypatch.setenv("REPRO_VECTOR", "1")
    batch = fn()
    monkeypatch.setenv("REPRO_VECTOR", "0")
    oracle = fn()
    return batch, oracle


def _assert_caps_equal(monkeypatch, dims, **kw):
    batch, oracle = _both(
        monkeypatch,
        lambda: run_caps_on_geometry(PartitionGeometry(dims), **kw),
    )
    assert batch.step_times == oracle.step_times
    assert batch.communication_time == oracle.communication_time
    return batch


class TestCaps:
    @pytest.mark.parametrize("schedule", ["rounds", "superposition"])
    @pytest.mark.parametrize("node_order", ["tedcba", "abcdet"])
    @pytest.mark.parametrize("digit_order", ["deep-major", "top-major"])
    def test_all_options_one_merged_dimension(
        self, monkeypatch, schedule, node_order, digit_order
    ):
        """(2,1,1,1): the A dimension has length 2 and one merged link
        slot per node pair."""
        _assert_caps_equal(
            monkeypatch, (2, 1, 1, 1), num_ranks=343, matrix_dim=2744,
            schedule=schedule, node_order=node_order,
            digit_order=digit_order,
        )

    @pytest.mark.parametrize("schedule", ["rounds", "superposition"])
    def test_multi_rank_nodes(self, monkeypatch, schedule):
        """(2,2,1,1), 2401 ranks on 2048 nodes: some nodes host two
        ranks, so pair counts above 1 weight the load."""
        _assert_caps_equal(
            monkeypatch, (2, 2, 1, 1), num_ranks=2401, matrix_dim=4116,
            max_cores=4, schedule=schedule, node_order="abcdet",
        )

    def test_largest_geometry(self, monkeypatch):
        """(3,2,2,2), 4802 ranks: three merged length-2 dimensions plus
        an odd-length one."""
        _assert_caps_equal(
            monkeypatch, (3, 2, 2, 2), num_ranks=4802, matrix_dim=4116
        )

    def test_all_intranode_step_is_free(self, monkeypatch):
        """3584 = 512 · 7 ranks, seven per node, top-major digits: the
        last step exchanges within 7-rank blocks, i.e. within a node, so
        it routes nothing and costs exactly 0."""
        res = _assert_caps_equal(
            monkeypatch, (1, 1, 1, 1), num_ranks=3584, matrix_dim=3584,
            digit_order="top-major",
        )
        assert res.step_times[-1] == 0.0
        assert res.step_times[0] > 0.0


class TestSchedules:
    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 1, 1, 1)])
    def test_fft_transpose(self, monkeypatch, dims):
        batch, oracle = _both(
            monkeypatch,
            lambda: run_fft_transpose(PartitionGeometry(dims), n=2**24,
                                      max_sampled_rounds=16),
        )
        assert batch == oracle

    @pytest.mark.parametrize("ring_order", ["walk", "random"])
    @pytest.mark.parametrize("dims", [(2, 1, 1, 1), (2, 2, 1, 1)])
    def test_nbody_sweep(self, monkeypatch, dims, ring_order):
        batch, oracle = _both(
            monkeypatch,
            lambda: run_nbody_sweep(PartitionGeometry(dims), 10**6,
                                    ring_order=ring_order, seed=7),
        )
        assert batch == oracle

    @pytest.mark.parametrize("tie", ["parity", "positive"])
    def test_mixed_volumes_and_intranode(self, monkeypatch, tie):
        """Per-transfer volumes, self-transfers and repeated pairs in one
        round, a spread of all-to-all offsets, both tie-breaks."""
        torus = PartitionGeometry((1, 1, 1, 1)).bgq_network()
        net = LinkNetwork(torus, link_bandwidth=2.0)
        p = torus.num_vertices
        rounds = list(pairwise_alltoall(p, 0.25))[::37]
        rounds.append(
            TransferRound(
                tuple(range(p)) * 2,
                tuple((7 * i) % p for i in range(p)) * 2,
                tuple(float(i % 5) / 3.0 for i in range(2 * p)),
            )
        )
        batch, oracle = _both(
            monkeypatch,
            lambda: simulate_rounds(RouteCache(net, torus, tie=tie), rounds),
        )
        assert batch == oracle
        assert batch[1][-1] > 0.0

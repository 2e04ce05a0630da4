"""Figure 5 and Figure 6 shape gates at the paper's own scale.

The same assertions, with the same bands, as
``benchmarks/bench_matmul_fig5.py`` and
``benchmarks/bench_strong_scaling_fig6.py``: Table 3's CAPS runs (up to
117 649 ranks on 24 midplanes) and Table 4's strong-scaling runs, with
nothing scaled down.  Batch routing makes them cheap enough for tier-1
(a few seconds for Figure 5, under one for Figure 6).
"""

from __future__ import annotations

import pytest

from repro.allocation.geometry import PartitionGeometry
from repro.analysis.paperdata import (
    COMPUTATION_TIMES_SECONDS,
    TABLE_3_MATMUL_PARAMS,
)
from repro.experiments.matmul import run_caps_on_geometry
from repro.experiments.strongscaling import run_strong_scaling

#: Current and proposed geometry per midplane count (Figure 5).
GEOMETRIES = {
    4: ((4, 1, 1, 1), (2, 2, 1, 1)),
    8: ((4, 2, 1, 1), (2, 2, 2, 1)),
    16: ((4, 4, 1, 1), (2, 2, 2, 2)),
    24: ((4, 3, 2, 1), (3, 2, 2, 2)),
}


@pytest.fixture(scope="module")
def fig5():
    out = {}
    for row in TABLE_3_MATMUL_PARAMS:
        mp = row["midplanes"]
        out[mp] = tuple(
            run_caps_on_geometry(
                PartitionGeometry(dims),
                num_ranks=row["ranks"],
                matrix_dim=row["matrix_dim"],
                max_cores=row["max_cores"],
            )
            for dims in GEOMETRIES[mp]
        )
    return out


@pytest.fixture(scope="module")
def fig6():
    return run_strong_scaling()


class TestFigure5:
    def test_proposed_wins_in_the_paper_band(self, fig5):
        assert sorted(fig5) == [4, 8, 16, 24]
        for mp, (rc, rp) in fig5.items():
            assert rp.communication_time < rc.communication_time, mp
            ratio = rc.communication_time / rp.communication_time
            assert 1.15 <= ratio <= 2.1, (mp, ratio)

    def test_proposed_strong_scales_to_16_midplanes(self, fig5):
        prop = {mp: r[1].communication_time for mp, r in fig5.items()}
        assert prop[4] > prop[8] > prop[16]

    def test_computation_geometry_independent(self, fig5):
        for mp, (rc, rp) in fig5.items():
            assert rc.computation_time == rp.computation_time
            assert rc.computation_time == pytest.approx(
                COMPUTATION_TIMES_SECONDS[mp], rel=0.5
            ), mp

    def test_wall_ratio_below_comm_ratio(self, fig5):
        for mp, (rc, rp) in fig5.items():
            comm_ratio = rc.communication_time / rp.communication_time
            wall_ratio = rc.total_time / rp.total_time
            assert 1.0 < wall_ratio < comm_ratio, mp


class TestFigure6:
    """The bands; the shared 2-midplane point, the spill model and the
    computation scaling are checked in ``test_strongscaling.py``."""

    def test_speedup_band(self, fig6):
        assert 2.8 <= fig6.speedup("proposed") <= 5.5
        assert fig6.speedup("proposed") > fig6.speedup("current")

    def test_super_linear_first_doubling(self, fig6):
        prop = {p.num_midplanes: p.communication_time for p in fig6.proposed}
        assert prop[2] / prop[4] > 1.6

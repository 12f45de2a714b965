"""Figure 4 bench: peak-to-average ratio, Enki vs Optimal.

The benchmark times one full simulated day (workload generation + both
allocators); the saved series is the figure's two PAR curves.  Expected
shape: the two series track each other closely (the paper reports the
differences "are not large").
"""

from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.sim.engine import SocialWelfareStudy


def test_fig4_one_day_both_allocators(benchmark):
    study = SocialWelfareStudy(
        [
            GreedyFlexibilityAllocator(),
            BranchAndBoundAllocator(time_limit_s=10.0, seed=0),
        ]
    )
    records = benchmark.pedantic(
        lambda: study.run(20, days=1, seed=7), rounds=1, iterations=1
    )
    assert len(records) == 2


def test_fig4_series(benchmark, welfare_small, save_result):
    from repro.experiments import fig4_par

    result = benchmark(lambda: fig4_par.extract(welfare_small))
    # The reproduction claim: Enki's PAR stays close to Optimal's.
    for row in result.rows:
        assert abs(row.gap) < 1.5
    save_result("fig4_par", result.render())

"""The placement kernel's two sweeps and the exact solver's node expansion.

Every greedy path places through :mod:`repro.kernels.placement`.  The
kernel reproduces a verbatim copy of the NumPy placement loop it replaced
— identical starts and costs across random compiled problems, both
pricing models, degenerate (slack-free and full-day) windows, n = 0/1 —
for exact binary ratings *and* for ratings such as 0.3 or 1.1 kW whose
load sums round.  The scalar sweep performs the same float operations in
the same order; the run sweep, taken on days of long runs of identical
rows with exact arithmetic, performs them in integer quanta.  Run-heavy
days (mixed dyadic ratings, runs into an empty day) are checked on both
sides of the selection rule, and the run sweep is also called directly.
The exact solver's node expansion is pinned against the inline numpy
lines it was lifted from, and its results against exhaustive search.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.allocation.arrays import CompiledProblem
from repro.allocation.base import problem_from_compiled
from repro.allocation.exhaustive import ExhaustiveAllocator
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator, expand_children
from repro.core.flexibility import flexibility_vector
from repro.core.intervals import HOURS_PER_DAY
from repro.kernels import placement
from repro.kernels.placement import MIN_MEAN_RUN, place_day
from repro.pricing.load_profile import LoadProfile
from repro.pricing.piecewise import TwoStepPricing
from repro.pricing.quadratic import QuadraticPricing
from repro.sim.profiles import ProfileGenerator

#: Exactly-representable ratings (binary fractions, the paper's 2.0 among
#: them), keeping every load sum exact.
_EXACT_RATINGS = (0.5, 1.0, 2.0, 4.0)

#: Ratings whose sums round: identity here needs the same float
#: operations in the same order, not just exact arithmetic.
_NON_BINARY_RATINGS = (0.3, 1.1, 1.8, 7.2)

_PRICINGS = (
    QuadraticPricing(sigma=0.3),
    TwoStepPricing(threshold_kw=6.0, low_rate=1.0, high_rate=4.0),
)


# ------------------------------------------------------------------ oracle

#: Verbatim copy of the pre-kernel ``_RAMPS`` table.
_LEGACY_RAMPS = [None] + [
    np.minimum(np.arange(1, HOURS_PER_DAY + 1, dtype=float), float(v))
    for v in range(1, HOURS_PER_DAY + 1)
]


def _legacy_solve_columnar(allocator, compiled, pricing, rng):
    """The pre-kernel ``solve_columnar`` placement loop, kept verbatim.

    The oracle for the bit-identity suite: starts and cost exactly as the
    shipped implementation computed them before the placement kernel
    existed (per-item fancy-indexed window sums, per-item
    ``np.concatenate(([0.0], np.cumsum(...)))``, ``_RAMPS`` prefix
    updates).
    """
    n = len(compiled)
    starts_out = np.zeros(n, dtype=np.intp)
    if n == 0:
        return starts_out, pricing.cost(LoadProfile())
    flex = flexibility_vector(
        compiled.win_start, compiled.win_end, compiled.duration
    )
    keys = np.fromiter((rng.random() for _ in range(n)), dtype=float, count=n)
    order = np.lexsort((keys, flex if allocator.ascending else -flex))
    quadratic = isinstance(pricing, QuadraticPricing)
    loads = np.zeros(HOURS_PER_DAY, dtype=float)
    prefix = np.zeros(HOURS_PER_DAY + 1, dtype=float)
    win_start = compiled.win_start.tolist()
    win_end = compiled.win_end.tolist()
    duration = compiled.duration.tolist()
    rating = compiled.rating.tolist()
    start_index = compiled.start_index
    end_index = compiled.end_index
    for i in order.tolist():
        a, v, r = win_start[i], duration[i], rating[i]
        if quadratic:
            sums = prefix[end_index[i]] - prefix[start_index[i]]
            s = a + int(np.argmin(sums))
        else:
            b = win_end[i]
            hourly = pricing.marginal_cost_batch(loads[a:b], r)
            window_prefix = np.concatenate(([0.0], np.cumsum(hourly)))
            deltas = window_prefix[v:] - window_prefix[:-v]
            s = a + int(np.argmin(deltas))
        starts_out[i] = s
        loads[s:s + v] += r
        prefix[s + 1:] += r * _LEGACY_RAMPS[v][:HOURS_PER_DAY - s]
    profile = LoadProfile.from_arrays(
        starts_out, starts_out + compiled.duration, compiled.rating
    )
    return starts_out, pricing.cost(profile)


# -------------------------------------------------------------- strategies

@st.composite
def compiled_problems(draw, max_n=25, ratings=_EXACT_RATINGS):
    """Random compiled instances including n = 0/1 and degenerate windows.

    Windows include slack-free ones (window length == duration: exactly
    one placement) and full-day ones; ratings are drawn from ``ratings``.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    win_start, win_end, duration, rating = [], [], [], []
    for _ in range(n):
        a = rng.randint(0, HOURS_PER_DAY - 1)
        v = rng.randint(1, HOURS_PER_DAY - a)
        slack = rng.randint(0, HOURS_PER_DAY - a - v)
        win_start.append(a)
        win_end.append(a + v + slack)
        duration.append(v)
        rating.append(rng.choice(ratings))
    pricing = draw(st.sampled_from(_PRICINGS))
    compiled = CompiledProblem.from_arrays(
        ids=tuple(f"h{j:03d}" for j in range(n)),
        win_start=np.array(win_start, dtype=np.intp),
        win_end=np.array(win_end, dtype=np.intp),
        duration=np.array(duration, dtype=np.intp),
        rating=np.array(rating, dtype=np.float64),
        pricing=pricing,
    )
    return compiled, pricing


#: Dyadic ratings mixed within a run-heavy day.
_RUN_RATINGS = (0.5, 1.0, 2.0, 3.0, 4.0)


def _class_rows(classes):
    """A compiled day from ``(start, end, duration, rating, copies)`` classes.

    The rows are shuffled; the flexibility order regroups each class.
    """
    rows = [row[:4] for row in classes for _ in range(row[4])]
    random.Random(len(rows)).shuffle(rows)
    win_start, win_end, duration, rating = (
        np.array(column) for column in zip(*rows)
    )
    return CompiledProblem.from_arrays(
        ids=tuple(f"h{j:04d}" for j in range(len(rows))),
        win_start=win_start.astype(np.intp),
        win_end=win_end.astype(np.intp),
        duration=duration.astype(np.intp),
        rating=rating.astype(np.float64),
    )


@st.composite
def run_heavy_problems(draw):
    """1-6 classes of identical households, each in a run of many copies.

    Classes differ in window or duration, so the flexibility order keeps
    each one contiguous; ratings are mixed within the day.  Windows are
    often the whole day, so the first run lands in an empty day where
    every candidate ties.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    shapes = set()
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        a = rng.choice((0, rng.randint(0, 20)))
        v = rng.randint(1, min(6, HOURS_PER_DAY - a))
        b = rng.choice((HOURS_PER_DAY, min(HOURS_PER_DAY, a + v + rng.randint(0, 8))))
        shapes.add((a, b, v))
    return _class_rows([
        (a, b, v, rng.choice(_RUN_RATINGS), rng.randint(MIN_MEAN_RUN, 300))
        for a, b, v in sorted(shapes)
    ])


@st.composite
def preloaded_long_runs(draw):
    """1-3 runs pile load onto a few hours, then one long run covers them.

    Runs as ``(start, end, duration, rating in quanta, length)``.  The
    preloads differ from the long run in rating and duration, so its
    masked gaps drift both ways: some laps are tiled up to a bound, and
    some fail the check.
    """
    v = draw(st.integers(min_value=1, max_value=6))
    a = draw(st.integers(min_value=0, max_value=HOURS_PER_DAY - v))
    b = draw(st.integers(min_value=a + v, max_value=HOURS_PER_DAY))
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pv = draw(st.integers(min_value=1, max_value=min(6, b - a)))
        pa = draw(st.integers(min_value=a, max_value=b - pv))
        pb = draw(st.integers(min_value=pa + pv, max_value=min(b, pa + pv + 2)))
        u = draw(st.integers(min_value=1, max_value=16))
        runs.append((pa, pb, pv, u, draw(st.integers(min_value=1, max_value=2000))))
    u = draw(st.integers(min_value=1, max_value=16))
    runs.append((a, b, v, u, draw(st.integers(min_value=1, max_value=6000))))
    return runs


def _check_run_sweep(runs):
    """The run sweep on ``(start, end, duration, quanta, length)`` runs
    against the scalar sweep on their rows."""
    starts, ends, durations, units, lengths = (list(column) for column in zip(*runs))
    expected = placement._sweep_quadratic(*(
        [value for value, length in zip(column, lengths) for _ in range(length)]
        for column in (starts, ends, durations, [float(u) for u in units])
    ))
    placed = placement._sweep_runs(starts, ends, durations, units, lengths)
    assert placed.tolist() == expected


def _columns_in_order(compiled, order):
    return (
        compiled.win_start[order], compiled.win_end[order],
        compiled.duration[order], compiled.rating[order],
    )


# ----------------------------------------------------- placement identity

class TestPlacementBitIdentity:
    @given(
        st.sampled_from((_EXACT_RATINGS, _NON_BINARY_RATINGS)).flatmap(
            lambda ratings: compiled_problems(ratings=ratings)
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_backend_matches_the_legacy_loop(self, case, seed):
        compiled, pricing = case
        allocator = GreedyFlexibilityAllocator()
        legacy_starts, legacy_cost = _legacy_solve_columnar(
            allocator, compiled, pricing, random.Random(seed)
        )
        result = allocator.solve_columnar(compiled, pricing, random.Random(seed))
        assert np.array_equal(result.starts, legacy_starts)
        assert result.cost == legacy_cost
        assert result.kernel_backend == "python"

    @given(run_heavy_problems(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_run_heavy_days_take_the_run_sweep(self, compiled, seed):
        pricing = _PRICINGS[0]
        allocator = GreedyFlexibilityAllocator()
        order = allocator._rows_in_order(compiled, random.Random(seed))
        # Two classes may tie on flexibility and interleave; skip those.
        assume(placement._exact_runs(*_columns_in_order(compiled, order)) is not None)
        legacy_starts, legacy_cost = _legacy_solve_columnar(
            allocator, compiled, pricing, random.Random(seed)
        )
        result = allocator.solve_columnar(compiled, pricing, random.Random(seed))
        assert np.array_equal(result.starts, legacy_starts)
        assert result.cost == legacy_cost

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=HOURS_PER_DAY - 1),
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=1, max_value=3000),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_run_sweep_called_directly(self, runs):
        """The run sweep against the scalar sweep, no selection rule.

        Each run is ``(start, duration, slack, rating in quanta, length)``;
        adjacent runs may repeat a class, and runs of one row occur.  Runs
        of thousands of rows tile their laps more than once.
        """
        clipped = []
        for a, v, slack, u, length in runs:
            v = min(v, HOURS_PER_DAY - a)
            clipped.append((a, min(HOURS_PER_DAY, a + v + slack), v, u, length))
        _check_run_sweep(clipped)

    def test_drifting_lap_is_tiled(self, monkeypatch):
        """A lap bounded by a far candidate's drift, then a wider cycle.

        The third run lands on hour 23 in one jump, then alternates hours
        21 and 23 one row at a time while hour 22's gap of 639 closes by
        one per lap, and ends in a cycle over all three hours.  Its laps
        are tiled: about a dozen jumps for the day, where a step per lap
        takes about 1,280.
        """
        steps = []
        jump = placement._jump

        def counted(*args):
            steps.append(args)
            return jump(*args)

        monkeypatch.setattr(placement, "_jump", counted)
        _check_run_sweep([
            (22, 23, 1, 1, 1361), (21, 22, 1, 1, 722), (21, 24, 1, 1, 3217)
        ])
        assert len(steps) < 20

    @given(preloaded_long_runs())
    @settings(max_examples=60, deadline=None)
    def test_preloaded_hours_drift_under_a_long_run(self, runs):
        _check_run_sweep(runs)

    @pytest.mark.parametrize("ratings", [(0.3,), (1.1,), (0.3, 1.1, 2.0)])
    def test_non_dyadic_runs_take_the_scalar_sweep(self, ratings):
        """Long runs whose sums round: the scalar sweep, same starts."""
        shapes = [(0, 24, 2), (6, 14, 3), (16, 22, 1)]
        compiled = _class_rows([
            (a, b, v, ratings[k % len(ratings)], 200)
            for k, (a, b, v) in enumerate(shapes)
        ])
        self._check_selection(compiled, run_sweep=False)

    def test_total_reaching_2_53_quanta_takes_the_scalar_sweep(self):
        """Quantum 2**-49: 16 rows of 1 kW reach 2**53 quanta, 15 do not."""
        tiny = 2.0 ** -49
        for copies, run_sweep in ((15, True), (16, False)):
            compiled = _class_rows([
                (0, 6, 1, 1.0, copies),
                (10, 20, 1, tiny, 16),
            ])
            self._check_selection(compiled, run_sweep=run_sweep)

    def test_overflowing_loads_take_the_scalar_sweep(self):
        """Quantum 2**1020: 48 quanta, but the float loads overflow to inf.

        The run sweep's integers would spread the rows over the day; the
        scalar sweep's inf/nan comparisons do not, so such a day must stay
        scalar.  Quanta up to 2**971 keep 2**53 of them finite.
        """
        huge = 2.0 ** 1020
        columns = ([0] * 48, [24] * 48, [1] * 48, [huge] * 48)
        forced = placement._sweep_runs([0], [24], [1], [1], [48])
        assert forced.tolist() != placement._sweep_quadratic(*columns)
        with np.errstate(over="ignore"):  # these days cost inf
            for rating, run_sweep in (
                (huge, False), (2.0 ** 971, True), (2.0 ** 972, False)
            ):
                compiled = _class_rows([(0, 24, 1, rating, 48)])
                self._check_selection(compiled, run_sweep, oracle="scalar")

    def test_sampled_day_takes_the_run_sweep(self):
        """A fig-style n = 10k day: ~25-row runs, far gaps, tiled cycles."""
        neighborhood = ProfileGenerator().sample_population_columnar(
            np.random.default_rng(2017), 10_000
        ).to_neighborhood("wide")
        compiled = CompiledProblem.from_arrays(
            ids=neighborhood.ids,
            win_start=neighborhood.true_start,
            win_end=neighborhood.true_end,
            duration=neighborhood.duration,
            rating=neighborhood.rating,
        )
        self._check_selection(compiled, run_sweep=True, oracle="scalar")

    @staticmethod
    def _check_selection(compiled, run_sweep, oracle="legacy"):
        """Assert which sweep the day takes, and that its starts match."""
        pricing = _PRICINGS[0]
        allocator = GreedyFlexibilityAllocator()
        order = allocator._rows_in_order(compiled, random.Random(5))
        columns = _columns_in_order(compiled, order)
        assert (placement._exact_runs(*columns) is not None) == run_sweep
        result = allocator.solve_columnar(compiled, pricing, random.Random(5))
        if oracle == "legacy":
            expected, cost = _legacy_solve_columnar(
                allocator, compiled, pricing, random.Random(5)
            )
            assert result.cost == cost
        else:
            expected = np.zeros(len(compiled), dtype=np.intp)
            expected[order] = placement._sweep_quadratic(
                *(column.tolist() for column in columns)
            )
        assert np.array_equal(result.starts, expected)

    def test_subclassed_pricing_takes_the_python_path(self):
        """A ``QuadraticPricing`` subclass takes the quadratic sweep."""

        class TracedQuadratic(QuadraticPricing):
            pass

        compiled = CompiledProblem.from_arrays(
            ids=("a", "b"),
            win_start=np.array([0, 4], dtype=np.intp),
            win_end=np.array([6, 12], dtype=np.intp),
            duration=np.array([2, 3], dtype=np.intp),
            rating=np.array([2.0, 2.0]),
        )
        order = np.array([0, 1], dtype=np.intp)
        placed = {}
        for pricing in (TracedQuadratic(sigma=0.3), QuadraticPricing(sigma=0.3)):
            starts_out = np.zeros(2, dtype=np.intp)
            used = place_day(
                order,
                compiled.win_start,
                compiled.win_end,
                compiled.duration,
                compiled.rating,
                pricing,
                starts_out,
            )
            assert used == "python"
            placed[type(pricing)] = starts_out.tolist()
        assert placed[TracedQuadratic] == placed[QuadraticPricing] == [0, 4]


# ----------------------------------------------------------- B&B identity

def _bnb_instances():
    """A handful of fixed small instances, symmetric households included."""
    cases = []
    rng = random.Random(11)
    for n in (1, 4, 7, 10):
        win_start, win_end, duration = [], [], []
        for _ in range(n):
            a = rng.randint(0, 16)
            v = rng.randint(1, 4)
            slack = rng.randint(0, min(6, HOURS_PER_DAY - a - v))
            win_start.append(a)
            win_end.append(a + v + slack)
            duration.append(v)
        compiled = CompiledProblem.from_arrays(
            ids=tuple(f"h{j}" for j in range(n)),
            win_start=np.array(win_start, dtype=np.intp),
            win_end=np.array(win_end, dtype=np.intp),
            duration=np.array(duration, dtype=np.intp),
            rating=np.full(n, 2.0),
            pricing=_PRICINGS[0],
        )
        cases.append(problem_from_compiled(compiled, _PRICINGS[0]))
    return cases


class TestBnbBitIdentity:
    def test_backends_agree_on_cost_nodes_and_verdict(self):
        """Proven optimal at the exhaustive optimum; repeat solves agree."""
        for problem in _bnb_instances():
            summaries = []
            for _ in range(2):
                result = BranchAndBoundAllocator(
                    time_limit_s=None, seed=1
                ).solve(problem, random.Random(3))
                assert result.kernel_backend == "python"
                summaries.append((
                    result.cost,
                    result.nodes_explored,
                    result.proven_optimal,
                    tuple(
                        result.allocation[item.household_id].start
                        for item in problem.items
                    ),
                ))
            assert summaries[0] == summaries[1]
            assert summaries[0][2]
            optimum = ExhaustiveAllocator().solve(problem, random.Random(3))
            assert summaries[0][0] == pytest.approx(optimum.cost)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_expander_matches_inline_reference(self, seed):
        """One node expansion equals the exact numpy lines it replaced."""
        rng = np.random.default_rng(seed)
        loads_arr = rng.integers(0, 5, HOURS_PER_DAY).astype(np.float64) * 2.0
        a = int(rng.integers(0, 20))
        v = int(rng.integers(1, 4))
        count = int(rng.integers(1, HOURS_PER_DAY - a - v + 2))
        starts_idx = np.arange(a, a + count, dtype=np.intp)
        ends_idx = starts_idx + v
        two_sigma_r, self_term = 1.2, 3.6

        reference_prefix = np.zeros(HOURS_PER_DAY + 1)
        np.cumsum(loads_arr, out=reference_prefix[1:])
        reference_deltas = (
            two_sigma_r * (reference_prefix[ends_idx] - reference_prefix[starts_idx])
            + self_term
        )
        reference_order = np.argsort(reference_deltas, kind="stable")

        deltas, order = expand_children(
            loads_arr, starts_idx, ends_idx, two_sigma_r, self_term,
            np.zeros(HOURS_PER_DAY + 1),
        )
        assert np.array_equal(deltas, reference_deltas)
        assert np.array_equal(order, reference_order)

"""The scalar placement kernel and the exact solver's node expansion.

Every greedy path places through :mod:`repro.kernels.placement`.  The
kernel reproduces a verbatim copy of the NumPy placement loop it replaced
— identical starts and costs across random compiled problems, both
pricing models, degenerate (slack-free and full-day) windows, n = 0/1 —
for exact binary ratings *and* for ratings such as 0.3 or 1.1 kW whose
load sums round, because it performs the same float operations in the
same order.  The exact solver's node expansion is pinned against the
inline numpy lines it was lifted from, and its results against
exhaustive search.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.arrays import CompiledProblem
from repro.allocation.base import problem_from_compiled
from repro.allocation.exhaustive import ExhaustiveAllocator
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator, expand_children
from repro.core.flexibility import flexibility_vector
from repro.core.intervals import HOURS_PER_DAY
from repro.kernels.placement import place_day
from repro.pricing.load_profile import LoadProfile
from repro.pricing.piecewise import TwoStepPricing
from repro.pricing.quadratic import QuadraticPricing

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

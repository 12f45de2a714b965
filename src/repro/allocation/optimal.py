"""Exact optimal allocator: depth-first branch and bound over deferments.

This stands in for the paper's IBM ILOG CPLEX V12.4 MIQP solver (Section
VI-A).  It solves exactly the same discrete program (Eq. 2) to proven
optimality:

* **Branching**: households sorted fewest-placements-first (rigid
  households prune earliest); children visited best-marginal-cost-first,
  with sibling cutoff once a child's partial cost already exceeds the
  incumbent (valid because prices are increasing in load).
* **Bounding**: writing the cost of any completion as
  ``sigma * sum((l_h + X_h)**2)`` with ``X`` the remaining load, the
  expansion ``sum(l**2) + 2*sum(l*X) + sum(X**2)`` is bounded below by
  combining (a) the exact minimum of the linear term — fill the cheapest
  hours of the remaining windows' support first — with (b) two integral
  lower bounds on ``sum(X**2)``: the Cauchy-Schwarz floor ``R**2/support``
  and the per-household self term ``sum_j r_j**2 * v_j`` (valid because
  cross terms of integral blocks are non-negative).  If that does not prune,
  an exact capacitated water-filling bound (the fractional minimizer of the
  whole quadratic) gets a second chance, and near the root the exact
  transportation relaxation (windows kept, contiguity dropped) gets a third.
* **Symmetry breaking**: households with identical (window, duration,
  rating) are interchangeable, so their begin slots are forced to be
  nondecreasing; a transposition table additionally cuts revisits of
  (depth, load-profile) states already reached at equal or lower cost.
* **Warm start**: the greedy allocation refined by hill climbing provides
  the initial incumbent.
* **Anytime**: optional time and node limits return the best incumbent with
  ``proven_optimal=False`` instead of running forever, preserving the
  Figure 6 story (the exact solver's cost explodes with n) without hanging
  the harness.

The search runs on the structure-of-arrays layer of
:mod:`repro.allocation.arrays`: the problem is lowered once into a
:class:`~repro.allocation.arrays.CompiledProblem` (begin-candidate
prefix-sum index vectors) plus :class:`~repro.allocation.arrays.
SuffixArrays` (per-depth bound tables), node state is a load vector
maintained by delta on push/pop, every begin slot of the branching
household is evaluated in one vectorized prefix-sum pass (stable-argsorted
for best-first visitation), the transposition table keys on a byte digest
of the load profile over the remaining support, and transportation bounds
come from the all-integer successive-shortest-path kernel
(:func:`~repro.allocation.relaxation.fast_transportation_bound`) behind a
bounded LRU memo.  All of this is numerically identical to the scalar
reference search on the paper's instances (one common power rating, loads
exact binary floats), so incumbents, costs and node counts are preserved
bit for bit — only the clock changes.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.intervals import HOURS_PER_DAY, Interval
from ..core.types import AllocationMap
from ..kernels import active_backend
from ..pricing.quadratic import QuadraticPricing
from .arrays import CompiledProblem, SuffixArrays
from .base import AllocationItem, AllocationProblem, AllocationResult, Allocator
from .greedy import GreedyFlexibilityAllocator
from .local_search import improve_allocation
from .relaxation import fast_transportation_bound, transportation_solution

#: How many nodes between time-limit checks.
_TIME_CHECK_STRIDE = 512

#: Depths at which the search may consult the transportation relaxation.
_TRANSPORT_DEPTH = 2

#: Slack subtracted from bounds before pruning, guarding float drift.
_EPS = 1e-9

#: Entries kept in the memoized transportation-bound LRU.
_TRANSPORT_CACHE_SIZE = 4096


class SearchBudgetExceeded(Exception):
    """Internal signal: stop the search and keep the incumbent."""


class IncumbentMatchesBound(Exception):
    """Internal signal: the incumbent met the root bound; search is over."""


class BranchAndBoundAllocator(Allocator):
    """Exact MIQP solver for Eq. 2 (see module docstring).

    Args:
        time_limit_s: Wall-clock budget; ``None`` means unlimited.
        node_limit: Maximum nodes to expand; ``None`` means unlimited.
        warm_start: Seed the incumbent with greedy + hill climbing.
        gap: Relative MIP gap: the search may discard subtrees that cannot
            improve the incumbent by more than this fraction, so a
            completed search proves the answer within ``gap`` of optimal
            (0.0 proves exact optimality).  The same knob CPLEX exposes.
        seed: Randomness for the warm start only; the search itself is
            deterministic.
    """

    name = "optimal-bnb"

    def __init__(
        self,
        time_limit_s: Optional[float] = 60.0,
        node_limit: Optional[int] = None,
        warm_start: bool = True,
        gap: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if time_limit_s is not None and time_limit_s <= 0:
            raise ValueError(f"time limit must be positive, got {time_limit_s}")
        if node_limit is not None and node_limit <= 0:
            raise ValueError(f"node limit must be positive, got {node_limit}")
        if not 0.0 <= gap < 1.0:
            raise ValueError(f"gap must be in [0, 1), got {gap}")
        self.time_limit_s = time_limit_s
        self.node_limit = node_limit
        self.warm_start = warm_start
        self.gap = gap
        self._seed = seed

    def cache_token(self) -> str:
        """Exact solves are memoizable — for the results this admits.

        The token pins every constructor knob that can steer a stored
        answer (search budgets, warm start, gap, seed fallback);
        :meth:`result_cacheable` then narrows storage to
        proven-optimal results, because a deadline-truncated incumbent is
        a function of the wall clock, not of the instance.
        """
        return (
            f"optimal-bnb:tl={self.time_limit_s}:nl={self.node_limit}"
            f":ws={self.warm_start}:gap={self.gap}:seed={self._seed}"
        )

    def result_cacheable(self, result) -> bool:
        """Only proven-optimal answers enter the memoization store."""
        return bool(result.proven_optimal)

    def solve(
        self, problem: AllocationProblem, rng: Optional[random.Random] = None
    ) -> AllocationResult:
        started_at = time.perf_counter()
        rng = rng if rng is not None else random.Random(self._seed)
        if not isinstance(problem.pricing, QuadraticPricing):
            raise TypeError(
                "the exact solver bounds require quadratic pricing; got "
                f"{type(problem.pricing).__name__}"
            )
        sigma = problem.pricing.sigma

        if not problem.items:
            return self._finish(
                problem,
                {},
                started_at,
                proven_optimal=True,
                kernel_backend=active_backend(),
            )

        # Branch order: fewest placements first; identical specs adjacent so
        # the symmetry constraint below applies.
        items: List[AllocationItem] = sorted(
            problem.items,
            key=lambda it: (
                it.n_placements,
                it.window.start,
                it.window.end,
                it.duration,
                it.rating_kw,
                it.household_id,
            ),
        )
        n = len(items)

        # Lower the branch order into flat arrays once; every bound table
        # and begin-candidate index vector below is derived from this.
        compiled = CompiledProblem.from_items(items, problem.pricing)
        suffix = SuffixArrays.from_compiled(compiled)
        uniform_rating = compiled.uniform_rating()

        # Warm-start incumbent.
        incumbent: Optional[List[int]] = None
        incumbent_cost = float("inf")
        if self.warm_start:
            seed_alloc = GreedyFlexibilityAllocator().solve(problem, rng).allocation
            seed_alloc = improve_allocation(problem, seed_alloc, rng)
            incumbent = [seed_alloc[item.household_id].start for item in items]
            incumbent_cost = problem.cost(seed_alloc)

        state = _SearchState(
            compiled=compiled,
            suffix=suffix,
            sigma=sigma,
            uniform_rating=uniform_rating,
            incumbent=incumbent,
            incumbent_cost=incumbent_cost,
            gap=self.gap,
            deadline=(
                started_at + self.time_limit_s if self.time_limit_s is not None else None
            ),
            node_limit=self.node_limit,
        )
        # Root certificate: the exact transportation relaxation (windows
        # kept, contiguity dropped) often matches the warm-start incumbent
        # to within one cost quantum, proving optimality with zero search.
        root_lower_bound: Optional[float] = None
        root_bound_matched = False
        if uniform_rating is not None and incumbent is not None:
            root_lower_bound = fast_transportation_bound(
                loads=[0.0] * HOURS_PER_DAY,
                windows=state.tail_windows(0),
                durations=state.tail_durations(0),
                rating=uniform_rating,
                sigma=sigma,
                counts=state.tail_counts(0),
            )
            quantum = sigma * uniform_rating * uniform_rating
            if root_lower_bound < incumbent_cost - quantum + 1e-6:
                # The certificate missed: extract one particular optimal
                # brick assignment (the flow value is unique, the flow is
                # not) and round it into a second warm start: give each
                # household the contiguous block covering the most of its
                # relaxed brick hours, then hill-climb.
                _, bricks = transportation_solution(
                    loads=[0.0] * HOURS_PER_DAY,
                    windows=state.tail_windows(0),
                    durations=state.tail_durations(0),
                    rating=uniform_rating,
                    sigma=sigma,
                )
                rounded: AllocationMap = {}
                for item, hours in zip(items, bricks):
                    best_start, best_overlap = item.window.start, -1
                    for start in range(
                        item.window.start, item.window.end - item.duration + 1
                    ):
                        overlap = sum(
                            1 for h in hours if start <= h < start + item.duration
                        )
                        if overlap > best_overlap:
                            best_start, best_overlap = start, overlap
                    rounded[item.household_id] = Interval(
                        best_start, best_start + item.duration
                    )
                rounded = improve_allocation(problem, rounded, rng)
                rounded_cost = problem.cost(rounded)
                if rounded_cost < incumbent_cost:
                    incumbent = [rounded[item.household_id].start for item in items]
                    incumbent_cost = rounded_cost
                    state.incumbent = list(incumbent)
                    state.incumbent_cost = incumbent_cost
            if root_lower_bound >= incumbent_cost - quantum + 1e-6:
                allocation = {
                    item.household_id: Interval(start, start + item.duration)
                    for item, start in zip(items, incumbent)
                }
                # The root evaluation is one node's work; report it so the
                # bench row distinguishes "certified at the root" from
                # "never ran".
                return self._finish(
                    problem,
                    allocation,
                    started_at,
                    proven_optimal=True,
                    nodes_explored=1,
                    lower_bound=root_lower_bound,
                    root_bound_matched=True,
                    kernel_backend=active_backend(),
                )

        state.root_lower_bound = root_lower_bound
        proven = True
        try:
            state.search([0.0] * HOURS_PER_DAY, 0.0, 0, [0] * n)
        except SearchBudgetExceeded:
            proven = False
        except IncumbentMatchesBound:
            root_bound_matched = True

        if state.incumbent is None:
            raise RuntimeError("branch and bound ended without any feasible incumbent")
        allocation: AllocationMap = {
            item.household_id: Interval(start, start + item.duration)
            for item, start in zip(items, state.incumbent)
        }
        return self._finish(
            problem,
            allocation,
            started_at,
            proven_optimal=proven,
            nodes_explored=state.nodes,
            lower_bound=state.incumbent_cost if proven else root_lower_bound,
            root_bound_matched=root_bound_matched,
            kernel_backend=active_backend(),
        )

def expand_children(
    loads_arr: np.ndarray,
    starts_idx: np.ndarray,
    ends_idx: np.ndarray,
    two_sigma_r: float,
    self_term: float,
    prefix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One node expansion: every child's cost delta, cheapest first.

    Rebuilds the 24-hour load prefix sum into ``prefix[1:]`` (entry 0
    stays 0), evaluates each begin candidate's exact marginal cost
    through the begin/end index vectors, and stable-argsorts the
    candidates (ties by earlier start).
    """
    np.cumsum(loads_arr, out=prefix[1:])
    deltas = two_sigma_r * (prefix[ends_idx] - prefix[starts_idx]) + self_term
    return deltas, np.argsort(deltas, kind="stable")


class _SearchState:
    """Mutable depth-first search state shared across recursion frames.

    All per-depth tables come pre-lowered from :class:`SuffixArrays`; the
    per-node work is one ``np.array`` of the 24-hour load list plus a
    handful of vectorized kernels over it.
    """

    def __init__(
        self,
        compiled: CompiledProblem,
        suffix: SuffixArrays,
        sigma: float,
        uniform_rating: Optional[float],
        incumbent: Optional[List[int]],
        incumbent_cost: float,
        gap: float,
        deadline: Optional[float],
        node_limit: Optional[int],
    ) -> None:
        n = len(compiled)
        self._n = n
        self.compiled = compiled
        self.sigma = sigma
        self.uniform_rating = uniform_rating
        self.same_as_prev = suffix.same_as_prev
        self.incumbent = list(incumbent) if incumbent is not None else None
        self.incumbent_cost = incumbent_cost
        self.gap = gap
        self.deadline = deadline
        self.node_limit = node_limit
        self.nodes = 0
        self.root_lower_bound: Optional[float] = None
        # Transposition table: the best completion from a node depends only
        # on (depth, loads over the hours the remaining windows can touch),
        # so arriving at a seen state at equal-or-higher cost is futile.
        # Keys are byte digests of the support load vector.
        self.table: dict = {}
        self.quantum = (
            sigma * uniform_rating * uniform_rating
            if uniform_rating is not None
            else 0.0
        )
        # Item scalars as plain Python lists: scalar indexing in the hot
        # push/pop loop beats numpy item access.
        self._win_start = compiled.win_start.tolist()
        self._win_end = compiled.win_end.tolist()
        self._duration = compiled.duration.tolist()
        self._rating = compiled.rating.tolist()
        # Bound tables (Python floats where the search does scalar math).
        self.suffix_energy = suffix.energy.tolist()
        self.suffix_self = suffix.self_term.tolist()
        self.suffix_cross = suffix.cross.tolist()
        self.suffix_units = suffix.units.tolist()
        self._support = suffix.support_index
        self._sup_caps = tuple(
            suffix.caps[k][suffix.support_index[k]] for k in range(n + 1)
        )
        sup_counts = tuple(
            suffix.counts[k][suffix.support_index[k]] for k in range(n + 1)
        )
        # Integral water-filling grids: per depth, the loads-independent
        # brick-step offsets (k-th extra brick in an hour costs k more
        # doubled-rating² steps) and the validity mask (hour h offers
        # counts[h] bricks).  At bound time only the first column (the
        # current marginals) changes.
        self._brick_steps: Tuple[np.ndarray, ...] = ()
        self._brick_mask: Tuple[np.ndarray, ...] = ()
        if uniform_rating is not None:
            r = uniform_rating
            self._two_r = 2.0 * r
            self._r2 = r * r
            two_r2 = 2.0 * r * r
            steps_list = []
            mask_list = []
            for k in range(n + 1):
                counts = sup_counts[k]
                max_count = int(counts.max()) if counts.size else 0
                steps_list.append(two_r2 * np.arange(max_count, dtype=np.float64))
                mask_list.append(
                    np.arange(max_count, dtype=np.intp)[None, :] < counts[:, None]
                )
            self._brick_steps = tuple(steps_list)
            self._brick_mask = tuple(mask_list)
        # Transportation-relaxation inputs for the depths allowed to
        # consult it, plus the bounded LRU memo over load digests.
        self._tail_windows: Dict[int, List[List[int]]] = {}
        self._tail_durations: Dict[int, List[int]] = {}
        self._tail_counts: Dict[int, List[int]] = {}
        for k in range(min(_TRANSPORT_DEPTH, n) + 1):
            self._tail_windows[k] = [
                list(range(self._win_start[i], self._win_end[i]))
                for i in range(k, n)
            ]
            self._tail_durations[k] = [self._duration[i] for i in range(k, n)]
            self._tail_counts[k] = suffix.counts[k].tolist()
        self._transport_cache: "OrderedDict[tuple, float]" = OrderedDict()
        # Prefix-sum scratch row of :func:`expand_children`; its results
        # are copied (``.tolist()``) before any recursion, so one row
        # serves the whole search.
        self._prefix = np.zeros(HOURS_PER_DAY + 1, dtype=np.float64)

    def tail_windows(self, depth: int) -> List[List[int]]:
        """Remaining households' window hour lists from ``depth`` on."""
        return self._tail_windows[depth]

    def tail_durations(self, depth: int) -> List[int]:
        """Remaining households' durations from ``depth`` on."""
        return self._tail_durations[depth]

    def tail_counts(self, depth: int) -> List[int]:
        """Per-hour count of remaining households covering each hour."""
        return self._tail_counts[depth]

    def _prune_threshold(self) -> float:
        """Bounds at or above this cannot improve enough to matter.

        With one common rating r every achievable cost is a multiple of
        ``sigma * r**2`` (loads are multiples of r, so ``sum(l**2)`` is an
        integer times r**2).  An improvement therefore means improving by a
        full quantum, which lets the search prune the large plateaus of
        cost-equivalent schedules these instances exhibit.
        """
        base = self.incumbent_cost
        slack = max(self.quantum - 1e-6, base * self.gap, _EPS)
        return base - slack

    def _check_budget(self) -> None:
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise SearchBudgetExceeded
        if (
            self.deadline is not None
            and self.nodes % _TIME_CHECK_STRIDE == 0
            and time.perf_counter() > self.deadline
        ):
            raise SearchBudgetExceeded

    def _transport_bound(self, loads: List[float], loads_arr: np.ndarray,
                         depth: int) -> float:
        """Memoized exact transportation relaxation from this node.

        The bound depends only on (depth, load profile); identical states
        reached along different branches (and the plateaus the quantum
        pruning walks) hit the LRU instead of re-solving the flow.
        """
        key = (depth, loads_arr.tobytes())
        cache = self._transport_cache
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            return value
        value = fast_transportation_bound(
            loads=list(loads),
            windows=self._tail_windows[depth],
            durations=self._tail_durations[depth],
            rating=self.uniform_rating,
            sigma=self.sigma,
            counts=self._tail_counts[depth],
        )
        cache[key] = value
        if len(cache) > _TRANSPORT_CACHE_SIZE:
            cache.popitem(last=False)
        return value

    def _bound(
        self, loads: List[float], loads_arr: np.ndarray, cost: float, depth: int
    ) -> float:
        """Lower bound on the best completion cost from this node.

        First the cheap combined bound (exact linear fill + integral floors
        on ``sum(X**2)``); if that fails to prune, the integral
        water-filling bound (uniform ratings) or the exact capacitated
        water-filling relaxation; near the root, the memoized
        transportation relaxation as a last resort.
        """
        energy = self.suffix_energy[depth]
        if energy <= 0.0:
            return cost
        sigma = self.sigma
        support = self._support[depth]
        sup_loads = loads_arr[support]
        sup_caps = self._sup_caps[depth]

        # Exact minimum of the linear term: fill cheapest hours first.
        # lexsort (loads primary, caps secondary) + prefix cumsum replaces
        # the scalar sorted-tuple accumulation with identical arithmetic.
        order = np.lexsort((sup_caps, sup_loads))
        sorted_loads = sup_loads[order]
        sorted_caps = sup_caps[order]
        cum_caps = np.cumsum(sorted_caps)
        cut = int(np.searchsorted(cum_caps, energy))
        if cut >= sorted_caps.size:
            linear = float(np.dot(sorted_loads, sorted_caps))
        else:
            taken = float(cum_caps[cut - 1]) if cut else 0.0
            linear = float(np.dot(sorted_loads[:cut], sorted_caps[:cut]))
            linear += float(sorted_loads[cut]) * (energy - taken)
        x_square_floor = max(
            energy * energy / support.size,
            self.suffix_self[depth] + 2.0 * self.suffix_cross[depth],
        )
        cheap = cost + sigma * (2.0 * linear + x_square_floor)
        if cheap >= self._prune_threshold():
            return cheap

        if self.uniform_rating is not None:
            # Integral water-filling: with one common rating r, any feasible
            # completion is a multiset of 1-hour height-r bricks, at most one
            # per (remaining household covering h, hour h).  Taking the
            # cheapest marginal bricks is exact for this separable convex
            # relaxation; the cheapest-units selection over the precomputed
            # marginal grid is one partition instead of a units-long scan.
            marginals = self._two_r * sup_loads + self._r2
            grid = marginals[:, None] + self._brick_steps[depth][None, :]
            values = grid[self._brick_mask[depth]]
            units = self.suffix_units[depth]
            if units < values.size:
                values = np.partition(values, units - 1)[:units]
            integral = cost + sigma * float(values.sum())
            best = integral if integral > cheap else cheap
            if best >= self._prune_threshold() or depth > _TRANSPORT_DEPTH:
                return best
            # Last resort near the root: the exact transportation
            # relaxation (windows kept, contiguity dropped); memoized, and
            # orders of magnitude cheaper than the old network simplex.
            transport = self._transport_bound(loads, loads_arr, depth)
            return transport if transport > best else best

        # Exact capacitated water-filling: the fractional minimizer of
        # 2*sum(l*x) + sum(x**2) subject to sum(x) = R, 0 <= x <= c.
        # Sweep the water level through its breakpoints (hour activates at
        # l_h, saturates at l_h + c_h); volume grows linearly in between.
        hours = sorted(zip(sup_loads.tolist(), sup_caps.tolist()))
        events: List[Tuple[float, float]] = []
        for load, cap in hours:
            events.append((load, 1.0))
            events.append((load + cap, -1.0))
        events.sort()
        level = events[0][0]
        volume = 0.0
        slope = 0.0
        index = 0
        target = energy
        while index < len(events):
            next_level = events[index][0]
            if slope > 0.0 and volume + slope * (next_level - level) >= target:
                break
            volume += slope * (next_level - level)
            level = next_level
            while index < len(events) and events[index][0] == next_level:
                slope += events[index][1]
                index += 1
        if slope > 0.0:
            level += (target - volume) / slope
        quad = 0.0
        for load, cap in hours:
            x = level - load
            if x <= 0.0:
                continue
            if x > cap:
                x = cap
            quad += x * (2.0 * load + x)
        waterfill = cost + sigma * quad
        return waterfill if waterfill > cheap else cheap

    def search(
        self, loads: List[float], cost: float, depth: int, starts: List[int]
    ) -> None:
        """Expand the node at ``depth`` with partial ``loads``/``cost``."""
        self.nodes += 1
        self._check_budget()

        if depth == self._n:
            if cost < self.incumbent_cost - 1e-12:
                self.incumbent_cost = cost
                self.incumbent = list(starts)
                if (
                    self.root_lower_bound is not None
                    and self.root_lower_bound > cost - self.quantum + 1e-6
                ):
                    # Nothing can beat the incumbent by a full cost quantum:
                    # the root relaxation certifies it as optimal.
                    raise IncumbentMatchesBound
            return

        loads_arr = np.array(loads)
        if self._bound(loads, loads_arr, cost, depth) >= self._prune_threshold():
            return

        key = (depth, loads_arr[self._support[depth]].tobytes())
        seen = self.table.get(key)
        if seen is not None and seen <= cost + 1e-9:
            return
        if len(self.table) >= 4_000_000:
            self.table.clear()
        self.table[key] = cost

        rating = self._rating[depth]
        duration = self._duration[depth]
        win_start = self._win_start[depth]
        min_start = win_start
        if self.same_as_prev[depth]:
            prev = starts[depth - 1]
            if prev > min_start:
                min_start = prev

        # Marginal cost of every placement in one pass: each candidate
        # block's existing-load sum is a prefix-sum delta via the compiled
        # begin-candidate index vectors; a stable ordering visits children
        # cheapest-first (ties by earlier start, as before).
        starts_idx, ends_idx = self.compiled.begin_candidates(
            depth, min_start - win_start
        )
        self_term = self.sigma * rating * rating * duration
        two_sigma_r = 2.0 * self.sigma * rating
        deltas, order = expand_children(
            loads_arr, starts_idx, ends_idx, two_sigma_r, self_term,
            self._prefix,
        )
        deltas_list = deltas.tolist()

        threshold = self._prune_threshold()
        for child in order.tolist():
            child_cost = cost + deltas_list[child]
            if child_cost >= threshold:
                # Children are sorted by delta and any completion only adds
                # cost, so later siblings cannot win either.
                break
            start = min_start + child
            for h in range(start, start + duration):
                loads[h] += rating
            starts[depth] = start
            self.search(loads, child_cost, depth + 1, starts)
            for h in range(start, start + duration):
                loads[h] -= rating

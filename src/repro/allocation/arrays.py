"""Structure-of-arrays compilation of allocation problems.

Every allocator used to re-derive the same per-item facts — begin-slot
ranges, prefix-sum index vectors, window supports, suffix aggregates —
from ``AllocationItem`` attributes inside its hot loop.  This module
lowers an :class:`~repro.allocation.base.AllocationProblem` **once** into
flat numpy arrays that the greedy allocator, the hill climber, the
relaxation bounds and the branch-and-bound solver all share:

* :class:`CompiledProblem` — per-item scalars (window bounds, duration,
  rating, energy) as parallel arrays, plus per-item begin-candidate index
  vectors so a placement scan is one fancy-indexed subtraction against a
  maintained load prefix sum instead of a Python loop.
* :class:`SuffixArrays` — the branch-and-bound bound data (remaining
  energy, per-hour capacity, window support, brick counts, pairwise
  minimum-overlap cross terms) for every suffix of a branch order, built
  with reverse cumulative sums instead of the seed's O(n^2 * 24) Python
  loops.

:func:`compile_problem` caches the lowering on the problem object, so the
warm-start greedy running inside the exact solver reuses the same compiled
view as a standalone greedy solve on the same day instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.intervals import HOURS_PER_DAY
from ..core.types import HouseholdId
from ..pricing.quadratic import QuadraticPricing
from .base import AllocationItem, AllocationProblem


@dataclass(frozen=True)
class CompiledProblem:
    """An allocation problem lowered to flat numpy arrays.

    Arrays are parallel to the households (one row each, in the order given
    at compile time).  ``start_index[i]``/``end_index[i]`` hold the
    feasible begin slots of item ``i`` and their block ends, so the sum of
    an existing load profile under every candidate block of item ``i`` is
    ``prefix[end_index[i]] - prefix[start_index[i]]`` for a maintained
    prefix-sum vector ``prefix`` (one vectorized subtraction per item).

    ``start_index``/``end_index``/``index_of`` are **lazy**: the greedy
    placement sweep reads only the four per-item columns, so the per-item
    index vectors (2n small arrays) and the id-to-row dict are built on
    first access and cached — a greedy-only day never pays for them,
    which matters when a study compiles hundreds of days.

    ``items`` is populated by :meth:`from_items` (the object path); the
    columnar path (:meth:`from_arrays`) leaves it empty and carries only
    the ``ids`` vector — consumers that need ``AllocationItem`` objects
    should go through
    :func:`repro.allocation.base.problem_from_compiled`.
    """

    items: Tuple[AllocationItem, ...]
    ids: Sequence[HouseholdId]
    sigma: Optional[float]
    win_start: np.ndarray
    win_end: np.ndarray
    duration: np.ndarray
    rating: np.ndarray
    n_placements: np.ndarray
    energy: np.ndarray

    @property
    def start_index(self) -> Tuple[np.ndarray, ...]:
        """Per-item begin-slot index vectors (lazy, cached)."""
        cached = self.__dict__.get("_start_index")
        if cached is None:
            cached = self._build_index_vectors()[0]
        return cached

    @property
    def end_index(self) -> Tuple[np.ndarray, ...]:
        """Per-item block-end index vectors (lazy, cached)."""
        cached = self.__dict__.get("_end_index")
        if cached is None:
            cached = self._build_index_vectors()[1]
        return cached

    @property
    def index_of(self) -> Dict[HouseholdId, int]:
        """Household id to compiled row (lazy, cached)."""
        cached = self.__dict__.get("_index_of")
        if cached is None:
            cached = {hid: i for i, hid in enumerate(self.ids)}
            object.__setattr__(self, "_index_of", cached)
        return cached

    def _build_index_vectors(
        self,
    ) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """Build and cache both index-vector tuples in one pass.

        All items' begin slots as one flat ``arange``, then per-item
        views by manual slicing — ``np.split`` routes every piece
        through ``array_split``'s swapaxes machinery, an order of
        magnitude slower for thousands of 1-d pieces.
        """
        counts = self.n_placements
        n = counts.shape[0]
        bounds = np.cumsum(counts)
        total = int(bounds[-1]) if n else 0
        flat = (
            np.arange(total, dtype=np.intp)
            - np.repeat(bounds - counts, counts)
            + np.repeat(self.win_start, counts)
        )
        flat_ends = flat + np.repeat(self.duration, counts)
        starts, ends = [], []
        lo = 0
        for hi in bounds.tolist():
            starts.append(flat[lo:hi])
            ends.append(flat_ends[lo:hi])
            lo = hi
        start_index = tuple(starts)
        end_index = tuple(ends)
        object.__setattr__(self, "_start_index", start_index)
        object.__setattr__(self, "_end_index", end_index)
        return start_index, end_index

    @classmethod
    def from_items(
        cls, items: Sequence[AllocationItem], pricing=None
    ) -> "CompiledProblem":
        """Lower ``items`` (in the given order) into arrays."""
        n = len(items)
        win_start = np.fromiter((it.window.start for it in items), np.intp, count=n)
        win_end = np.fromiter((it.window.end for it in items), np.intp, count=n)
        duration = np.fromiter((it.duration for it in items), np.intp, count=n)
        rating = np.fromiter((it.rating_kw for it in items), np.float64, count=n)
        n_placements = win_end - win_start - duration + 1
        sigma = pricing.sigma if isinstance(pricing, QuadraticPricing) else None
        return cls(
            items=tuple(items),
            ids=tuple(it.household_id for it in items),
            sigma=sigma,
            win_start=win_start,
            win_end=win_end,
            duration=duration,
            rating=rating,
            n_placements=n_placements,
            energy=rating * duration,
        )

    @classmethod
    def from_arrays(
        cls,
        ids: Sequence[HouseholdId],
        win_start: np.ndarray,
        win_end: np.ndarray,
        duration: np.ndarray,
        rating: np.ndarray,
        pricing=None,
    ) -> "CompiledProblem":
        """Lower parallel household arrays directly, skipping the objects.

        The columnar fast path: no ``AllocationItem``/``Report`` objects
        are materialized, and the per-item begin-candidate index vectors
        are deferred until a consumer (the exact solver, the hill climber)
        actually reads them — the greedy placement sweep never does, so
        compiling a greedy day is a handful of vectorized passes.  A
        :class:`~repro.core.columnar.RowIds` id vector is kept as it is.
        """
        from ..core.columnar import id_vector  # core.columnar imports this module

        win_start = np.ascontiguousarray(win_start, dtype=np.intp)
        win_end = np.ascontiguousarray(win_end, dtype=np.intp)
        duration = np.ascontiguousarray(duration, dtype=np.intp)
        rating = np.ascontiguousarray(rating, dtype=np.float64)
        n = win_start.shape[0]
        n_placements = win_end - win_start - duration + 1
        if n and int(n_placements.min()) < 1:
            bad = int(np.argmin(n_placements))
            raise ValueError(
                f"window [{int(win_start[bad])}, {int(win_end[bad])}) cannot "
                f"fit duration {int(duration[bad])} (household {ids[bad]!r})"
            )
        sigma = pricing.sigma if isinstance(pricing, QuadraticPricing) else None
        return cls(
            items=(),
            ids=id_vector(ids),
            sigma=sigma,
            win_start=win_start,
            win_end=win_end,
            duration=duration,
            rating=rating,
            n_placements=n_placements,
            energy=rating * duration,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def begin_candidates(
        self, i: int, offset: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Item ``i``'s begin/end prefix-index vectors from ``offset`` on.

        The branch-and-bound expansion skips the first ``offset``
        candidates when the symmetry constraint floors the begin slot.
        """
        starts_idx = self.start_index[i]
        ends_idx = self.end_index[i]
        if offset:
            starts_idx = starts_idx[offset:]
            ends_idx = ends_idx[offset:]
        return starts_idx, ends_idx

    def window_matrix(self) -> np.ndarray:
        """Boolean ``(n, HOURS_PER_DAY)`` window-coverage indicator."""
        hours = np.arange(HOURS_PER_DAY)
        return (self.win_start[:, None] <= hours[None, :]) & (
            hours[None, :] < self.win_end[:, None]
        )

    def uniform_rating(self) -> Optional[float]:
        """The common power rating, or ``None`` if ratings differ."""
        if self.rating.size == 0:
            return None
        first = float(self.rating[0])
        if np.all(self.rating == first):
            return first
        return None


_COMPILE_STATS = {"hits": 0, "misses": 0}


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of :func:`compile_problem` (process-wide)."""
    return dict(_COMPILE_STATS)


def reset_compile_cache() -> None:
    """Zero the counters (the cached views live on their problems)."""
    _COMPILE_STATS["hits"] = 0
    _COMPILE_STATS["misses"] = 0


def compile_problem(problem: AllocationProblem) -> CompiledProblem:
    """The problem's :class:`CompiledProblem`, lowered once per object.

    The view is stored on the problem itself, so every solver handed the
    same ``AllocationProblem`` (the exact solver, its warm-start greedy,
    the hill climber) shares one lowering without hashing the items.
    Hit/miss counters are exposed via :func:`compile_cache_stats`.
    """
    compiled = problem.__dict__.get("_compiled")
    if compiled is not None:
        _COMPILE_STATS["hits"] += 1
        return compiled
    _COMPILE_STATS["misses"] += 1
    compiled = CompiledProblem.from_items(problem.items, problem.pricing)
    object.__setattr__(problem, "_compiled", compiled)
    return compiled


@dataclass(frozen=True)
class SuffixArrays:
    """Per-depth bound data for a fixed branch order.

    Index ``k`` describes the suffix of households ``k..n-1`` still
    unplaced when the search stands at depth ``k``; index ``n`` is the
    empty suffix.  These are exactly the seed solver's ``suffix_*``
    tables, built vectorized.
    """

    energy: np.ndarray           # (n+1,) remaining energy R_k
    self_term: np.ndarray        # (n+1,) sum_j r_j^2 v_j over the suffix
    cross: np.ndarray            # (n+1,) pairwise minimum-overlap floor
    caps: np.ndarray             # (n+1, 24) per-hour remaining capacity
    counts: np.ndarray           # (n+1, 24) remaining households covering h
    units: np.ndarray            # (n+1,) remaining brick count sum_j v_j
    support_index: Tuple[np.ndarray, ...]  # (n+1) hour-index arrays, caps > 0
    same_as_prev: Tuple[bool, ...]         # identical-spec symmetry flags

    @classmethod
    def from_compiled(cls, compiled: CompiledProblem) -> "SuffixArrays":
        """Build all suffix tables for the compiled items' order."""
        n = len(compiled)
        window = compiled.window_matrix()          # (n, 24) bool
        rating = compiled.rating
        duration = compiled.duration.astype(np.float64)

        def _suffix_sum(rows: np.ndarray) -> np.ndarray:
            """Reverse cumulative sum with a trailing zero row."""
            out = np.zeros((n + 1,) + rows.shape[1:], dtype=rows.dtype)
            if n:
                out[:n] = rows[::-1].cumsum(axis=0)[::-1]
            return out

        energy = _suffix_sum(rating * duration)
        self_term = _suffix_sum(rating * rating * duration)
        caps = _suffix_sum(window * rating[:, None])
        counts = _suffix_sum(window.astype(np.intp))
        units = _suffix_sum(compiled.duration)

        # Pairwise minimum-overlap floor on the cross terms of sum(X**2):
        # blocks of lengths v, v' confined to the hull of their windows
        # (length L) overlap at least v + v' - L hours, whatever happens.
        if n:
            hull = np.maximum(
                compiled.win_end[:, None], compiled.win_end[None, :]
            ) - np.minimum(compiled.win_start[:, None], compiled.win_start[None, :])
            forced = np.maximum(
                compiled.duration[:, None] + compiled.duration[None, :] - hull, 0
            )
            pair = rating[:, None] * rating[None, :] * forced
            pair[np.tril_indices(n)] = 0.0     # keep j < j' pairs only
            cross = _suffix_sum(pair.sum(axis=1))
        else:
            cross = np.zeros(1)

        if n:
            same = (
                (compiled.win_start[1:] == compiled.win_start[:-1])
                & (compiled.win_end[1:] == compiled.win_end[:-1])
                & (compiled.duration[1:] == compiled.duration[:-1])
                & (compiled.rating[1:] == compiled.rating[:-1])
            )
            same_as_prev = (False,) + tuple(same.tolist())
        else:
            same_as_prev = ()
        support_index = tuple(
            np.flatnonzero(caps[k] > 0.0) for k in range(n + 1)
        )
        return cls(
            energy=energy,
            self_term=self_term,
            cross=cross,
            caps=caps,
            counts=counts,
            units=units,
            support_index=support_index,
            same_as_prev=same_as_prev,
        )

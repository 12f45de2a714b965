"""Columnar (structure-of-arrays) views of a neighborhood and its reports.

The object model (:class:`~repro.core.types.HouseholdType`,
:class:`~repro.core.types.Report`) is one Python object per household —
fine at the paper's n <= 50, but at 100k households a simulated day spends
its time churning objects rather than doing arithmetic.  This module keeps
a whole neighborhood as a handful of parallel numpy arrays plus an id
vector, and lowers reports straight into the allocators'
:class:`~repro.allocation.arrays.CompiledProblem` without materializing a
single ``HouseholdType`` or ``Report``.

A sampled population's ids are ``f"{prefix}{row:0{width}d}"``, and
:class:`RowIds` keeps that recipe — a prefix, a width and the rows —
instead of the strings.  Enki never reads an id to settle a row (Eqs. 3-8
read windows, durations and ratings), so a columnar day subsets, compares
and pickles such ids without spelling one: a 31,250-row city shard
crosses to a worker as its columns plus a recipe of a few dozen bytes.
Ids given as a tuple (the object bridges) stay tuples; :func:`id_vector`
is the one place that chooses between the two.

Both representations describe the same mechanism; ``to_objects()`` /
``from_objects()`` bridge between them, and
``tests/test_columnar_equivalence.py`` pins that a day computed on either
path is bit-identical on identical inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..allocation.arrays import CompiledProblem
from ..pricing.base import PricingModel
from .intervals import HOURS_PER_DAY, Interval
from .types import (
    HouseholdId,
    HouseholdType,
    Neighborhood,
    Preference,
    Report,
)


#: A RowIds' rows: ``range(size)`` for a whole population, else an index array.
_Rows = Union[range, np.ndarray]


class RowIds(Sequence[str]):
    """The ids ``f"{prefix}{row:0{width}d}"`` of ``rows``, spelled on demand.

    ``RowIds(prefix, size)`` names the rows of a sampled population of
    ``size`` households, ``width`` being the digits of ``size - 1``.  It
    behaves as the tuple of its strings — ``len``, indexing (negative
    indices and slices included), iteration in row order, and ``==``,
    ``!=`` and ``hash`` against tuples — but holds only the recipe:
    ``rows`` is a ``range`` or a read-only index array, :meth:`take`
    subsets it with an index array, and it pickles as the recipe.  Two
    vectors with one prefix and width compare by their rows alone.
    """

    __slots__ = ("prefix", "width", "rows")

    def __init__(self, prefix: str, size: int) -> None:
        self._adopt(prefix, len(str(size - 1)), range(size))

    def _adopt(self, prefix: str, width: int, rows: _Rows) -> "RowIds":
        if not isinstance(rows, range):
            rows = np.asarray(rows, dtype=np.intp)
            rows.flags.writeable = False
        for name, value in (("prefix", prefix), ("width", width), ("rows", rows)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RowIds is immutable; cannot set {name!r}")

    def __reduce__(self):
        return _row_ids, (self.prefix, self.width, self.rows)

    def __repr__(self) -> str:
        return f"RowIds({self.prefix!r}, width={self.width}, rows={self.rows!r})"

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _row_ids(self.prefix, self.width, self.rows[index])
        row = int(self.rows[operator.index(index)])
        return self.prefix + str(row).zfill(self.width)

    def __iter__(self) -> Iterator[str]:
        # zfill spells a row >= 0 as the f-string does, in half the time.
        prefix, width = self.prefix, self.width
        rows = self.rows if isinstance(self.rows, range) else self.rows.tolist()
        return (prefix + str(row).zfill(width) for row in rows)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """``np.asarray(tuple(self))``, written one code-point column at a time.

        Every row is below ``10**width``: each id is the prefix and ``width`` digits.
        """
        if copy is False:
            raise ValueError("RowIds are spelled into a new array, never a view")
        rows = _row_array(self.rows)
        if rows.shape[0] == 0:
            spelled = np.asarray(())
        else:
            head = len(self.prefix)
            chars = np.empty((rows.shape[0], head + self.width), dtype=np.uint32)
            chars[:, :head] = [ord(char) for char in self.prefix]
            for col in range(head + self.width - 1, head - 1, -1):
                rows, digit = np.divmod(rows, 10)
                chars[:, col] = digit + ord("0")
            spelled = chars.view((np.str_, head + self.width)).reshape(-1)
        return spelled if dtype is None else spelled.astype(dtype, copy=False)

    def take(self, idx: np.ndarray) -> "RowIds":
        """The ids of rows ``idx`` (an index array) of this vector."""
        return _row_ids(self.prefix, self.width, _row_array(self.rows)[idx])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowIds):
            if len(self) != len(other):
                return False
            if self.prefix != other.prefix or self.width != other.width:
                return tuple(self) == tuple(other)
            # One prefix, one width: the strings are equal iff the rows are.
            if isinstance(self.rows, range) and isinstance(other.rows, range):
                return self.rows == other.rows
            return bool(np.array_equal(_row_array(self.rows), _row_array(other.rows)))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


def _row_ids(prefix: str, width: int, rows: _Rows) -> RowIds:
    """The :class:`RowIds` of a recipe; subsets and unpickling build through it."""
    return RowIds.__new__(RowIds)._adopt(prefix, width, rows)


def _row_array(rows: _Rows) -> np.ndarray:
    if isinstance(rows, range):
        return np.arange(rows.start, rows.stop, rows.step, dtype=np.intp)
    return rows


def id_vector(
    ids: Sequence[HouseholdId], idx: Optional[np.ndarray] = None
) -> Sequence[HouseholdId]:
    """``ids`` — or its rows ``idx``, an index array — as an immutable vector.

    The one choice between the two id representations: a :class:`RowIds`
    stays a recipe and subsets by its row array; any other sequence
    becomes the tuple of its ids.
    """
    if isinstance(ids, RowIds):
        return ids if idx is None else ids.take(idx)
    if idx is None:
        return tuple(ids)
    return tuple(ids[i] for i in idx.tolist())


def _as_index_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.intp)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _check_windows(
    start: np.ndarray, end: np.ndarray, duration: np.ndarray, what: str
) -> None:
    """Vectorized counterpart of ``Preference``'s validation."""
    n = start.shape[0]
    if not (end.shape[0] == duration.shape[0] == n):
        raise ValueError(f"{what} arrays disagree on length")
    if n == 0:
        return
    if int(duration.min()) < 1:
        raise ValueError(f"{what} durations must be >= 1")
    if int(start.min()) < 0 or int(end.max()) > HOURS_PER_DAY:
        raise ValueError(f"{what} windows must lie within [0, {HOURS_PER_DAY}]")
    if bool(np.any(end - start < duration)):
        raise ValueError(f"{what} window shorter than duration")


@dataclass(frozen=True)
class ColumnarNeighborhood:
    """A neighborhood as parallel arrays: one row per household.

    ``true_start``/``true_end``/``duration`` hold the true preference
    windows (``chi_i``), ``rating`` the power ratings ``r`` and
    ``valuation`` the willingness-to-pay factors ``rho_i``.  Row order is
    the neighborhood's insertion order; ``ids[i]`` names row ``i``.
    """

    ids: Sequence[HouseholdId]
    true_start: np.ndarray
    true_end: np.ndarray
    duration: np.ndarray
    rating: np.ndarray
    valuation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_start", _as_index_array(self.true_start, "true_start"))
        object.__setattr__(self, "true_end", _as_index_array(self.true_end, "true_end"))
        object.__setattr__(self, "duration", _as_index_array(self.duration, "duration"))
        object.__setattr__(
            self, "rating", np.ascontiguousarray(self.rating, dtype=np.float64)
        )
        object.__setattr__(
            self, "valuation", np.ascontiguousarray(self.valuation, dtype=np.float64)
        )
        n = len(self.ids)
        for name in ("true_start", "true_end", "duration", "rating", "valuation"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} has {getattr(self, name).shape[0]} rows for {n} ids")
        # A RowIds' rows are distinct by construction.
        if not isinstance(self.ids, RowIds) and len(set(self.ids)) != n:
            raise ValueError("duplicate household ids in columnar neighborhood")
        _check_windows(self.true_start, self.true_end, self.duration, "true preference")
        if n and (float(self.rating.min()) <= 0 or float(self.valuation.min()) <= 0):
            raise ValueError("ratings and valuation factors must be positive")

    def __len__(self) -> int:
        return len(self.ids)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Unpickle without re-validating, each column in its canonical dtype.

        Pickle rebuilds an array's dtype as a new instance, equal to
        numpy's own but not identical, and ``np.add.at`` (the settlement's
        load profile) leaves its fast path on such values, tens of times
        slower (see ``docs/performance.md``).  ``np.asarray`` converts a
        column only if it must, and ``view`` gives it numpy's own dtype
        instance, which ``np.asarray`` alone need not do, without a copy.
        """
        self.__dict__.update(state)
        for name in ("true_start", "true_end", "duration"):
            self.__dict__[name] = np.asarray(state[name], np.intp).view(np.intp)
        for name in ("rating", "valuation"):
            self.__dict__[name] = np.asarray(state[name], np.float64).view(np.float64)

    @classmethod
    def from_objects(cls, neighborhood: Neighborhood) -> "ColumnarNeighborhood":
        """Lower an object :class:`Neighborhood` (insertion order kept)."""
        n = len(neighborhood)
        households = list(neighborhood)
        return cls(
            ids=tuple(hh.household_id for hh in households),
            true_start=np.fromiter(
                (hh.true_preference.window.start for hh in households), np.intp, count=n
            ),
            true_end=np.fromiter(
                (hh.true_preference.window.end for hh in households), np.intp, count=n
            ),
            duration=np.fromiter(
                (hh.true_preference.duration for hh in households), np.intp, count=n
            ),
            rating=np.fromiter((hh.rating_kw for hh in households), np.float64, count=n),
            valuation=np.fromiter(
                (hh.valuation_factor for hh in households), np.float64, count=n
            ),
        )

    def truthful_wire(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The truthful reports in wire form: three fresh float64 arrays.

        What every household would put on the wire if it reported its true
        window — the raw-array analogue of
        :meth:`ColumnarReports.truthful`, used by the service drivers and
        the streaming report generator.
        """
        return (
            self.true_start.astype(np.float64),
            self.true_end.astype(np.float64),
            self.duration.astype(np.float64),
        )

    def take(self, keep: np.ndarray) -> "ColumnarNeighborhood":
        """The subset of rows selected by boolean mask ``keep``.

        Keeping every row returns this neighborhood itself: a clean day
        skips rebuilding and re-validating its ids.
        """
        idx = np.flatnonzero(keep)
        if len(idx) == len(self):
            return self
        return ColumnarNeighborhood(
            ids=id_vector(self.ids, idx),
            true_start=self.true_start[idx],
            true_end=self.true_end[idx],
            duration=self.duration[idx],
            rating=self.rating[idx],
            valuation=self.valuation[idx],
        )

    def to_objects(self) -> Neighborhood:
        """Materialize the object :class:`Neighborhood`, same row order."""
        return Neighborhood.of(
            *(
                HouseholdType(
                    household_id=hid,
                    true_preference=Preference(Interval(a, b), v),
                    valuation_factor=rho,
                    rating_kw=r,
                )
                for hid, a, b, v, r, rho in zip(
                    self.ids,
                    self.true_start.tolist(),
                    self.true_end.tolist(),
                    self.duration.tolist(),
                    self.rating.tolist(),
                    self.valuation.tolist(),
                )
            )
        )


@dataclass(frozen=True)
class ColumnarReports:
    """Declared preference windows as parallel arrays, one row per report.

    Durations are reported truthfully in the paper's model, so a report
    row is just a window; rows are parallel to the neighborhood they were
    built against (``ids`` repeats the household ids for self-description
    and the bridges).
    """

    ids: Sequence[HouseholdId]
    start: np.ndarray
    end: np.ndarray
    duration: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _as_index_array(self.start, "start"))
        object.__setattr__(self, "end", _as_index_array(self.end, "end"))
        object.__setattr__(self, "duration", _as_index_array(self.duration, "duration"))
        n = len(self.ids)
        for name in ("start", "end", "duration"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} has {getattr(self, name).shape[0]} rows for {n} ids")
        _check_windows(self.start, self.end, self.duration, "report")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def truthful(cls, neighborhood: ColumnarNeighborhood) -> "ColumnarReports":
        """Every household reports its true window (the Figures 4-6 setting)."""
        return cls(
            ids=neighborhood.ids,
            start=neighborhood.true_start.copy(),
            end=neighborhood.true_end.copy(),
            duration=neighborhood.duration.copy(),
        )

    @classmethod
    def from_trusted(
        cls,
        ids: Sequence[HouseholdId],
        start: np.ndarray,
        end: np.ndarray,
        duration: np.ndarray,
    ) -> "ColumnarReports":
        """Adopt pre-validated arrays as-is, skipping ``__post_init__``.

        For rows that were validated when they were first built, such as
        a day's compiled reports rebuilt after crossing a process
        boundary.  The caller guarantees dtype, contiguity and invariants.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "duration", duration)
        return self

    @classmethod
    def from_objects(
        cls, reports: Mapping[HouseholdId, Report]
    ) -> "ColumnarReports":
        """Lower an object report map (iteration order kept)."""
        n = len(reports)
        return cls(
            ids=tuple(reports.keys()),
            start=np.fromiter(
                (r.preference.window.start for r in reports.values()), np.intp, count=n
            ),
            end=np.fromiter(
                (r.preference.window.end for r in reports.values()), np.intp, count=n
            ),
            duration=np.fromiter(
                (r.preference.duration for r in reports.values()), np.intp, count=n
            ),
        )

    def to_objects(self) -> Dict[HouseholdId, Report]:
        """Materialize object :class:`Report`s, same row order."""
        return {
            hid: Report(hid, Preference(Interval(a, b), v))
            for hid, a, b, v in zip(
                self.ids, self.start.tolist(), self.end.tolist(), self.duration.tolist()
            )
        }

    def compile(
        self, neighborhood: ColumnarNeighborhood, pricing: PricingModel
    ) -> CompiledProblem:
        """Lower these reports straight into a :class:`CompiledProblem`.

        The columnar analogue of ``AllocationProblem.from_reports`` +
        ``compile_problem``, with no intermediate objects: the reports
        supply the windows and durations, the neighborhood the ratings.
        """
        if self.ids != neighborhood.ids:
            raise ValueError("reports and neighborhood rows are not aligned")
        return CompiledProblem.from_arrays(
            ids=self.ids,
            win_start=self.start,
            win_end=self.end,
            duration=self.duration,
            rating=neighborhood.rating,
            pricing=pricing,
        )

    def take(self, keep: np.ndarray) -> "ColumnarReports":
        """The subset of rows selected by boolean mask ``keep``."""
        idx = np.flatnonzero(keep)
        return ColumnarReports(
            ids=id_vector(self.ids, idx),
            start=self.start[idx],
            end=self.end[idx],
            duration=self.duration[idx],
        )

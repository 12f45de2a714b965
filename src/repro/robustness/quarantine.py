"""Report validation and quarantine: the mechanism's trust boundary.

Reports arrive from participants over the wire, so the center cannot
assume they are well-formed: windows come inverted or off the 24-hour
grid, durations disagree with the household's metered appliance, bounds
arrive as NaN.  The domain types (:class:`repro.core.types.Preference`)
refuse to even construct such values, which protects the math but — used
directly — turns one bad participant into an exception that kills the
whole neighborhood day.

This module screens reports *before* they reach the mechanism, under one
of three policies:

* ``reject`` — raise :class:`~repro.robustness.errors.InvalidReportError`
  on the first malformed report (strict mode: bad input is an operator
  problem).
* ``clamp`` — deterministically repair the report onto the grid (swap
  inverted bounds, clip to ``[0, 24]``, restore the metered duration,
  widen a too-short window) and schedule the repaired version.
* ``exclude`` — drop the offending household for the day and run the
  mechanism over the survivors; Theorem 1's budget balance holds over any
  subset because Eq. 7 splits the realized cost of exactly the households
  being settled.

Every non-trivial decision is recorded as a structured
:class:`QuarantineDecision` suitable for the audit log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.columnar import ColumnarNeighborhood, ColumnarReports, id_vector
from ..core.intervals import HOURS_PER_DAY, Interval
from ..core.types import HouseholdId, HouseholdType, Neighborhood, Preference, Report
from .errors import InvalidReportError

#: The supported quarantine policies.
POLICIES: Tuple[str, ...] = ("reject", "clamp", "exclude")


@dataclass(frozen=True)
class RawReport:
    """An unvalidated report as it arrives from the wire.

    Unlike :class:`~repro.core.types.Report`, nothing is checked at
    construction: bounds may be floats, NaN, inverted or off-grid.  The
    quarantine layer is the only component that should touch these.
    """

    household_id: HouseholdId
    begin: Any
    end: Any
    duration: Any

    @staticmethod
    def from_report(report: Report) -> "RawReport":
        """Wrap an already-typed report (always structurally valid)."""
        return RawReport(
            household_id=report.household_id,
            begin=report.preference.window.start,
            end=report.preference.window.end,
            duration=report.preference.duration,
        )

    def as_payload(self) -> Dict[str, Any]:
        """JSON-safe view for audit records (NaN rendered as a string)."""

        def _safe(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return repr(value)
            if isinstance(value, float) and not math.isfinite(value):
                return repr(value)
            return value

        return {
            "household_id": self.household_id,
            "begin": _safe(self.begin),
            "end": _safe(self.end),
            "duration": _safe(self.duration),
        }


#: Anything the quarantine accepts as one household's submission.
AnyReport = Union[Report, RawReport]


def _as_grid_int(value: Any) -> Optional[int]:
    """``value`` as an exact integer, or ``None`` when it is not one."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value) or value != int(value):
            return None
        return int(value)
    return None


def validate_raw_report(raw: RawReport, household: HouseholdType) -> Report:
    """Check one raw report against the grid and the household's type.

    Returns:
        The typed, validated :class:`Report`.

    Raises:
        InvalidReportError: With a machine-readable ``reason`` slug when
            any constraint fails.
    """
    hid = raw.household_id
    if hid != household.household_id:
        raise InvalidReportError(hid, "unknown-household", "no such household")
    begin = _as_grid_int(raw.begin)
    end = _as_grid_int(raw.end)
    if begin is None or end is None:
        raise InvalidReportError(
            hid, "non-integer-bound", f"bounds ({raw.begin!r}, {raw.end!r})"
        )
    duration = _as_grid_int(raw.duration)
    if duration is None or duration < 1:
        raise InvalidReportError(hid, "bad-duration", f"duration {raw.duration!r}")
    if duration != household.duration:
        raise InvalidReportError(
            hid,
            "duration-mismatch",
            f"reported {duration}h, metered duration is {household.duration}h",
        )
    if end < begin:
        raise InvalidReportError(hid, "inverted-window", f"[{begin}, {end})")
    if begin < 0 or end > HOURS_PER_DAY:
        raise InvalidReportError(
            hid, "out-of-grid", f"[{begin}, {end}) outside [0, {HOURS_PER_DAY}]"
        )
    if end - begin < duration:
        raise InvalidReportError(
            hid,
            "window-too-short",
            f"window [{begin}, {end}) cannot fit duration {duration}h",
        )
    return Report(hid, Preference(Interval(begin, end), duration))


def clamp_raw_report(raw: RawReport, household: HouseholdType) -> Report:
    """Deterministically repair a raw report onto the grid.

    The repaired report always has the household's metered duration.
    Non-numeric or NaN bounds are beyond repair, so they fall back to the
    household's true window (the center's best stand-in for intent).
    """
    duration = household.duration
    begin = _as_grid_int(raw.begin)
    end = _as_grid_int(raw.end)
    if begin is None and isinstance(raw.begin, float) and math.isfinite(raw.begin):
        begin = int(round(raw.begin))
    if end is None and isinstance(raw.end, float) and math.isfinite(raw.end):
        end = int(round(raw.end))
    if begin is None or end is None:
        window = household.true_preference.window
        return Report(raw.household_id, Preference(window, duration))
    if end < begin:
        begin, end = end, begin
    begin = min(max(begin, 0), HOURS_PER_DAY)
    end = min(max(end, 0), HOURS_PER_DAY)
    if end - begin < duration:
        end = min(begin + duration, HOURS_PER_DAY)
        begin = end - duration
    return Report(raw.household_id, Preference(Interval(begin, end), duration))


def malformed_mask(
    begin: np.ndarray,
    end: np.ndarray,
    duration: np.ndarray,
    metered: np.ndarray,
) -> np.ndarray:
    """Boolean mask of wire rows that would fail report validation.

    The union of :func:`validate_raw_report`'s failure conditions,
    vectorized — one pass over float wire arrays, no per-row Python work.
    (NaN compares unequal to everything, so ``x != trunc(x)`` also catches
    it; ``~isfinite`` keeps the intent explicit.)  Shared by
    :meth:`Quarantine.screen_columnar` at settlement and by the streaming
    ingestor's seal-time admission screen, so both flag exactly the same
    rows.
    """
    with np.errstate(invalid="ignore"):
        return (
            ~np.isfinite(begin)
            | (begin != np.trunc(begin))
            | ~np.isfinite(end)
            | (end != np.trunc(end))
            | ~np.isfinite(duration)
            | (duration != np.trunc(duration))
            | (duration < 1)
            | (duration != metered)
            | (end < begin)
            | (begin < 0)
            | (end > HOURS_PER_DAY)
            | (end - begin < duration)
        )


@dataclass(frozen=True)
class QuarantineDecision:
    """One screened report: what came in, what was decided, and why."""

    household_id: HouseholdId
    action: str  # "accepted" | "clamped" | "excluded"
    reason: Optional[str] = None
    original: Optional[Dict[str, Any]] = None
    repaired: Optional[Dict[str, Any]] = None

    def as_payload(self) -> Dict[str, Any]:
        """JSON-safe dict for the audit log."""
        payload: Dict[str, Any] = {
            "household_id": self.household_id,
            "action": self.action,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.original is not None:
            payload["original"] = self.original
        if self.repaired is not None:
            payload["repaired"] = self.repaired
        return payload


@dataclass
class QuarantineResult:
    """Outcome of screening one day's reports.

    ``decisions`` holds one record per *quarantined* report (clamped or
    excluded); cleanly accepted reports are not individually recorded, so
    screening a large clean neighborhood stays allocation-free.
    """

    accepted: Dict[HouseholdId, Report]
    decisions: List[QuarantineDecision] = field(default_factory=list)
    excluded: Dict[HouseholdId, str] = field(default_factory=dict)

    @property
    def n_quarantined(self) -> int:
        """How many reports were repaired or dropped."""
        return len(self.decisions)


@dataclass
class ColumnarQuarantineResult:
    """Outcome of screening a columnar day's reports.

    ``accepted`` holds the surviving rows (repaired in place under the
    ``clamp`` policy) aligned with ``neighborhood.take(kept)``; ``kept``
    is the boolean row mask over the *input* rows.  ``decisions`` and
    ``excluded`` match the object screen's records exactly.
    """

    accepted: ColumnarReports
    kept: np.ndarray
    decisions: List[QuarantineDecision] = field(default_factory=list)
    excluded: Dict[HouseholdId, str] = field(default_factory=dict)

    @property
    def n_quarantined(self) -> int:
        """How many reports were repaired or dropped."""
        return len(self.decisions)


class Quarantine:
    """Screens a day's reports under a configurable policy.

    Args:
        policy: ``"reject"``, ``"clamp"`` or ``"exclude"`` (see module
            docstring).

    The screen is idempotent: reports that already pass validation are
    returned unchanged under every policy, so screening clean (or
    previously clamped) reports twice is a no-op.
    """

    def __init__(self, policy: str = "reject") -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.policy = policy

    def screen(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, AnyReport],
    ) -> QuarantineResult:
        """Validate every report; repair or drop per the policy.

        Raises:
            InvalidReportError: Under the ``reject`` policy, on the first
                malformed report.  Unknown households are dropped (never
                clamped — there is no type to repair toward) under the
                other policies.
        """
        accepted: Dict[HouseholdId, Report] = {}
        decisions: List[QuarantineDecision] = []
        excluded: Dict[HouseholdId, str] = {}
        households = neighborhood.households
        for hid, submitted in reports.items():
            # Fast path: a typed Report is structurally valid by
            # construction (Interval/Preference enforce the grid), so only
            # identity and the metered duration remain to check.  This
            # keeps the screen's cost negligible against a settlement.
            if isinstance(submitted, Report):
                household = households.get(hid)
                if (
                    household is not None
                    and submitted.household_id == hid
                    and submitted.preference.duration == household.duration
                ):
                    accepted[hid] = submitted
                    continue
                raw = RawReport.from_report(submitted)
            else:
                raw = submitted
            household = neighborhood.households.get(hid)
            if household is None or raw.household_id != hid:
                error: Optional[InvalidReportError] = InvalidReportError(
                    str(hid), "unknown-household", "no such household"
                )
                report = None
            else:
                try:
                    report = validate_raw_report(raw, household)
                    error = None
                except InvalidReportError as exc:
                    report = None
                    error = exc
            if error is None:
                accepted[hid] = report
                continue
            if self.policy == "reject":
                raise error
            if self.policy == "clamp" and household is not None:
                repaired = clamp_raw_report(raw, household)
                accepted[hid] = repaired
                decisions.append(
                    QuarantineDecision(
                        household_id=hid,
                        action="clamped",
                        reason=error.reason,
                        original=raw.as_payload(),
                        repaired={
                            "begin": repaired.preference.window.start,
                            "end": repaired.preference.window.end,
                            "duration": repaired.preference.duration,
                        },
                    )
                )
                continue
            excluded[hid] = error.reason
            decisions.append(
                QuarantineDecision(
                    household_id=hid,
                    action="excluded",
                    reason=error.reason,
                    original=raw.as_payload(),
                )
            )
        return QuarantineResult(accepted=accepted, decisions=decisions, excluded=excluded)

    def screen_columnar(
        self,
        neighborhood: ColumnarNeighborhood,
        begin: np.ndarray,
        end: np.ndarray,
        duration: Optional[np.ndarray] = None,
    ) -> ColumnarQuarantineResult:
        """Screen a day's reports given as parallel numeric arrays.

        ``begin``/``end`` (and optionally ``duration``, defaulting to the
        metered durations) are float arrays aligned with ``neighborhood``'s
        rows — the wire format of the columnar path, where junk shows up
        as NaN/inf, non-integral or out-of-range *numbers*.  Non-numeric
        junk (strings, bools) is an object-path concern; a columnar
        submission is numeric by construction, and unknown households
        cannot occur because rows are positional.

        The clean rows are validated with boolean masks mirroring
        :func:`validate_raw_report`'s checks — one vectorized pass, no
        per-row Python work.  Rows failing any mask are delegated to the
        scalar :func:`validate_raw_report` / :func:`clamp_raw_report`, so
        reasons, repairs and :class:`QuarantineDecision` records are
        exactly the object screen's (pinned by the equivalence suite).
        """
        begin = np.asarray(begin, dtype=float)
        end = np.asarray(end, dtype=float)
        metered = neighborhood.duration
        n = len(neighborhood)
        if begin.shape[0] != n or end.shape[0] != n:
            raise ValueError("report arrays are not aligned with the neighborhood")
        if duration is None:
            duration = metered.astype(float)
        else:
            duration = np.asarray(duration, dtype=float)
            if duration.shape[0] != n:
                raise ValueError("duration array is not aligned with the neighborhood")

        bad = malformed_mask(begin, end, duration, metered)
        keep = ~bad
        out_begin = np.where(keep, begin, 0).astype(np.intp)
        out_end = np.where(keep, end, 0).astype(np.intp)

        decisions: List[QuarantineDecision] = []
        excluded: Dict[HouseholdId, str] = {}
        for i in np.flatnonzero(bad).tolist():
            hid = neighborhood.ids[i]
            household = HouseholdType(
                household_id=hid,
                true_preference=Preference(
                    Interval(
                        int(neighborhood.true_start[i]), int(neighborhood.true_end[i])
                    ),
                    int(metered[i]),
                ),
                valuation_factor=float(neighborhood.valuation[i]),
                rating_kw=float(neighborhood.rating[i]),
            )
            raw = RawReport(hid, float(begin[i]), float(end[i]), float(duration[i]))
            try:
                validate_raw_report(raw, household)
                raise AssertionError(
                    f"mask flagged a valid report for {hid!r}"
                )  # pragma: no cover - masks mirror the scalar checks
            except InvalidReportError as error:
                if self.policy == "reject":
                    raise
                if self.policy == "clamp":
                    repaired = clamp_raw_report(raw, household)
                    out_begin[i] = repaired.preference.window.start
                    out_end[i] = repaired.preference.window.end
                    keep[i] = True
                    decisions.append(
                        QuarantineDecision(
                            household_id=hid,
                            action="clamped",
                            reason=error.reason,
                            original=raw.as_payload(),
                            repaired={
                                "begin": repaired.preference.window.start,
                                "end": repaired.preference.window.end,
                                "duration": repaired.preference.duration,
                            },
                        )
                    )
                else:
                    excluded[hid] = error.reason
                    decisions.append(
                        QuarantineDecision(
                            household_id=hid,
                            action="excluded",
                            reason=error.reason,
                            original=raw.as_payload(),
                        )
                    )

        idx = np.flatnonzero(keep)
        ids = neighborhood.ids
        accepted = ColumnarReports(
            ids=ids if len(idx) == n else id_vector(ids, idx),
            start=out_begin[idx],
            end=out_end[idx],
            duration=metered[idx].copy(),
        )
        return ColumnarQuarantineResult(
            accepted=accepted, kept=keep, decisions=decisions, excluded=excluded
        )

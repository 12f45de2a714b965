"""Field-for-field comparison of two ``DayOutcome``s.

Shared by the object-day equivalence suite and the parallel runtime
tests: every map must have the same keys in the same insertion order,
every float the same bits (compared by ``float.hex``), and every
``AllocationResult`` field but ``wall_time_s`` must match.
"""

import dataclasses


def _same_floats(got, want):
    assert list(got) == list(want)
    assert [float(v).hex() for v in got.values()] == [
        float(v).hex() for v in want.values()
    ]


def assert_same_outcome(got, want):
    """Bit-identical ``DayOutcome``s, insertion order included."""
    assert list(got.reports.items()) == list(want.reports.items())
    assert type(got.consumption) is dict
    assert list(got.consumption.items()) == list(want.consumption.items())
    assert got.quarantine_decisions == want.quarantine_decisions

    for field in dataclasses.fields(got.allocation_result):
        name = field.name
        ours = getattr(got.allocation_result, name)
        theirs = getattr(want.allocation_result, name)
        if name == "wall_time_s":
            continue
        if name == "allocation":
            assert type(ours) is dict
            assert list(ours.items()) == list(theirs.items())
        elif isinstance(theirs, float):
            assert float(ours).hex() == theirs.hex(), name
        else:
            assert ours == theirs, name

    ours, theirs = got.settlement, want.settlement
    for name in (
        "flexibility",
        "defection",
        "social_cost",
        "payments",
        "valuations",
        "utilities",
        "overlap_fractions",
    ):
        assert type(getattr(ours, name)) is dict
        _same_floats(getattr(ours, name), getattr(theirs, name))
    assert ours.total_cost.hex() == theirs.total_cost.hex()
    assert ours.neighborhood_utility.hex() == theirs.neighborhood_utility.hex()
    assert ours.load_profile.as_array().tobytes() == (
        theirs.load_profile.as_array().tobytes()
    )


def assert_same_outcomes(got, want):
    """``assert_same_outcome`` day by day over two equally long runs."""
    assert len(got) == len(want)
    for got_day, want_day in zip(got, want):
        assert_same_outcome(got_day, want_day)

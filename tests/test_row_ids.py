"""``RowIds``: a sampled population's ids as a recipe, not as strings.

A :class:`~repro.core.columnar.RowIds` must be indistinguishable from the
tuple of ``f"{prefix}{row:0{width}d}"`` strings it stands for — length,
indexing, slicing, iteration, equality and hashing — while a columnar day
and a pickled shard's settlement never spell one of them.  A pickled
:class:`~repro.core.columnar.ColumnarNeighborhood` must arrive with numpy's
own dtype instances, which is what keeps ``np.add.at`` on its fast path in
a worker.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.columnar import ColumnarNeighborhood, RowIds, id_vector
from repro.core.mechanism import EnkiMechanism
from repro.mechanisms.enki import serving_mechanism
from repro.service import sample_shard
from repro.service.shard import ShardJob, settle_shard, settlement_digest
from repro.sim.profiles import ProfileGenerator

SIZES = (1, 9, 10, 11, 100, 101, 31_250)
PREFIXES = ("hh", "s7-hh")


def spelled(prefix, size):
    """The reference: the ids spelled out as a tuple of f-strings."""
    width = len(str(size - 1))
    return tuple(f"{prefix}{row:0{width}d}" for row in range(size))


recipes = pytest.mark.parametrize(
    "prefix, size", [(prefix, size) for prefix in PREFIXES for size in SIZES]
)


class TestAgainstTheSpelledTuple:
    @recipes
    def test_strings_and_len(self, prefix, size):
        ids = RowIds(prefix, size)
        expected = spelled(prefix, size)
        assert len(ids) == size
        assert tuple(ids) == expected
        assert [ids[row] for row in range(size)] == list(expected)

    @recipes
    def test_negative_and_out_of_range_indices(self, prefix, size):
        ids = RowIds(prefix, size)
        expected = spelled(prefix, size)
        for index in (-1, -size, size // 2 - size):
            assert ids[index] == expected[index]
        assert ids[np.intp(size - 1)] == expected[-1]
        for index in (size, -size - 1):
            with pytest.raises(IndexError):
                ids[index]
        with pytest.raises(TypeError):
            ids[1.0]

    @recipes
    def test_slices(self, prefix, size):
        ids = RowIds(prefix, size)
        expected = spelled(prefix, size)
        for part in (
            slice(None), slice(1, None), slice(None, None, -1), slice(2, -3, 2),
            slice(size, None), slice(-5, None), slice(None, size // 2, 3),
        ):
            assert isinstance(ids[part], RowIds)
            assert tuple(ids[part]) == expected[part]
            assert ids[part] == expected[part]

    @recipes
    def test_take_of_a_take(self, prefix, size):
        ids = RowIds(prefix, size)
        expected = spelled(prefix, size)
        idx = np.flatnonzero(np.arange(size) % 3 == 0)[::-1]
        first = ids.take(idx)
        assert tuple(first) == tuple(expected[i] for i in idx.tolist())
        inner = np.array([0, -1, len(idx) // 2], dtype=np.intp)
        second = first.take(inner)
        assert tuple(second) == tuple(expected[idx[i]] for i in inner.tolist())
        assert second[-1] == expected[idx[inner[-1]]]
        assert tuple(first[1::2]) == tuple(expected[i] for i in idx[1::2].tolist())
        assert len(ids.take(np.array([], dtype=np.intp))) == 0
        with pytest.raises(IndexError):
            first[len(idx)]

    @recipes
    def test_equality_and_hash_against_tuples(self, prefix, size):
        ids = RowIds(prefix, size)
        expected = spelled(prefix, size)
        assert ids == expected and expected == ids
        assert not (ids != expected) and not (expected != ids)
        assert hash(ids) == hash(expected)
        assert {expected: "found"}[ids] == "found"
        other = expected[:-1] + ("x",)
        assert ids != other and other != ids
        assert not (ids == other) and not (other == ids)
        assert ids != expected[:-1] and expected[:-1] != ids
        # A list never equals a tuple, so it never equals the ids either.
        assert ids != list(expected) and list(expected) != ids
        idx = np.arange(0, size, 2)
        subset = tuple(expected[i] for i in idx.tolist())
        assert ids.take(idx) == subset and subset == ids.take(idx)
        assert hash(ids.take(idx)) == hash(subset)


class TestRecipe:
    def test_same_strings_from_a_different_recipe(self):
        wide = RowIds("a", 100)[:10]        # "a00" ... "a09"
        narrow = RowIds("a0", 10)           # "a00" ... "a09"
        assert (wide.prefix, wide.width) != (narrow.prefix, narrow.width)
        assert wide == narrow and narrow == wide
        assert not (wide != narrow)
        assert hash(wide) == hash(narrow)
        assert RowIds("a", 100)[:10] != RowIds("a", 10)   # "a00" vs "a0"
        assert RowIds("a", 100)[1:11] != narrow

    def test_equal_recipes_compare_by_rows(self, monkeypatch):
        monkeypatch.setattr(RowIds, "__iter__", _no_spelling)
        monkeypatch.setattr(RowIds, "__hash__", _no_spelling)
        assert RowIds("hh", 10**6) == RowIds("hh", 10**6)
        assert RowIds("hh", 10**6) != RowIds("hh", 10**6 - 1)
        ids = RowIds("hh", 50)
        idx = np.array([3, 7, 9, 40], dtype=np.intp)
        assert ids.take(idx) == ids.take(idx.copy())
        assert ids.take(idx) != ids.take(idx[::-1])
        assert ids.take(np.arange(50)) == ids
        assert ids[10:20] == ids.take(np.arange(10, 20))

    def test_pickles_as_its_recipe(self):
        ids = RowIds("s0-hh", 10**6)
        payload = pickle.dumps(ids)
        assert len(payload) < 200
        back = pickle.loads(payload)
        assert isinstance(back, RowIds)
        assert (back.prefix, back.width, back.rows) == ("s0-hh", 6, range(10**6))
        subset = ids.take(np.array([5, 999_999, 17], dtype=np.intp))
        back = pickle.loads(pickle.dumps(subset))
        assert back == subset
        assert tuple(back) == ("s0-hh000005", "s0-hh999999", "s0-hh000017")

    def test_immutable(self):
        ids = RowIds("hh", 12)
        with pytest.raises(AttributeError):
            ids.prefix = "x"
        subset = ids.take(np.array([1, 2]))
        assert not subset.rows.flags.writeable
        with pytest.raises(ValueError):
            subset.rows[0] = 5

    def test_id_vector_keeps_each_representation(self):
        ids = RowIds("hh", 12)
        assert id_vector(ids) is ids
        idx = np.array([4, 0, 11], dtype=np.intp)
        assert isinstance(id_vector(ids, idx), RowIds)
        assert id_vector(ids, idx) == ("hh04", "hh00", "hh11")
        spelled_ids = spelled("hh", 12)
        assert id_vector(list(spelled_ids)) == spelled_ids
        assert type(id_vector(list(spelled_ids))) is tuple
        assert id_vector(spelled_ids, idx) == ("hh04", "hh00", "hh11")
        assert type(id_vector(spelled_ids, idx)) is tuple


class TestAsArray:
    """``np.asarray`` on a RowIds builds what it builds from the tuple."""

    @pytest.mark.parametrize("size", [0, 1, 10, 11, 31_250])
    @pytest.mark.parametrize("prefix", ["s7-hh", "", "\u03b2\u03bb-\u0663"])
    def test_equals_the_array_of_the_tuple(self, prefix, size):
        ids = RowIds(prefix, size)
        for vector in (ids, ids.take(np.arange(size)[::-3]), ids[1::2]):
            expected = np.asarray(tuple(vector))
            spelled_out = np.asarray(vector)
            assert spelled_out.dtype == expected.dtype
            assert np.array_equal(spelled_out, expected)

    def test_honours_dtype_and_copy(self):
        ids = RowIds("s3-hh", 11).take(np.array([10, 0, 7]))
        for dtype in (object, "U20", "U4"):
            expected = np.asarray(tuple(ids), dtype=dtype)
            spelled_out = np.asarray(ids, dtype=dtype)
            assert spelled_out.dtype == expected.dtype
            assert spelled_out.tolist() == expected.tolist()
        assert np.array(ids, copy=True).tolist() == list(ids)
        with pytest.raises(ValueError):
            ids.__array__(copy=False)


# ------------------------------------------------- crossing a process boundary

_INDEX_COLUMNS = ("true_start", "true_end", "duration")
_FLOAT_COLUMNS = ("rating", "valuation")


def _sampled(size=2000, seed=11):
    cols = ProfileGenerator().sample_population_columnar(
        np.random.default_rng(seed), size
    )
    return cols.to_neighborhood("wide")


@pytest.mark.parametrize("kind", ["row_ids", "tuple"])
def test_pickled_neighborhood_arrives_with_canonical_dtypes(kind):
    neighborhood = _sampled()
    if kind == "tuple":
        neighborhood = ColumnarNeighborhood(
            ids=tuple(neighborhood.ids),
            true_start=neighborhood.true_start,
            true_end=neighborhood.true_end,
            duration=neighborhood.duration,
            rating=neighborhood.rating,
            valuation=neighborhood.valuation,
        )
    back = pickle.loads(pickle.dumps(neighborhood))
    assert type(back.ids) is type(neighborhood.ids)
    assert back.ids == neighborhood.ids
    for name in _INDEX_COLUMNS + _FLOAT_COLUMNS:
        assert np.array_equal(getattr(back, name), getattr(neighborhood, name))
    for name in _INDEX_COLUMNS:
        assert getattr(back, name).dtype is np.dtype(np.intp)
    for name in _FLOAT_COLUMNS:
        assert getattr(back, name).dtype is np.dtype(np.float64)


def _no_spelling(*args, **kwargs):
    raise AssertionError("a RowIds was iterated, hashed or spelled as an array")


def _malformed_wire(neighborhood):
    begin, end, duration = neighborhood.truthful_wire()
    begin[::97] = np.nan
    end[5::89] = 30.0
    begin[7::113] = 2.5
    duration[11::127] += 1.0
    return begin, end, duration


def _settled(job, policy):
    task = (pickle.loads(pickle.dumps(job)), serving_mechanism(7, policy), None)
    return settle_shard(task).fingerprint()


class TestNoIdIsSpelled:
    """A columnar day and a shard settle never iterate, hash or array their ids."""

    def test_columnar_day(self, monkeypatch):
        neighborhood = _sampled()

        def day():
            outcome = EnkiMechanism(seed=3).run_day_columnar(
                neighborhood, rng=random.Random(5)
            )
            assert isinstance(outcome.settlement.ids, RowIds)
            return settlement_digest(outcome)

        expected = day()
        monkeypatch.setattr(RowIds, "__iter__", _no_spelling)
        monkeypatch.setattr(RowIds, "__hash__", _no_spelling)
        monkeypatch.setattr(RowIds, "__array__", _no_spelling)
        assert day() == expected

    @pytest.mark.parametrize("policy", ["clamp", "exclude"])
    def test_pickled_shard_settle(self, monkeypatch, policy):
        neighborhood, seed = sample_shard(2017, 3, 2000)
        begin, end, duration = _malformed_wire(neighborhood)
        job = ShardJob(3, neighborhood, seed, begin, end, duration)
        expected = _settled(job, policy)
        if policy == "exclude":
            assert 0 < expected[3] < 2000       # n_quarantined
        monkeypatch.setattr(RowIds, "__iter__", _no_spelling)
        monkeypatch.setattr(RowIds, "__hash__", _no_spelling)
        monkeypatch.setattr(RowIds, "__array__", _no_spelling)
        assert _settled(job, policy) == expected

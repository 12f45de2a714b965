"""Deterministic randomness helpers shared by the simulators.

Everything in the simulation and user-study packages draws from
``numpy.random.Generator`` / ``random.Random`` instances seeded through
here, so every experiment is reproducible from a single integer seed.

Two derivation schemes coexist:

* **Sequential** (:func:`make_rngs` + :func:`spawn_seed`): one stream that
  child seeds are drawn from in program order.  Fine for inherently serial
  drivers such as the user-study session dealer.
* **Keyed substreams** (:func:`root_entropy` + :func:`make_day_rngs`): each
  simulated day gets its own ``numpy.random.SeedSequence`` keyed by
  ``(root, day)`` via ``spawn_key``, so day *d*'s stream is a pure function
  of the master seed and the day index — independent of how many other
  days ran before it, in which order, or in which process.  This is what
  makes the parallel runtime (:mod:`repro.sim.parallel`) bit-identical to
  a serial run: workers never share generator state because no state is
  carried across day boundaries at all.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

import numpy as np

# ``numpy.random`` loads on first attribute access.  Importing it by name
# loads it with this module, before any worker pool forks, so forked
# workers inherit it instead of each importing it again.
from numpy.random import Generator, SeedSequence, default_rng


def make_rngs(seed: Optional[int]) -> Tuple[random.Random, Generator]:
    """A paired (stdlib, numpy) generator from one seed.

    The stdlib generator drives tie-breaking and shuffles; the numpy one
    drives the distribution sampling of Section VI.
    """
    py_rng = random.Random(seed)
    np_rng = default_rng(seed)
    return py_rng, np_rng


def spawn_seed(rng: random.Random) -> int:
    """A fresh child seed drawn from ``rng`` (stable across platforms)."""
    return rng.randrange(2**63)


def root_entropy(seed: Optional[int]) -> int:
    """Resolve a (possibly absent) master seed to concrete root entropy.

    ``None`` draws fresh OS entropy once, so that all per-day substreams of
    one run still derive from a single root and the run remains internally
    consistent (serial and parallel execution of the *same* run agree).
    """
    if seed is not None:
        return int(seed)
    return int(SeedSequence().entropy)


def day_seed_sequence(root: int, day: int) -> SeedSequence:
    """The keyed substream for day ``day`` under master entropy ``root``.

    ``SeedSequence(root, spawn_key=(day,))`` matches what
    ``SeedSequence(root).spawn(n)[day]`` would produce, without having to
    materialize the first ``day`` children — each worker derives only its
    own substream.
    """
    if day < 0:
        raise ValueError(f"day index cannot be negative, got {day}")
    return SeedSequence(root, spawn_key=(day,))


def make_day_rngs(root: int, day: int) -> Tuple[random.Random, Generator]:
    """Paired (stdlib, numpy) generators for one simulated day.

    Both generators are pure functions of ``(root, day)``: the numpy one is
    seeded directly from the day's :class:`~numpy.random.SeedSequence`, and
    the stdlib one from a 128-bit integer drawn off the same sequence, so
    neither shares state with any other day's pair.
    """
    seq = day_seed_sequence(root, day)
    np_rng = default_rng(seq)
    words = seq.generate_state(4, np.uint32)
    py_seed = int.from_bytes(words.tobytes(), "little")
    return random.Random(py_seed), np_rng

"""Hot-loop kernels: the greedy placement sweep (:mod:`.placement`).

The exact solver's node expansion lives with the solver in
:mod:`repro.allocation.optimal`.
"""

from __future__ import annotations


def active_backend() -> str:
    """The name of the kernel build serving this process: ``"python"``.

    Allocation results, :class:`~repro.allocation.cache.AllocationCache`
    keys and serialized day outcomes carry this name, so it stays a
    fixed string that keeps all three byte-stable.
    """
    return "python"

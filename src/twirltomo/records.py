"""The record of one twirl realization drawn on its own."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentRecord:
    """One one-qubit-twirl realization, as
    :func:`twirltomo.localtwirl.sample_c1t_realization` draws it: the
    one-at-a-time reference for the batched samplers, which keep no records.

    ``kind`` is "local"; ``descriptor`` is the drawn element's per-qubit
    (pauli index, rotation index) tuple; ``outcome`` is the measured bit
    string, qubit 1 first.
    """

    kind: str
    descriptor: tuple
    outcome: tuple[int, ...]

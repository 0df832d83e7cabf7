"""Deterministic, schedule-invariant random streams.

Every replicate (and every purpose within a replicate) draws from its own
counter-based Philox stream keyed by (master seed, scenario id, replicate
index, purpose tag), so simulation output is bit-identical for any worker
count.

Derivation, for reproduction in other languages: the four components are
mapped to unsigned integers (strings via CRC-32 of their UTF-8 bytes), fed in
order as the entropy of a NumPy SeedSequence, and the resulting 4x64-bit key
seeds a Philox4x64 counter-based generator.
"""

from __future__ import annotations

import zlib

import numpy as np
import numpy.random  # numpy loads it on first use: here, not in a replicate


def _as_entropy(value: int | str) -> int:
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    value = int(value)
    if value < 0:
        raise ValueError("seed components must be nonnegative")
    return value


def derive_substream(
    master_seed: int,
    scenario_id: int | str,
    replicate_index: int,
    purpose_tag: str,
) -> np.random.Generator:
    """Independent generator for one (replicate, purpose) work unit."""
    entropy = [
        _as_entropy(master_seed),
        _as_entropy(scenario_id),
        _as_entropy(replicate_index),
        _as_entropy(purpose_tag),
    ]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

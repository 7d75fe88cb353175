"""One root seed → independent, named child random generators.

A reproducible run wants *every* random decision — failure schedules,
repair-duration draws, fault plans, client arrivals, stripe placement —
derived from a single ``--seed`` while staying statistically independent
and, crucially, *stable under growth*: adding a new consumer must not
shift the streams existing consumers see.  Sharing one
``np.random.Generator`` fails both ways (any new draw shifts everything
downstream), and ``default_rng(seed + i)`` produces correlated
neighbours.

:func:`spawn_rng` derives a child generator from a root seed and a
*path* of names/indices using :class:`numpy.random.SeedSequence` spawn
keys, so::

    failures = spawn_rng(seed, "lifetime", run, "failures")
    repairs  = spawn_rng(seed, "lifetime", run, "repairs", scheme)

gives streams that are independent of each other, independent across
runs, and unchanged when a sibling subsystem starts drawing randomness.
String path elements are hashed (CRC-32) to spawn-key integers, so the
mapping is stable across processes and Python versions — no reliance on
``hash()`` randomisation.

:func:`rng_from` is the adoption shim: APIs that historically took an
integer seed (``loadgen.generate_requests``) now accept either that
integer (bit-identical streams to before) or an already-spawned child
generator.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["child_seed_sequence", "rng_from", "spawn_rng"]


def _spawn_key(path: tuple) -> tuple[int, ...]:
    """Stable integer spawn key for a mixed name/index path."""
    key = []
    for part in path:
        if isinstance(part, bool):  # bool is an int subclass; reject early
            raise TypeError("seed path elements must be str or int, not bool")
        if isinstance(part, (int, np.integer)):
            if part < 0:
                raise ValueError(f"seed path index {part} is negative")
            key.append(int(part))
        elif isinstance(part, str):
            # CRC-32 is stable across processes (unlike hash()) and cheap;
            # collisions only matter within one path position and would
            # merely alias two *names*, never silently correlate streams
            # at different positions.
            key.append(zlib.crc32(part.encode("utf-8")))
        else:
            raise TypeError(
                f"seed path elements must be str or int, got {part!r}"
            )
    return tuple(key)


def child_seed_sequence(
    root_seed: int, *path: str | int
) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of a named child stream."""
    return np.random.SeedSequence(root_seed, spawn_key=_spawn_key(path))


def spawn_rng(root_seed: int, *path: str | int) -> np.random.Generator:
    """An independent child generator for ``(root_seed, *path)``.

    Deterministic: the same root seed and path always produce the same
    stream, regardless of what other children were spawned.
    """
    return np.random.default_rng(child_seed_sequence(root_seed, *path))


def rng_from(
    seed: int | np.random.Generator | np.random.SeedSequence,
) -> np.random.Generator:
    """Coerce a seed-or-generator argument into a generator.

    Integers keep their historical meaning (``default_rng(seed)``, so
    existing seeded streams are byte-identical); generators pass through
    untouched, letting callers hand in :func:`spawn_rng` children.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

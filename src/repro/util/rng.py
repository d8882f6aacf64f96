"""Seed management.

Every stochastic component (graph generators, weight assignment, R-MAT edge
sampling, ...) takes an explicit integer seed and derives an independent
`numpy` Generator from it; nothing in the library reads global RNG state.
This is what makes whole experiment runs bit-reproducible.

Seed derivation is a splitmix64 fold over the base seed and the stream
parts. Hot callers that draw many times under the same constant label
(the fault plan's per-message fates) fold the label once with
:func:`label_prefix` and finish each draw with :func:`derive_from`, which
folds only the integer counters; the result is bit-identical to
:func:`derive_seed` over the whole stream.
"""

from __future__ import annotations

import numpy as np

from repro.util.hashing import splitmix64

_MASK64 = (1 << 64) - 1
_MASK63 = (1 << 63) - 1
_U63 = float(1 << 63)


def label_prefix(base_seed: int, *labels: int | str) -> int:
    """Unmasked fold accumulator after ``base_seed`` and ``labels``.

    Strings fold one character at a time, other parts as integers.
    ``derive_from(label_prefix(s, *a), *b) == derive_seed(s, *a, *b)``
    for any split of the stream, so a caller that draws repeatedly under
    a constant label computes this once and keeps it.
    """
    acc = splitmix64(int(base_seed))
    for part in labels:
        if isinstance(part, str):
            for ch in part:
                acc = splitmix64(acc ^ ord(ch))
        else:
            acc = splitmix64(acc ^ int(part))
    return acc


def derive_from(acc: int, *ints: int) -> int:
    """Continue a :func:`label_prefix` fold over integer parts; 63-bit seed.

    splitmix64 is inlined: this is the per-draw step of every fault fate.
    ``int()`` keeps numpy integer scalars on python arithmetic, so a
    ``np.int64`` part folds exactly like the equal python int.
    """
    for part in ints:
        z = ((acc ^ int(part)) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return acc & _MASK63


def derive_seed(base_seed: int, *stream: int | str) -> int:
    """Derive an independent 63-bit seed from a base seed and a stream label.

    ``derive_seed(s, "rmat", 3)`` and ``derive_seed(s, "rgg", 3)`` give
    unrelated streams even for the same base seed, so adding a new consumer
    of randomness never perturbs existing ones.
    """
    return derive_from(label_prefix(base_seed, *stream))


def unit(base_seed: int, *stream: int | str) -> float:
    """Uniform [0, 1) draw as a pure function of (base_seed, stream)."""
    return derive_seed(base_seed, *stream) / _U63


def unit_from(acc: int, *ints: int) -> float:
    """:func:`unit` continued from a cached :func:`label_prefix`."""
    return derive_from(acc, *ints) / _U63


def make_rng(base_seed: int, *stream: int | str) -> np.random.Generator:
    """Create a `numpy` Generator on an independent derived stream."""
    return np.random.default_rng(derive_seed(base_seed, *stream))

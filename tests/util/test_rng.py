"""Tests for seed derivation and RNG stream independence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.hashing import splitmix64
from repro.util.rng import (
    derive_from,
    derive_seed,
    label_prefix,
    make_rng,
    unit,
    unit_from,
)


def test_derive_seed_deterministic():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)


def test_derive_seed_stream_separation():
    seen = {
        derive_seed(1),
        derive_seed(1, "rmat"),
        derive_seed(1, "rgg"),
        derive_seed(1, "rmat", 0),
        derive_seed(1, "rmat", 1),
        derive_seed(2, "rmat"),
    }
    assert len(seen) == 6


def test_derive_seed_in_range():
    s = derive_seed(123456789, "x")
    assert 0 <= s < 2**63


def test_make_rng_reproducible():
    a = make_rng(7, "weights").uniform(size=5)
    b = make_rng(7, "weights").uniform(size=5)
    assert a.tolist() == b.tolist()


def test_make_rng_streams_differ():
    a = make_rng(7, "weights").uniform(size=5)
    b = make_rng(7, "other").uniform(size=5)
    assert a.tolist() != b.tolist()


# Integer stream parts as callers pass them: python ints of any sign and
# width (including >= 2**63), and numpy scalars such as the RMA backend's
# numpy-derived target ranks.
_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
)
_labels = st.lists(st.one_of(st.text(max_size=8), _ints), max_size=4)


def _reference_derive_seed(base_seed, *stream):
    """The plain per-part splitmix64 fold every derivation must equal."""
    acc = splitmix64(int(base_seed))
    for part in stream:
        if isinstance(part, str):
            for ch in part:
                acc = splitmix64(acc ^ ord(ch))
        else:
            acc = splitmix64(acc ^ int(part))
    return acc & ((1 << 63) - 1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.integers(min_value=-(2**64), max_value=2**64), _ints),
    labels=_labels,
    ints=st.lists(_ints, max_size=5),
)
def test_prefix_fold_matches_whole_stream(seed, labels, ints):
    whole = derive_seed(seed, *labels, *ints)
    assert whole == _reference_derive_seed(seed, *labels, *ints)
    assert derive_from(label_prefix(seed, *labels), *ints) == whole
    assert type(whole) is int and 0 <= whole < 2**63
    assert unit_from(label_prefix(seed, *labels), *ints) == unit(seed, *labels, *ints)


def test_numpy_parts_fold_like_python_ints():
    acc = label_prefix(3, "rma-drop")
    assert acc >= 2**63  # the xor with an int64 part must not overflow
    assert derive_from(acc, np.int64(3), np.int64(-2)) == derive_from(acc, 3, -2)


"""Property-based differential tests: vectorized models vs the references.

Hypothesis draws the geometry, the stream and how the stream is split
into batches; the vectorized set-associative cache and TLB must agree
with their ``OrderedDict`` references after every batch -- per-access
hit masks, hit/miss/cold counters and LRU order.  Each set's (or the
TLB's) working set is drawn within a few lines of its capacity, where an
off-by-one in a hit/miss bound shows; line numbers are drawn with a
stride so that some streams alias into a few sets, giving the long
per-set sub-streams that need many lag passes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.hardware.cache import SetAssociativeCache
from repro.hardware.fastlru import VectorLruTlb, VectorSetAssociativeCache
from repro.hardware.tlb import LruTlb

from .test_fast_models import assert_same_sets, assert_same_tlb


@st.composite
def split_stream(draw, universe: int):
    """A stream over ``[0, universe)`` and its split into batches.

    Hypothesis draws the length, the seed and the cut points; numpy draws
    the stream itself, so even the first examples are long and varied.
    """
    length = draw(st.integers(1, 2000), label="length")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    stream = np.random.default_rng(seed).integers(0, universe, length)
    cuts = draw(st.lists(st.integers(0, length), max_size=5), label="cuts")
    return np.split(stream.astype(np.int64), sorted(cuts))


@given(
    sets=st.integers(1, 6),
    ways=st.integers(1, 6),
    stride=st.sampled_from(["one", "sets", "odd"]),
    data=st.data(),
)
def test_set_associative_matches_reference(sets, ways, stride, data):
    per_set = data.draw(st.integers(max(1, ways - 1), ways + 3), label="per_set")
    universe = sets * per_set
    step = {"one": 1, "sets": sets, "odd": 7}[stride]
    line_bytes = 32
    reference = SetAssociativeCache(sets * ways * line_bytes, line_bytes, ways)
    vector = VectorSetAssociativeCache(sets * ways * line_bytes, line_bytes, ways)
    for batch in data.draw(split_stream(universe), label="batches"):
        lines = batch * step
        expected = np.array([reference.access(int(x)) for x in lines], bool)
        np.testing.assert_array_equal(vector.access_batch(lines), expected)
        assert_same_sets(vector, reference)


@given(entries=st.integers(1, 24), data=st.data())
def test_tlb_matches_reference(entries, data):
    universe = data.draw(
        st.integers(max(1, entries - 1), entries + 3), label="universe"
    )
    reference = LruTlb(entries)
    vector = VectorLruTlb(entries)
    for batch in data.draw(split_stream(universe), label="batches"):
        expected = np.array([reference.access(int(p)) for p in batch], bool)
        np.testing.assert_array_equal(vector.access_batch(batch), expected)
        assert_same_tlb(vector, reference)

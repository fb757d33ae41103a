"""Equivalence suite: vectorized models vs. the OrderedDict references.

The fast replay engine's correctness contract is *exact* equality with the
reference models -- per-access hit/miss outcomes, hit/miss/cold counters,
and eviction (LRU) order -- on identical streams.  These tests drive both
implementations with the same randomized streams and assert all of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.cache import LruCache, SetAssociativeCache
from repro.hardware.fastlru import (
    VectorLruCache,
    VectorLruTlb,
    VectorSetAssociativeCache,
)
from repro.hardware.tlb import LruTlb


def reference_lru_hits(cache, keys):
    return np.array([cache.access(int(k)) for k in keys], dtype=bool)


def lru_stream_cases():
    rng = np.random.default_rng(0xFA57)
    # (capacity_lines, stream) pairs spanning tiny capacities, capacities
    # near/below/above the universe, skew, and multi-chunk streams.
    cases = []
    for capacity, universe, length in [
        (1, 4, 64),
        (4, 4, 256),          # universe fits: no capacity misses
        (8, 64, 512),
        (64, 48, 1024),       # capacity exceeds universe
        (128, 1024, 4096),
        (512, 700, 20000),    # thrash band: universe slightly over capacity
    ]:
        cases.append((capacity, rng.integers(0, universe, length)))
    # Zipf-ish skew: stresses the ambiguous depth band and the fallback.
    skew = np.minimum((rng.pareto(0.6, 8000) * 20).astype(np.int64), 1999)
    cases.append((512, skew))
    # Sequential sweep with wraparound: classic LRU worst case.
    cases.append((16, np.arange(400) % 20))
    return cases


@pytest.mark.parametrize(
    "capacity,stream",
    lru_stream_cases(),
    ids=lambda value: str(value)[:24],
)
def test_vector_lru_matches_reference(capacity, stream):
    line_bytes = 32
    reference = LruCache(capacity * line_bytes, line_bytes)
    vector = VectorLruCache(capacity * line_bytes, line_bytes)
    expected = reference_lru_hits(reference, stream)
    actual = vector.access_batch(np.asarray(stream, dtype=np.int64))
    np.testing.assert_array_equal(actual, expected)
    assert vector.hits == reference.hits
    assert vector.misses == reference.misses
    assert vector.occupancy == reference.occupancy
    # Eviction order: identical residency in identical LRU->MRU order.
    np.testing.assert_array_equal(
        vector.resident_lines(), np.fromiter(reference._lines, dtype=np.int64)
    )


def test_vector_lru_matches_reference_across_batches():
    rng = np.random.default_rng(7)
    stream = rng.integers(0, 300, 3000).astype(np.int64)
    reference = LruCache(128 * 32, 32)
    vector = VectorLruCache(128 * 32, 32)
    expected = reference_lru_hits(reference, stream)
    pieces = [vector.access_batch(part) for part in np.array_split(stream, 7)]
    np.testing.assert_array_equal(np.concatenate(pieces), expected)
    np.testing.assert_array_equal(
        vector.resident_lines(), np.fromiter(reference._lines, dtype=np.int64)
    )


def test_vector_lru_scalar_api_and_contains():
    reference = LruCache(4 * 64, 64)
    vector = VectorLruCache(4 * 64, 64)
    for line in [3, 1, 3, 9, 11, 1, 12, 3]:
        assert vector.access(line) == reference.access(line)
        assert vector.contains(line) and reference.contains(line)
    assert not vector.contains(9)  # evicted
    assert vector.hit_rate == reference.hit_rate


def assert_same_sets(vector, reference):
    """Counters, occupancy and every set's LRU-to-MRU order agree."""
    assert vector.hits == reference.hits
    assert vector.misses == reference.misses
    assert vector.occupancy == reference.occupancy
    for set_index in range(reference.num_sets):
        np.testing.assert_array_equal(
            vector.resident_lines(set_index),
            np.fromiter(reference._sets[set_index], dtype=np.int64),
        )


def assert_same_tlb(vector, reference):
    """Counters and the cached translations in LRU-to-MRU order agree."""
    assert vector.hits == reference.hits
    assert vector.misses == reference.misses
    assert vector.cold_misses == reference.cold_misses
    np.testing.assert_array_equal(
        vector.resident_pages(), np.fromiter(reference._cached, dtype=np.int64)
    )


def set_assoc_cases():
    rng = np.random.default_rng(0x5E7)
    cases = []
    for sets, ways, universe, length in [
        (1, 2, 8, 200),       # degenerate: one set, tiny ways
        (3, 4, 64, 2000),     # set count coprime with power-of-two lines
        (16, 16, 400, 8000),
        (96, 16, 4096, 40000),
    ]:
        cases.append((sets, ways, rng.integers(0, universe, length)))
    # Hot lines mixed with cold sweeps (index upper levels + data lines).
    hot = rng.integers(0, 24, 3000)
    cold = rng.integers(0, 100000, 6000)
    mixed = np.concatenate([hot, cold])
    rng.shuffle(mixed)
    cases.append((96, 16, mixed))
    # Lag tail: a long low-diversity stretch (three lines) inside long
    # reuse windows keeps the alive count below ``ways`` for hundreds of
    # lags, so those accesses resolve only when their window is covered.
    calm = np.repeat(rng.integers(0, 3, 700), 3)
    wild = rng.integers(0, 4000, 2000)
    cases.append(
        pytest.param(
            1,
            4,
            np.concatenate([wild[:1000], calm, wild[1000:]]),
            id="lag-tail-regression",
        )
    )
    cases.append((4, 8, rng.integers(0, 5000, 12000)))
    return cases


@pytest.mark.parametrize(
    "sets,ways,stream", set_assoc_cases(), ids=lambda value: str(value)[:24]
)
def test_vector_set_associative_matches_reference(sets, ways, stream):
    line_bytes = 32
    capacity = sets * ways * line_bytes
    reference = SetAssociativeCache(capacity, line_bytes, ways=ways)
    vector = VectorSetAssociativeCache(capacity, line_bytes, ways=ways)
    assert vector.num_sets == reference.num_sets
    expected = reference_lru_hits(reference, stream)
    actual = vector.access_batch(np.asarray(stream, dtype=np.int64))
    np.testing.assert_array_equal(actual, expected)
    assert_same_sets(vector, reference)


def test_vector_set_associative_across_batches():
    # Uneven batches, 1-access ones included: every batch after the first
    # starts from warm sets, whose residents enter the kernel as a prefix.
    rng = np.random.default_rng(21)
    stream = rng.integers(0, 3000, 20000).astype(np.int64)
    reference = SetAssociativeCache(96 * 16 * 32, 32, ways=16)
    vector = VectorSetAssociativeCache(96 * 16 * 32, 32, ways=16)
    cuts = np.cumsum([1, 9, 4000, 1, 2500, 1, 7000])
    for part in np.split(stream, cuts):
        expected = reference_lru_hits(reference, part)
        np.testing.assert_array_equal(vector.access_batch(part), expected)
        assert_same_sets(vector, reference)


def test_vector_set_associative_scalar_api():
    reference = SetAssociativeCache(2 * 2 * 64, 64, ways=2)
    vector = VectorSetAssociativeCache(2 * 2 * 64, 64, ways=2)
    for line in [0, 2, 4, 0, 6, 2, 8, 0, 3, 1, 5]:
        assert vector.access(line) == reference.access(line)
        assert vector.contains(line) == reference.contains(line)
    assert vector.access_sequence([1, 3, 5, 7]) == reference.access_sequence(
        [1, 3, 5, 7]
    )
    assert vector.hit_rate == reference.hit_rate


def tlb_cases():
    rng = np.random.default_rng(0x7B)
    return [
        (8, rng.integers(0, 6, 300)),            # fits: cold misses only
        (16, rng.integers(0, 64, 4000)),         # thrash
        (256, rng.integers(0, 300, 20000)),      # thrash band
        (64, np.arange(3000) % 80),              # cyclic sweep
    ]


@pytest.mark.parametrize(
    "entries,pages", tlb_cases(), ids=lambda value: str(value)[:24]
)
def test_vector_tlb_matches_reference(entries, pages):
    reference = LruTlb(entries)
    vector = VectorLruTlb(entries)
    expected = np.array([reference.access(int(p)) for p in pages], dtype=bool)
    actual = vector.access_batch(np.asarray(pages, dtype=np.int64))
    np.testing.assert_array_equal(actual, expected)
    assert vector.miss_rate == reference.miss_rate
    assert_same_tlb(vector, reference)


def test_vector_tlb_cold_misses_across_batches():
    rng = np.random.default_rng(3)
    stream = rng.integers(0, 500, 6000).astype(np.int64)
    reference = LruTlb(128)
    vector = VectorLruTlb(128)
    for part in np.array_split(stream, 4):
        expected = np.array([reference.access(int(p)) for p in part], dtype=bool)
        np.testing.assert_array_equal(vector.access_batch(part), expected)
        assert_same_tlb(vector, reference)


@pytest.mark.parametrize("overflow", [0, 1], ids=["exact-fit", "one-over"])
def test_vector_tlb_warm_stack_plus_batch_at_capacity(overflow):
    # Warm stack plus batch hold exactly ``entries`` distinct pages (the
    # no-eviction path) or one more (one eviction, so the LRU replay).
    entries = 32
    rng = np.random.default_rng(0xF17)
    warm = rng.permutation(np.repeat(np.arange(20), 3))
    batch = rng.permutation(
        np.concatenate(
            [np.arange(8, entries + overflow), rng.integers(0, 20, 40)]
        )
    )
    reference = LruTlb(entries)
    vector = VectorLruTlb(entries)
    for part in (warm, batch):
        expected = np.array([reference.access(int(p)) for p in part], dtype=bool)
        np.testing.assert_array_equal(vector.access_batch(part), expected)
        assert_same_tlb(vector, reference)
    assert (vector.misses == vector.cold_misses) == (overflow == 0)


@pytest.mark.parametrize("capacity", [2**21 - 1, 2**21 + 5])
def test_regression_vector_lru_capacity_beyond_position_field(capacity):
    """A fixed 21-bit position field once capped the batch at
    ``2^21 - capacity - 1`` keys: capacity ``2^21 - 1`` raised
    ``ValueError`` and larger ones returned an uninitialized hit mask
    (5 hits / 0 misses here).  The field is now sized from the batch."""
    stream = np.array([5, 7, 5, 5, 9], np.int64)
    expected = np.array([False, False, True, True, False])
    cache = VectorLruCache(capacity, 1)
    np.testing.assert_array_equal(cache.access_batch(stream), expected)
    assert (cache.hits, cache.misses) == (2, 3)
    np.testing.assert_array_equal(cache.resident_lines(), [7, 5, 9])
    tlb = VectorLruTlb(capacity)
    np.testing.assert_array_equal(tlb.access_batch(stream), expected)
    assert (tlb.hits, tlb.misses, tlb.cold_misses) == (2, 3, 3)


def test_vector_models_reject_bad_shapes():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        VectorLruCache(0, 32)
    with pytest.raises(ConfigurationError):
        VectorLruCache(16, 32)
    with pytest.raises(ConfigurationError):
        VectorSetAssociativeCache(64, 32, ways=0)
    with pytest.raises(ConfigurationError):
        VectorLruTlb(0)

"""Trace pins: each index's recorded accesses, byte for byte.

``trace_lookups`` is the simulated access pattern the machine model
replays, so any change to an index's descent that moves one recorded
address moves every figure built on it.  This suite pins, per index and
per column kind, the SHA-256 of the step-address matrix, the SHA-256 of
the returned positions and the SIMT warp-instruction count for one
seeded probe batch mixing members, near-misses and both domain
extremes.  The digests were taken from the implementation the figures
were generated with; a refactor of the descent must leave them alone.

To re-derive a digest after an *intended* change of access pattern, run
the suite and copy the value from the failure message.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.column import MaterializedColumn, VirtualSortedColumn
from repro.data.relation import Relation
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import ALL_INDEX_TYPES, EXTENSION_INDEX_TYPES

MAX_KEY = np.uint64(2**64 - 1)

#: (index name, column kind) -> (trace digest, positions digest,
#: warp instructions).
PINS = {
    ("B+tree", "materialized"): (
        "2d7f903bad7f92f1e6688a07034fff85fd3e7673c19f5314d3fa112006ae9ca8",
        "b96172473a51feb08fddb4bdc9b45f8b33531506b6b2df059225ae27b8560b59",
        2836.0,
    ),
    ("B+tree", "virtual"): (
        "373e84cacb95ce4187cbb47385055958c38a097ea246b2f5dba3ba35f44bed83",
        "8850bb10c9cc6045784ae7443555facbfc289c7e787cc740068ffc10bd28223e",
        4103.0,
    ),
    ("binary search", "materialized"): (
        "a7105ca082ea2cc24e5a0fda744163260e3f89c08b671a89143987eea011b656",
        "b96172473a51feb08fddb4bdc9b45f8b33531506b6b2df059225ae27b8560b59",
        2669.0,
    ),
    ("binary search", "virtual"): (
        "735f9324b51ea82473b7a1dd9e882ac068eaf9bb90d4b074b835e716e9bd854f",
        "8850bb10c9cc6045784ae7443555facbfc289c7e787cc740068ffc10bd28223e",
        3299.0,
    ),
    ("Harmonia", "materialized"): (
        "1dc424fa06048fb980436dcc667a5f01b9e017656a4aa96a2d5a8c9b6a1c491e",
        "b96172473a51feb08fddb4bdc9b45f8b33531506b6b2df059225ae27b8560b59",
        20096.0,
    ),
    ("Harmonia", "virtual"): (
        "8ff3f8dbb38edb4c3631d91172ce59621ca1197fa9ef603d0808bd65a39f6846",
        "8850bb10c9cc6045784ae7443555facbfc289c7e787cc740068ffc10bd28223e",
        20096.0,
    ),
    ("RadixSpline", "materialized"): (
        "f461da33878c0a24258153de350cfcb5bac84034b4640f5d5e53a4d28509804e",
        "b96172473a51feb08fddb4bdc9b45f8b33531506b6b2df059225ae27b8560b59",
        1727.0,
    ),
    ("RadixSpline", "virtual"): (
        "eac862fad8a899611e669dec9399dfab5e6482b1dbc3767c2ee1009e95471921",
        "8850bb10c9cc6045784ae7443555facbfc289c7e787cc740068ffc10bd28223e",
        1730.0,
    ),
    ("FAST tree", "materialized"): (
        "901d0515053a01f056d509a940289b645050c1063c021235739ff5d89b4e1c78",
        "b96172473a51feb08fddb4bdc9b45f8b33531506b6b2df059225ae27b8560b59",
        2669.0,
    ),
    ("FAST tree", "virtual"): (
        "4eb14d72d925f2513d87ecb16e32d1f7a5d76f56d0350ea6586f94661a43759b",
        "8850bb10c9cc6045784ae7443555facbfc289c7e787cc740068ffc10bd28223e",
        3454.0,
    ),
}


def make_column(kind: str):
    """A seeded R: 40,000 random-gap keys, or a 2^20-key virtual column."""
    if kind == "materialized":
        rng = np.random.default_rng(20250)
        gaps = rng.integers(2, 1 << 20, size=40_000).astype(np.uint64)
        return MaterializedColumn(np.cumsum(gaps) + np.uint64(1 << 40))
    return VirtualSortedColumn(num_keys=1 << 20, stride=8, seed=3)


def make_probes(column) -> np.ndarray:
    """Members, member +/- 1 near-misses, and the two domain extremes."""
    rng = np.random.default_rng(7)
    n = len(column)
    members = column.key_at(rng.integers(0, n, size=3000))
    near = column.key_at(rng.integers(0, n, size=1000))
    probes = np.concatenate(
        [
            members,
            near + np.uint64(1),
            near - np.uint64(1),
            np.asarray([0, MAX_KEY], dtype=np.uint64),
            column.key_at(np.asarray([0, n - 1])),
        ]
    )
    return probes[rng.permutation(len(probes))]


def digest(values: np.ndarray) -> str:
    """SHA-256 over an int64 array's shape and bytes."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    hasher = hashlib.sha256(repr(values.shape).encode())
    hasher.update(values.tobytes())
    return hasher.hexdigest()


def traced(index_cls, kind: str):
    column = make_column(kind)
    relation = Relation(name="R", column=column)
    memory = SystemMemory(V100_NVLINK2)
    relation.place(memory, MemorySpace.HOST)
    index = index_cls(relation)
    index.place(memory)
    return index.trace_lookups(make_probes(column))


@pytest.mark.parametrize("kind", ["materialized", "virtual"])
@pytest.mark.parametrize(
    "index_cls",
    ALL_INDEX_TYPES + EXTENSION_INDEX_TYPES,
    ids=lambda cls: cls.__name__,
)
def test_trace_is_pinned(index_cls, kind):
    result = traced(index_cls, kind)
    got = (
        digest(result.trace.step_addresses),
        digest(result.positions),
        result.simt.warp_instructions,
    )
    assert got == PINS[(index_cls.name, kind)]

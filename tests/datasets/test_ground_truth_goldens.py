"""Golden fingerprints of the ground-truth generators, on both backends.

``sample_network`` and ``NetworkSource`` draw their rows by CDF
inversion from the nodes' CPTs.  The fingerprints below pin the exact
codes, so any change to how the generators order their uniforms, lay out
a CPT's parent rows or invert a CDF shows up here, under the NumPy
sampler and the native one alike.  The hand-built network lists parents
out of name order, so its CPT rows must be matched to the right parent
values whatever order the sampler flattens them in.
"""

import hashlib

import numpy as np
import pytest

from repro.data.attribute import Attribute
from repro.data.marginals import domain_size
from repro.datasets.synthetic import (
    NetworkSource,
    NodeSpec,
    random_binary_source,
    random_binary_table,
    sample_network,
)

#: Columns of ``random_binary_table(1500, 7, max_parents=3, seed=4)``.
GOLDEN_BINARY_TABLE = (
    "f1fcc1faab55b13e7d169e7df241aa1af0dc6dc5361917c3c3e2402777f2d90f"
)

#: Concatenated chunks of ``random_binary_source(1000, 6, seed=9, ...)``
#: at every chunk size.
GOLDEN_BINARY_SOURCE = (
    "fd3762c00ba994e77dcebd0698c29a03a7a30920fedc8f1e5cc9800a68894023"
)

#: ``sample_network(_mixed_specs(), 2000, default_rng(5))``.
GOLDEN_MIXED_TABLE = (
    "362f5ed189fa5ea67f817e8af8bac389113329c11c5437a0a87efdc48020021e"
)

#: Concatenated chunks of ``NetworkSource(_mixed_specs(), 2000, seed=5)``
#: at every chunk size.
GOLDEN_MIXED_SOURCE = (
    "83d5961f39f74f371ff3652241bcacf1d734d3135982e43955c4289f77ee3df3"
)


def _columns_fingerprint(names, columns):
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(columns[name], dtype=np.int64).tobytes())
    return digest.hexdigest()


def _table_fingerprint(table):
    return _columns_fingerprint(
        table.attribute_names,
        {name: table.column(name) for name in table.attribute_names},
    )


def _source_fingerprint(source, chunk_rows):
    """Fingerprint of a source's concatenated chunks; checks their sizes."""
    chunks = list(source.chunks())
    sizes = [len(next(iter(chunk.values()))) for chunk in chunks]
    expected = [
        min(chunk_rows, source.n - start)
        for start in range(0, source.n, chunk_rows)
    ]
    assert sizes == expected
    names = source.attribute_names
    return _columns_fingerprint(
        names,
        {name: np.concatenate([chunk[name] for chunk in chunks]) for name in names},
    )


def _mixed_specs():
    """Five attributes of 3 to 5 values; parents listed out of name order."""
    rng = np.random.default_rng(2718)
    sizes = {"c": 3, "a": 4, "e": 5, "b": 3, "d": 4}
    parents = {
        "c": (),
        "a": ("c",),
        "e": ("c", "a"),
        "b": ("e", "a", "c"),
        "d": ("e", "b"),
    }
    specs = []
    for name, size in sizes.items():
        rows = domain_size([sizes[p] for p in parents[name]])
        cpt = rng.dirichlet(np.full(size, 0.6), size=rows)
        attribute = Attribute(name, tuple(f"{name}{v}" for v in range(size)))
        specs.append(NodeSpec(attribute, parents[name], cpt))
    return specs


def test_random_binary_table_golden(backend):
    table = random_binary_table(1500, 7, max_parents=3, seed=4)
    assert _table_fingerprint(table) == GOLDEN_BINARY_TABLE


@pytest.mark.parametrize("chunk_rows", [1, 333, 1000])
def test_random_binary_source_golden(backend, chunk_rows):
    source = random_binary_source(1000, 6, seed=9, chunk_rows=chunk_rows)
    assert _source_fingerprint(source, chunk_rows) == GOLDEN_BINARY_SOURCE


def test_sample_network_golden(backend):
    table = sample_network(_mixed_specs(), 2000, np.random.default_rng(5))
    assert table.attribute_names == ("c", "a", "e", "b", "d")
    assert _table_fingerprint(table) == GOLDEN_MIXED_TABLE


@pytest.mark.parametrize("chunk_rows", [1, 333, 2000])
def test_network_source_golden(backend, chunk_rows):
    source = NetworkSource(_mixed_specs(), 2000, seed=5, chunk_rows=chunk_rows)
    assert _source_fingerprint(source, chunk_rows) == GOLDEN_MIXED_SOURCE
    # Re-iterable: a second pass yields the same rows.
    assert _source_fingerprint(source, chunk_rows) == GOLDEN_MIXED_SOURCE

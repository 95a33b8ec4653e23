"""Chunked row sources: the out-of-core data plane.

The resident :class:`~repro.data.table.Table` holds every column in RAM;
that is the right call up to a few hundred thousand rows, but the paper's
pipeline only ever touches the data through *contingency counts* —
``np.bincount`` sums over rows — and integer sums over row chunks are
exactly the sums over all rows.  A :class:`ChunkedSource` exposes the same
schema metadata as a table (``attributes`` / ``n`` / ``d`` /
``attribute(name)``) but delivers the rows as a re-iterable stream of
bounded column chunks, so counting, structure learning, and distribution
learning run in memory bounded by the chunk size rather than the table
size, with bit-identical outputs.

The ``ChunkedSource`` protocol
------------------------------
A source must provide:

* ``attributes`` — the ordered :class:`~repro.data.attribute.Attribute`
  schema (a tuple, as on ``Table``);
* ``n`` — the total row count (known up front; two-pass readers learn it
  during schema inference).  Every pass must yield exactly ``n`` rows:
  the Laplace and exponential-mechanism scales are set from ``n``;
* ``chunks()`` — an iterator of ``{attribute name: int64 code array}``
  mappings, each covering exactly the schema's attributes with
  equal-length columns of codes in ``[0, size)``, whose concatenation in
  order is the full dataset.  ``chunks()`` must be
  **re-iterable and deterministic**: the counting layer may make several
  passes (see below) and every pass must see the identical rows.  Chunks
  may be ragged (a short final chunk) or even empty; empty chunks
  contribute nothing to any count.

A source's chunks come from outside the library, so :func:`as_chunks`,
through which every counting pass reads them, checks each chunk's
columns, lengths and code ranges before it is counted, and the pass's row
total against ``n`` when the pass ends; a violation raises
:class:`ValueError` naming the source type.

When to use which path
----------------------
* **Resident** (``Table``): anything that needs random row access —
  train/test splits, workload evaluation, the figure experiments at paper
  scale.  ``Table.from_chunks`` concatenates a source when a caller wants
  it resident.
* **Streaming** (``ChunkedSource``): million-row fits and releases.
  ``PrivBayes.fit`` accepts a source directly, and
  :func:`repro.core.sampler.sample_synthetic_chunks` +
  :func:`repro.data.io.write_csv` stream the release back out, so no
  ``n × d`` matrix of codes or decoded labels ever materializes.

Counting itself lives in :class:`repro.bn.quality.ParentIndexCache`, one
engine for both kinds of input: it reads a table and a source alike
through :func:`as_chunks` (a table as zero-copy column slices).  An
all-binary source whose full joint fits
:data:`~repro.bn.quality.MAX_WALSH_CELLS` is read once, and its memory
then includes the ``2**d`` Walsh–Hadamard coefficients of that joint (at
most 128 MB, as for a table); any other source is read once per greedy
round that has fresh parent sets to count, plus once for distribution
learning.  Chunked and monolithic counting produce the *same int64
integers* (asserted across chunk sizes, including ragged and empty
trailing chunks, in ``tests/data/test_chunks.py`` and
``tests/core/test_counting_paths.py``), so every downstream float, noise
draw, and released tuple is bit-identical to the resident path.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.data.attribute import Attribute
from repro.data.marginals import domain_size
from repro.data.table import Table

#: Default rows per chunk: 64k rows x 16 attributes x 8 bytes = 8 MiB of
#: codes per chunk — large enough to amortize numpy call overhead, small
#: enough that a handful of in-flight chunks stay cache-friendly.
DEFAULT_CHUNK_ROWS = 65_536


class ChunkedSource:
    """Base class implementing the schema-metadata half of the protocol.

    Subclasses set ``_attributes`` and ``_n`` (or override the properties)
    and implement :meth:`chunks`.  The metadata surface deliberately
    mirrors :class:`~repro.data.table.Table` so the fitting layers accept
    either interchangeably.
    """

    _attributes: Tuple[Attribute, ...] = ()
    _n: int = 0

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def n(self) -> int:
        """Total number of rows across all chunks."""
        return self._n

    @property
    def d(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"no attribute named {name!r}")

    @property
    def domain_size(self) -> int:
        return domain_size([a.size for a in self.attributes])

    def chunks(self) -> Iterator[Mapping[str, np.ndarray]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n={self.n}, d={self.d}, "
            f"attrs={list(self.attribute_names)})"
        )


class TableChunks(ChunkedSource):
    """A resident table viewed as a chunk stream (zero-copy column slices).

    The reference source for the chunked-vs-monolithic equivalence tests:
    its chunks concatenate to exactly the table's columns for any chunk
    size, so any counting discrepancy is the counting layer's fault.
    """

    def __init__(self, table: Table, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self._table = table
        self._chunk_rows = int(chunk_rows)
        self._attributes = table.attributes
        self._n = table.n

    def chunks(self) -> Iterator[Mapping[str, np.ndarray]]:
        names = self._table.attribute_names
        columns = [self._table.column(name) for name in names]
        if self._n == 0:
            yield {name: col[0:0] for name, col in zip(names, columns)}
            return
        for start in range(0, self._n, self._chunk_rows):
            stop = min(start + self._chunk_rows, self._n)
            yield {
                name: col[start:stop] for name, col in zip(names, columns)
            }


class IterableChunks(ChunkedSource):
    """Adapter for a pre-built list of column chunks (tests, custom feeds).

    ``chunk_list`` is held resident, so this is for small inputs and edge
    cases (e.g. sources with explicit empty trailing chunks); real
    out-of-core feeds should subclass :class:`ChunkedSource` and stream.
    """

    def __init__(
        self,
        attributes: Sequence[Attribute],
        chunk_list: Sequence[Mapping[str, np.ndarray]],
    ) -> None:
        self._attributes = tuple(attributes)
        self._chunk_list = [dict(chunk) for chunk in chunk_list]
        names = set(a.name for a in self._attributes)
        total = 0
        for chunk in self._chunk_list:
            if set(chunk) != names:
                raise ValueError(
                    f"chunk columns {sorted(chunk)} do not match schema "
                    f"{sorted(names)}"
                )
            lengths = {np.asarray(col).shape[0] for col in chunk.values()}
            if len(lengths) > 1:
                raise ValueError("chunk columns have differing lengths")
            total += next(iter(lengths)) if lengths else 0
        self._n = total

    def chunks(self) -> Iterator[Mapping[str, np.ndarray]]:
        for chunk in self._chunk_list:
            yield chunk


RowSource = Union[Table, ChunkedSource]


def as_chunks(
    source: RowSource, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Iterator[Mapping[str, np.ndarray]]:
    """Chunk iterator over either a resident table or a chunked source.

    A table's codes were range-checked when it was built.  A source's
    chunks are checked as they arrive (see the module docstring): each
    must hold exactly the schema's columns, as one-dimensional integer
    arrays of one length with codes in ``[0, size)`` (per-column
    ``min``/``max``, which allocate nothing), and the pass must yield
    ``source.n`` rows in total.  A chunk that fails is never counted.
    """
    if isinstance(source, Table):
        return TableChunks(source, chunk_rows).chunks()
    return _checked_chunks(source)


def _checked_chunks(
    source: ChunkedSource,
) -> Iterator[Mapping[str, np.ndarray]]:
    kind = type(source).__name__
    attributes = source.attributes
    names = {attr.name for attr in attributes}
    seen = 0
    for chunk in source.chunks():
        if set(chunk) != names:
            raise ValueError(
                f"{kind} chunk columns {sorted(chunk)} do not match schema "
                f"{sorted(names)}"
            )
        rows = None
        for attr in attributes:
            codes = np.asarray(chunk[attr.name])
            if codes.ndim != 1 or codes.dtype.kind not in "iu":
                raise ValueError(
                    f"{kind} chunk column {attr.name!r} is not a "
                    f"one-dimensional integer array ({codes.dtype}, "
                    f"{codes.ndim}-d)"
                )
            if rows is None:
                rows = codes.shape[0]
            elif codes.shape[0] != rows:
                raise ValueError(
                    f"{kind} chunk columns have differing lengths "
                    f"({attr.name!r} has {codes.shape[0]}, expected {rows})"
                )
            if codes.size and (codes.min() < 0 or codes.max() >= attr.size):
                bad = codes[(codes < 0) | (codes >= attr.size)][0]
                raise ValueError(
                    f"{kind} chunk column {attr.name!r} has code {int(bad)} "
                    f"outside [0, {attr.size})"
                )
        seen += rows or 0
        yield chunk
    if seen != source.n:
        raise ValueError(
            f"{kind} declares n={source.n} rows but its chunks yielded {seen}"
        )

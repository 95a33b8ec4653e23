"""CSV import/export for tables, with schema inference.

Real deployments feed PrivBayes from delimited files.  This module reads a
CSV into a :class:`~repro.data.Table` (inferring binary / categorical /
continuous attributes column by column) and writes tables back out with
their labels, so the synthetic release round-trips through the same
format as the input.

Both directions work one column at a time, never one cell at a time.
``csv.reader`` and ``csv.writer`` stay the only parser and formatter, so
quoting and dialect behaviour are exactly theirs.

Two reading paths share one schema-inference core:

* :func:`read_csv` — resident: the whole file becomes a ``Table``.
* :class:`CsvSource` — streaming, in two passes over the file.  Pass 1
  parses it in batches of :data:`BATCH_ROWS` rows, transposes each batch
  and keeps only each column's *distinct raw fields*, so its memory is the
  columns' domains plus one batch, never the row count.  It then strips
  each distinct raw field once, infers the schema from the stripped values
  and builds one raw-field → code dict per column.  Pass 2 re-parses the
  same batches and encodes each column by dict lookup into fixed-size
  chunks.  Pass 1 pins the file's size and modification time, and every
  pass 2 re-checks the pin.  ``read_csv`` is literally ``Table.from_chunks``
  over a ``CsvSource``, so the two paths cannot drift apart.

:func:`write_csv` accepts a resident table, a chunked source, or an
iterator of chunk tables (e.g.
:func:`repro.core.sampler.sample_synthetic_chunks`).  It has ``csv.writer``
quote each attribute's labels once, then gathers the quoted fields with one
``np.take`` per attribute and joins each chunk's rows in one write — a
million-row release never materializes ``n × d`` decoded labels.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.data.attribute import (
    Attribute,
    AttributeKind,
    DEFAULT_BINS,
    continuous_attribute,
    encode_continuous,
)
from repro.data.chunks import ChunkedSource, DEFAULT_CHUNK_ROWS, TableChunks
from repro.data.table import Table

PathLike = Union[str, Path]

#: Columns whose distinct-value count exceeds this and parse as numbers
#: are treated as continuous and binned.
CONTINUOUS_THRESHOLD = 20

#: Rows per encode/write batch when a resident table is written out.
WRITE_CHUNK_ROWS = 32_768

#: Rows ``CsvSource`` parses and transposes at a time, in both passes.  A
#: few hundred is fastest: on a 45k-row Adult file (2-vCPU VM) pass 1 took
#: 174 ms in 256-row batches, 339 ms in 4096-row ones and 482 ms in one.
BATCH_ROWS = 256


def _is_numeric(values: List[str]) -> bool:
    try:
        for v in values:
            float(v)
        return True
    except ValueError:
        return False


def _infer_schema(
    name: str,
    labels: List[str],
    bins: int,
    continuous_threshold: int,
) -> Tuple[Attribute, Dict[str, int]]:
    """One column's attribute from its sorted distinct labels, and each
    label's code.

    * ≤ 2 distinct values → binary (a single-valued column is padded with
      a ``__other_<label>`` placeholder — see the caveat on
      :func:`infer_attribute`);
    * numeric with more than ``continuous_threshold`` distinct values →
      continuous, discretized into ``bins`` equi-width bins over the
      observed min/max;
    * otherwise categorical over the sorted distinct labels.

    Binary and categorical codes are each label's index in ``labels``.
    Continuous codes come from :func:`encode_continuous`, which bins
    element by element, so binning the distinct values gives every row the
    code that binning the whole column would.
    """
    if not labels:
        raise ValueError(f"column {name!r} is empty")
    if len(labels) <= 2:
        values = list(labels)
        if len(values) == 1:
            values.append(f"__other_{values[0]}")
        attr = Attribute(name, tuple(values), AttributeKind.BINARY)
        return attr, dict(zip(labels, range(len(labels))))
    if _is_numeric(labels) and len(labels) > continuous_threshold:
        # min/max over the distinct set equal min/max over all values
        # (every value's parse is in the set), so the bin edges match a
        # one-shot full-column scan exactly.
        floats = [float(v) for v in labels]
        attr, edges = continuous_attribute(
            name, min(floats), max(floats), bins=bins
        )
        codes = encode_continuous(edges, np.array(floats)).tolist()
        return attr, dict(zip(labels, codes))
    attr = Attribute(name, tuple(labels), AttributeKind.CATEGORICAL)
    return attr, dict(zip(labels, range(len(labels))))


def infer_attribute(
    name: str,
    values: List[str],
    bins: int = DEFAULT_BINS,
    continuous_threshold: int = CONTINUOUS_THRESHOLD,
):
    """Infer one column's attribute and integer codes.

    * ≤ 2 distinct values → binary;
    * numeric with more than ``continuous_threshold`` distinct values →
      continuous, discretized into ``bins`` equi-width bins;
    * otherwise categorical over the sorted distinct labels.

    .. caution::
       A column with a **single** distinct value is padded to a binary
       domain with a synthetic ``__other_<label>`` second value (several
       layers assume ≥ 2-value domains).  The placeholder never appears in
       the encoded input (all codes are 0), but a *noisy* release learns a
       perturbed distribution over both values, so synthetic rows can emit
       the placeholder label.  ``tests/data/test_io.py`` pins this
       behavior with a round-trip test; downstream consumers of released
       CSVs should treat ``__other_*`` labels as "the constant column's
       other value".
    """
    attr, code_of = _infer_schema(
        name, sorted(set(values)), bins, continuous_threshold
    )
    codes = map(code_of.__getitem__, values)
    return attr, np.fromiter(codes, np.int64, len(values))


def _column_lookup(
    name: str,
    raw_fields: Set[str],
    bins: int,
    continuous_threshold: int,
) -> Tuple[Attribute, Dict[str, int]]:
    """A column's attribute and its raw field → code dict.

    Each distinct raw field is stripped once; the schema is inferred from
    the stripped values, as if every field had been stripped on its own.
    """
    stripped = {raw: raw.strip() for raw in raw_fields}
    attr, code_of = _infer_schema(
        name, sorted(set(stripped.values())), bins, continuous_threshold
    )
    return attr, {raw: code_of[label] for raw, label in stripped.items()}


def _batches(reader: Iterator[List[str]]) -> Iterator[List[List[str]]]:
    """The reader's non-blank rows, one :data:`BATCH_ROWS`-row parse at a
    time."""
    while True:
        batch = list(itertools.islice(reader, BATCH_ROWS))
        if not batch:
            return
        rows = list(filter(None, batch))
        if rows:
            yield rows


def _stat_pin(handle) -> Tuple[int, int]:
    status = os.fstat(handle.fileno())
    return status.st_size, status.st_mtime_ns


class CsvSource(ChunkedSource):
    """Two-pass streaming CSV reader (see the module docstring).

    Pass 1 (at construction) pins the file's ``(st_size, st_mtime_ns)``,
    then parses it once in batches of :data:`BATCH_ROWS` rows.  It
    validates shape (header present, rows non-empty and rectangular; a
    ragged row's error names its file line), counts rows, and keeps each
    column's distinct raw fields plus the batch in flight — no row data
    outlives its batch.  It ends by building one raw-field → code dict per
    column, which the source keeps: one entry per distinct raw field.

    Pass 2 (:meth:`chunks`) re-parses the same batches and encodes each
    column with a dict lookup, yielding chunks of exactly ``chunk_rows``
    rows (the last may be shorter), so chunked and monolithic codes are
    identical for any chunk size.  The file must not change between
    passes: a moved pin, a changed row count or shape, or a raw field that
    pass 1 never saw raises :class:`ValueError`.
    """

    def __init__(
        self,
        path: PathLike,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        bins: int = DEFAULT_BINS,
        continuous_threshold: int = CONTINUOUS_THRESHOLD,
        delimiter: str = ",",
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self._path = Path(path)
        self._chunk_rows = int(chunk_rows)
        self._delimiter = delimiter
        count = 0
        with self._path.open(newline="") as handle:
            self._pin = _stat_pin(handle)
            reader = csv.reader(handle, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{self._path} is empty") from None
            width = len(header)
            distinct: List[Set[str]] = [set() for _ in header]
            for rows in _batches(reader):
                if set(map(len, rows)) != {width}:
                    raise self._ragged_row(width)
                for seen, column in zip(distinct, zip(*rows)):
                    seen.update(column)
                count += len(rows)
        if count == 0:
            raise ValueError(f"{self._path} has a header but no data rows")
        columns = [
            _column_lookup(name, raw_fields, bins, continuous_threshold)
            for name, raw_fields in zip(header, distinct)
        ]
        self._attributes = tuple(attr for attr, _ in columns)
        self._lookups = tuple(lookup for _, lookup in columns)
        self._n = count

    def _ragged_row(self, width: int) -> ValueError:
        """The error for the file's first row whose width is not ``width``.

        Only this path tracks file lines: it re-reads the file, so the
        line numbers count blank lines and multi-line quoted records.
        """
        with self._path.open(newline="") as handle:
            reader = csv.reader(handle, delimiter=self._delimiter)
            first_line = 1
            for row in reader:
                if row and len(row) != width:
                    lines = (
                        f"line {first_line}"
                        if reader.line_num == first_line
                        else f"lines {first_line}-{reader.line_num}"
                    )
                    return ValueError(
                        f"{self._path}: the row on {lines} has {len(row)} "
                        f"fields, expected {width}"
                    )
                first_line = reader.line_num + 1
        return ValueError(f"{self._path} changed during schema inference")

    def _changed(self) -> ValueError:
        return ValueError(
            f"{self._path} changed between schema inference and chunked "
            "reading"
        )

    def chunks(self) -> Iterator[Mapping[str, np.ndarray]]:
        names = self.attribute_names
        width = len(names)
        size = self._chunk_rows
        seen = 0
        with self._path.open(newline="") as handle:
            if _stat_pin(handle) != self._pin:
                raise self._changed()
            reader = csv.reader(handle, delimiter=self._delimiter)
            next(reader)  # header (pass 1 guaranteed it exists)
            pending: List[List[np.ndarray]] = []
            buffered = 0
            for rows in _batches(reader):
                count = len(rows)
                seen += count
                if set(map(len, rows)) != {width} or seen > self._n:
                    raise self._changed()
                try:
                    pending.append([
                        np.fromiter(
                            map(lookup.__getitem__, column), np.int64, count
                        )
                        for lookup, column in zip(self._lookups, zip(*rows))
                    ])
                except KeyError:
                    raise self._changed() from None
                buffered += count
                if buffered >= size:
                    columns = [np.concatenate(part) for part in zip(*pending)]
                    full = buffered - buffered % size
                    for start in range(0, full, size):
                        stop = start + size
                        yield dict(zip(names, (c[start:stop] for c in columns)))
                    buffered -= full
                    pending = [[c[full:] for c in columns]] if buffered else []
            if seen != self._n:
                raise self._changed()
            if buffered:
                columns = [np.concatenate(part) for part in zip(*pending)]
                yield dict(zip(names, columns))


def read_csv(
    path: PathLike,
    bins: int = DEFAULT_BINS,
    continuous_threshold: int = CONTINUOUS_THRESHOLD,
    delimiter: str = ",",
) -> Table:
    """Load a headed CSV file into a table with inferred schema."""
    source = CsvSource(
        path,
        bins=bins,
        continuous_threshold=continuous_threshold,
        delimiter=delimiter,
    )
    return Table.from_chunks(source.attributes, source.chunks())


def _chunk_stream(
    source: Union[Table, ChunkedSource, Iterable[Table]],
) -> Tuple[Tuple[Attribute, ...], Iterator[Mapping[str, np.ndarray]]]:
    """Normalize any writable source to (attributes, chunk iterator)."""
    if isinstance(source, Table):
        return source.attributes, TableChunks(source, WRITE_CHUNK_ROWS).chunks()
    if isinstance(source, ChunkedSource):
        return source.attributes, source.chunks()
    iterator = iter(source)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError(
            "cannot write an empty chunk stream (no schema); pass a Table "
            "or a stream with at least one (possibly empty) chunk"
        ) from None

    def tables_to_chunks() -> Iterator[Mapping[str, np.ndarray]]:
        for chunk_table in itertools.chain([first], iterator):
            yield {
                name: chunk_table.column(name)
                for name in chunk_table.attribute_names
            }

    return first.attributes, tables_to_chunks()


def _quoted_labels(
    attributes: Sequence[Attribute], delimiter: str
) -> List[np.ndarray]:
    """Each attribute's labels as ``csv.writer`` writes them as a field.

    Each label is written by a real ``csv.writer``, in a row of as many
    copies of it as the table has columns (up to two), and cut back to one
    field.  So the writer's quoting rules — including a lone empty field
    written as ``""`` in a one-column row — and its formatting of non-str
    labels apply unchanged.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    copies = min(len(attributes), 2)
    overhead = len(writer.dialect.lineterminator) + copies - 1
    quoted = []
    for attr in attributes:
        fields = []
        for label in attr.values:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow((label,) * copies)
            row = buffer.getvalue()
            fields.append(row[: (len(row) - overhead) // copies])
        quoted.append(np.asarray(fields, dtype=object))
    return quoted


def write_csv(
    source: Union[Table, ChunkedSource, Iterable[Table]],
    path: PathLike,
    delimiter: str = ",",
) -> None:
    """Write decoded labels to a headed CSV file, chunk by chunk.

    ``source`` may be a resident :class:`~repro.data.Table`, any
    :class:`~repro.data.chunks.ChunkedSource`, or an iterator of chunk
    tables (the shape :func:`repro.core.sampler.sample_synthetic_chunks`
    yields) — the streaming release path holds one chunk of decoded labels
    at a time.  ``csv.writer`` quotes each attribute's labels once; each
    chunk then decodes with a single ``np.take`` gather per attribute over
    those quoted fields and is written as one joined string.  Output bytes
    are identical to writing every row with ``csv.writer``.
    """
    attributes, chunk_iter = _chunk_stream(source)
    quoted = _quoted_labels(attributes, delimiter)
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([attr.name for attr in attributes])
        terminator = writer.dialect.lineterminator
        for chunk in chunk_iter:
            decoded = [
                fields.take(chunk[attr.name])
                for fields, attr in zip(quoted, attributes)
            ]
            rows = terminator.join(map(delimiter.join, zip(*decoded)))
            if rows:
                handle.write(rows + terminator)

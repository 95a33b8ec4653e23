"""CSV import/export for tables, with schema inference.

Real deployments feed PrivBayes from delimited files.  This module reads a
CSV into a :class:`~repro.data.Table` (inferring binary / categorical /
continuous attributes column by column) and writes tables back out with
their labels, so the synthetic release round-trips through the same
format as the input.

Both directions work one column at a time, never one cell at a time.
``csv.reader`` and ``csv.writer`` stay the only parser and formatter, so
quoting and dialect behaviour are exactly theirs.

Two reading paths share one parse loop and one schema-inference core.
Every pass over a file opens it, reads and checks the header, parses the
body in batches of :data:`BATCH_ROWS` rows, transposes each batch, checks
its width and counts its rows in the same loop.  Every column's schema and
raw-field → code dict come from :func:`_column_lookup`, which strips each
distinct raw field once and infers the schema from the stripped values:

* :func:`read_csv` — resident, in one pass: the whole file becomes a
  ``Table``.  Each batch's columns are encoded to first-appearance ids as
  they are parsed; at the end one ``np.take`` per column maps the ids to
  the codes ``_column_lookup`` assigns.
* :class:`CsvSource` — streaming, in two passes.  Pass 1 keeps only each
  column's *distinct raw fields*, so its memory is the columns' domains
  plus one batch, never the row count, and builds one raw-field → code
  dict per column.  Pass 2 re-parses the same batches and encodes each
  column by dict lookup into fixed-size chunks.  Pass 1 pins the file's
  size and modification time, and every pass 2 re-checks the pin.

The codes depend only on each column's distinct values, never on the order
the rows come in, so the two paths give the same table; the tests hold
both to a per-cell reference reader.

:func:`write_csv` accepts a resident table, a chunked source, or an
iterator of chunk tables (e.g.
:func:`repro.core.sampler.sample_synthetic_chunks`).  It has ``csv.writer``
quote each attribute's labels once, then gathers the quoted fields with one
``np.take`` per attribute and joins each chunk's rows in one write — a
million-row release never materializes ``n × d`` decoded labels.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import math
import os
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
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

#: Rows every pass parses and transposes at a time.  A few hundred is
#: fastest: on a 45k-row Adult file (2-vCPU VM), ``read_csv`` took a median
#: 154 ms in 256-row batches, 157 ms in 128-row ones, 242 ms in 4096-row
#: ones and 404 ms in one.
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
      observed min/max (a ``nan`` or infinite value, which has no bin,
      raises :class:`ValueError`);
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
        for label, value in zip(labels, floats):
            if not math.isfinite(value):
                raise ValueError(
                    f"column {name!r} is binned but holds the non-finite "
                    f"number {label!r}"
                )
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
    raw_fields: Iterable[str],
    bins: int,
    continuous_threshold: int,
) -> Tuple[Attribute, Dict[str, int]]:
    """A column's attribute and its raw field → code dict.

    ``raw_fields`` are the column's distinct raw fields.  Each is stripped
    once; the schema is inferred from the stripped values, as if every
    field had been stripped on its own.
    """
    stripped = {raw: raw.strip() for raw in raw_fields}
    attr, code_of = _infer_schema(
        name, sorted(set(stripped.values())), bins, continuous_threshold
    )
    return attr, {raw: code_of[label] for raw, label in stripped.items()}


class _FirstAppearance(dict):
    """Raw field → id, the ids numbering a column's distinct fields in
    order of first appearance.

    Looking up a field not yet seen stores and returns the next id, so
    ``map(ids.__getitem__, column)`` ids a whole column in C and runs
    Python code once per distinct field.  The keys are the column's
    distinct raw fields, in id order.
    """

    def __missing__(self, field: str) -> int:
        self[field] = next_id = len(self)
        return next_id


def _stat_pin(handle) -> Tuple[int, int]:
    status = os.fstat(handle.fileno())
    return status.st_size, status.st_mtime_ns


def _ragged_row(path: Path, delimiter: str, width: int) -> ValueError:
    """The error for the file's first row whose width is not ``width``.

    Only this path tracks file lines: it re-reads the file, so the line
    numbers count blank lines and multi-line quoted records.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        first_line = 1
        for row in reader:
            if row and len(row) != width:
                lines = (
                    f"line {first_line}"
                    if reader.line_num == first_line
                    else f"lines {first_line}-{reader.line_num}"
                )
                return ValueError(
                    f"{path}: the row on {lines} has {len(row)} fields, "
                    f"expected {width}"
                )
            first_line = reader.line_num + 1
    return ValueError(f"{path} changed while it was read")


class _CsvPass:
    """One ``csv.reader`` pass over a headed CSV file: the parse loop that
    :func:`read_csv` and both :class:`CsvSource` passes share.

    Entering it opens the file, pins its ``(st_size, st_mtime_ns)`` in
    :attr:`pin` and reads :attr:`header`.  An empty file, or a header that
    repeats a column name, raises before any body row is parsed.
    """

    def __init__(self, path: Path, delimiter: str) -> None:
        self.path = path
        self.delimiter = delimiter
        self.n = 0

    def __enter__(self) -> "_CsvPass":
        self._handle = self.path.open(newline="")
        try:
            self.pin = _stat_pin(self._handle)
            self._reader = csv.reader(self._handle, delimiter=self.delimiter)
            self.header = next(self._reader, None)
            if self.header is None:
                raise ValueError(f"{self.path} is empty")
            counts = collections.Counter(self.header)
            repeated = [name for name, count in counts.items() if count > 1]
            if repeated:
                raise ValueError(
                    f"{self.path} has duplicate column names: "
                    + ", ".join(map(repr, repeated))
                )
        except BaseException:
            self._handle.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._handle.close()

    def batches(
        self, misfit: Optional[Callable[[], ValueError]] = None
    ) -> Iterator[Tuple[int, Iterator[Tuple[str, ...]]]]:
        """The body's non-blank rows as ``(row count, column tuples)``,
        parsed and transposed :data:`BATCH_ROWS` rows at a time.

        Adds each batch's row count to :attr:`n` before yielding it.  A
        row whose width is not the header's raises ``misfit()``, or by
        default the error naming that row's file line; a body without rows
        raises too.
        """
        width = len(self.header)
        while True:
            batch = list(itertools.islice(self._reader, BATCH_ROWS))
            if not batch:
                break
            rows = list(filter(None, batch))
            if not rows:
                continue
            if set(map(len, rows)) != {width}:
                if misfit is None:
                    raise _ragged_row(self.path, self.delimiter, width)
                raise misfit()
            self.n += len(rows)
            yield len(rows), zip(*rows)
        if self.n == 0:
            raise ValueError(f"{self.path} has a header but no data rows")


class CsvSource(ChunkedSource):
    """Two-pass streaming CSV reader (see the module docstring).

    Pass 1 (at construction) pins the file's ``(st_size, st_mtime_ns)``,
    then parses it once in batches of :data:`BATCH_ROWS` rows.  It
    validates shape (header present with distinct names, rows non-empty
    and rectangular; a ragged row's error names its file line), counts
    rows, and keeps each column's distinct raw fields plus the batch in
    flight — no row data outlives its batch.  It ends by building one
    raw-field → code dict per column, which the source keeps: one entry
    per distinct raw field.

    Pass 2 (:meth:`chunks`) re-parses the same batches and encodes each
    column with a dict lookup, yielding chunks of exactly ``chunk_rows``
    rows (the last may be shorter), so chunked and monolithic codes are
    identical for any chunk size.  The file must not change between
    passes: a moved pin, a changed header, row count or shape, or a raw
    field that pass 1 never saw raises :class:`ValueError`.
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
        with _CsvPass(self._path, delimiter) as parse:
            distinct: List[Set[str]] = [set() for _ in parse.header]
            for _, columns in parse.batches():
                for seen, column in zip(distinct, columns):
                    seen.update(column)
        columns = [
            _column_lookup(name, raw_fields, bins, continuous_threshold)
            for name, raw_fields in zip(parse.header, distinct)
        ]
        self._attributes = tuple(attr for attr, _ in columns)
        self._lookups = tuple(lookup for _, lookup in columns)
        self._n = parse.n
        self._pin = parse.pin

    def _changed(self) -> ValueError:
        return ValueError(
            f"{self._path} changed between schema inference and chunked "
            "reading"
        )

    def chunks(self) -> Iterator[Mapping[str, np.ndarray]]:
        names = self.attribute_names
        size = self._chunk_rows
        with _CsvPass(self._path, self._delimiter) as parse:
            if parse.pin != self._pin or tuple(parse.header) != names:
                raise self._changed()
            pending: List[List[np.ndarray]] = []
            buffered = 0
            for count, columns in parse.batches(self._changed):
                if parse.n > self._n:
                    raise self._changed()
                try:
                    pending.append([
                        np.fromiter(
                            map(lookup.__getitem__, column), np.int64, count
                        )
                        for lookup, column in zip(self._lookups, columns)
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
            if parse.n != self._n:
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
    """Load a headed CSV file into a table with inferred schema.

    One parse: each batch's columns are encoded to first-appearance ids as
    they are parsed.  At the end :func:`_column_lookup` infers each
    column's attribute and raw field → code dict from the ids' keys, its
    distinct raw fields, and one ``np.take`` per column maps the ids to
    those codes.  The codes depend only on the distinct values, so the
    table is the one :class:`CsvSource` streams from the same file.
    """
    path = Path(path)
    with _CsvPass(path, delimiter) as parse:
        ids = [_FirstAppearance() for _ in parse.header]
        d = len(ids)
        # One ``d x count`` id block per batch, not one array per column:
        # d times fewer small allocations kept a 45k-row Adult release's
        # peak RSS 2-4 MB lower.
        blocks = []
        for count, columns in parse.batches():
            batch_ids = itertools.chain.from_iterable(
                map(seen.__getitem__, column)
                for seen, column in zip(ids, columns)
            )
            blocks.append(
                np.fromiter(batch_ids, np.int64, d * count).reshape(d, count)
            )
    attributes = []
    codes = {}
    for j, (name, seen) in enumerate(zip(parse.header, ids)):
        attr, lookup = _column_lookup(name, seen, bins, continuous_threshold)
        lut = np.fromiter(map(lookup.__getitem__, seen), np.int64, len(seen))
        attributes.append(attr)
        codes[name] = lut.take(np.concatenate([block[j] for block in blocks]))
    return Table(attributes, codes)


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

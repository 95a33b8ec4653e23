"""CSV import/export for tables, with schema inference.

Real deployments feed PrivBayes from delimited files.  This module reads a
CSV into a :class:`~repro.data.Table` (inferring binary / categorical /
continuous attributes column by column) and writes tables back out with
their labels, so the synthetic release round-trips through the same
format as the input.  Files are read and written as UTF-8 whatever the
locale; a byte that is not UTF-8 fails the read with an error naming the
file and the byte's offset.

Both directions work one column at a time, never one cell at a time, and
keep ``csv.reader`` and ``csv.writer``'s exact behaviour.  With the native
kernel (:mod:`repro.core.kernel_backend`) a C tokenizer parses the bytes
as ``csv.reader`` parses the text, and a C assembler joins the labels
``csv.writer`` quoted; without it, or for a delimiter that is not one
ASCII byte, ``csv.reader`` and a string join do the same work.

Two reading paths share one parse loop and one schema-inference core.
Every pass over a file opens it, reads and checks the header, and yields
the body as blocks of per-column first-appearance ids, checking every
record's width and counting the rows as it goes; it keeps each column's
distinct raw fields in id order.  Every column's schema and raw-field →
code dict come from :func:`_column_lookup`, which strips each distinct raw
field once and infers the schema from the stripped values:

* :func:`read_csv` — resident, in one pass: the whole file becomes a
  ``Table``.  At the end one ``np.take`` per column maps the ids to the
  codes ``_column_lookup`` assigns.
* :class:`CsvSource` — streaming, in two passes.  Pass 1 keeps only each
  column's *distinct raw fields*, so its memory is the columns' domains
  plus one block, never the row count, and builds one raw-field → code
  dict per column.  Pass 2 re-parses the file, maps each column's new
  distinct fields through those dicts into a growing lookup table, and
  gathers each block's codes into fixed-size chunks.  Pass 1 pins the
  file's size and modification time, and every pass 2 re-checks the pin.

The codes depend only on each column's distinct values, never on the order
the rows come in, so the two paths give the same table; the tests hold
both to a per-cell reference reader.

:func:`write_csv` accepts a resident table, a chunked source, or an
iterator of chunk tables (e.g.
:func:`repro.core.sampler.sample_synthetic_chunks`).  It has ``csv.writer``
quote each attribute's labels once, then writes each chunk's rows in one
write — a million-row release never materializes ``n × d`` decoded labels.
"""

from __future__ import annotations

import codecs
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
    Tuple,
    Union,
)

import numpy as np

from repro.core import kernel_backend
from repro.core.kernel_backend import (
    CSV_ARENA,
    CSV_AT,
    CSV_ENTRIES,
    CSV_ENTRY_FIELDS,
    CSV_FIELD_LIMIT,
    CSV_FULL,
    CSV_IDS,
    CSV_INDEXED,
    CSV_NOT_UTF8,
    CSV_POS,
    CSV_RAGGED,
    CSV_ROWS,
    CSV_SLOTS,
    CSV_STATE_FIELDS,
    CSV_USED,
    CSV_WHICH,
    ENTRY_OFFSET,
)
from repro.data.attribute import (
    Attribute,
    AttributeKind,
    DEFAULT_BINS,
    continuous_attribute,
    encode_continuous,
)
from repro.data.chunks import ChunkedSource, DEFAULT_CHUNK_ROWS, as_chunks
from repro.data.table import Table

PathLike = Union[str, Path]

#: Columns whose distinct-value count exceeds this and parse as numbers
#: are treated as continuous and binned.
CONTINUOUS_THRESHOLD = 20

#: Rows per encode/write batch when a resident table is written out.
WRITE_CHUNK_ROWS = 32_768

#: Rows the ``csv.reader`` path parses and transposes at a time.  A few
#: hundred is fastest: on a 45k-row Adult file (2-vCPU VM), ``read_csv``
#: took a median 154 ms in 256-row batches, 157 ms in 128-row ones, 242 ms
#: in 4096-row ones and 404 ms in one.
BATCH_ROWS = 256

#: Bytes the native tokenizer reads at a time, and the size of its int32
#: id block.  A record the end of a block cuts is carried, from its first
#: byte, into the next block, so a block outgrows this only to hold one
#: longer record; a full id block is handed over and refilled.  A
#: streaming pass holds one of each, so a chunked ingest stays within a few
#: chunks of memory, and the calls cost nothing measurable: on a 45k-row
#: Adult file (2-vCPU VM), ``read_csv`` took a best 28.7 ms in 256 KiB
#: blocks and 31.8 ms in one 16 MiB block.
BLOCK_BYTES = 1 << 18


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
      :func:`read_csv`);
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
    Python code once per distinct field.  :attr:`fields` lists the
    column's distinct raw fields in id order.
    """

    def __init__(self) -> None:
        super().__init__()
        self.fields: List[str] = []

    def __missing__(self, field: str) -> int:
        self[field] = next_id = len(self)
        self.fields.append(field)
        return next_id


def _stat_pin(handle) -> Tuple[int, int]:
    status = os.fstat(handle.fileno())
    return status.st_size, status.st_mtime_ns


def _not_utf8(path: Path, offset: int, byte: int) -> ValueError:
    return ValueError(
        f"{path}: byte 0x{byte:02x} at offset {offset} is not valid UTF-8"
    )


def _first_bad_byte(path: Path) -> ValueError:
    """The error for the file's first byte that does not decode as UTF-8,
    found by decoding it again, one block at a time."""
    decoded = 0
    pending = b""
    with path.open("rb") as handle:
        while True:
            block = handle.read(BLOCK_BYTES)
            data = pending + block
            try:
                _, used = codecs.utf_8_decode(data, "strict", not block)
            except UnicodeDecodeError as error:
                at = error.start
                return _not_utf8(path, decoded + at, data[at])
            decoded += used
            pending = data[used:]
            if not block:
                return ValueError(f"{path} changed while it was read")


def _ragged_row(path: Path, delimiter: str, width: int) -> Optional[ValueError]:
    """The error for the file's first non-blank row whose width is not
    ``width``, or ``None`` when no row is ragged.

    Only this path tracks file lines: it re-reads the file, so the line
    numbers count blank lines and multi-line quoted records.  A byte that
    is not UTF-8 decodes to U+FFFD, which is never a delimiter or a line
    end, so no row's width or lines change.
    """
    with path.open(newline="", encoding="utf-8", errors="replace") as handle:
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
    return None


class _RaggedRecord(Exception):
    """A non-blank record whose width is not the header's."""


class _ReaderTokens:
    """Id blocks from ``csv.reader`` over a UTF-8 text handle: the path
    without the native kernel, and for a delimiter that is not one ASCII
    byte.  Each batch of :data:`BATCH_ROWS` rows is transposed, and each
    column ided by a :class:`_FirstAppearance`."""

    def __init__(self, handle, path: Path, delimiter: str) -> None:
        self._path = path
        self._delimiter = delimiter
        self._reader = csv.reader(handle, delimiter=delimiter)
        self.fields: List[List[str]] = []

    def header(self) -> Optional[List[str]]:
        try:
            return next(self._reader, None)
        except UnicodeDecodeError:
            raise _first_bad_byte(self._path) from None

    def blocks(self, width: int) -> Iterator[Tuple[int, np.ndarray]]:
        seen = [_FirstAppearance() for _ in range(width)]
        self.fields = [ids.fields for ids in seen]
        while True:
            try:
                batch = list(itertools.islice(self._reader, BATCH_ROWS))
            except UnicodeDecodeError:
                raise _first_bad_byte(self._path) from None
            except csv.Error:
                # The batch fails at its bad field as a whole; a ragged row
                # ahead of that field fails first, as it does natively.
                # (The re-read raises this csv.Error itself if it gets
                # there first.)
                if _ragged_row(self._path, self._delimiter, width):
                    raise _RaggedRecord from None
                raise
            if not batch:
                return
            rows = list(filter(None, batch))
            if not rows:
                continue
            if set(map(len, rows)) != {width}:
                raise _RaggedRecord
            count = len(rows)
            ids = itertools.chain.from_iterable(
                map(first.__getitem__, column)
                for first, column in zip(seen, zip(*rows))
            )
            yield count, np.fromiter(ids, np.int32, width * count).reshape(
                width, count
            )


def _grown(array: np.ndarray, keep: int) -> np.ndarray:
    """``array`` at twice its length along axis 0, its first ``keep``
    entries copied."""
    grown = np.empty((2 * len(array),) + array.shape[1:], array.dtype)
    grown[:keep] = array[:keep]
    return grown


class _NativeTokens:
    """Id blocks from the native tokenizer over a binary handle, read
    :data:`BLOCK_BYTES` at a time.

    Every buffer the tokenizer uses is a NumPy array allocated here — the
    byte block, the hash slots, the distinct-field entries and their byte
    arena, the per-column counts and the id block — and a call that finds
    one full is repeated after it grows (the id block is emptied instead).
    So ``tracemalloc`` sees the whole of a pass's memory.  Each distinct
    field is decoded once, when the call that found it returns.
    """

    def __init__(self, kernel, handle, path: Path, delimiter: str) -> None:
        self._kernel = kernel
        self._handle = handle
        self._path = path
        self._delimiter = ord(delimiter)
        self._limit = csv.field_size_limit()
        self._data = np.empty(BLOCK_BYTES, np.uint8)
        self._filled = 0
        self._offset = 0  # file offset of the block's first byte
        self._final = False
        self._slots = np.full(1024, -1, np.int64)
        self._entries = np.empty((256, CSV_ENTRY_FIELDS), np.int64)
        self._arena = np.empty(1 << 14, np.uint8)
        self._state = np.zeros(CSV_STATE_FIELDS, np.int64)
        self.fields: List[List[str]] = []

    def _read(self) -> None:
        """Move the bytes not yet consumed to the front of the block and
        fill the rest from the file."""
        start = int(self._state[CSV_POS])
        tail = self._filled - start
        self._data[:tail] = self._data[start:self._filled]
        self._offset += start
        self._state[CSV_POS] = 0
        if tail == self._data.size:
            self._data = _grown(self._data, tail)
        read = self._handle.readinto(memoryview(self._data)[tail:])
        self._final = not read
        self._filled = tail + read

    def _tokenize(self, width: int, counts: np.ndarray, ids: np.ndarray) -> int:
        """One call over the block, repeated while it finds a buffer other
        than the id block full; raises for a field over the limit and for
        bytes that are not UTF-8."""
        state = self._state
        while True:
            status = self._kernel.csv_tokenize(
                self._data, self._filled, self._final, self._delimiter,
                width, self._limit, self._slots, self._entries, self._arena,
                counts, ids, state,
            )
            which = state[CSV_WHICH]
            if status != CSV_FULL or which == CSV_IDS:
                break
            if which == CSV_SLOTS:
                self._slots = np.full(2 * self._slots.size, -1, np.int64)
                state[CSV_INDEXED] = 0
            elif which == CSV_ENTRIES:
                used = int(state[CSV_USED])
                self._entries = _grown(self._entries, used)
            else:
                used = int(state[CSV_ARENA])
                self._arena = _grown(self._arena, used)
        if status == CSV_FIELD_LIMIT:
            raise csv.Error(f"field larger than field limit ({self._limit})")
        if status == CSV_NOT_UTF8:
            at = int(state[CSV_AT])
            raise _not_utf8(self._path, self._offset + at, int(self._data[at]))
        return status

    def _decoded(self, start: int, stop: int) -> List[Tuple[int, str]]:
        """(column, field) of entries ``start:stop``, whose bytes lie one
        after another in the arena."""
        entries = self._entries[start:stop, ENTRY_OFFSET:].tolist()
        if not entries:
            return []
        first = entries[0][0]
        blob = self._arena[first:entries[-1][0] + entries[-1][1]].tobytes()
        return [
            (column, blob[offset - first:offset - first + length].decode())
            for offset, length, column, _ in entries
        ]

    def header(self) -> Optional[List[str]]:
        state = self._state
        none = np.zeros(0, np.int64)
        while True:
            self._read()
            self._tokenize(-1, none, np.zeros((0, 0), np.int32))
            if state[CSV_ROWS]:
                header = self._decoded(0, int(state[CSV_USED]))
                # The body starts a table of its own.
                state[[CSV_ROWS, CSV_USED, CSV_INDEXED, CSV_ARENA]] = 0
                return [field for _, field in header]
            if self._final:
                return None

    def blocks(self, width: int) -> Iterator[Tuple[int, np.ndarray]]:
        state = self._state
        counts = np.zeros(width, np.int64)
        rows = max(1, BLOCK_BYTES // 4 // max(width, 1))
        ids = np.empty((width, rows), np.int32)
        self.fields = [[] for _ in range(width)]
        decoded = 0
        while True:
            state[CSV_ROWS] = 0
            status = self._tokenize(width, counts, ids)
            used = int(state[CSV_USED])
            if used > decoded:
                for column, field in self._decoded(decoded, used):
                    self.fields[column].append(field)
                decoded = used
            if status == CSV_RAGGED:
                raise _RaggedRecord
            rows = int(state[CSV_ROWS])
            if rows:
                yield rows, ids[:, :rows]
            if status == CSV_FULL:
                continue
            if self._final:
                return
            self._read()


def _native_delimiter(delimiter: str) -> bool:
    """Whether the native tokenizer reads files with this delimiter: one
    ASCII byte other than the quote, CR and LF."""
    return (
        len(delimiter) == 1
        and delimiter.isascii()
        and delimiter not in '"\r\n'
    )


class _CsvPass:
    """One pass over a headed CSV file: the parse loop that
    :func:`read_csv` and both :class:`CsvSource` passes share.

    Entering it opens the file, pins its ``(st_size, st_mtime_ns)`` in
    :attr:`pin` and reads :attr:`header`.  An empty file, or a header that
    repeats a column name, raises before any body row is parsed.  The
    native tokenizer reads the file when it is loaded and takes the
    delimiter; ``csv.reader`` reads it otherwise.  Both give the same
    header, ids and fields.
    """

    def __init__(self, path: Path, delimiter: str) -> None:
        self.path = path
        self.delimiter = delimiter
        self.n = 0

    def __enter__(self) -> "_CsvPass":
        kernel = (
            kernel_backend.NATIVE_KERNEL
            if _native_delimiter(self.delimiter)
            else None
        )
        if kernel is None:
            self._handle = self.path.open(newline="", encoding="utf-8")
        else:
            self._handle = self.path.open("rb")
        try:
            self.pin = _stat_pin(self._handle)
            self._tokens = (
                _ReaderTokens(self._handle, self.path, self.delimiter)
                if kernel is None
                else _NativeTokens(kernel, self._handle, self.path, self.delimiter)
            )
            self.header = self._tokens.header()
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

    @property
    def fields(self) -> List[List[str]]:
        """Each column's distinct raw fields so far, in id order."""
        return self._tokens.fields

    def blocks(
        self, misfit: Optional[Callable[[], ValueError]] = None
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """The body's non-blank records as ``(row count, ids)``: ``ids`` is
        a ``(width, row count)`` int32 block, field ``j`` of a record ided
        by its first appearance in column ``j`` (the index of the field in
        ``fields[j]``).  A block is valid until the next one is drawn.

        Adds each block's row count to :attr:`n` before yielding it.  A
        record whose width is not the header's raises ``misfit()``, or by
        default the error naming that row's file line; a body without rows
        raises too.
        """
        width = len(self.header)
        try:
            for count, ids in self._tokens.blocks(width):
                self.n += count
                yield count, ids
        except _RaggedRecord:
            if misfit is not None:
                raise misfit() from None
            raise _ragged_row(self.path, self.delimiter, width) or ValueError(
                f"{self.path} changed while it was read"
            ) from None
        if self.n == 0:
            raise ValueError(f"{self.path} has a header but no data rows")


class CsvSource(ChunkedSource):
    """Two-pass streaming CSV reader (see the module docstring).

    Pass 1 (at construction) pins the file's ``(st_size, st_mtime_ns)``,
    then parses it once, a block at a time.  It validates shape (header
    present with distinct names, rows non-empty and rectangular; a ragged
    row's error names its file line), counts rows, and keeps each column's
    distinct raw fields plus the block in flight — no row data outlives
    its block.  It ends by building one raw-field → code dict per column,
    which the source keeps: one entry per distinct raw field.

    Pass 2 (:meth:`chunks`) re-parses the file.  Each new distinct field
    is looked up in pass 1's dict and appended to its column's lookup
    table, and each block's codes are gathered from those tables into
    chunks of exactly ``chunk_rows`` rows (the last may be shorter), so
    chunked and monolithic codes are identical for any chunk size.  The
    file must not change between passes: a moved pin, a changed header,
    row count or shape, or a raw field that pass 1 never saw raises
    :class:`ValueError`.
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
            for _ in parse.blocks():
                pass
        columns = [
            _column_lookup(name, raw_fields, bins, continuous_threshold)
            for name, raw_fields in zip(parse.header, parse.fields)
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
            luts = [np.zeros(0, np.int64) for _ in names]
            chunk = np.empty((len(names), min(size, self._n)), np.int64)
            filled = emitted = 0
            for count, ids in parse.blocks(self._changed):
                if parse.n > self._n:
                    raise self._changed()
                for j, (lookup, fields) in enumerate(
                    zip(self._lookups, parse.fields)
                ):
                    if len(fields) > len(luts[j]):
                        try:
                            new = [lookup[raw] for raw in fields[len(luts[j]):]]
                        except KeyError:
                            raise self._changed() from None
                        luts[j] = np.append(luts[j], new)
                start = 0
                while start < count:
                    stop = min(count, start + chunk.shape[1] - filled)
                    rows = slice(filled, filled + stop - start)
                    for lut, column, codes in zip(luts, ids, chunk):
                        lut.take(column[start:stop], out=codes[rows])
                    filled += stop - start
                    start = stop
                    if filled == chunk.shape[1]:
                        yield dict(zip(names, chunk))
                        emitted += filled
                        chunk = np.empty(
                            (len(names), min(size, self._n - emitted)), np.int64
                        )
                        filled = 0
            if parse.n != self._n:
                raise self._changed()


def read_csv(
    path: PathLike,
    bins: int = DEFAULT_BINS,
    continuous_threshold: int = CONTINUOUS_THRESHOLD,
    delimiter: str = ",",
) -> Table:
    """Load a headed CSV file into a table with inferred schema.

    One parse: the body comes as blocks of per-column first-appearance
    ids.  At the end :func:`_column_lookup` infers each column's attribute
    and raw field → code dict from its distinct raw fields, and one
    ``np.take`` per column maps the ids to those codes.  The codes depend
    only on the distinct values, so the table is the one
    :class:`CsvSource` streams from the same file.

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
    path = Path(path)
    with _CsvPass(path, delimiter) as parse:
        # One d x count int32 id block per parse block, not one array per
        # column: d times fewer small allocations kept a 45k-row Adult
        # release's peak RSS 2-4 MB lower.
        blocks = [ids.copy() for _, ids in parse.blocks()]
    attributes = []
    codes = {}
    for j, (name, fields) in enumerate(zip(parse.header, parse.fields)):
        attr, lookup = _column_lookup(name, fields, bins, continuous_threshold)
        lut = np.fromiter(map(lookup.__getitem__, fields), np.int64, len(fields))
        attributes.append(attr)
        codes[name] = lut.take(np.concatenate([block[j] for block in blocks]))
    return Table(attributes, codes)


def _chunk_stream(
    source: Union[Table, ChunkedSource, Iterable[Table]],
) -> Tuple[Tuple[Attribute, ...], Iterator[Mapping[str, np.ndarray]]]:
    """Normalize any writable source to (attributes, chunk iterator).

    A table or chunked source goes through
    :func:`~repro.data.chunks.as_chunks`, so a source's chunks are checked
    as counting checks them."""
    if isinstance(source, (Table, ChunkedSource)):
        return source.attributes, as_chunks(source, WRITE_CHUNK_ROWS)
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


def _code_error(
    attributes: Sequence[Attribute], codes: Sequence[np.ndarray]
) -> Optional[IndexError]:
    """The error for the first attribute with a code outside its labels."""
    for attr, column in zip(attributes, codes):
        outside = (column < 0) | (column >= attr.size)
        if outside.any():
            return IndexError(
                f"attribute {attr.name!r} has code {column[outside][0]}, "
                f"outside its {attr.size} labels"
            )
    return None


class _RowWriter:
    """A chunk of codes as the UTF-8 bytes of its rows.

    With the native kernel, each attribute's quoted labels are encoded
    once into one blob, NumPy sums each chunk's label lengths into the
    exact output size, and the assembler joins the rows into that buffer.
    Without it, each chunk is gathered with one ``np.take`` per attribute
    and joined as a string.  Both raise :class:`IndexError` naming the
    attribute for a code outside its labels, before any of the chunk is
    written.
    """

    def __init__(
        self,
        attributes: Sequence[Attribute],
        delimiter: str,
        terminator: str,
        kernel: Optional[kernel_backend.NativeKernel],
    ) -> None:
        self._attributes = attributes
        self._quoted = quoted = _quoted_labels(attributes, delimiter)
        self._delimiter = delimiter
        self._terminator = terminator
        self._kernel = kernel
        if kernel is None:
            return
        encoded = [[field.encode() for field in fields] for fields in quoted]
        self._lengths = [
            np.array(list(map(len, fields)), np.int64) for fields in encoded
        ]
        self._counts = np.array(list(map(len, encoded)), np.int64)
        labels = list(itertools.chain.from_iterable(encoded))
        self._offsets = np.cumsum([0, *map(len, labels)], dtype=np.int64)
        self._blob = np.frombuffer(b"".join(labels), np.uint8)
        self._separators = [
            np.frombuffer(text.encode(), np.uint8)
            for text in (delimiter, terminator)
        ]

    def __call__(self, chunk: Mapping[str, np.ndarray]) -> bytes:
        codes = [chunk[attr.name] for attr in self._attributes]
        if self._kernel is None:
            error = _code_error(self._attributes, codes)
            if error is not None:
                raise error
            decoded = map(np.take, self._quoted, codes)
            rows = self._terminator.join(
                map(self._delimiter.join, zip(*decoded))
            )
            return (rows + self._terminator).encode() if rows else b""
        if not codes or not len(codes[0]):
            return b""
        block = np.ascontiguousarray(np.stack(codes), dtype=np.int64)
        delimiter, terminator = self._separators
        d, n = block.shape
        size = n * ((d - 1) * delimiter.size + terminator.size) + sum(
            int(lengths.take(column, mode="clip").sum())
            for lengths, column in zip(self._lengths, block)
        )
        out = np.empty(size, np.uint8)
        if not self._kernel.csv_assemble(
            block, self._counts, self._offsets, self._blob, delimiter,
            terminator, out,
        ):
            raise _code_error(self._attributes, block)
        return out


def write_csv(
    source: Union[Table, ChunkedSource, Iterable[Table]],
    path: PathLike,
    delimiter: str = ",",
) -> None:
    """Write decoded labels to a headed UTF-8 CSV file, chunk by chunk.

    ``source`` may be a resident :class:`~repro.data.Table`, any
    :class:`~repro.data.chunks.ChunkedSource`, or an iterator of chunk
    tables (the shape :func:`repro.core.sampler.sample_synthetic_chunks`
    yields) — the streaming release path holds one chunk of decoded labels
    at a time.  A chunked source's chunks are checked as they arrive, as
    counting checks them (:func:`~repro.data.chunks.as_chunks`): a chunk
    whose columns differ in length, or a pass that yields other than the
    ``n`` rows the source declares, raises ``ValueError`` naming the
    column or the counts.  ``csv.writer`` writes the header and quotes each
    attribute's labels once; each chunk's rows are then joined from those
    quoted labels (natively when the kernel is loaded) and written at
    once.  Output bytes are identical to writing every row with
    ``csv.writer``.

    The rows go to a new file beside ``path``, created with the mode a
    plain ``open(path, "wb")`` gives, which replaces ``path`` only once
    the whole stream is written: when a check or a write fails, the
    temporary file is removed and whatever was at ``path`` stays as it
    was.  Nothing is fsync'd; the replace is atomic, not crash-durable.
    """
    attributes, chunk_iter = _chunk_stream(source)
    header = io.StringIO()
    writer = csv.writer(header, delimiter=delimiter)
    writer.writerow([attr.name for attr in attributes])
    rows = _RowWriter(
        attributes,
        delimiter,
        writer.dialect.lineterminator,
        kernel_backend.NATIVE_KERNEL,
    )
    target = Path(path)
    temporary = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        handle = temporary.open("xb")
    except OSError as error:
        # Name the path the caller gave, not the temporary file.
        raise type(error)(error.errno, error.strerror, str(target)) from None
    try:
        with handle:
            handle.write(header.getvalue().encode())
            for chunk in chunk_iter:
                handle.write(rows(chunk))
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise

"""Property tests: the column-at-a-time CSV reader and writer against the
per-cell reference implementations in ``io_reference``.

Generated files mix the cases that make CSV reading subtle: labels holding
the delimiter, quotes, CR or LF, padded with spaces, empty or non-ASCII;
whitespace variants that strip to one label; single-valued columns;
numeric columns on both sides of ``CONTINUOUS_THRESHOLD``; blank lines;
three delimiters; and chunk sizes around the reader's batch size.  Headers
that repeat a name must fail the same way in every reader, and permuting a
file's rows must permute its codes and nothing else.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from io_reference import reference_read, reference_write
from repro.data.attribute import Attribute, AttributeKind
from repro.data.chunks import TableChunks
from repro.data.io import BATCH_ROWS, CONTINUOUS_THRESHOLD, CsvSource, read_csv, write_csv
from repro.data.table import Table

DELIMITERS = (",", "\t", ";")

TRICKY_TEXT = st.text(
    alphabet=st.sampled_from(
        [",", "\t", ";", '"', "\r", "\n", " ", "a", "b", "Z", "é", "日", "0", "1", ".", "-"]
    ),
    max_size=5,
)

NUMBER_TEXT = st.one_of(
    st.integers(-10_000, 10_000).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
)


def _padded(label: str, pad: int) -> str:
    return [label, f" {label}", f"{label} ", f"  {label}\t"][pad]


@st.composite
def column_pools(draw):
    """The distinct raw fields of one generated column."""
    kind = draw(st.sampled_from(["text", "whitespace", "single", "numeric"]))
    if kind == "text":
        return draw(st.lists(TRICKY_TEXT, min_size=1, max_size=6, unique=True))
    if kind == "whitespace":
        base = draw(st.sampled_from(["x", "yes", "1", "é"]))
        other = draw(st.lists(TRICKY_TEXT, max_size=2))
        return sorted({_padded(base, pad) for pad in range(4)} | set(other))
    if kind == "single":
        return [draw(TRICKY_TEXT)]
    size = draw(
        st.sampled_from([CONTINUOUS_THRESHOLD - 1, CONTINUOUS_THRESHOLD, CONTINUOUS_THRESHOLD + 1, 40])
    )
    numbers = draw(st.lists(NUMBER_TEXT, min_size=size, max_size=size, unique=True))
    pads = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    return [_padded(number, pad) for number, pad in zip(numbers, pads)]


def _codes(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """``n`` codes below ``size``, every one present when ``n`` allows."""
    codes = rng.integers(0, size, n)
    shown = min(size, n)
    codes[:shown] = np.arange(shown)
    return codes


def _chunk_rows(choice: int, n: int) -> int:
    return [1, 7, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, n + 5][choice]


@st.composite
def csv_files(draw, duplicate_header=False):
    """(file text, delimiter, row count, chunk rows) of a CSV file, valid
    unless ``duplicate_header`` repeats a name in its header."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    d = draw(st.integers(1, 4))
    header = draw(st.lists(TRICKY_TEXT, min_size=d, max_size=d, unique=True))
    if duplicate_header:
        header.insert(draw(st.integers(0, d)), draw(st.sampled_from(header)))
        d += 1
    pools = [draw(column_pools()) for _ in range(d)]
    if d == 1 and draw(st.booleans()):
        pools[0] = sorted(set(pools[0]) | {""})
    if draw(st.booleans()):
        n = draw(st.integers(BATCH_ROWS - 2, 2 * BATCH_ROWS + 2))
    else:
        n = draw(st.integers(1, 45))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [_codes(rng, len(pool), n) for pool in pools]
    blank_rate = draw(st.sampled_from([0.0, 0.05, 0.5]))
    blank = draw(st.sampled_from(["\r\n", "\n"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow(header)
    for i in range(n):
        buffer.write(blank * int(rng.random() < blank_rate))
        writer.writerow([pool[column[i]] for pool, column in zip(pools, columns)])
    buffer.write(blank * int(rng.random() < blank_rate))
    chunk_rows = _chunk_rows(draw(st.integers(0, 5)), n)
    return buffer.getvalue(), delimiter, n, chunk_rows


@settings(max_examples=80, deadline=None)
@given(csv_files())
def test_reader_matches_reference(case):
    text, delimiter, n, chunk_rows = case
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "data.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        attributes, expected = reference_read(path, chunk_rows, delimiter=delimiter)
        source = CsvSource(path, chunk_rows=chunk_rows, delimiter=delimiter)
        chunks = list(source.chunks())
        table = read_csv(path, delimiter=delimiter)
    assert source.attributes == attributes
    assert source.n == n
    assert len(chunks) == len(expected)
    for got, want in zip(chunks, expected):
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == np.int64
            np.testing.assert_array_equal(got[name], want[name])
    assert table.attributes == attributes
    for name in table.attribute_names:
        np.testing.assert_array_equal(
            table.column(name), np.concatenate([c[name] for c in expected])
        )


@settings(max_examples=40, deadline=None)
@given(csv_files(duplicate_header=True))
def test_duplicate_header_rejected_like_reference(case):
    text, delimiter, _, chunk_rows = case
    errors = []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "data.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        for read in (
            lambda: reference_read(path, chunk_rows, delimiter=delimiter),
            lambda: CsvSource(path, chunk_rows=chunk_rows, delimiter=delimiter),
            lambda: read_csv(path, delimiter=delimiter),
        ):
            with pytest.raises(ValueError) as caught:
                read()
            errors.append(str(caught.value))
    assert "has duplicate column names: " in errors[0]
    assert len(set(errors)) == 1, errors


@settings(max_examples=60, deadline=None)
@given(csv_files(), st.integers(0, 2**32 - 1))
def test_row_order_permutes_codes_only(case, seed):
    """Permuting the data rows keeps the attributes and permutes the codes
    the same way: the order fields first appear in never reaches them."""
    text, delimiter, n, _ = case
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    header = next(reader)
    body = [row for row in reader if row]
    assert len(body) == n
    order = np.random.default_rng(seed).permutation(n)
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow(header)
    writer.writerows(body[i] for i in order)
    with tempfile.TemporaryDirectory() as scratch:
        tables = []
        for name, content in (("rows", text), ("permuted", buffer.getvalue())):
            path = Path(scratch) / f"{name}.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                handle.write(content)
            tables.append(read_csv(path, delimiter=delimiter))
    original, permuted = tables
    assert permuted.attributes == original.attributes
    for name in original.attribute_names:
        np.testing.assert_array_equal(
            permuted.column(name), original.column(name)[order]
        )


LABELS = st.one_of(
    TRICKY_TEXT,
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    d = draw(st.integers(1, 4))
    names = draw(st.lists(TRICKY_TEXT, min_size=d, max_size=d, unique=True))
    attributes = []
    for name in names:
        labels = draw(st.lists(LABELS, min_size=1, max_size=6, unique=True))
        if d == 1 and draw(st.booleans()) and "" not in labels:
            labels.append("")
        attributes.append(Attribute(name, tuple(labels), AttributeKind.CATEGORICAL))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {attr.name: rng.integers(0, attr.size, n) for attr in attributes}
    return Table(attributes, columns)


@settings(max_examples=80, deadline=None)
@given(
    tables(),
    st.sampled_from(DELIMITERS),
    st.sampled_from([1, 7, BATCH_ROWS, 301]),
)
def test_writes_match_reference(table, delimiter, chunk_rows):
    def chunk_tables():
        for start in range(0, max(table.n, 1), chunk_rows):
            yield table.take(np.arange(start, min(start + chunk_rows, table.n)))

    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        columns = {name: table.column(name) for name in table.attribute_names}
        reference_write(table.attributes, columns, directory / "ref.csv", delimiter)
        expected = (directory / "ref.csv").read_bytes()
        sources = {
            "table": table,
            "table chunks": TableChunks(table, chunk_rows),
            "chunk tables": chunk_tables(),
        }
        for kind, source in sources.items():
            path = directory / f"{kind}.csv"
            write_csv(source, path, delimiter=delimiter)
            assert path.read_bytes() == expected, kind

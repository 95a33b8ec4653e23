"""Differential tests for the CSV parse loop on the inputs ``csv.writer``
never writes.

The property tests in ``test_io_properties`` build every file with
``csv.writer``, so no file of theirs holds text after a closing quote, a
quote inside an unquoted field, an unterminated quote at EOF, a lone CR
outside quotes or a NUL.  Here hypothesis draws short raw texts over
exactly those characters, and ``_CsvPass`` must give the rows
``csv.reader`` gives (blank rows dropped) or raise the same error, under
both backends: the native tokenizer with its byte block cut to 1, 2, 3, 7
and 64 bytes (so every record is cut at every offset, and the id block
holds a row or a few), and the ``csv.reader`` path in batches of one, two
or :data:`~repro.data.io.BATCH_ROWS` rows.
"""

import collections
import contextlib
import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.data.io
from repro.core import kernel_backend
from repro.data.io import CsvSource, _CsvPass, read_csv

ALPHABET = [",", ";", "\t", '"', "\r", "\n", " ", "a", "é", "\0"]

TEXTS = st.text(alphabet=st.sampled_from(ALPHABET), max_size=40)

#: BLOCK_BYTES for the native runs; None keeps the module's.
NATIVE_BLOCKS = [1, 2, 3, 7, 64, None]

#: BATCH_ROWS for the ``csv.reader`` runs.
READER_BATCHES = [1, 2, None]


def _read_with_csv_reader(path: Path, text: str, delimiter: str):
    """What a record-at-a-time ``csv.reader`` read of ``text`` gives:
    ``("rows", header, rows)`` or ``("error", type, message)``."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        header = next(reader, None)
        if header is None:
            return "error", ValueError, f"{path} is empty"
        repeated = [n for n, c in collections.Counter(header).items() if c > 1]
        if repeated:
            return "error", ValueError, (
                f"{path} has duplicate column names: "
                + ", ".join(map(repr, repeated))
            )
        rows = []
        first_line = reader.line_num + 1
        for row in reader:
            if row and len(row) != len(header):
                lines = (
                    f"line {first_line}"
                    if reader.line_num == first_line
                    else f"lines {first_line}-{reader.line_num}"
                )
                return "error", ValueError, (
                    f"{path}: the row on {lines} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            if row:
                rows.append(row)
            first_line = reader.line_num + 1
    except csv.Error as error:
        return "error", csv.Error, str(error)
    if not rows:
        return "error", ValueError, f"{path} has a header but no data rows"
    return "rows", header, rows


def _read_with_pass(path: Path, delimiter: str):
    """The same through ``_CsvPass``, each row rebuilt from its ids."""
    try:
        with _CsvPass(path, delimiter) as parse:
            rows = []
            for count, ids in parse.blocks():
                assert ids.shape == (len(parse.header), count)
                assert ids.dtype == np.int32
                rows.extend(
                    [parse.fields[j][i] for j, i in enumerate(record)]
                    for record in ids.T.tolist()
                )
            assert parse.n == len(rows)
    except (ValueError, csv.Error) as error:
        return "error", type(error), str(error)
    return "rows", parse.header, rows


@contextlib.contextmanager
def _backend(kernel, **constants):
    """``repro.data.io`` with the given kernel and module constants."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(kernel_backend, "NATIVE_KERNEL", kernel)
        )
        for name, value in constants.items():
            if value is not None:
                stack.enter_context(mock.patch.object(repro.data.io, name, value))
        yield


def _runs():
    """(label, context) for every backend and cut this environment has."""
    runs = [
        (f"csv.reader, BATCH_ROWS={rows}", _backend(None, BATCH_ROWS=rows))
        for rows in READER_BATCHES
    ]
    kernel = kernel_backend.NATIVE_KERNEL
    if kernel is not None:
        runs += [
            (f"native, BLOCK_BYTES={size}", _backend(kernel, BLOCK_BYTES=size))
            for size in NATIVE_BLOCKS
        ]
    return runs


@contextlib.contextmanager
def _field_limit(limit):
    saved = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        yield
    finally:
        csv.field_size_limit(saved)


@settings(max_examples=300, deadline=None)
@given(
    TEXTS,
    st.sampled_from([",", ";", "\t", " "]),
    st.sampled_from([None, None, None, 1, 3]),
)
def test_pass_reads_what_csv_reader_reads(text, delimiter, limit):
    with tempfile.TemporaryDirectory() as directory, _field_limit(limit):
        path = Path(directory) / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _read_with_csv_reader(path, text, delimiter)
        for label, backend in _runs():
            with backend:
                assert _read_with_pass(path, delimiter) == expected, label


@pytest.mark.parametrize(
    "field, points",
    [
        ("éaaaaaaa", 8),
        ('"éaaaaaaa"', 8),
        ('"éaa""aaaa"', 8),
        ('"éa"aaaaaa', 8),
        ('"éaaaaaaa', 8),
        ("éaaaaaaaa", 9),
        ('"éaaaaaaaa"', 9),
        ('"éaa""aaaaa"', 9),
        ('"éa"aaaaaaa', 9),
        ('"éaaaaaaaa', 9),
    ],
)
def test_field_limit_counts_code_points(tmp_path, backend, field, points):
    """The limit counts code points, not bytes, on every path: under a
    limit of 8 a field of 8 code points (9 bytes, one of them é) passes
    and one of 9 fails, unquoted, quoted, with a doubled quote, with text
    after the closing quote, or with the quote left open at EOF."""
    path = tmp_path / "limit.csv"
    path.write_bytes(f"x\n{field}".encode("utf-8"))
    saved = csv.field_size_limit(8)
    try:
        if points <= 8:
            assert read_csv(path).attribute("x").size == 2
        else:
            with pytest.raises(csv.Error) as caught:
                read_csv(path)
            assert str(caught.value) == "field larger than field limit (8)"
    finally:
        csv.field_size_limit(saved)


def test_buffers_grow_to_the_input(tmp_path, backend):
    """Thousands of distinct fields outgrow the tokenizer's first slots,
    entries and arena, and a long quoted field with doubled quotes
    outgrows its arena while the slow path builds it; the table is the
    same under both backends."""
    rng = np.random.default_rng(7)
    long_field = '"' + 'ab""' * 6000 + '"'
    lines = ["key,long,small"]
    lines += [
        f"k{value},{long_field if i % 500 == 0 else 'x'},{value % 3}"
        for i, value in enumerate(rng.integers(0, 4000, 3000))
    ]
    path = tmp_path / "wide.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    table = read_csv(path)
    with _backend(None):
        expected = read_csv(path)
    assert table.attributes == expected.attributes
    for name in table.attribute_names:
        np.testing.assert_array_equal(table.column(name), expected.column(name))


@pytest.mark.parametrize("size", [7, 64, 4096])
def test_small_blocks_give_the_same_tables(tmp_path, size):
    """Cut into tiny byte and id blocks, ``read_csv`` and both
    ``CsvSource`` passes give the tables they give in whole blocks."""
    if kernel_backend.NATIVE_KERNEL is None:
        pytest.skip("the native kernel is not loaded")
    from repro.data.io import write_csv
    from repro.datasets import load_adult

    path = tmp_path / "adult.csv"
    write_csv(load_adult(n=400, seed=3), path)
    expected = read_csv(path)
    with _backend(kernel_backend.NATIVE_KERNEL, BLOCK_BYTES=size):
        table = read_csv(path)
        source = CsvSource(path, chunk_rows=37)
        chunks = list(source.chunks())
    assert table.attributes == source.attributes == expected.attributes
    assert [len(c[expected.attribute_names[0]]) for c in chunks] == [37] * 10 + [30]
    for name in expected.attribute_names:
        np.testing.assert_array_equal(table.column(name), expected.column(name))
        np.testing.assert_array_equal(
            np.concatenate([c[name] for c in chunks]), expected.column(name)
        )

"""CSV import/export: schema inference, round trips, validation."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.data.io
from io_reference import reference_read, reference_write
from repro.data.attribute import Attribute, AttributeKind
from repro.data.io import BATCH_ROWS, CsvSource, read_csv, write_csv
from repro.data.table import Table
from repro.datasets import load_adult


def _read_column(tmp_path, values):
    """``read_csv`` of a one-column file ``x`` holding ``values``."""
    path = tmp_path / "column.csv"
    path.write_text("".join(f"{line}\n" for line in ["x", *values]))
    table = read_csv(path)
    return table.attribute("x"), table.column("x")


class TestSchemaInference:
    def test_binary_inference(self, tmp_path):
        attr, codes = _read_column(tmp_path, ["yes", "no", "yes", "yes"])
        assert attr.kind is AttributeKind.BINARY
        assert attr.size == 2
        assert codes.tolist() == [1, 0, 1, 1]  # sorted: no, yes

    def test_single_value_column_padded_to_binary(self, tmp_path):
        attr, codes = _read_column(tmp_path, ["only", "only"])
        assert attr.size == 2
        assert attr.values == ("only", "__other_only")
        assert codes.tolist() == [0, 0]

    def test_categorical_inference(self, tmp_path):
        attr, codes = _read_column(tmp_path, ["r", "g", "b", "r"])
        assert attr.kind is AttributeKind.CATEGORICAL
        assert attr.size == 3

    def test_continuous_inference(self, tmp_path):
        values = [str(v) for v in np.linspace(0, 100, 60)]
        attr, codes = _read_column(tmp_path, values)
        assert attr.kind is AttributeKind.CONTINUOUS
        assert attr.size == 16  # default bins

    def test_numeric_with_few_values_stays_categorical(self, tmp_path):
        attr, _ = _read_column(tmp_path, ["1", "2", "3", "1"])
        assert attr.kind is AttributeKind.CATEGORICAL

    def test_empty_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            _read_column(tmp_path, [])


class TestRoundTrip:
    def test_write_read_identity_for_discrete(self, tmp_path, mixed_table):
        path = tmp_path / "t.csv"
        write_csv(mixed_table, path)
        loaded = read_csv(path)
        assert loaded.n == mixed_table.n
        assert loaded.attribute_names == mixed_table.attribute_names
        # Discrete labels round-trip exactly (codes may be permuted since
        # inference sorts labels; compare decoded labels instead).
        for name in mixed_table.attribute_names:
            original = mixed_table.attribute(name).decode(
                mixed_table.column(name)
            )
            reloaded = loaded.attribute(name).decode(loaded.column(name))
            assert original == reloaded

    def test_adult_roundtrip_preserves_shape(self, tmp_path):
        table = load_adult(n=300, seed=0)
        path = tmp_path / "adult.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.n == 300
        assert loaded.d == 15

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data"):
            read_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="fields"):
            read_csv(path)

    @pytest.mark.parametrize(
        "text, where, fields",
        [
            ("a,b\n\n\n1,2\n2\n", "line 5", 1),
            ("a,b\n\n\n1,2\n1,2,3\n", "line 5", 3),
            ('a,b\n\n\n"x\ny",1\n2\n', "line 6", 1),
            ('a,b\n\n\n"x\ny",1\n1,2,3\n', "line 6", 3),
            ('a,b\n1,2\n"x\ny"\n', "lines 3-4", 1),
            ('a,b\n1,2\n"x\ny",1,2\n', "lines 3-4", 3),
            ("a,b\n" + "1,2\n\n" * BATCH_ROWS + "2\n", f"line {2 * BATCH_ROWS + 2}", 1),
        ],
    )
    def test_ragged_row_names_its_file_line(self, tmp_path, text, where, fields):
        """Blank lines and multi-line quoted records count toward the line
        number, and a row past the first batch is found too."""
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(
            ValueError, match=f"row on {where} has {fields} fields, expected 2"
        ):
            read_csv(path)

    def test_custom_delimiter(self, tmp_path, mixed_table):
        path = tmp_path / "t.tsv"
        write_csv(mixed_table, path, delimiter="\t")
        loaded = read_csv(path, delimiter="\t")
        assert loaded.d == mixed_table.d


def _readers(path):
    """Each reader of ``path``, as a call that reads the whole file."""
    return {
        "read_csv": lambda: read_csv(path),
        "CsvSource": lambda: list(CsvSource(path).chunks()),
        "reference": lambda: reference_read(path, 100),
    }


class TestRejectedInput:
    """Both readers and the reference oracle reject the same files with
    the same error."""

    @pytest.mark.parametrize(
        "text, names",
        [
            ("a,a\n1,2\n", "'a'"),
            ("a,b,a\n1,2,3\n3\n", "'a'"),
            ("b,a,b,a,c\n1,2,3,4,5\n", "'b', 'a'"),
            (",\n1,2\n", "''"),
        ],
    )
    def test_duplicate_header_names(self, tmp_path, text, names):
        """A repeated name would make one column stand in for another, so
        the header fails before any body row is read: the ragged row in
        the second case is never reached."""
        path = tmp_path / "dup.csv"
        path.write_text(text)
        message = f"{path} has duplicate column names: {names}"
        for kind, read in _readers(path).items():
            with pytest.raises(ValueError) as caught:
                read()
            assert str(caught.value) == message, kind

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e400", " NaN "])
    def test_non_finite_number_in_binned_column(self, tmp_path, field):
        """A column binned over its min and max has no bin for nan or an
        infinity: the error names the column and the field."""
        path = tmp_path / "x.csv"
        path.write_text("x\n" + "".join(f"{v}\n" for v in range(30)) + f"{field}\n")
        message = (
            f"column 'x' is binned but holds the non-finite number "
            f"{field.strip()!r}"
        )
        for kind, read in _readers(path).items():
            with pytest.raises(ValueError) as caught:
                read()
            assert str(caught.value) == message, kind

    def test_nan_in_few_distinct_values_stays_categorical(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("x\n1\nnan\n2\n1\n")
        table = read_csv(path)
        assert table.attribute("x") == Attribute(
            "x", ("1", "2", "nan"), AttributeKind.CATEGORICAL
        )
        assert table.column("x").tolist() == [0, 2, 1, 0]


def test_read_csv_parses_the_file_once(tmp_path, monkeypatch, backend):
    """The resident read makes one pass and builds no CsvSource: one
    native tokenizer pass and no csv.reader under the native backend, one
    csv.reader under NumPy."""
    path = tmp_path / "adult.csv"
    write_csv(load_adult(n=300, seed=0), path)
    expected = read_csv(path)
    readers, tokenizers, sources = [], [], []
    csv_reader = csv.reader
    tokens_init = repro.data.io._NativeTokens.__init__
    source_init = CsvSource.__init__

    def reader(*args, **kwargs):
        readers.append(args)
        return csv_reader(*args, **kwargs)

    def tokens(self, *args, **kwargs):
        tokenizers.append(args)
        tokens_init(self, *args, **kwargs)

    def init(self, *args, **kwargs):
        sources.append(args)
        source_init(self, *args, **kwargs)

    monkeypatch.setattr(csv, "reader", reader)
    monkeypatch.setattr(repro.data.io._NativeTokens, "__init__", tokens)
    monkeypatch.setattr(repro.data.io.CsvSource, "__init__", init)
    table = read_csv(path)
    if backend == "native":
        assert (len(tokenizers), len(readers)) == (1, 0)
    else:
        assert (len(tokenizers), len(readers)) == (0, 1)
    assert sources == []
    assert table.attributes == expected.attributes
    for name in table.attribute_names:
        np.testing.assert_array_equal(table.column(name), expected.column(name))


class TestCsvSource:
    """The streaming reader must match read_csv for every chunk size."""

    @pytest.mark.parametrize("chunk_rows", [1, 7, 299, 300, 313])
    def test_matches_read_csv_on_adult(self, tmp_path, chunk_rows):
        """Adult has binary, categorical AND continuous columns — the
        two-pass schema inference must agree with the resident path on
        all three, codes included."""
        table = load_adult(n=300, seed=0)
        path = tmp_path / "adult.csv"
        write_csv(table, path)
        resident = read_csv(path)
        source = CsvSource(path, chunk_rows=chunk_rows)
        assert source.n == resident.n
        assert source.attributes == resident.attributes
        streamed = Table.from_chunks(source.attributes, source.chunks())
        for name in resident.attribute_names:
            np.testing.assert_array_equal(
                streamed.column(name), resident.column(name)
            )

    def test_source_is_reiterable(self, tmp_path, mixed_table):
        path = tmp_path / "t.csv"
        write_csv(mixed_table, path)
        source = CsvSource(path, chunk_rows=400)
        first = [
            {k: v.copy() for k, v in chunk.items()}
            for chunk in source.chunks()
        ]
        second = list(source.chunks())
        assert len(first) == len(second)
        for a, b in zip(first, second):
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])

    def test_file_drift_detected(self, tmp_path, mixed_table):
        path = tmp_path / "t.csv"
        write_csv(mixed_table, path)
        source = CsvSource(path, chunk_rows=100)
        with path.open("a", newline="") as handle:
            handle.write("red,0,S\n")
        with pytest.raises(ValueError, match="changed between"):
            list(source.chunks())

    def test_same_length_rewrite_detected(self, tmp_path):
        """A same-size edit under a new mtime fails every later pass;
        read as is, c's codes [1, 0, 1] would become [0, 1, 0]."""
        path = tmp_path / "t.csv"
        path.write_text("c,d\nred,0\nblu,1\nred,1\n")
        source = CsvSource(path)
        (chunk,) = source.chunks()
        assert chunk["c"].tolist() == [1, 0, 1]
        status = path.stat()
        path.write_text("c,d\nblu,0\nred,1\nblu,1\n")
        os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 10**9))
        with pytest.raises(ValueError, match="changed between"):
            list(source.chunks())

    @pytest.mark.parametrize(
        "kind, before, after",
        [
            (AttributeKind.CATEGORICAL, "c\nred\nblu\ngrn\n", "c\nred\nblu\nyel\n"),
            (
                AttributeKind.CONTINUOUS,
                "x\n" + "".join(f"{v}\n" for v in range(10, 40)),
                "x\n" + "".join(f"{v}\n" for v in range(10, 39)) + "99\n",
            ),
        ],
    )
    def test_unseen_raw_value_detected(self, tmp_path, kind, before, after):
        """An edit the stat pin cannot see (same size, mtime restored)
        still fails on a raw field pass 1 never saw, with the same error
        for a categorical field (not "not in domain") and a continuous one
        (not a silent clip into the top bin)."""
        path = tmp_path / "t.csv"
        path.write_text(before)
        source = CsvSource(path)
        assert source.attributes[0].kind is kind
        status = path.stat()
        path.write_text(after)
        os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
        with pytest.raises(ValueError, match="changed between"):
            list(source.chunks())

    def test_renamed_header_detected(self, tmp_path):
        """A same-size header edit the stat pin cannot see fails too, so
        pass 2 never yields codes under another column's name."""
        path = tmp_path / "t.csv"
        path.write_text("c,d\nred,0\nblu,1\n")
        source = CsvSource(path)
        status = path.stat()
        path.write_text("c,e\nred,0\nblu,1\n")
        os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
        with pytest.raises(ValueError, match="changed between"):
            list(source.chunks())

    def test_invalid_chunk_rows(self, tmp_path, mixed_table):
        path = tmp_path / "t.csv"
        write_csv(mixed_table, path)
        with pytest.raises(ValueError, match="chunk_rows"):
            CsvSource(path, chunk_rows=0)

    def test_fit_on_csv_source_matches_resident(self, tmp_path, binary_table):
        """End to end: fitting on the streaming reader equals fitting on
        the resident load of the same file."""
        from repro.core.privbayes import PrivBayes

        path = tmp_path / "b.csv"
        write_csv(binary_table, path)
        resident = read_csv(path)
        source = CsvSource(path, chunk_rows=170)
        config = dict(epsilon=1.0, k=1, mode="binary")
        model_a = PrivBayes(**config).fit(resident, np.random.default_rng(21))
        model_b = PrivBayes(**config).fit(source, np.random.default_rng(21))
        assert list(model_a.network) == list(model_b.network)
        for a, b in zip(
            model_a.noisy.conditionals, model_b.noisy.conditionals
        ):
            np.testing.assert_array_equal(a.matrix, b.matrix)


class TestSingleValuePlaceholder:
    def test_other_placeholder_roundtrip(self, tmp_path):
        """Pins the documented ``__other_<label>`` behavior: a constant
        column is padded to binary, the placeholder never appears in the
        encoded input, and a written release round-trips the labels."""
        path = tmp_path / "const.csv"
        path.write_text("flag,val\nyes,only\nno,only\nyes,only\n")
        table = read_csv(path)
        val = table.attribute("val")
        assert val.size == 2
        assert val.values == ("only", "__other_only")
        assert table.column("val").tolist() == [0, 0, 0]
        out = tmp_path / "roundtrip.csv"
        write_csv(table, out)
        reloaded = read_csv(out)
        # The placeholder label itself round-trips: writing decodes code 0
        # back to "only", and rereading re-pads to the same domain.
        assert reloaded.attribute("val").values == ("only", "__other_only")
        assert reloaded.column("val").tolist() == [0, 0, 0]


class TestVectorizedWrite:
    def test_write_matches_per_cell_reference(self, tmp_path, mixed_table):
        """The np.take-per-attribute writer must produce byte-identical
        output to the naive per-row, per-cell decode loop."""
        fast_path = tmp_path / "fast.csv"
        write_csv(mixed_table, fast_path)
        naive_path = tmp_path / "naive.csv"
        columns = {
            name: mixed_table.column(name)
            for name in mixed_table.attribute_names
        }
        reference_write(mixed_table.attributes, columns, naive_path)
        assert fast_path.read_bytes() == naive_path.read_bytes()
        # Published through a temporary file, with a plain open's mode.
        assert fast_path.stat().st_mode == naive_path.stat().st_mode

    def test_single_column_empty_label(self, tmp_path):
        """csv.writer writes a one-field row holding "" as ``""`` so it is
        not a blank line; the pre-quoted writer must too, and it reads
        back."""
        attr = Attribute("only", ("", "x"), AttributeKind.BINARY)
        table = Table([attr], {"only": np.array([0, 1, 0])})
        path = tmp_path / "one.csv"
        write_csv(table, path)
        assert path.read_bytes() == b'only\r\n""\r\nx\r\n""\r\n'
        loaded = read_csv(path)
        assert loaded.attributes == (attr,)
        assert loaded.column("only").tolist() == [0, 1, 0]

    def test_write_from_chunk_iterator_matches_resident(
        self, tmp_path, mixed_table
    ):
        """Streaming a table out as chunk tables writes the same bytes as
        writing it resident."""
        resident_path = tmp_path / "resident.csv"
        write_csv(mixed_table, resident_path)

        def chunk_tables():
            for start in range(0, mixed_table.n, 217):
                yield mixed_table.take(
                    np.arange(start, min(start + 217, mixed_table.n))
                )

        streamed_path = tmp_path / "streamed.csv"
        write_csv(chunk_tables(), streamed_path)
        assert streamed_path.read_bytes() == resident_path.read_bytes()

    def test_write_into_a_missing_directory_names_the_target(
        self, tmp_path, mixed_table
    ):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as raised:
            write_csv(mixed_table, target)
        assert raised.value.filename == str(target)

    def test_write_from_chunked_source(self, tmp_path, mixed_table):
        from repro.data.chunks import TableChunks

        source_path = tmp_path / "source.csv"
        write_csv(TableChunks(mixed_table, 123), source_path)
        resident_path = tmp_path / "resident.csv"
        write_csv(mixed_table, resident_path)
        assert source_path.read_bytes() == resident_path.read_bytes()

    def test_empty_chunk_stream_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty chunk stream"):
            write_csv(iter(()), tmp_path / "nope.csv")


#: Reads the UTF-8 file argv[1], writes a table holding its labels to
#: argv[2], reads that back, and reads the invalid file argv[3]; prints
#: the results as ASCII JSON.
_ENCODING_SCRIPT = """
import json, sys
from repro.data.io import read_csv, write_csv
table = read_csv(sys.argv[1])
write_csv(table, sys.argv[2])
again = read_csv(sys.argv[2])
try:
    read_csv(sys.argv[3])
    error = None
except ValueError as caught:
    error = str(caught)
print(json.dumps({
    "attributes": [[a.name, list(a.values)] for a in table.attributes],
    "codes": [table.column(n).tolist() for n in table.attribute_names],
    "same": again.attributes == table.attributes and all(
        again.column(n).tolist() == table.column(n).tolist()
        for n in table.attribute_names
    ),
    "error": error,
}))
"""


class TestEncoding:
    """Files are UTF-8 whatever the locale, under both backends."""

    TEXT = "city,n\r\nSão Paulo,1\r\nZürich,2\r\nSão Paulo,3\r\n"

    def test_ascii_locale_reads_and_writes_utf8(self, tmp_path, backend):
        """Under ``PYTHONUTF8=0 LC_ALL=C`` the locale's encoding is ASCII:
        reading gives the attributes an in-process read gives, writing a
        table with a ``São Paulo`` label gives the same bytes, those bytes
        read back to the same table, and a byte that is not UTF-8 raises
        the error naming the file and the offset."""
        source = tmp_path / "cities.csv"
        source.write_bytes(self.TEXT.encode("utf-8"))
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,x\xffy\n")
        table = read_csv(source)
        assert table.attribute("city").values == ("São Paulo", "Zürich")
        expected = tmp_path / "expected.csv"
        write_csv(table, expected)
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))
        }
        env.update(
            PYTHONUTF8="0",
            LC_ALL="C",
            PYTHONPATH=str(Path(repro.data.io.__file__).parents[2]),
            REPRO_KERNEL_BACKEND=backend,
        )
        written = tmp_path / "written.csv"
        result = subprocess.run(
            [sys.executable, "-c", _ENCODING_SCRIPT, source, written, bad],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        got = json.loads(result.stdout)
        assert got["attributes"] == [
            [attr.name, list(attr.values)] for attr in table.attributes
        ]
        assert got["codes"] == [
            table.column(name).tolist() for name in table.attribute_names
        ]
        assert written.read_bytes() == expected.read_bytes()
        assert got["same"]
        assert got["error"] == f"{bad}: byte 0xff at offset 7 is not valid UTF-8"

    @pytest.mark.parametrize(
        "data, offset, byte",
        [
            (b"a,b\n1,x\xffy\n", 7, 0xFF),
            (b"a,\xc3\n1,2\n", 2, 0xC3),
            (b'a,b\n"1\xed\xa0\x80",2\n', 6, 0xED),
            (b"a,b\n" + b"1,2\n" * 90000 + b"1,\xe2\x82", 360006, 0xE2),
        ],
        ids=["stray", "truncated", "surrogate", "truncated-at-eof"],
    )
    def test_invalid_utf8_names_the_file_and_offset(
        self, tmp_path, backend, data, offset, byte
    ):
        """A stray byte, a truncated sequence, an encoded surrogate, and a
        truncated sequence at the end of a file of several blocks."""
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        message = f"{path}: byte 0x{byte:02x} at offset {offset} is not valid UTF-8"
        for read in (lambda: read_csv(path), lambda: CsvSource(path)):
            with pytest.raises(ValueError) as caught:
                read()
            assert str(caught.value) == message

    def test_bom_stays_in_the_first_name(self, tmp_path, backend):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\r\n1,2\r\n")
        assert read_csv(path).attribute_names == ("\ufeffa", "b")

    def test_out_of_range_code_names_the_attribute(self, tmp_path, backend):
        """A chunk code outside its attribute's labels fails, naming the
        attribute: above the labels, as np.take fails, and below them,
        which np.take would wrap.  Nothing is published at the path."""
        attrs = [Attribute("x", ("p", "q")), Attribute("y", ("r", "s", "t"))]
        for bad in (3, -1):
            chunk = Table.from_trusted_columns(
                attrs, {"x": np.array([0, 1]), "y": np.array([2, bad])}
            )
            path = tmp_path / "out.csv"
            message = f"attribute 'y' has code {bad}, outside its 3 labels"
            with pytest.raises(IndexError, match=message):
                write_csv(iter([chunk]), path)
            assert list(tmp_path.iterdir()) == []


"""Reference CSV reader and writer for the ``repro.data.io`` tests.

These are the per-cell implementations the column-at-a-time data plane
replaced, kept as test oracles: the reader strips, collects and encodes
every field on its own, and the writer formats every row with
``csv.writer.writerow``.  Slow and plainly correct; never used by the
library.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.data.attribute import (
    Attribute,
    AttributeKind,
    DEFAULT_BINS,
    continuous_attribute,
    encode_continuous,
)
from repro.data.io import CONTINUOUS_THRESHOLD


def _is_numeric(values: List[str]) -> bool:
    try:
        for v in values:
            float(v)
        return True
    except ValueError:
        return False


class ColumnSchema:
    """One column's schema, accumulated one stripped field at a time."""

    def __init__(self, name: str, bins: int, continuous_threshold: int) -> None:
        self.name = name
        self.bins = bins
        self.continuous_threshold = continuous_threshold
        self._distinct: set = set()

    def add(self, value: str) -> None:
        self._distinct.add(value)

    def finalize(self) -> Tuple[Attribute, Callable[[Sequence[str]], np.ndarray]]:
        """The inferred attribute and an encoder for (chunks of) values."""
        distinct = sorted(self._distinct)
        if len(distinct) < 1:
            raise ValueError(f"column {self.name!r} is empty")
        if len(distinct) <= 2:
            if len(distinct) == 1:
                distinct = distinct + [f"__other_{distinct[0]}"]
            attr = Attribute(self.name, tuple(distinct), AttributeKind.BINARY)
            return attr, attr.encode
        if _is_numeric(distinct) and len(distinct) > self.continuous_threshold:
            floats = [float(v) for v in distinct]
            for value, number in zip(distinct, floats):
                if math.isnan(number) or math.isinf(number):
                    raise ValueError(
                        f"column {self.name!r} is binned but holds the "
                        f"non-finite number {value!r}"
                    )
            attr, edges = continuous_attribute(
                self.name, min(floats), max(floats), bins=self.bins
            )

            def encode(values: Sequence[str]) -> np.ndarray:
                return encode_continuous(
                    edges, np.array([float(v) for v in values])
                )

            return attr, encode
        attr = Attribute(self.name, tuple(distinct), AttributeKind.CATEGORICAL)
        return attr, attr.encode


def reference_read(
    path: Path,
    chunk_rows: int,
    bins: int = DEFAULT_BINS,
    continuous_threshold: int = CONTINUOUS_THRESHOLD,
    delimiter: str = ",",
) -> Tuple[Tuple[Attribute, ...], List[Dict[str, np.ndarray]]]:
    """The attributes and the ``chunk_rows``-row code chunks of a CSV file.

    The first row is the header.  Skips blank rows after it and strips
    every field; rejects an empty file, a header that repeats a name, a
    header without rows and a row of the wrong width.
    """
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        repeated = [
            name
            for i, name in enumerate(header)
            if name not in header[:i] and name in header[i + 1:]
        ]
        if repeated:
            raise ValueError(
                f"{path} has duplicate column names: "
                + ", ".join(repr(name) for name in repeated)
            )
        body = [row for row in reader if row]
    if not body:
        raise ValueError(f"{path} has a header but no data rows")
    schemas = [ColumnSchema(name, bins, continuous_threshold) for name in header]
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: a row has {len(row)} fields")
        for schema, field in zip(schemas, row):
            schema.add(field.strip())
    finalized = [schema.finalize() for schema in schemas]
    chunks = []
    for start in range(0, len(body), chunk_rows):
        block = body[start:start + chunk_rows]
        chunks.append({
            attr.name: encode([row[j].strip() for row in block])
            for j, (attr, encode) in enumerate(finalized)
        })
    return tuple(attr for attr, _ in finalized), chunks


def reference_write(
    attributes: Sequence[Attribute],
    columns: Mapping[str, np.ndarray],
    path: Path,
    delimiter: str = ",",
) -> None:
    """Write the header and every row with ``csv.writer.writerow``."""
    n = len(columns[attributes[0].name]) if attributes else 0
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([attr.name for attr in attributes])
        for i in range(n):
            writer.writerow(
                [attr.values[int(columns[attr.name][i])] for attr in attributes]
            )

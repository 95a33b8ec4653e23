"""Integer-coded column-store table.

A :class:`Table` is the dataset abstraction used throughout the library:
an ordered list of :class:`~repro.data.Attribute` descriptors and one
``int64`` numpy column per attribute.  Tables are immutable by convention
(methods return new tables); columns are never mutated in place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.attribute import Attribute


class Table:
    """A dataset: attributes plus integer-coded columns.

    Parameters
    ----------
    attributes:
        Ordered schema.  Names must be unique.
    columns:
        Mapping from attribute name to an ``int64`` array of codes in
        ``[0, attr.size)``.  All columns must have equal length.
    """

    def __init__(
        self,
        attributes: Sequence[Attribute],
        columns: Mapping[str, np.ndarray],
    ) -> None:
        self._init(attributes, columns, validate_codes=True)

    @classmethod
    def from_trusted_columns(
        cls,
        attributes: Sequence[Attribute],
        columns: Mapping[str, np.ndarray],
    ) -> "Table":
        """Construct from columns whose codes are in-range by construction.

        Library-internal producers — e.g. ancestral sampling, which draws
        every code by inverting a conditional with exactly ``attr.size``
        columns — cannot emit out-of-range codes, so this path skips the
        validating constructor's O(n·d) per-column ``min``/``max`` scans
        (a real cost when sampling repeatedly from one model).  Schema
        consistency (names, lengths, dtype) is still enforced.  External
        or hand-built data must go through the normal constructor.
        """
        table = cls.__new__(cls)
        table._init(attributes, columns, validate_codes=False)
        return table

    def _init(
        self,
        attributes: Sequence[Attribute],
        columns: Mapping[str, np.ndarray],
        validate_codes: bool,
    ) -> None:
        """Shared constructor body; ``validate_codes`` gates the range scan."""
        self._attributes: Tuple[Attribute, ...] = tuple(attributes)
        names = [a.name for a in self._attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")
        if set(columns) != set(names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema {sorted(names)}"
            )
        self._columns: Dict[str, np.ndarray] = {}
        n = None
        for attr in self._attributes:
            col = np.asarray(columns[attr.name], dtype=np.int64)
            if col.ndim != 1:
                raise ValueError(f"column {attr.name!r} must be 1-dimensional")
            if n is None:
                n = col.shape[0]
            elif col.shape[0] != n:
                raise ValueError("columns have differing lengths")
            if validate_codes and col.size and (
                col.min() < 0 or col.max() >= attr.size
            ):
                raise ValueError(
                    f"column {attr.name!r} has codes outside [0, {attr.size})"
                )
            self._columns[attr.name] = col
        self._n = 0 if n is None else int(n)
        self._by_name: Dict[str, Attribute] = {a.name: a for a in self._attributes}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tuples."""
        return self._n

    @property
    def d(self) -> int:
        """Number of attributes."""
        return len(self._attributes)

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no attribute named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        """The integer-coded column for ``name`` (do not mutate)."""
        if name not in self._columns:
            raise KeyError(f"no attribute named {name!r}")
        return self._columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(n={self._n}, d={self.d}, attrs={list(self.attribute_names)})"

    @property
    def domain_size(self) -> int:
        """Product of attribute cardinalities (the ``m`` of Section 1)."""
        size = 1
        for attr in self._attributes:
            size *= attr.size
        return size

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Table":
        """Keep only the named attributes, in the given order.

        Invariant: the selected columns passed this table's validating
        constructor already and are never mutated, so re-running the
        O(n·d) per-column min/max scans would prove nothing — route
        through the trusted constructor.
        """
        attrs = [self.attribute(name) for name in names]
        cols = {name: self._columns[name] for name in names}
        return Table.from_trusted_columns(attrs, cols)

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset/reorder by integer indices.

        Invariant: every selected code comes out of this table's already-
        validated columns (out-of-range *indices* still raise IndexError
        from numpy), so the derived columns are in-range by construction
        and skip the validating constructor's range scans.
        """
        indices = np.asarray(indices)
        cols = {name: col[indices] for name, col in self._columns.items()}
        return Table.from_trusted_columns(self._attributes, cols)

    def head(self, k: int) -> "Table":
        return self.take(np.arange(min(k, self._n)))

    def split(self, fraction: float, rng: np.random.Generator) -> Tuple["Table", "Table"]:
        """Random split into (first, second) with ``fraction`` of rows first.

        Used for the 80/20 train/test protocol of Section 6.1.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        perm = rng.permutation(self._n)
        cut = int(round(self._n * fraction))
        return self.take(perm[:cut]), self.take(perm[cut:])

    def drop(self, names: Iterable[str]) -> "Table":
        drop_set = set(names)
        keep = [a.name for a in self._attributes if a.name not in drop_set]
        return self.project(keep)

    def records(self) -> np.ndarray:
        """All rows as an ``(n, d)`` code matrix, in schema order."""
        if self.d == 0:
            return np.empty((self._n, 0), dtype=np.int64)
        return np.stack([self._columns[a.name] for a in self._attributes], axis=1)

    def decoded_records(self, limit: Optional[int] = None) -> List[Tuple]:
        """Rows as tuples of labels (for display / export).

        Decoding is one ``np.take`` gather per attribute over an object
        array of its labels (instead of a Python-level lookup per cell);
        the resulting tuples are the exact label objects the per-cell
        path produced.
        """
        count = self._n if limit is None else min(limit, self._n)
        if self.d == 0:
            return [() for _ in range(count)]
        decoded = [
            np.asarray(attr.values, dtype=object).take(
                self._columns[attr.name][:count]
            )
            for attr in self._attributes
        ]
        return list(zip(*decoded))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_chunks(
        attributes: Sequence[Attribute],
        chunks: "Iterable[Mapping[str, np.ndarray]]",
    ) -> "Table":
        """Concatenate a chunk stream into a resident table.

        ``chunks`` yields ``{name: int64 code array}`` mappings (the
        :class:`~repro.data.chunks.ChunkedSource` chunk shape); their
        row-wise concatenation becomes the table.  Use this when a caller
        wants a chunked source resident — learning does not require it.
        Chunks may come from outside the library, so the validating
        constructor's range scans are kept.
        """
        attributes = tuple(attributes)
        parts: Dict[str, List[np.ndarray]] = {a.name: [] for a in attributes}
        for chunk in chunks:
            if set(chunk) != set(parts):
                raise ValueError(
                    f"chunk columns {sorted(chunk)} do not match schema "
                    f"{sorted(parts)}"
                )
            for attr in attributes:
                parts[attr.name].append(
                    np.asarray(chunk[attr.name], dtype=np.int64)
                )
        columns = {
            name: (
                np.concatenate(arrays)
                if arrays
                else np.zeros(0, dtype=np.int64)
            )
            for name, arrays in parts.items()
        }
        return Table(attributes, columns)

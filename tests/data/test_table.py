"""Table: construction, projections, splits, record round trips."""

import numpy as np
import pytest

from repro.data.attribute import Attribute
from repro.data.table import Table


def _small():
    attrs = [Attribute.binary("a"), Attribute("b", ("x", "y", "z"))]
    return Table(attrs, {"a": np.array([0, 1, 1, 0]), "b": np.array([2, 0, 1, 1])})


class TestConstruction:
    def test_basic_shape(self):
        t = _small()
        assert t.n == 4
        assert t.d == 2
        assert len(t) == 4
        assert t.attribute_names == ("a", "b")

    def test_domain_size(self):
        assert _small().domain_size == 6

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            Table([Attribute.binary("a")], {})

    def test_extra_column_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            Table(
                [Attribute.binary("a")],
                {"a": np.zeros(2, dtype=int), "b": np.zeros(2, dtype=int)},
            )

    def test_out_of_domain_codes_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Table([Attribute.binary("a")], {"a": np.array([0, 2])})

    def test_negative_codes_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Table([Attribute.binary("a")], {"a": np.array([-1, 0])})

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="differing lengths"):
            Table(
                [Attribute.binary("a"), Attribute.binary("b")],
                {"a": np.zeros(2, dtype=int), "b": np.zeros(3, dtype=int)},
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table(
                [Attribute.binary("a"), Attribute.binary("a")],
                {"a": np.zeros(2, dtype=int)},
            )

    def test_empty_table_allowed(self):
        t = Table([Attribute.binary("a")], {"a": np.array([], dtype=int)})
        assert t.n == 0


class TestDerivations:
    def test_project_keeps_order(self):
        t = _small()
        p = t.project(["b"])
        assert p.attribute_names == ("b",)
        assert p.column("b").tolist() == [2, 0, 1, 1]

    def test_project_unknown_attribute(self):
        with pytest.raises(KeyError):
            _small().project(["zz"])

    def test_take_reorders_rows(self):
        t = _small().take(np.array([3, 0]))
        assert t.column("a").tolist() == [0, 0]
        assert t.column("b").tolist() == [1, 2]

    def test_head(self):
        assert _small().head(2).n == 2

    def test_split_partitions_rows(self):
        t = _small()
        left, right = t.split(0.5, np.random.default_rng(0))
        assert left.n + right.n == t.n
        assert left.n == 2

    def test_split_fraction_validated(self):
        with pytest.raises(ValueError):
            _small().split(1.5, np.random.default_rng(0))

    def test_drop(self):
        t = _small().drop(["a"])
        assert t.attribute_names == ("b",)


class TestTrustedConstruction:
    def test_matches_validating_constructor(self):
        attrs = [Attribute.binary("a"), Attribute("b", ("x", "y", "z"))]
        columns = {"a": np.array([0, 1, 1, 0]), "b": np.array([2, 0, 1, 1])}
        trusted = Table.from_trusted_columns(attrs, columns)
        validated = Table(attrs, columns)
        assert trusted.n == validated.n == 4
        assert trusted.attribute_names == validated.attribute_names
        for name in trusted.attribute_names:
            np.testing.assert_array_equal(
                trusted.column(name), validated.column(name)
            )
            assert trusted.column(name).dtype == np.int64

    def test_schema_consistency_still_enforced(self):
        attrs = [Attribute.binary("a")]
        with pytest.raises(ValueError, match="do not match"):
            Table.from_trusted_columns(attrs, {})
        with pytest.raises(ValueError, match="differing lengths"):
            Table.from_trusted_columns(
                [Attribute.binary("a"), Attribute.binary("b")],
                {"a": np.zeros(3, dtype=int), "b": np.zeros(4, dtype=int)},
            )
        with pytest.raises(ValueError, match="1-dimensional"):
            Table.from_trusted_columns(
                attrs, {"a": np.zeros((2, 2), dtype=int)}
            )

    def test_empty_table(self):
        t = Table.from_trusted_columns(
            [Attribute.binary("a")], {"a": np.zeros(0, dtype=int)}
        )
        assert t.n == 0


class TestRecords:
    def test_records_roundtrip(self):
        t = _small()
        records = t.records()
        rebuilt = Table(
            t.attributes,
            {attr.name: records[:, j] for j, attr in enumerate(t.attributes)},
        )
        assert rebuilt.column("a").tolist() == t.column("a").tolist()
        assert rebuilt.column("b").tolist() == t.column("b").tolist()

    def test_decoded_records(self):
        rows = _small().decoded_records(limit=2)
        assert rows == [("0", "z"), ("1", "x")]

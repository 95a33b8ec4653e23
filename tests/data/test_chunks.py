"""Chunked-vs-monolithic equivalence: the streaming data plane's contract.

Every test here pins the same invariant from a different layer: a
``ChunkedSource`` view of a table must produce *bit-identical* integers,
floats, and releases to the resident path, for any chunk size — including
single-row chunks, ragged final chunks, chunks larger than the data, and
explicit empty trailing chunks.
"""

import numpy as np
import pytest

import repro.bn.quality as quality
from repro.bn.network import APPair
from repro.bn.quality import ParentIndexCache
from repro.data.attribute import Attribute
from repro.core.noisy_conditionals import JointCounter
from repro.core.privbayes import PrivBayes
from repro.core.scoring import CandidateScorer, ScoringCache
from repro.data.chunks import ChunkedSource, IterableChunks, TableChunks
from repro.data.io import write_csv
from repro.data.marginals import marginal_counts
from repro.data.table import Table
from repro.datasets import load_dataset


def chunk_size_grid(n):
    """The ISSUE's adversarial chunk sizes: degenerate, ragged, exact, over."""
    return sorted({1, 7, max(n - 1, 1), max(n, 1), n + 13})


@pytest.fixture(scope="module")
def nltcs():
    return load_dataset("nltcs", n=400, seed=0)


class TestSourceMetadata:
    def test_mirrors_table_surface(self, mixed_table):
        source = TableChunks(mixed_table, 64)
        assert source.n == mixed_table.n
        assert source.d == mixed_table.d
        assert source.attributes == mixed_table.attributes
        assert source.attribute_names == mixed_table.attribute_names
        assert source.attribute("color") is mixed_table.attribute("color")
        assert source.domain_size == mixed_table.domain_size
        with pytest.raises(KeyError):
            source.attribute("nope")

    def test_invalid_chunk_rows(self, mixed_table):
        with pytest.raises(ValueError):
            TableChunks(mixed_table, 0)

    def test_chunks_concatenate_to_table(self, mixed_table):
        for chunk_rows in chunk_size_grid(mixed_table.n):
            source = TableChunks(mixed_table, chunk_rows)
            rebuilt = Table.from_chunks(source.attributes, source.chunks())
            for name in mixed_table.attribute_names:
                np.testing.assert_array_equal(
                    rebuilt.column(name), mixed_table.column(name)
                )

    def test_reiterable(self, mixed_table):
        source = TableChunks(mixed_table, 100)
        first = [
            {k: v.copy() for k, v in chunk.items()}
            for chunk in source.chunks()
        ]
        second = list(source.chunks())
        assert len(first) == len(second)
        for a, b in zip(first, second):
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])

    def test_empty_table_yields_one_empty_chunk(self):
        table = Table(
            [Attribute.binary("a")], {"a": np.zeros(0, dtype=np.int64)}
        )
        chunks = list(TableChunks(table, 10).chunks())
        assert len(chunks) == 1
        assert chunks[0]["a"].shape == (0,)

    def test_iterable_chunks_validation(self, binary_table):
        attrs = binary_table.attributes
        good = list(TableChunks(binary_table, 700).chunks())
        source = IterableChunks(attrs, good)
        assert source.n == binary_table.n
        with pytest.raises(ValueError, match="do not match schema"):
            IterableChunks(attrs, [{"a": np.zeros(3, dtype=np.int64)}])
        bad = {name: binary_table.column(name) for name in "abcd"}
        bad["d"] = bad["d"][:-1]
        with pytest.raises(ValueError, match="differing lengths"):
            IterableChunks(attrs, [bad])


class TestFromChunks:
    def test_from_chunks_roundtrip(self, binary_table):
        source = TableChunks(binary_table, 123)
        rebuilt = Table.from_chunks(source.attributes, source.chunks())
        for name in binary_table.attribute_names:
            np.testing.assert_array_equal(
                rebuilt.column(name), binary_table.column(name)
            )

    def test_from_chunks_empty_stream(self, binary_table):
        rebuilt = Table.from_chunks(binary_table.attributes, [])
        assert rebuilt.n == 0
        assert rebuilt.attribute_names == binary_table.attribute_names

    def test_from_chunks_schema_mismatch(self, binary_table):
        with pytest.raises(ValueError, match="do not match schema"):
            Table.from_chunks(
                binary_table.attributes,
                [{"a": np.zeros(2, dtype=np.int64)}],
            )

    def test_from_chunks_validates_codes(self, binary_table):
        bad = {
            name: np.zeros(4, dtype=np.int64)
            for name in binary_table.attribute_names
        }
        bad["a"] = np.array([0, 1, 2, 0])  # out of the binary domain
        with pytest.raises(ValueError, match="outside"):
            Table.from_chunks(binary_table.attributes, [bad])


class TestStreamingCounts:
    def test_marginal_counts_all_chunk_sizes(self, nltcs):
        names = list(nltcs.attribute_names[:3])
        resident = marginal_counts(nltcs, names)
        for chunk_rows in chunk_size_grid(nltcs.n):
            streamed = marginal_counts(TableChunks(nltcs, chunk_rows), names)
            np.testing.assert_array_equal(streamed, resident)

    def test_marginal_counts_empty_names(self, nltcs):
        np.testing.assert_array_equal(
            marginal_counts(TableChunks(nltcs, 64), []),
            marginal_counts(nltcs, []),
        )

    def test_single_group_counts(self, mixed_table):
        parents = (("color", 1), ("size", 0))
        children = ("warm_flag",)
        counter = JointCounter(mixed_table)
        pair = APPair(child="warm_flag", parents=parents)
        expected, expected_sizes = counter.counts(pair)
        for chunk_rows in chunk_size_grid(mixed_table.n):
            block, offsets, lengths, parent_sizes, child_sizes = (
                ParentIndexCache(TableChunks(mixed_table, chunk_rows)).counts(
                    parents, children
                )
            )
            np.testing.assert_array_equal(
                block[offsets[0] : offsets[0] + lengths[0]], expected
            )
            assert tuple(parent_sizes) + (child_sizes[0],) == expected_sizes

    def test_grouped_counts_match_per_group(self, nltcs):
        names = nltcs.attribute_names
        groups = [
            ((), (names[0], names[1])),
            (((names[0], 0),), (names[1], names[2], names[3])),
            (((names[1], 0), (names[2], 0)), (names[4],)),
        ]
        source = TableChunks(nltcs, 97)
        streamed = ParentIndexCache(source).grouped_counts(groups)
        resident = ParentIndexCache(nltcs)
        for (parents, children), counted in zip(groups, streamed):
            single = [resident.counts(parents, [child]) for child in children]
            block, offsets, lengths, _, _ = counted
            for position, child_counts in enumerate(single):
                sblock, soff, slen, _, _ = child_counts
                np.testing.assert_array_equal(
                    block[
                        offsets[position] : offsets[position]
                        + lengths[position]
                    ],
                    sblock[soff[0] : soff[0] + slen[0]],
                )

    def test_empty_trailing_chunk_changes_nothing(self, binary_table):
        attrs = binary_table.attributes
        chunks = list(TableChunks(binary_table, 611).chunks())
        empty = {
            name: np.zeros(0, dtype=np.int64)
            for name in binary_table.attribute_names
        }
        padded = IterableChunks(attrs, chunks + [empty])
        assert padded.n == binary_table.n
        names = list(binary_table.attribute_names[:2])
        np.testing.assert_array_equal(
            marginal_counts(padded, names),
            marginal_counts(binary_table, names),
        )
        block_a, *_ = ParentIndexCache(padded).counts(
            ((names[0], 0),), [names[1]]
        )
        block_b, *_ = ParentIndexCache(binary_table).counts(
            ((names[0], 0),), [names[1]]
        )
        np.testing.assert_array_equal(block_a, block_b)

    def test_sourceless_chunks_derive_layout(self):
        """A source yielding no chunks at all still reports a full layout."""

        class NoChunks(ChunkedSource):
            def __init__(self, attributes):
                self._attributes = tuple(attributes)
                self._n = 0

            def chunks(self):
                return iter(())

        attrs = (Attribute.binary("a"), Attribute("b", ("x", "y", "z")))
        block, offsets, lengths, parent_sizes, child_sizes = (
            ParentIndexCache(NoChunks(attrs)).counts((("a", 0),), ["b"])
        )
        assert block.shape == (6,)
        assert not block.any()
        assert offsets == (0,) and lengths == (6,)
        assert tuple(parent_sizes) == (2,) and tuple(child_sizes) == (3,)


class _Declared(ChunkedSource):
    """A table's rows under a declared row count of the caller's choice."""

    def __init__(self, table, n):
        self._rows = TableChunks(table, 97)
        self._attributes = table.attributes
        self._n = n

    def chunks(self):
        return self._rows.chunks()


class _Feed(ChunkedSource):
    """Yields the given chunks as they are, unchecked."""

    def __init__(self, attributes, chunk_list, n):
        self._attributes = tuple(attributes)
        self._chunk_list = chunk_list
        self._n = n

    def chunks(self):
        return iter(self._chunk_list)


class TestSourceChecks:
    """A source's declared ``n`` and its codes are checked on every pass."""

    @pytest.fixture
    def no_noise(self, monkeypatch):
        def tripwire(*args, **kwargs):
            raise AssertionError("a mechanism drew noise")

        monkeypatch.setattr(
            "repro.core.greedy_bayes.exponential_mechanism", tripwire
        )
        monkeypatch.setattr(
            "repro.core.noisy_conditionals.laplace_mechanism", tripwire
        )

    @pytest.mark.parametrize("factor", [10.0, 0.1])
    @pytest.mark.parametrize(
        "dataset, settings",
        [
            ("adult", {"score": "R"}),
            ("adult", {"score": "I"}),
            ("nltcs", {"score": "F", "k": 2}),
        ],
    )
    def test_misdeclared_row_count_raises_before_noise(
        self, no_noise, factor, dataset, settings
    ):
        table = load_dataset(dataset, n=300, seed=0)
        source = _Declared(table, int(table.n * factor))
        with pytest.raises(ValueError, match=(
            rf"_Declared declares n={source.n} rows but its chunks "
            rf"yielded {table.n}"
        )):
            PrivBayes(epsilon=1.0, **settings).fit(
                source, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("bad", [2, -1])
    def test_out_of_range_code_raises_for_parent_and_child(
        self, bad, monkeypatch
    ):
        attrs = (Attribute.binary("a"), Attribute.binary("b"))
        source = IterableChunks(
            attrs, [{"a": np.array([0, 0, 1]), "b": np.array([bad, 0, 1])}]
        )
        message = (
            rf"IterableChunks chunk column 'b' has code {bad} outside \[0, 2\)"
        )
        # The Walsh-Hadamard engine counts the full joint as it is built;
        # the raw-row engine counts the group it is asked for.
        with pytest.raises(ValueError, match=message):
            ParentIndexCache(source)
        monkeypatch.setattr(quality, "MAX_WALSH_CELLS", 0)
        index = ParentIndexCache(source)
        for parents, child in [((("a", 0),), "b"), ((("b", 0),), "a")]:
            with pytest.raises(ValueError, match=message):
                index.counts(parents, [child])
        with pytest.raises(ValueError, match=message):
            marginal_counts(source, ["a", "b"])

    def test_malformed_chunks_raise(self):
        attrs = (Attribute.binary("a"), Attribute.binary("b"))
        cases = [
            ({"a": np.array([0, 1])}, "do not match schema"),
            (
                {"a": np.array([0, 1]), "b": np.array([1])},
                "differing lengths",
            ),
            (
                {"a": np.array([0.0, 1.0]), "b": np.array([1, 0])},
                "integer array",
            ),
        ]
        for chunk, message in cases:
            with pytest.raises(ValueError, match=f"_Feed chunk.*{message}"):
                ParentIndexCache(_Feed(attrs, [chunk], 2)).counts(
                    (("a", 0),), ["b"]
                )

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"a": np.array([1, 0, 1])}, "do not match schema"),
            (
                {"a": np.array([1.0, 0.0, 1.0]), "b": np.array([0, 0, 1])},
                "'a' is not a one-dimensional integer array",
            ),
            (
                {"a": np.array([1, 0, 1]), "b": np.array([0])},
                r"differing lengths \('b' has 1, expected 3\)",
            ),
            (
                {"a": np.array([1, 0, 1]), "b": np.array([0, 2, 1])},
                r"'b' has code 2 outside \[0, 2\)",
            ),
            (
                {"a": np.array([1, 0]), "b": np.array([0, 0])},
                "declares n=5 rows but its chunks yielded 4",
            ),
            (
                {"a": np.array([1, 0, 1, 1]), "b": np.array([0, 0, 1, 1])},
                "declares n=5 rows but its chunks yielded 6",
            ),
        ],
        ids=["schema", "dtype", "ragged", "code", "short", "long"],
    )
    def test_write_csv_checks_chunks_like_counting(
        self, tmp_path, backend, second, message
    ):
        """Under either CSV backend, ``write_csv`` refuses a source whose
        second chunk fails any check that counting makes, naming the
        column, and a pass that yields other than the declared rows; the
        file already at the path keeps its bytes, and no temporary file
        is left beside it."""
        attrs = (Attribute.binary("a"), Attribute.binary("b"))
        first = {"a": np.array([0, 1]), "b": np.array([1, 0])}
        target = tmp_path / "out.csv"
        target.write_bytes(b"x,y\nprevious,release\n")
        with pytest.raises(ValueError, match=f"_Feed.*{message}"):
            write_csv(_Feed(attrs, [first, second], 5), target)
        assert target.read_bytes() == b"x,y\nprevious,release\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestCounterAndScorerEquivalence:
    def test_joint_counter_warm_and_miss(self, mixed_table):
        pairs = [
            APPair(child="color", parents=()),
            APPair(child="warm_flag", parents=(("color", 0),)),
            APPair(child="size", parents=(("color", 1),)),
        ]
        resident = JointCounter(mixed_table)
        resident.warm(pairs)
        for chunk_rows in chunk_size_grid(mixed_table.n):
            chunked = JointCounter(TableChunks(mixed_table, chunk_rows))
            chunked.warm(pairs[:2])  # pairs[2] exercises the miss path
            for pair in pairs:
                counts_a, sizes_a = resident.counts(pair)
                counts_b, sizes_b = chunked.counts(pair)
                np.testing.assert_array_equal(counts_a, counts_b)
                assert tuple(sizes_a) == tuple(sizes_b)

    def test_joint_counter_rejects_foreign_parent_index(self, mixed_table):
        index = ParentIndexCache(mixed_table)
        with pytest.raises(ValueError):
            JointCounter(TableChunks(mixed_table, 64), parent_index=index)

    @pytest.mark.parametrize("score", ["I", "R", "F"])
    def test_scorer_scores_identical(self, nltcs, score):
        names = nltcs.attribute_names
        candidates = [
            (names[1], ()),
            (names[2], ((names[0], 0),)),
            (names[3], ((names[0], 0),)),
            (names[4], ((names[0], 0), (names[1], 0))),
        ]
        resident = CandidateScorer(nltcs, score)
        expected = resident.score_batch(candidates)
        for chunk_rows in (1, 113, nltcs.n + 13):
            chunked = CandidateScorer(TableChunks(nltcs, chunk_rows), score)
            np.testing.assert_array_equal(
                chunked.score_batch(candidates), expected
            )
            # Memo hits and one-candidate batches agree too.
            for candidate in candidates:
                assert chunked.score_batch([candidate])[0] == pytest.approx(
                    resident.score_batch([candidate])[0], abs=0
                )

    def test_scorer_sensitivity_identical(self, nltcs):
        source = TableChunks(nltcs, 150)
        names = nltcs.attribute_names
        candidates = [(names[2], ((names[0], 0),))]
        for score in ("I", "F", "R"):
            assert CandidateScorer(source, score).selection_sensitivity(
                candidates
            ) == CandidateScorer(nltcs, score).selection_sensitivity(candidates)

    def test_scoring_cache_shares_one_engine_per_source(self, nltcs):
        cache = ScoringCache()
        source = TableChunks(nltcs, 64)
        index = cache.parent_index(source)
        assert index.table is source
        assert cache.parent_index(nltcs) is not index
        assert cache.scorer(source, "F")._parent_index_cache is index
        assert cache.joint_counter(source)._parent_index is index


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 399, 400, 413])
    def test_fit_identical_on_nltcs(self, nltcs, chunk_rows):
        """The whole pipeline: chunked fit == resident fit, bit for bit."""
        fit_args = dict(epsilon=1.0, k=2, mode="binary")
        resident = PrivBayes(**fit_args).fit(
            nltcs, np.random.default_rng(77)
        )
        chunked = PrivBayes(**fit_args).fit(
            TableChunks(nltcs, chunk_rows), np.random.default_rng(77)
        )
        assert [p for p in resident.network] == [p for p in chunked.network]
        for a, b in zip(
            resident.noisy.conditionals, chunked.noisy.conditionals
        ):
            assert a.child == b.child and a.parents == b.parents
            np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_fit_sample_identical_general_mode(self, mixed_table):
        """θ-mode (Algorithm 4) with generalized parents, end to end."""
        config = dict(epsilon=1.0, mode="general", generalize=True)
        resident = PrivBayes(**config).fit_sample(
            mixed_table, np.random.default_rng(5)
        )
        for chunk_rows in (1, 7, mixed_table.n - 1, mixed_table.n + 13):
            chunked = PrivBayes(**config).fit_sample(
                TableChunks(mixed_table, chunk_rows),
                np.random.default_rng(5),
            )
            for name in resident.attribute_names:
                np.testing.assert_array_equal(
                    chunked.column(name), resident.column(name)
                )

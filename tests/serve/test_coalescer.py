"""CoalescingSampler: batched draws bit-identical to the single draw."""

import asyncio

import numpy as np
import pytest

from repro.bn.inference import model_marginals
from repro.core.privbayes import PrivBayes, PrivBayesConfig
from repro.core.sampler import sample_synthetic, sample_synthetic_split
from repro.datasets.synthetic import random_binary_table
from repro.serve.coalescer import CoalescingSampler
from repro.serve.service import SynthesisService


@pytest.fixture
def model():
    table = random_binary_table(n=800, d=5, seed=21)
    return PrivBayes(epsilon=1.0).fit(table, np.random.default_rng(2))


def _assert_tables_equal(actual, expected):
    assert actual.attribute_names == expected.attribute_names
    assert actual.n == expected.n
    for name in expected.attribute_names:
        np.testing.assert_array_equal(
            actual.column(name), expected.column(name)
        )


class TestSplitPrimitive:
    def test_split_equals_single_draw_sliced(self, model):
        counts = [5, 0, 17, 3]
        slices = sample_synthetic_split(
            model.noisy,
            model.table_attributes,
            counts,
            np.random.default_rng(31),
        )
        reference = sample_synthetic(
            model.noisy,
            model.table_attributes,
            sum(counts),
            np.random.default_rng(31),
        )
        start = 0
        for count, piece in zip(counts, slices):
            expected = reference.take(np.arange(start, start + count))
            _assert_tables_equal(piece, expected)
            start += count

    def test_negative_count_rejected(self, model):
        with pytest.raises(ValueError, match="non-negative"):
            sample_synthetic_split(
                model.noisy,
                model.table_attributes,
                [3, -1],
                np.random.default_rng(0),
            )


class TestCoalescing:
    def test_concurrent_requests_share_one_draw_bit_identically(self, model):
        """Acceptance criterion: gathered sample(n_i) responses equal the
        single sample(sum(n_i)) draw, sliced in request order."""
        counts = [100, 1, 57, 0, 42]

        async def drive():
            with CoalescingSampler(model, np.random.default_rng(77)) as sampler:
                tables = await asyncio.gather(
                    *(sampler.sample(count) for count in counts)
                )
                return tables, list(sampler.batch_request_counts)

        tables, batches = asyncio.run(drive())
        assert batches == [len(counts)]  # one coalesced draw served all
        reference = sample_synthetic(
            model.noisy,
            model.table_attributes,
            sum(counts),
            np.random.default_rng(77),
        )
        start = 0
        for count, piece in zip(counts, tables):
            _assert_tables_equal(
                piece, reference.take(np.arange(start, start + count))
            )
            start += count

    def test_sequential_requests_draw_separately_but_deterministically(
        self, model
    ):
        async def drive():
            with CoalescingSampler(model, np.random.default_rng(5)) as sampler:
                first = await sampler.sample(40)
                second = await sampler.sample(40)
                return first, second, list(sampler.batch_request_counts)

        first, second, batches = asyncio.run(drive())
        assert batches == [1, 1]
        # Two sequential singleton batches == two sequential draws from
        # one stream == one fresh stream drawing 40 then 40.
        rng = np.random.default_rng(5)
        expected_first = sample_synthetic(
            model.noisy, model.table_attributes, 40, rng
        )
        expected_second = sample_synthetic(
            model.noisy, model.table_attributes, 40, rng
        )
        _assert_tables_equal(first, expected_first)
        _assert_tables_equal(second, expected_second)

    def test_negative_request_rejected_without_poisoning_batch(self, model):
        async def drive():
            with CoalescingSampler(model, np.random.default_rng(1)) as sampler:
                with pytest.raises(ValueError, match="non-negative"):
                    await sampler.sample(-3)
                return await sampler.sample(10)

        table = asyncio.run(drive())
        assert table.n == 10

    def test_row_counts_stat_tracks_batches(self, model):
        async def drive():
            with CoalescingSampler(model, np.random.default_rng(1)) as sampler:
                await asyncio.gather(sampler.sample(30), sampler.sample(12))
                return (
                    list(sampler.batch_request_counts),
                    list(sampler.batch_row_counts),
                )

        requests, rows = asyncio.run(drive())
        assert requests == [2]
        assert rows == [42]


class TestMarginals:
    def test_marginals_match_direct_inference(self):
        """Model marginals have one entry: the service's, which is
        exactly variable elimination on the registered model."""
        table = random_binary_table(n=800, d=5, seed=21)
        config = PrivBayesConfig(epsilon=1.0)
        workload = [["x0", "x1"], ["x2"]]
        with SynthesisService(None) as service:
            model = service.fit(
                "demo", table, config, np.random.default_rng(2),
                dataset_budget=1.0,
            )
            answers = service.marginals("demo", config, workload)
        expected = model_marginals(
            model.noisy, model.table_attributes, workload
        )
        assert sorted(answers) == sorted(expected)
        for key, values in expected.items():
            np.testing.assert_array_equal(answers[key], values)

"""CoalescingSampler: batched draws bit-identical to the single draw."""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.bn.inference import model_marginals
from repro.core.privbayes import PrivBayes, PrivBayesConfig
from repro.core.sampler import sample_synthetic, sample_synthetic_split
from repro.datasets.synthetic import random_binary_table
from repro.serve import coalescer
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

    def test_writing_one_response_leaves_the_others_unchanged(self, model):
        """Each response's columns cover a disjoint row range of the
        batch's draw."""

        async def drive():
            with CoalescingSampler(model, np.random.default_rng(4)) as sampler:
                return await asyncio.gather(
                    sampler.sample(20), sampler.sample(30), sampler.sample(25)
                )

        first, middle, last = asyncio.run(drive())
        saved = [
            {name: table.column(name).copy() for name in table.attribute_names}
            for table in (first, last)
        ]
        for name in middle.attribute_names:
            middle.column(name)[:] = -1
        for table, columns in zip((first, last), saved):
            for name, column in columns.items():
                np.testing.assert_array_equal(table.column(name), column)

    def test_failed_draw_fails_its_batch_and_the_next_is_served(
        self, model, monkeypatch
    ):
        error = RuntimeError("draw failed")
        draws = []

        def fail_first_draw(noisy, attributes, counts, rng):
            draws.append(list(counts))
            if len(draws) == 1:
                raise error
            return sample_synthetic_split(noisy, attributes, counts, rng)

        monkeypatch.setattr(
            coalescer, "sample_synthetic_split", fail_first_draw
        )

        async def drive():
            with CoalescingSampler(model, np.random.default_rng(9)) as sampler:
                failed = await asyncio.gather(
                    sampler.sample(5), sampler.sample(7),
                    return_exceptions=True,
                )
                served = await asyncio.gather(
                    sampler.sample(4), sampler.sample(6)
                )
                return failed, served, list(sampler.batch_request_counts)

        failed, served, batches = asyncio.run(drive())
        assert failed == [error, error]
        assert batches == [2, 2] and draws == [[5, 7], [4, 6]]
        # The failed draw consumed none of the stream.
        reference = sample_synthetic(
            model.noisy, model.table_attributes, 10, np.random.default_rng(9)
        )
        _assert_tables_equal(served[0], reference.take(np.arange(0, 4)))
        _assert_tables_equal(served[1], reference.take(np.arange(4, 10)))


#: Each closed-loop client's request sizes, sent one after another.
CLIENT_SIZES = (
    (3, 50, 7, 0, 21, 9, 13, 2),
    (11, 4, 30, 8, 1, 17, 6, 25),
    (40, 2, 5, 12, 9, 3, 28, 1),
)


def _closed_loop(model, seed):
    """Run the closed-loop clients on one sampler; return every request
    in arrival order as (client, size), each client's responses and the
    sampler's batch request counts."""
    arrivals = []
    responses = [[] for _ in CLIENT_SIZES]

    async def client(sampler, index):
        for size in CLIENT_SIZES[index]:
            # sample() queues its request before its first await, so this
            # list is the coalescer's arrival order.
            arrivals.append((index, size))
            responses[index].append(await sampler.sample(size))

    async def drive():
        with CoalescingSampler(model, np.random.default_rng(seed)) as sampler:
            await asyncio.gather(
                *(client(sampler, index) for index in range(len(CLIENT_SIZES)))
            )
            return list(sampler.batch_request_counts)

    batches = asyncio.run(drive())
    return arrivals, responses, batches


def _digest(responses):
    digest = hashlib.sha256()
    for tables in responses:
        for table in tables:
            for name in table.attribute_names:
                digest.update(table.column(name).tobytes())
    return digest.hexdigest()


class TestClosedLoopReplay:
    def test_replay_gives_the_same_batches_and_bytes(self, model):
        arrivals, responses, batches = _closed_loop(model, 13)
        replay_arrivals, replay_responses, replay_batches = _closed_loop(
            model, 13
        )
        rounds = len(CLIENT_SIZES[0])
        assert batches == replay_batches == [len(CLIENT_SIZES)] * rounds
        assert replay_arrivals == arrivals
        assert _digest(replay_responses) == _digest(responses)

        # Batch b is the stream's b-th draw of the batch total, sliced in
        # arrival order.
        rng = np.random.default_rng(13)
        served = [iter(tables) for tables in responses]
        position = 0
        for count in batches:
            batch = arrivals[position:position + count]
            position += count
            reference = sample_synthetic(
                model.noisy,
                model.table_attributes,
                sum(size for _, size in batch),
                rng,
            )
            start = 0
            for index, size in batch:
                _assert_tables_equal(
                    next(served[index]),
                    reference.take(np.arange(start, start + size)),
                )
                start += size


class TestClose:
    def test_sample_after_close_is_refused(self, model):
        async def drive():
            sampler = CoalescingSampler(model, np.random.default_rng(3))
            sampler.close()
            sampler.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                await asyncio.wait_for(sampler.sample(10), 3)
            return list(sampler.batch_request_counts)

        assert asyncio.run(drive()) == []  # nothing was queued

    def test_request_queued_before_close_is_served(self, model):
        async def drive():
            sampler = CoalescingSampler(model, np.random.default_rng(3))
            request = asyncio.ensure_future(sampler.sample(10))
            await asyncio.sleep(0)  # the request queues; its drain waits
            assert sampler.batch_request_counts == []
            sampler.close()
            return await asyncio.wait_for(request, 3)

        table = asyncio.run(drive())
        _assert_tables_equal(
            table,
            sample_synthetic(
                model.noisy, model.table_attributes, 10,
                np.random.default_rng(3),
            ),
        )


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

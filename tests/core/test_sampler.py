"""Ancestral sampling: schema fidelity and distribution convergence."""

import numpy as np
import pytest

from repro.bn.network import APPair, BayesianNetwork
from repro.core.noisy_conditionals import (
    ConditionalTable,
    NoisyModel,
    noisy_conditionals_general,
)
from repro.core.sampler import check_model, sample_synthetic
from repro.data.attribute import Attribute
from repro.data.marginals import joint_distribution
from repro.data.table import Table
from repro.data.taxonomy import TaxonomyTree


def _manual_model():
    """Hand-built model: a ~ Bern(0.3); b = a with prob 0.9."""
    attrs = [Attribute.binary("a"), Attribute.binary("b")]
    network = BayesianNetwork(
        [APPair.make("a", []), APPair.make("b", ["a"])]
    )
    conditionals = (
        ConditionalTable("a", (), (), 2, np.array([[0.7, 0.3]])),
        ConditionalTable(
            "b", (("a", 0),), (2,), 2, np.array([[0.9, 0.1], [0.1, 0.9]])
        ),
    )
    return NoisyModel(network, conditionals), attrs


class TestSampling:
    def test_schema_and_size(self):
        model, attrs = _manual_model()
        synthetic = sample_synthetic(model, attrs, 500, np.random.default_rng(0))
        assert synthetic.n == 500
        assert synthetic.attribute_names == ("a", "b")

    def test_zero_rows(self):
        model, attrs = _manual_model()
        synthetic = sample_synthetic(model, attrs, 0, np.random.default_rng(0))
        assert synthetic.n == 0

    def test_negative_rows_rejected(self):
        model, attrs = _manual_model()
        with pytest.raises(ValueError):
            sample_synthetic(model, attrs, -1, np.random.default_rng(0))

    def test_unplaced_schema_attribute_rejected_up_front(self):
        """A truncated/custom network that does not place every schema
        attribute raises a ValueError naming the gaps, not a KeyError."""
        model, attrs = _manual_model()
        extra = attrs + [Attribute.binary("c"), Attribute.binary("d")]
        with pytest.raises(ValueError, match=r"\['c', 'd'\]") as excinfo:
            sample_synthetic(model, extra, 10, np.random.default_rng(0))
        assert "does not place" in str(excinfo.value)

    def test_network_attribute_missing_from_schema_rejected(self):
        model, attrs = _manual_model()
        with pytest.raises(ValueError, match=r"\['b'\]"):
            sample_synthetic(model, attrs[:1], 10, np.random.default_rng(0))

    def test_repeated_schema_attribute_rejected(self):
        model, attrs = _manual_model()
        with pytest.raises(
            ValueError, match=r"schema repeats attribute name\(s\) \['a'\]"
        ):
            sample_synthetic(
                model, attrs + attrs[:1], 10, np.random.default_rng(0)
            )

    def test_check_model_caches_the_plan_a_draw_uses(self):
        model, attrs = _manual_model()
        check_model(model, attrs)
        plan = model._sampling_plan
        sample_synthetic(model, attrs, 10, np.random.default_rng(0))
        assert model._sampling_plan is plan

    def test_check_model_refuses_what_a_draw_refuses(self):
        model, attrs = _manual_model()
        extra = attrs + [Attribute.binary("c")]
        with pytest.raises(ValueError, match=r"does not place .*\['c'\]"):
            check_model(model, extra)

    def test_row_cdfs_cached_and_readonly(self):
        model, attrs = _manual_model()
        conditional = model.conditionals[1]
        cdf = conditional.row_cdfs
        assert conditional.row_cdfs is cdf  # computed once, cached
        expected = np.cumsum(conditional.matrix, axis=1)
        expected[:, -1] = 1.0
        np.testing.assert_array_equal(cdf, expected)
        with pytest.raises(ValueError):
            cdf[0, 0] = 0.5

    def test_binary_fast_path_matches_general_cdf_inversion(self):
        """child_size == 2 takes a one-comparison path; codes must equal
        the generic count-of-exceeded-CDF-entries inversion."""
        from repro.core.sampler import _invert_conditional

        model, _ = _manual_model()
        conditional = model.conditionals[1]
        rows = np.random.default_rng(0).integers(0, 2, 5000)
        uniforms = np.random.default_rng(9).random(rows.shape[0])
        draws = _invert_conditional(conditional, rows, uniforms)
        cdf = conditional.row_cdfs
        reference = (
            (uniforms[:, None] > cdf[rows]).sum(axis=1).astype(np.int64)
        )
        np.testing.assert_array_equal(draws, reference)

    def test_marginal_converges(self):
        model, attrs = _manual_model()
        synthetic = sample_synthetic(
            model, attrs, 100_000, np.random.default_rng(1)
        )
        assert synthetic.column("a").mean() == pytest.approx(0.3, abs=0.01)

    def test_conditional_converges(self):
        model, attrs = _manual_model()
        synthetic = sample_synthetic(
            model, attrs, 100_000, np.random.default_rng(2)
        )
        a = synthetic.column("a")
        b = synthetic.column("b")
        agree = (a == b).mean()
        assert agree == pytest.approx(0.9, abs=0.01)

    def test_end_to_end_distribution_recovery(self, binary_table):
        """Sampling from a noiseless model reproduces the joint closely."""
        names = list(binary_table.attribute_names)
        network = BayesianNetwork(
            [APPair.make(names[0], [])]
            + [
                APPair.make(cur, [prev])
                for prev, cur in zip(names, names[1:])
            ]
        )
        model = noisy_conditionals_general(
            binary_table, network, None, np.random.default_rng(0)
        )
        synthetic = sample_synthetic(
            model, binary_table.attributes, 80_000, np.random.default_rng(3)
        )
        for prev, cur in zip(names, names[1:]):
            truth = joint_distribution(binary_table, [prev, cur])
            sampled = joint_distribution(synthetic, [prev, cur])
            assert np.abs(truth - sampled).max() < 0.02

    def test_generalized_parent_sampling(self):
        """A child conditioned on a generalized parent maps raw draws
        through the taxonomy before indexing the conditional."""
        tax = TaxonomyTree.from_groups(
            ("a", "b", "c", "d"), (("ab", ("a", "b")), ("cd", ("c", "d")))
        )
        attrs = [
            Attribute("p", ("a", "b", "c", "d"), taxonomy=tax),
            Attribute.binary("q"),
        ]
        network = BayesianNetwork(
            [APPair.make("p", []), APPair.make("q", [("p", 1)])]
        )
        conditionals = (
            ConditionalTable("p", (), (), 4, np.array([[0.25, 0.25, 0.25, 0.25]])),
            # q = 1 iff p generalizes to group "cd".
            ConditionalTable(
                "q", (("p", 1),), (2,), 2, np.array([[1.0, 0.0], [0.0, 1.0]])
            ),
        )
        model = NoisyModel(network, conditionals)
        synthetic = sample_synthetic(model, attrs, 20_000, np.random.default_rng(4))
        p = synthetic.column("p")
        q = synthetic.column("q")
        assert ((p >= 2) == (q == 1)).all()


class TestCdfInversion:
    """invert_row_cdfs must agree with the broadcast reference bit for bit."""

    @pytest.mark.parametrize("child_size", [1, 2, 3, 5, 17])
    def test_matches_broadcast_reference(self, child_size):
        from core_reference import broadcast_invert_row_cdfs
        from repro.core.sampler import invert_row_cdfs

        rng = np.random.default_rng(child_size)
        n_rows = 11
        probs = rng.dirichlet(np.ones(child_size), size=n_rows)
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        rows = rng.integers(0, n_rows, 4000)
        uniforms = rng.random(4000)
        np.testing.assert_array_equal(
            invert_row_cdfs(cdf, rows, uniforms),
            broadcast_invert_row_cdfs(cdf, rows, uniforms),
        )

    def test_zero_probability_cells_and_duplicates(self):
        """Repeated CDF values (zero-mass cells) must resolve identically:
        both inversions count entries *strictly below* the uniform."""
        from core_reference import broadcast_invert_row_cdfs
        from repro.core.sampler import invert_row_cdfs

        cdf = np.array(
            [
                [0.0, 0.0, 0.5, 0.5, 1.0],
                [0.2, 0.2, 0.2, 0.2, 1.0],
                [1.0, 1.0, 1.0, 1.0, 1.0],
            ]
        )
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 3, 2000)
        uniforms = rng.random(2000)
        np.testing.assert_array_equal(
            invert_row_cdfs(cdf, rows, uniforms),
            broadcast_invert_row_cdfs(cdf, rows, uniforms),
        )

    def test_uniform_exactly_on_cdf_entry(self):
        """u == cdf entry is the tie case: `cdf < u` is False there, so the
        entry's own cell is selected — by both implementations."""
        from core_reference import broadcast_invert_row_cdfs
        from repro.core.sampler import invert_row_cdfs

        cdf = np.array([[0.25, 0.5, 0.75, 1.0]])
        rows = np.zeros(4, dtype=np.int64)
        uniforms = np.array([0.25, 0.5, 0.75, 0.0])
        result = invert_row_cdfs(cdf, rows, uniforms)
        np.testing.assert_array_equal(result, [0, 1, 2, 0])
        np.testing.assert_array_equal(
            result, broadcast_invert_row_cdfs(cdf, rows, uniforms)
        )

    def test_empty_batch(self):
        from repro.core.sampler import invert_row_cdfs

        result = invert_row_cdfs(
            np.array([[0.5, 1.0]]),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
        assert result.shape == (0,)


class TestChunkedSampling:
    def test_chunks_concatenate_to_full_release(self):
        from repro.core.sampler import sample_synthetic_chunks
        from repro.data.table import Table

        model, attrs = _manual_model()
        chunks = list(
            sample_synthetic_chunks(
                model, attrs, 1000, np.random.default_rng(6), chunk_rows=256
            )
        )
        assert [c.n for c in chunks] == [256, 256, 256, 232]
        release = Table.from_chunks(
            attrs, ({n: c.column(n) for n in c.attribute_names} for c in chunks)
        )
        assert release.n == 1000
        assert release.attribute_names == ("a", "b")

    @pytest.mark.parametrize("chunk_rows", [1, 7, 999, 1000, 1013])
    def test_chunk_size_invariance(self, chunk_rows):
        """One spawned stream per attribute: the concatenated release is
        the same for every chunk size under a fixed seed."""
        from repro.core.sampler import sample_synthetic_chunks
        from repro.data.table import Table

        model, attrs = _manual_model()

        def release(rows):
            return Table.from_chunks(
                attrs,
                (
                    {n: c.column(n) for n in c.attribute_names}
                    for c in sample_synthetic_chunks(
                        model, attrs, 1000, np.random.default_rng(6), rows
                    )
                ),
            )

        reference = release(256)
        got = release(chunk_rows)
        for name in reference.attribute_names:
            np.testing.assert_array_equal(
                got.column(name), reference.column(name)
            )

    def test_zero_rows_yields_single_empty_chunk(self):
        from repro.core.sampler import sample_synthetic_chunks

        model, attrs = _manual_model()
        chunks = list(
            sample_synthetic_chunks(model, attrs, 0, np.random.default_rng(0))
        )
        assert len(chunks) == 1
        assert chunks[0].n == 0
        assert chunks[0].attribute_names == ("a", "b")

    def test_negative_rows_and_bad_chunk_rows_rejected(self):
        from repro.core.sampler import sample_synthetic_chunks

        model, attrs = _manual_model()
        with pytest.raises(ValueError):
            list(
                sample_synthetic_chunks(
                    model, attrs, -1, np.random.default_rng(0)
                )
            )
        with pytest.raises(ValueError):
            list(
                sample_synthetic_chunks(
                    model, attrs, 10, np.random.default_rng(0), chunk_rows=0
                )
            )

    def test_chunked_marginals_converge(self):
        """The spawned-stream draw is a different stream than the
        monolithic sampler, but it targets the same distribution."""
        from repro.core.sampler import sample_synthetic_chunks

        model, attrs = _manual_model()
        total = 0
        ones = 0
        agree = 0
        for chunk in sample_synthetic_chunks(
            model, attrs, 100_000, np.random.default_rng(8), chunk_rows=8192
        ):
            a = chunk.column("a")
            b = chunk.column("b")
            total += chunk.n
            ones += int(a.sum())
            agree += int((a == b).sum())
        assert total == 100_000
        assert ones / total == pytest.approx(0.3, abs=0.01)
        assert agree / total == pytest.approx(0.9, abs=0.01)

    def test_model_sample_chunks_smoke(self, binary_table):
        """PrivBayesModel.sample_chunks streams the fitted release."""
        from repro.core.privbayes import PrivBayes
        from repro.data.table import Table

        model = PrivBayes(epsilon=1.0, k=1, mode="binary").fit(
            binary_table, np.random.default_rng(11)
        )
        chunks = list(
            model.sample_chunks(rng=np.random.default_rng(12), chunk_rows=700)
        )
        assert sum(c.n for c in chunks) == binary_table.n
        assert all(
            c.attribute_names == binary_table.attribute_names for c in chunks
        )
        release = Table.from_chunks(
            binary_table.attributes,
            ({n: c.column(n) for n in c.attribute_names} for c in chunks),
        )
        assert release.n == binary_table.n

"""Two-table release: linkage bookkeeping, truncation, end-to-end DP."""

import numpy as np
import pytest

from repro.data.attribute import Attribute
from repro.data.table import Table
from repro.multitable import LinkedTables, release_two_tables


def _linked(n_individuals=600, seed=0):
    """Households (region, wealthy) owning 0..5 vehicles (kind, old)."""
    rng = np.random.default_rng(seed)
    region = rng.integers(0, 3, n_individuals)
    wealthy = (rng.random(n_individuals) < 0.3 + 0.2 * (region == 0)).astype(
        np.int64
    )
    primary = Table(
        [Attribute("region", ("n", "c", "s")), Attribute.binary("wealthy")],
        {"region": region, "wealthy": wealthy},
    )
    fanout = rng.poisson(0.6 + 1.8 * wealthy)
    owners = np.repeat(np.arange(n_individuals), fanout)
    total = owners.size
    owner_wealthy = wealthy[owners]
    kind = np.where(
        rng.random(total) < 0.25 + 0.5 * owner_wealthy,
        rng.integers(1, 3, total),
        0,
    ).astype(np.int64)
    old = (rng.random(total) < 0.6 - 0.3 * owner_wealthy).astype(np.int64)
    child = Table(
        [Attribute("kind", ("bike", "car", "truck")), Attribute.binary("old")],
        {"kind": kind, "old": old},
    )
    return LinkedTables(primary, child, owners)


class TestLinkedTables:
    def test_fanout_counts(self):
        linked = _linked()
        counts = linked.fanout_counts()
        assert counts.sum() == linked.n_child_rows
        assert counts.size == linked.n_individuals

    def test_owner_validation(self):
        linked = _linked()
        with pytest.raises(ValueError, match="outside"):
            LinkedTables(
                linked.primary,
                linked.child,
                np.full(linked.child.n, linked.primary.n + 5),
            )

    def test_owner_shape_validation(self):
        linked = _linked()
        with pytest.raises(ValueError, match="shape"):
            LinkedTables(linked.primary, linked.child, np.zeros(3, dtype=int))

    def test_truncate_bounds_fanout(self):
        linked = _linked()
        truncated = linked.truncate(2, np.random.default_rng(0))
        assert truncated.max_fanout() <= 2
        assert truncated.n_individuals == linked.n_individuals

    def test_truncate_keeps_under_limit_rows(self):
        linked = _linked()
        bound = linked.max_fanout()
        same = linked.truncate(bound)
        assert same.n_child_rows == linked.n_child_rows

    def test_truncate_negative_rejected(self):
        with pytest.raises(ValueError):
            _linked().truncate(-1)


class TestRelease:
    def test_budget_fully_accounted(self, rng):
        linked = _linked()
        release = release_two_tables(linked, 2.0, max_fanout=3, rng=rng)
        assert release.accountant.spent == pytest.approx(2.0)

    def test_sampled_schema_matches(self, rng):
        linked = _linked()
        release = release_two_tables(linked, 2.0, max_fanout=3, rng=rng)
        synthetic = release.sample(rng=rng)
        assert synthetic.primary.attribute_names == linked.primary.attribute_names
        assert synthetic.child.attribute_names == linked.child.attribute_names
        assert synthetic.n_individuals == linked.n_individuals

    def test_sampled_fanout_bounded(self, rng):
        linked = _linked()
        release = release_two_tables(linked, 2.0, max_fanout=3, rng=rng)
        synthetic = release.sample(rng=rng)
        assert synthetic.max_fanout() <= 3

    def test_owner_indices_valid(self, rng):
        linked = _linked()
        release = release_two_tables(linked, 2.0, max_fanout=3, rng=rng)
        synthetic = release.sample(200, rng)
        assert synthetic.n_individuals == 200
        if synthetic.n_child_rows:
            assert synthetic.owners.max() < 200

    def test_fanout_distribution_learned(self, rng):
        """At a generous budget the synthetic mean fanout tracks the true
        (truncated) mean."""
        linked = _linked(n_individuals=2000)
        release = release_two_tables(linked, 50.0, max_fanout=4, rng=rng)
        truncated = linked.truncate(4)
        truth = truncated.fanout_counts().mean()
        synthetic = release.sample(rng=rng)
        assert synthetic.fanout_counts().mean() == pytest.approx(truth, abs=0.25)

    def test_child_budget_scaled_by_fanout(self, rng):
        """Group privacy: the child pipeline runs at ε_child / max_fanout."""
        linked = _linked()
        release = release_two_tables(
            linked, 2.0, max_fanout=4, split=(0.4, 0.2, 0.4), rng=rng
        )
        child_epsilon = release.child_model.accountant.total_epsilon
        assert child_epsilon == pytest.approx(2.0 * 0.4 / 4)

    def test_invalid_epsilon(self, rng):
        with pytest.raises(ValueError):
            release_two_tables(_linked(), 0.0, rng=rng)

    def test_invalid_split(self, rng):
        with pytest.raises(ValueError, match="split"):
            release_two_tables(_linked(), 1.0, split=(0.5, 0.5, 0.5), rng=rng)

    def test_privbayes_kwargs_forwarded(self, rng):
        linked = _linked()
        release = release_two_tables(
            linked, 2.0, max_fanout=3, rng=rng, theta=8.0
        )
        assert release.primary_model.config.theta == pytest.approx(8.0)


class TestScoringCacheSharing:
    """The PR 2 ``scoring_cache`` parameter of ``release_two_tables``."""

    @staticmethod
    def _fingerprint(release, seed=17):
        """Sampled columns + fanout distribution, for bit-level comparison."""
        synthetic = release.sample(rng=np.random.default_rng(seed))
        columns = {
            name: synthetic.primary.column(name)
            for name in synthetic.primary.attribute_names
        }
        columns.update(
            {
                "child." + name: synthetic.child.column(name)
                for name in synthetic.child.attribute_names
            }
        )
        return release.fanout_distribution, synthetic.owners, columns

    def test_cache_is_a_pure_optimization(self):
        """Same rng stream with and without the cache → identical release."""
        from repro.core.scoring import ScoringCache

        linked = _linked()
        plain = release_two_tables(
            linked, 2.0, max_fanout=3, rng=np.random.default_rng(9)
        )
        cached = release_two_tables(
            linked, 2.0, max_fanout=3, rng=np.random.default_rng(9),
            scoring_cache=ScoringCache(),
        )
        fp_plain, fp_cached = self._fingerprint(plain), self._fingerprint(cached)
        np.testing.assert_array_equal(fp_plain[0], fp_cached[0])
        np.testing.assert_array_equal(fp_plain[1], fp_cached[1])
        for name in fp_plain[2]:
            np.testing.assert_array_equal(fp_plain[2][name], fp_cached[2][name])

    def test_both_tables_registered_in_shared_cache(self):
        """One release fits two pipelines into the *same* cache: the
        truncated primary and child tables must both land in it (that is
        the sharing the parameter exists for)."""
        from repro.core.scoring import ScoringCache

        linked = _linked()
        cache = ScoringCache()
        release_two_tables(
            linked, 2.0, max_fanout=3, rng=np.random.default_rng(9),
            scoring_cache=cache,
        )
        assert len(cache._tables) == 2  # truncated primary + truncated child
        assert len(cache._scorers) >= 2

    def test_sweep_over_shared_cache_matches_fresh_caches(self):
        """An ε sweep threading one cache is bit-identical to fresh caches.

        Truncation builds fresh tables per release, so repeated releases
        miss (the cache keys on table identity) — the guarantee that
        matters is that stale entries never leak across fits.
        """
        from repro.core.scoring import ScoringCache

        linked = _linked()
        shared = ScoringCache()
        for epsilon in (0.4, 0.8, 1.6):
            with_shared = release_two_tables(
                linked, epsilon, max_fanout=3,
                rng=np.random.default_rng(int(epsilon * 10)),
                scoring_cache=shared,
            )
            fresh = release_two_tables(
                linked, epsilon, max_fanout=3,
                rng=np.random.default_rng(int(epsilon * 10)),
                scoring_cache=ScoringCache(),
            )
            fp_shared, fp_fresh = (
                self._fingerprint(with_shared),
                self._fingerprint(fresh),
            )
            np.testing.assert_array_equal(fp_shared[0], fp_fresh[0])
            for name in fp_shared[2]:
                np.testing.assert_array_equal(
                    fp_shared[2][name], fp_fresh[2][name]
                )

"""Two-table ε-DP release via PrivBayes + bounded contribution.

Privacy analysis (individual-level, i.e. removing one individual removes
their primary row *and* all their child rows):

1. **Truncation** to at most ``max_fanout`` child rows per individual is
   data-independent preprocessing of each individual's own rows.
2. **Primary model** (budget ε_primary): one row per individual, plain
   PrivBayes — sensitivity as in the single-table case.
3. **Fanout distribution** (budget ε_fanout): the histogram of
   per-individual child-row counts over {0..max_fanout} changes by at most
   2/N in L1 when one individual changes — one Laplace release.
4. **Child model** (budget ε_child): one individual influences at most
   ``max_fanout`` child rows, so by group privacy a mechanism that is
   (ε_child / max_fanout)-DP at child-row level is ε_child-DP at
   individual level — PrivBayes runs on the truncated child table with the
   scaled budget.

Sequential composition over the three data accesses gives
ε = ε_primary + ε_fanout + ε_child end to end — exactly the "more careful
analysis" the paper's Section 7 calls for, with the noise growth made
explicit through the ``max_fanout`` factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.privbayes import PrivBayes, PrivBayesModel
from repro.core.rng import fallback_rng
from repro.data.marginals import normalize_distribution
from repro.dp.accountant import (
    PrivacyAccountant,
    check_epsilon,
    scale_for_group_privacy,
    split_epsilon,
)
from repro.dp.mechanisms import laplace_mechanism
from repro.multitable.linked import LinkedTables

#: Default budget split across the three releases.
DEFAULT_SPLIT = (0.45, 0.10, 0.45)  # primary, fanout, child


@dataclass
class TwoTableRelease:
    """A fitted two-table model, ready to synthesize linked tables."""

    primary_model: PrivBayesModel
    child_model: PrivBayesModel
    fanout_distribution: np.ndarray
    max_fanout: int
    accountant: PrivacyAccountant

    def sample(
        self,
        n_individuals: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> LinkedTables:
        """Synthesize a linked pair of tables (free post-processing)."""
        rng = fallback_rng(rng)
        count = (
            self.primary_model.source_n
            if n_individuals is None
            else int(n_individuals)
        )
        primary = self.primary_model.sample(count, rng)
        fanouts = rng.choice(
            self.max_fanout + 1, size=count, p=self.fanout_distribution
        )
        total_children = int(fanouts.sum())
        child = self.child_model.sample(total_children, rng)
        owners = np.repeat(np.arange(count), fanouts)
        return LinkedTables(primary, child, owners)


def release_two_tables(
    linked: LinkedTables,
    epsilon: float,
    max_fanout: Optional[int] = None,
    split=DEFAULT_SPLIT,
    rng: Optional[np.random.Generator] = None,
    scoring_cache=None,
    **privbayes_kwargs,
) -> TwoTableRelease:
    """Fit an ε-DP two-table model (see module docstring for the analysis).

    Parameters
    ----------
    linked:
        The sensitive primary/child pair.
    max_fanout:
        Contribution bound; child rows beyond it are dropped per
        individual.  Defaults to the observed maximum — note that using
        the data-derived maximum leaks its value; pass a fixed public
        bound for strict end-to-end DP.
    split:
        Budget fractions (primary, fanout, child); must sum to 1.
    scoring_cache:
        Optional :class:`~repro.core.scoring.ScoringCache` shared across
        repeated releases (an ε sweep over the same linked pair): candidate
        scores, parent-set enumerations and contingency counts of both the
        primary and the truncated child table are data statistics, computed
        once across all fits.  Only useful when the truncation is
        deterministic for the caller's rng (the cache keys on table
        identity, so a fresh truncation simply misses).
    privbayes_kwargs:
        Extra configuration forwarded to both PrivBayes pipelines
        (``beta``, ``theta``, ``score``, ...).
    """
    rng = fallback_rng(rng)
    check_epsilon(epsilon)
    if len(split) != 3 or abs(sum(split) - 1.0) > 1e-9 or min(split) <= 0:
        raise ValueError("split must be three positive fractions summing to 1")
    if max_fanout is None:
        # repro: allow[PRIV003] -- documented leak: the data-derived default bound is public-by-assumption (pass a fixed bound for strict DP)
        max_fanout = linked.max_fanout()
    if max_fanout < 1:
        raise ValueError("max_fanout must be at least 1")
    accountant = PrivacyAccountant(epsilon)
    eps_primary, eps_fanout, eps_child = split_epsilon(epsilon, split)

    # repro: allow[PRIV003] -- contribution-bounding preprocessing; its effect is priced into the three phase charges below
    truncated = linked.truncate(max_fanout, rng)

    # --- primary table: plain single-table PrivBayes -------------------
    accountant.spend("primary table (PrivBayes)", eps_primary)
    primary_model = PrivBayes(epsilon=eps_primary, **privbayes_kwargs).fit(
        truncated.primary, rng=rng, scoring_cache=scoring_cache
    )

    # --- fanout histogram: one Laplace release --------------------------
    accountant.spend("fanout histogram (Laplace)", eps_fanout)
    counts = np.bincount(
        truncated.fanout_counts(), minlength=max_fanout + 1
    ).astype(float)
    histogram = counts / max(linked.n_individuals, 1)
    noisy = laplace_mechanism(
        histogram,
        sensitivity=2.0 / max(linked.n_individuals, 1),
        epsilon=eps_fanout,
        rng=rng,
    )
    fanout_distribution = normalize_distribution(noisy)

    # --- child table: group-privacy-scaled PrivBayes --------------------
    accountant.spend(
        f"child table (PrivBayes at eps/{max_fanout} for group privacy)",
        eps_child,
    )
    if truncated.child.n == 0:
        raise ValueError("child table has no rows after truncation")
    child_model = PrivBayes(
        epsilon=scale_for_group_privacy(eps_child, max_fanout),
        **privbayes_kwargs,
    ).fit(truncated.child, rng=rng, scoring_cache=scoring_cache)

    return TwoTableRelease(
        primary_model=primary_model,
        child_model=child_model,
        fanout_distribution=fanout_distribution,
        max_fanout=max_fanout,
        accountant=accountant,
    )

"""The end-to-end PrivBayes pipeline (Section 3).

Three phases under a total budget ε split as ε₁ = βε (network learning,
exponential mechanism) and ε₂ = (1−β)ε (distribution learning, Laplace
mechanism); sampling is post-processing and free.  Theorem 3.2: the whole
pipeline is (ε₁ + ε₂)-differentially private.

Two operating modes, chosen automatically from the schema, run one phase
sequence in :meth:`PrivBayes.fit` and differ only in which learner each
phase calls:

* ``binary`` — every attribute is binary: Algorithm 2 with degree ``k``
  chosen by θ-usefulness (Lemma 4.8), score ``F`` by default, and
  Algorithm 1 for distribution learning.
* ``general`` — arbitrary discrete domains: Algorithm 4 (θ-usefulness via
  the domain-size bound τ), score ``R`` by default, and Algorithm 3
  (Algorithm 1 at ``k = 0``).  With ``generalize=True``, parent sets may
  use taxonomy-generalized attributes (Algorithm 6) — the Hierarchical
  encoding of Section 5.1.

The config checks (mode, score, ``k``, first attribute) read only the
config, the schema and ``n`` — public quantities — and run before an
external accountant is charged, so a refused config reserves no ε.

Diagnostic switches ``oracle_network`` / ``oracle_marginals`` reproduce the
BestNetwork / BestMarginal references of Figure 11.  They break differential
privacy and exist only for error attribution.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.core.greedy_bayes import (
    check_score_domains,
    greedy_bayes_fixed_k,
    greedy_bayes_theta,
)
from repro.core.noisy_conditionals import (
    NoisyModel,
    noisy_conditionals_fixed_k,
    noisy_conditionals_general,
)
from repro.core.rng import fallback_rng
from repro.core.sampler import sample_synthetic, sample_synthetic_chunks
from repro.core.scoring import ScoringCache
from repro.core.theta import choose_k_binary
from repro.data.chunks import DEFAULT_CHUNK_ROWS
from repro.data.table import Table
from repro.dp.accountant import (
    PrivacyAccountant,
    check_epsilon,
    split_epsilon,
)

#: Paper defaults (Section 6.4): β = 0.3, θ = 4.
DEFAULT_BETA = 0.3
DEFAULT_THETA = 4.0


@dataclass(frozen=True)
class PrivBayesConfig:
    """All tunables of the pipeline.

    Parameters
    ----------
    epsilon:
        Total privacy budget ε, a finite positive number.
    beta:
        Fraction of ε for network learning (ε₁ = βε).  Figure 9 studies
        this; [0.2, 0.5] is the good range, 0.3 the default.  A real
        number in (0, 1): β = 0 leaves the exponential mechanism without
        budget.
    theta:
        Usefulness threshold (Definition 4.7).  Figure 10 studies this;
        [3, 6] is the good range, 4 the default.  A positive real number.
    score:
        ``'I' | 'F' | 'R' | 'auto'``.  Auto picks ``F`` in binary mode and
        ``R`` in general mode (the paper's recommendations).
    mode:
        ``'binary' | 'general' | 'auto'``.  Auto picks binary iff every
        attribute has a two-value domain.
    k:
        Optional integer override of the network degree (binary mode
        only); by default θ-usefulness chooses it.
    generalize:
        Allow taxonomy-generalized parents (Algorithm 6, general mode).
    first_attribute:
        Optional deterministic choice of the first network attribute.
    oracle_network / oracle_marginals:
        Figure 11 diagnostics (non-private network / exact marginals).
    """

    epsilon: float
    beta: float = DEFAULT_BETA
    theta: float = DEFAULT_THETA
    score: str = "auto"
    mode: str = "auto"
    k: Optional[int] = None
    generalize: bool = False
    first_attribute: Optional[str] = None
    oracle_network: bool = False
    oracle_marginals: bool = False

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        for name in ("beta", "theta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number; got {value!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(
                f"beta must be in (0, 1); got {self.beta!r} — beta = 0 "
                "would leave network learning (epsilon1 = beta * epsilon) "
                "with no budget"
            )
        if not self.theta > 0:
            raise ValueError(f"theta must be positive; got {self.theta!r}")
        if self.score not in ("auto", "I", "F", "R"):
            raise ValueError(f"unknown score {self.score!r}")
        if self.mode not in ("auto", "binary", "general"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not isinstance(self.first_attribute, (str, type(None))):
            raise ValueError(
                "first_attribute must be an attribute name; got "
                f"{self.first_attribute!r}"
            )
        for switch in ("generalize", "oracle_network", "oracle_marginals"):
            if not isinstance(getattr(self, switch), bool):
                raise ValueError(
                    f"{switch} must be True or False; got "
                    f"{getattr(self, switch)!r}"
                )
        if self.k is not None:
            if isinstance(self.k, bool) or not isinstance(
                self.k, numbers.Integral
            ):
                raise ValueError(f"k must be an integer; got {self.k!r}")
            if self.k < 0:
                raise ValueError(f"k must be non-negative; got {self.k!r}")
            if self.mode == "general":
                raise ValueError(
                    "k is only used in binary mode (Algorithm 2); general "
                    "mode derives the structure from theta-usefulness — "
                    "unset k or use mode='binary'"
                )


@dataclass
class PrivBayesModel:
    """A fitted model: network + noisy conditionals + release metadata."""

    noisy: NoisyModel
    table_attributes: tuple
    source_n: int
    config: PrivBayesConfig
    accountant: PrivacyAccountant
    k: Optional[int] = None

    @property
    def network(self) -> BayesianNetwork:
        return self.noisy.network

    def sample(
        self, n: Optional[int] = None, rng: Optional[np.random.Generator] = None
    ) -> Table:
        """Draw a synthetic dataset (defaults to the source cardinality)."""
        return sample_synthetic(
            self.noisy,
            self.table_attributes,
            self.source_n if n is None else n,
            rng,
        )

    def sample_chunks(
        self,
        n: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        """Stream a synthetic dataset as bounded-size chunk tables.

        The streaming release path: feed the returned iterator straight to
        :func:`repro.data.io.write_csv`.  See
        :func:`repro.core.sampler.sample_synthetic_chunks` for the
        determinism contract (chunk-size-invariant, but a different seeded
        stream than :meth:`sample`).
        """
        return sample_synthetic_chunks(
            self.noisy,
            self.table_attributes,
            self.source_n if n is None else n,
            rng,
            chunk_rows,
        )


class PrivBayes:
    """High-level entry point: ``PrivBayes(epsilon=...).fit_sample(table)``."""

    def __init__(self, config: Optional[PrivBayesConfig] = None, **kwargs) -> None:
        if config is None:
            config = PrivBayesConfig(**kwargs)
        elif kwargs:
            config = replace(config, **kwargs)
        self.config = config

    # ------------------------------------------------------------------
    def fit(
        self,
        table,
        rng: Optional[np.random.Generator] = None,
        scoring_cache=None,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> PrivBayesModel:
        """Run phases 1 and 2 (network + distribution learning).

        ``table`` is a resident :class:`~repro.data.Table` or any
        :class:`~repro.data.chunks.ChunkedSource`: both phases touch the
        data only through contingency counts, which one counting engine
        (:class:`~repro.bn.quality.ParentIndexCache`) accumulates chunk
        by chunk on either, in memory bounded by the chunk size, with
        bit-identical counts (noise draws depend only on those counts and
        the rng, so a ``TableChunks`` view of a table yields the exact
        release the resident fit produces).  An all-binary source is read
        once, for the Walsh–Hadamard coefficients of its full joint; any
        other source once per greedy round that has fresh parent sets to
        count, plus once for distribution learning.

        ``scoring_cache`` is an optional
        :class:`~repro.core.scoring.ScoringCache`; pass one when fitting
        many models over the same table (an ε sweep) so candidate scores,
        parent-set enumerations and contingency counts — deterministic
        data statistics — are computed once across all fits.

        ``accountant`` is an optional *external* (e.g. per-dataset)
        :class:`~repro.dp.accountant.PrivacyAccountant` that this fit
        charges its whole ``config.epsilon`` into, as **one atomic
        reservation made before any data is touched** and after the
        config checks (a config the table refuses raises
        :class:`ValueError` without a charge) — so repeated fits
        against the same table compose cumulative ε under sequential
        composition, and a fit that would exceed the dataset budget
        raises :class:`~repro.dp.accountant.PrivacyBudgetError` without
        having looked at a single count.  (Reserving up front, rather
        than threading the external ledger through the per-phase charges,
        is what makes the refusal safe: a mid-fit refusal would land
        *after* the network phase already consumed data access.)  The
        returned model still carries its own per-phase accountant, and
        the fit itself — every count, score and noise draw — is
        bit-identical to ``accountant=None``.

        The default (``accountant=None``) constructs a fresh internal
        accountant, the historical behavior: no cross-fit composition.
        """
        rng = fallback_rng(rng)
        if table.d == 0 or table.n == 0:
            raise ValueError("cannot fit an empty table")
        config = self.config
        names = table.attribute_names
        mode = config.mode
        if mode == "auto":
            all_binary = all(a.size == 2 for a in table.attributes)
            mode = "binary" if all_binary else "general"
        score = config.score
        if score == "auto":
            score = "F" if mode == "binary" else "R"
        # ε₁ = βε exactly as the historical two-line split (bit-identical).
        epsilon1, epsilon2 = split_epsilon(
            config.epsilon, (config.beta,), remainder=True
        )
        k = None
        if mode == "binary":
            k = config.k
            if k is None:
                k = choose_k_binary(table.n, table.d, epsilon2, config.theta)
            k = min(k, table.d - 1)
        elif config.k is not None:
            raise ValueError(
                f"config.k={config.k} is only used in binary mode "
                "(Algorithm 2), but this table resolved to general mode — "
                "unset k or force mode='binary'"
            )
        elif score == "F":
            raise ValueError("score 'F' is not computable on general domains")
        # With one attribute or k = 0 there is only one possible structure:
        # skip the exponential mechanism and give the whole budget to the
        # marginals (footnote 6).
        learn_network = table.d > 1 and k != 0
        first = config.first_attribute
        if learn_network:
            check_score_domains(table.attributes, score)
            if first and first not in names:
                raise ValueError(f"unknown first attribute {first!r}")
        # The config is valid for this table.  Reserve before touching
        # counts; raises PrivacyBudgetError when the dataset budget cannot
        # cover this fit.
        if accountant is not None:
            accountant.spend("privbayes-fit", config.epsilon)
        # The model's own per-phase ledger; the external reservation (if
        # any) was already taken above, so this stays a fresh accountant
        # and the phases below are bit-identical either way.
        accountant = PrivacyAccountant(config.epsilon)
        # Without a caller's cache, a fit-local one still gives the scorer
        # and the joint counter one counting engine over the table.
        if scoring_cache is None:
            scoring_cache = ScoringCache()
        scorer = scoring_cache.scorer(table, score)
        counter = scoring_cache.joint_counter(table)
        if not learn_network:
            epsilon2 = config.epsilon
            network = BayesianNetwork([APPair.make(name, []) for name in names])
        else:
            if not config.oracle_network:
                accountant.spend(
                    "network-learning (exponential mechanism)", epsilon1
                )
            selection_epsilon = None if config.oracle_network else epsilon1
            search = dict(
                score=score, rng=rng, first_attribute=first, scorer=scorer
            )
            if mode == "binary":
                network = greedy_bayes_fixed_k(
                    table, k, selection_epsilon, **search
                )
            else:
                network = greedy_bayes_theta(
                    table, selection_epsilon, epsilon2, config.theta,
                    generalize=config.generalize, **search,
                )
        if config.oracle_marginals:
            epsilon2 = None
        if mode == "binary":
            noisy = noisy_conditionals_fixed_k(
                table, network, k, epsilon2, rng, accountant, counter=counter
            )
        else:
            noisy = noisy_conditionals_general(
                table, network, epsilon2, rng, accountant, counter=counter
            )
        return PrivBayesModel(
            noisy=noisy,
            table_attributes=table.attributes,
            source_n=table.n,
            config=config,
            accountant=accountant,
            k=k,
        )

    def fit_sample(
        self,
        table,
        rng: Optional[np.random.Generator] = None,
        n: Optional[int] = None,
        scoring_cache=None,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> Table:
        """Full pipeline: fit, then sample a synthetic table.

        ``table`` may be a resident table or a chunked source (see
        :meth:`fit`); the returned synthetic table is always resident —
        use ``fit(...).sample_chunks()`` for a streaming release.
        ``accountant`` forwards to :meth:`fit` (sampling is free
        post-processing and charges nothing).
        """
        rng = fallback_rng(rng)
        model = self.fit(
            table, rng, scoring_cache=scoring_cache, accountant=accountant
        )
        return model.sample(n, rng)

"""The paper's primary contribution: the PrivBayes pipeline.

Public surface:

* :class:`~repro.core.privbayes.PrivBayes` — end-to-end release pipeline
  (network learning → distribution learning → sampling, Section 3).
* :mod:`~repro.core.scores` — sensitivities of the score functions
  ``I``, ``F``, ``R`` (Lemma 4.1, Theorems 4.5 and 5.3).
* :mod:`~repro.core.score_kernels` — the batched score kernels
  (Sections 4.2, 4.4, 5.3).
* :mod:`~repro.core.scoring` — candidate-scoring engine (cross-round
  score memo, batched contingencies, per-table shared caches).
* :mod:`~repro.core.greedy_bayes` — Algorithms 2 and 4.
* :mod:`~repro.core.parent_sets` — Algorithms 5 and 6.
* :mod:`~repro.core.noisy_conditionals` — Algorithms 1 and 3.
* :mod:`~repro.core.sampler` — ancestral synthesis of tuples.
* :mod:`~repro.core.theta` — θ-usefulness (Definition 4.7) choice of ``k``.
"""

from repro.core.privbayes import PrivBayes, PrivBayesConfig, PrivBayesModel
from repro.core.scores import (
    sensitivity_F,
    sensitivity_I,
    sensitivity_R,
)
from repro.core.greedy_bayes import greedy_bayes_fixed_k, greedy_bayes_theta
from repro.core.scoring import (
    CandidateScorer,
    ScoringCache,
)
from repro.core.parent_sets import (
    maximal_parent_sets,
    maximal_parent_sets_generalized,
)
from repro.core.noisy_conditionals import (
    ConditionalTable,
    NoisyModel,
    noisy_conditionals_fixed_k,
    noisy_conditionals_general,
)
from repro.core.sampler import (
    invert_row_cdfs,
    sample_synthetic,
    sample_synthetic_chunks,
)
from repro.core.theta import choose_k_binary, usefulness_tau

__all__ = [
    "PrivBayes",
    "PrivBayesConfig",
    "PrivBayesModel",
    "sensitivity_I",
    "sensitivity_F",
    "sensitivity_R",
    "greedy_bayes_fixed_k",
    "greedy_bayes_theta",
    "CandidateScorer",
    "ScoringCache",
    "maximal_parent_sets",
    "maximal_parent_sets_generalized",
    "ConditionalTable",
    "NoisyModel",
    "noisy_conditionals_fixed_k",
    "noisy_conditionals_general",
    "sample_synthetic",
    "sample_synthetic_chunks",
    "invert_row_cdfs",
    "choose_k_binary",
    "usefulness_tau",
]

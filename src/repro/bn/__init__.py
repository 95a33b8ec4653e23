"""Bayesian-network substrate: structure, validation, inference, quality.

:func:`network_mutual_information` is the network quality of Figure 4,
``Σ I(X_i, Π_i)``, read from an ``I``
:class:`~repro.core.scoring.CandidateScorer`.
"""

from repro.bn.network import APPair, BayesianNetwork
from repro.bn.quality import network_mutual_information
from repro.bn.inference import model_marginal, model_marginals

__all__ = [
    "APPair",
    "BayesianNetwork",
    "network_mutual_information",
    "model_marginal",
    "model_marginals",
]

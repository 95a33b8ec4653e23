"""ε enters every baseline and learner through ``check_epsilon``.

A NaN ε fails ``epsilon <= 0`` and every budget comparison, and an
infinite one turns a Laplace scale into 0, so a sign check alone lets
both through: the entry then releases NaNs or noiseless answers.  Each
entry below must refuse them, as it refuses 0 and negatives, a boolean
and a string, with a ``ValueError`` that names the value.
"""

import re

import numpy as np
import pytest

from repro.baselines.classification import (
    MajorityClassifier,
    PrivateERM,
    PrivGene,
)
from repro.baselines.fourier import FourierMarginals
from repro.baselines.marginal_methods import (
    ContingencyMarginals,
    LaplaceMarginals,
)
from repro.baselines.mwem import MWEM
from repro.bn.network import APPair, BayesianNetwork
from repro.core.greedy_bayes import greedy_bayes_fixed_k, greedy_bayes_theta
from repro.core.noisy_conditionals import (
    noisy_conditionals_fixed_k,
    noisy_conditionals_general,
)
from repro.core.privbayes import PrivBayes
from repro.data.attribute import Attribute
from repro.data.table import Table
from repro.dp.accountant import PrivacyAccountant
from repro.dp.mechanisms import laplace_noise
from repro.multitable import LinkedTables, release_two_tables

#: ``True`` and ``"0.5"`` are not numbers: ``True`` would pass as 1, and a
#: string would be converted or fail with a TypeError that names nothing.
#: ``10**400`` is past the float range: converting it raises OverflowError.
BAD_EPSILONS = [
    float("nan"), float("inf"), float("-inf"), 0.0, -1.0, True, "0.5",
    10**400,
]

WORKLOAD = [("a", "b"), ("c",)]


def _table():
    rng = np.random.default_rng(3)
    n = 300
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < 0.8, a, 1 - a)
    c = rng.integers(0, 3, n)
    attributes = [
        Attribute.binary("a"),
        Attribute.binary("b"),
        Attribute("c", ("x", "y", "z")),
    ]
    return Table(attributes, {"a": a, "b": b, "c": c})


def _chain():
    return BayesianNetwork(
        [APPair.make("a", []), APPair.make("b", ["a"]), APPair.make("c", ["b"])]
    )


def _xy():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((200, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    return X, y


def _linked():
    rng = np.random.default_rng(5)
    primary = Table(
        [Attribute.binary("wealthy")], {"wealthy": rng.integers(0, 2, 100)}
    )
    owners = np.repeat(np.arange(100), rng.integers(0, 3, 100))
    child = Table(
        [Attribute.binary("old")], {"old": rng.integers(0, 2, owners.size)}
    )
    return LinkedTables(primary, child, owners)


ENTRIES = {
    "MajorityClassifier.fit": lambda eps, rng: MajorityClassifier().fit(
        *_xy(), eps, rng
    ),
    "PrivateERM.fit": lambda eps, rng: PrivateERM().fit(*_xy(), eps, rng),
    "PrivGene.fit": lambda eps, rng: PrivGene(
        population=10, n_parents=2, iterations=2
    ).fit(*_xy(), eps, rng),
    "LaplaceMarginals.release": lambda eps, rng: LaplaceMarginals().release(
        _table(), WORKLOAD, eps, rng
    ),
    "ContingencyMarginals.release": lambda eps, rng: (
        ContingencyMarginals().release(_table(), WORKLOAD, eps, rng)
    ),
    "MWEM.release": lambda eps, rng: MWEM().release(
        _table(), WORKLOAD, eps, rng
    ),
    "FourierMarginals.release": lambda eps, rng: FourierMarginals().release(
        _table(), WORKLOAD, eps, rng
    ),
    "release_two_tables": lambda eps, rng: release_two_tables(
        _linked(), eps, max_fanout=2, rng=rng
    ),
    "greedy_bayes_fixed_k": lambda eps, rng: greedy_bayes_fixed_k(
        _table(), 1, eps, score="R", rng=rng
    ),
    "greedy_bayes_theta": lambda eps, rng: greedy_bayes_theta(
        _table(), eps, 1.0, 4.0, rng=rng
    ),
    "noisy_conditionals_fixed_k": lambda eps, rng: noisy_conditionals_fixed_k(
        _table(), _chain(), 1, eps, rng
    ),
    "noisy_conditionals_general": lambda eps, rng: noisy_conditionals_general(
        _table(), _chain(), eps, rng
    ),
    "PrivBayes.fit": lambda eps, rng: PrivBayes(epsilon=eps).fit(
        _table(), rng
    ),
    "PrivacyAccountant": lambda eps, rng: PrivacyAccountant(eps),
    "PrivacyAccountant.spend": lambda eps, rng: PrivacyAccountant(1.0).spend(
        "fit", eps
    ),
    "PrivacyAccountant replay": lambda eps, rng: PrivacyAccountant(
        1.0, [("fit", eps)]
    ),
}


@pytest.mark.parametrize(
    "epsilon", BAD_EPSILONS, ids=lambda epsilon: repr(epsilon)[:10]
)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_refuses_bad_epsilon(entry, epsilon):
    with pytest.raises(ValueError, match=re.escape(repr(epsilon))):
        ENTRIES[entry](epsilon, np.random.default_rng(0))


@pytest.mark.parametrize(
    "scale", [float("nan"), float("inf"), float("-inf"), -1.0], ids=repr
)
def test_laplace_noise_refuses_bad_scale(scale):
    with pytest.raises(ValueError, match=re.escape(repr(scale))):
        laplace_noise(scale, 4, np.random.default_rng(0))

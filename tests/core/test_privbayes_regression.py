"""Golden-fingerprint regression: the engine refactors are bit-exact.

The fingerprints below were recorded from the pre-refactor (seed) pipeline.
Neither scoring, parent-set enumeration, nor contingency counting consumes
randomness, so the incremental scoring engine (PR 1) and the batched
distribution-learning / cached-CDF sampling engine must reproduce the exact
RNG draw sequence — and therefore the exact networks, noisy conditionals,
and synthetic tuples — of the original per-pair/per-call code.  Any drift
in candidate enumeration order, score floats, count integers, selection
sensitivity, or CDF inversion changes these hashes.
"""

import hashlib

import numpy as np
import pytest

from core_reference import PerPairCounter
from repro.core.noisy_conditionals import (
    JointCounter,
    noisy_conditionals_fixed_k,
    noisy_conditionals_general,
)
from repro.core.privbayes import PrivBayes
from repro.datasets import load_dataset


def _fingerprint(model):
    structure = hashlib.sha256()
    full = hashlib.sha256()
    for pair in model.network:
        blob = repr((pair.child, pair.parents)).encode()
        structure.update(blob)
        full.update(blob)
    for conditional in model.noisy.conditionals:
        full.update(conditional.child.encode())
        full.update(np.ascontiguousarray(conditional.matrix).tobytes())
    return structure.hexdigest(), full.hexdigest()


def _table_fingerprint(table):
    digest = hashlib.sha256()
    for name in table.attribute_names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(table.column(name)).tobytes())
    return digest.hexdigest()


GOLDEN_BINARY = (
    "4431772099da4586936a28f2110d36264edab1da91d59d65115b89ecf41f1b9f",
    "126bd73a0afa648001913fdfa7cf7d25935a17605a2d29d835a77b41a25a1fab",
)

GOLDEN_GENERAL = (
    "0c7746a3aef5153d62de18e6ccd1ef984c5a2751a56f8a9ae1bbef303c96992f",
    "fded50610628ed06c5d61adc07598addd7b5d6474678fcabbe8c9d349c650c22",
)

#: model.sample(500, default_rng(777)) from the GOLDEN_BINARY model.
GOLDEN_BINARY_SAMPLE = (
    "f5875a3c11b0f81afc8d845eaea55927c5b57e8f5bc6166653114529e09f56c9"
)

#: Two successive model.sample(300, ...) calls sharing default_rng(2024):
#: the second draw batch runs entirely off the cached row CDFs.
GOLDEN_BINARY_SAMPLE_SEQ = (
    "b492ced861842c9503dcfe204001d3cf6710d8ed76d159fd439faadd9ad4cc56",
    "6059707c4ff62a2bb135ec5c19ece9dcb3b843cc81af13ac3e78124136933b67",
)

#: model.sample(400, default_rng(42)) from the GOLDEN_GENERAL model.
GOLDEN_GENERAL_SAMPLE = (
    "405bca60559aebccdf029042dd4bdf7210c2361df7684aeeb5fb727fe3d1fe55"
)

#: End-to-end fit_sample fingerprints (fit and sample share one generator).
GOLDEN_BINARY_FIT_SAMPLE = (
    "634ed17064e58969e948475824f849eae5d62a6d6d6453f4f02483cf0589555e"
)
GOLDEN_GENERAL_FIT_SAMPLE = (
    "65a62b4e7d2b423769fa2e4da917fb11132d3fefbe324248a70bfd197b5bda6f"
)


def test_binary_mode_matches_seed_pipeline():
    table = load_dataset("nltcs", n=800, seed=3)
    model = PrivBayes(
        epsilon=1.0, k=2, first_attribute=table.attribute_names[0]
    ).fit(table, rng=np.random.default_rng(1234))
    assert _fingerprint(model) == GOLDEN_BINARY


def test_general_mode_matches_seed_pipeline():
    table = load_dataset("adult", n=1500, seed=5)
    model = PrivBayes(epsilon=4.0, theta=2.0, generalize=True).fit(
        table, rng=np.random.default_rng(99)
    )
    fingerprint = _fingerprint(model)
    assert fingerprint == GOLDEN_GENERAL
    # Sanity: the general run actually exercises multi-parent candidates.
    assert max(pair.degree for pair in model.network) >= 2


def test_binary_mode_matches_seed_with_shared_cache(monkeypatch, backend):
    import repro.core.scoring as scoring
    from repro.core.kernel_backend import NativeKernel
    from repro.core.scoring import ScoringCache

    # F reaches the scorer through score_F_batch, or, on the Walsh path
    # with the native kernel, through the fused score_f_walsh.
    kernel_calls = []
    kernel, fused = scoring.score_F_batch, NativeKernel.score_f_walsh

    def counting(*args, **kwargs):
        kernel_calls.append(1)
        return kernel(*args, **kwargs)

    def counting_fused(*args, **kwargs):
        kernel_calls.append(1)
        return fused(*args, **kwargs)

    monkeypatch.setattr(scoring, "score_F_batch", counting)
    monkeypatch.setattr(NativeKernel, "score_f_walsh", counting_fused)
    table = load_dataset("nltcs", n=800, seed=3)
    cache = ScoringCache()
    calls = []
    for _ in range(2):  # second fit runs entirely off the memo
        model = PrivBayes(
            epsilon=1.0, k=2, first_attribute=table.attribute_names[0]
        ).fit(table, rng=np.random.default_rng(1234), scoring_cache=cache)
        assert _fingerprint(model) == GOLDEN_BINARY
        calls.append(len(kernel_calls))
    assert calls[0] > 0 and calls[1] == calls[0]


def _golden_binary_model(scoring_cache=None):
    table = load_dataset("nltcs", n=800, seed=3)
    return PrivBayes(
        epsilon=1.0, k=2, first_attribute=table.attribute_names[0]
    ).fit(table, rng=np.random.default_rng(1234), scoring_cache=scoring_cache)


def test_sampling_matches_seed_pipeline():
    """Cached-CDF sampling (with the binary fast path) is bit-exact."""
    model = _golden_binary_model()
    synthetic = model.sample(500, np.random.default_rng(777))
    assert _table_fingerprint(synthetic) == GOLDEN_BINARY_SAMPLE


def test_repeated_sampling_runs_off_cached_cdfs():
    """Draws 2..N reuse the cached row CDFs and stay bit-identical."""
    model = _golden_binary_model()
    rng = np.random.default_rng(2024)
    first = model.sample(300, rng)
    # The second call must find every conditional's CDF already cached.
    cached = [
        getattr(cond, "_row_cdfs", None) for cond in model.noisy.conditionals
    ]
    assert all(c is not None for c in cached)
    second = model.sample(300, rng)
    for cond, before in zip(model.noisy.conditionals, cached):
        assert cond.row_cdfs is before  # same object: no recomputation
    assert _table_fingerprint(first) == GOLDEN_BINARY_SAMPLE_SEQ[0]
    assert _table_fingerprint(second) == GOLDEN_BINARY_SAMPLE_SEQ[1]


def test_general_sampling_matches_seed_pipeline():
    table = load_dataset("adult", n=1500, seed=5)
    model = PrivBayes(epsilon=4.0, theta=2.0, generalize=True).fit(
        table, rng=np.random.default_rng(99)
    )
    synthetic = model.sample(400, np.random.default_rng(42))
    assert _table_fingerprint(synthetic) == GOLDEN_GENERAL_SAMPLE


def test_fit_sample_matches_seed_pipeline():
    """The full pipeline — batched learning + cached sampling — is pinned."""
    table = load_dataset("nltcs", n=800, seed=3)
    synthetic = PrivBayes(
        epsilon=1.0, k=2, first_attribute=table.attribute_names[0]
    ).fit_sample(table, rng=np.random.default_rng(555))
    assert _table_fingerprint(synthetic) == GOLDEN_BINARY_FIT_SAMPLE

    table_g = load_dataset("adult", n=1500, seed=5)
    synthetic_g = PrivBayes(epsilon=4.0, theta=2.0, generalize=True).fit_sample(
        table_g, rng=np.random.default_rng(556), n=600
    )
    assert _table_fingerprint(synthetic_g) == GOLDEN_GENERAL_FIT_SAMPLE


def test_batched_distribution_learning_matches_naive_path():
    """batched / shared-counter / per-pair paths emit identical matrices."""
    table = load_dataset("nltcs", n=800, seed=3)
    network = _golden_binary_model().network
    variants = [
        dict(counter=PerPairCounter(table)),      # seed per-pair scan
        dict(),                                   # fresh grouped counter
        dict(counter=JointCounter(table)),        # caller-shared counter
    ]
    models = [
        noisy_conditionals_fixed_k(
            table, network, 2, 0.7, np.random.default_rng(31), **kwargs
        )
        for kwargs in variants
    ]
    for other in models[1:]:
        for a, b in zip(models[0].conditionals, other.conditionals):
            assert a.child == b.child
            np.testing.assert_array_equal(a.matrix, b.matrix)


def test_shared_counter_reused_across_fits_is_bit_exact():
    """A warm JointCounter (second fit scans no data) changes nothing."""
    table = load_dataset("adult", n=1500, seed=5)
    model = PrivBayes(epsilon=4.0, theta=2.0, generalize=True).fit(
        table, rng=np.random.default_rng(99)
    )
    counter = JointCounter(table)
    reference = noisy_conditionals_general(
        table,
        model.network,
        1.3,
        np.random.default_rng(8),
        counter=PerPairCounter(table),
    )
    for _ in range(2):  # second pass hits the count memo for every pair
        again = noisy_conditionals_general(
            table, model.network, 1.3, np.random.default_rng(8), counter=counter
        )
        for a, b in zip(reference.conditionals, again.conditionals):
            np.testing.assert_array_equal(a.matrix, b.matrix)


def _nltcs_table():
    return load_dataset("nltcs", n=800, seed=3)


def _adult_table():
    return load_dataset("adult", n=1500, seed=5)


def _ledger_fingerprint(accountant):
    return hashlib.sha256(repr(accountant.ledger).encode()).hexdigest()


#: One case per branch of ``PrivBayes.fit``: (table, config, fit seed).
FIT_BRANCHES = {
    "binary-k0": (_nltcs_table, dict(epsilon=1.0, k=0), 41),
    "binary-d1": (
        lambda: _nltcs_table().project(["eating"]), dict(epsilon=1.0), 42
    ),
    "general-d1": (
        lambda: _adult_table().project(["education"]), dict(epsilon=1.0), 43
    ),
    "binary-oracle-network": (
        _nltcs_table, dict(epsilon=1.0, k=2, oracle_network=True), 44
    ),
    "binary-oracle-marginals": (
        _nltcs_table, dict(epsilon=1.0, k=2, oracle_marginals=True), 45
    ),
    "general-oracle-network": (
        _adult_table, dict(epsilon=4.0, theta=2.0, oracle_network=True), 46
    ),
    "general-oracle-marginals": (
        _adult_table, dict(epsilon=4.0, theta=2.0, oracle_marginals=True), 47
    ),
    "general-generalize": (
        _adult_table, dict(epsilon=4.0, theta=2.0, generalize=True), 48
    ),
}

#: Per branch: the full model fingerprint (network and matrices), the
#: accountant ledger and ``model.sample(300, default_rng(7))``.
GOLDEN_FIT_BRANCHES = {
    "binary-k0": (
        "c7384853b1854600be54eba8681e31a5646b91fae5aebf315bcf18cce27f6b89",
        "d0d7e9f09685f7f24e19ca4b27b233d7492f80fe38ed828502430e2b0c91845f",
        "db30abe75a634e69f22ff82e76fd83a83e9f19e266baa329924bcb00b0edb757",
    ),
    "binary-d1": (
        "ea4adce8ea8e9413cb9a6a6721382d88b5d22a9d457d2d9db13faa3a956a502d",
        "7d948fef042779467ea08b9a1e6fb85153e94a821b675f51fabf81d53ab83b4b",
        "fb169c67b9d9ee644138f7e440fc34457f5a2cea99e8c12585507509e161e6ac",
    ),
    "general-d1": (
        "5480a7e9a862cfdd8ce9577fdb26496b80de74abbc28dbeff2b9f0eb937d7f2d",
        "d5251e01bfa81411afec144da9f8fb384d2edebefd0e48da79fd70411eb7c473",
        "14682c27c97d65330f604c897ae80e8968983b7ce168a5c5924ec6cd73167743",
    ),
    "binary-oracle-network": (
        "f20f2a0c46accc16aa2193d2d28f3ea8688100752a9badf6771dcbd0ebcfe363",
        "0576f02083e109654731290bfd56d0620e023cf312465148e4649703beec5533",
        "d5d29a238a76bd754dc050da812f1e23fe54c77b2830e3b80d7068f56b370f12",
    ),
    "binary-oracle-marginals": (
        "d194ac2bbe85959fb8215ac5acb25340d876a5e5bf3b15777d19e616862684e8",
        "73db03ffcb128c1b3eb02d8ac8d05a271a8f69624889fdf2daa3fbb538e2228d",
        "08c2187f43ab3d965ff57380da879c2886c2320def1650c237aaef2ed54cdb66",
    ),
    "general-oracle-network": (
        "eb59a98ab95c16eea128e10a098c9dd890af0dd941532d3bd9c52bbcec199507",
        "b6bdd605c99796b4cf67994be9df5df3f36f8cddbb4be1723a7710ea4c963b79",
        "f6014efa941dc8c716c637516cda0be868d93bfaafcad0b7f9766cfd604ad188",
    ),
    "general-oracle-marginals": (
        "1ae428550fc319e9e6d184af1482bbfeb40971e941dbf43f3ebc02c0f224dda6",
        "2517551ac0a49a92602aef52b818f85f46b82c9ba6120689fb27e0ecd67f6af9",
        "227a1f2d1d0d6392e5fa4e1ac8508a062f7c049087afa117d2da6300743db2ba",
    ),
    "general-generalize": (
        "f22547af1482a053f019f65b4e8d5446fd1a417277a143707edecebfc97f8454",
        "733d729ed4ecd3e213906bf90863ac19a9088b049a13a5c6757536deb6dee073",
        "59d224791eb131af52a6242db0d74e40ee17120e716733b445e4a0c051ef4038",
    ),
}


def _fit_branch_fingerprints(name):
    make_table, config, seed = FIT_BRANCHES[name]
    model = PrivBayes(**config).fit(make_table(), np.random.default_rng(seed))
    synthetic = model.sample(300, np.random.default_rng(7))
    return (
        _fingerprint(model)[1],
        _ledger_fingerprint(model.accountant),
        _table_fingerprint(synthetic),
    )


@pytest.mark.parametrize("name", sorted(FIT_BRANCHES))
def test_fit_branch_matches_golden(backend, name):
    """Every fit branch keeps its conditionals, ledger and sample."""
    assert _fit_branch_fingerprints(name) == GOLDEN_FIT_BRANCHES[name]

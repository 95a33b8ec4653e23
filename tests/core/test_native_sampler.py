"""The native ancestral sampler against the NumPy block, code for code.

``core/_native/scoref.c``'s ``repro_sample_block`` draws a whole block of
tuples in one call: mixed-radix parent rows, generalization maps and CDF
inversion for every attribute.  On the same uniforms its codes must be
``np.array_equal`` to :func:`repro.core.sampler._numpy_block`, the loop
that runs without a compiler.  Generated networks cover 1-8 attributes of
sizes 1, 2, 3, 16 and 41 with 0-4 parents, some generalized through a
taxonomy, and uniforms that land exactly on CDF entries.

Also here: the ``(d, n)`` uniform block equals ``d`` sequential draws,
every checked gather fails loudly, the public samplers agree across
backends, and a conditional or schema that cannot be sampled raises
:class:`ValueError` under both backends.  Native cases skip without a C
toolchain.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bn.network import APPair, BayesianNetwork
from repro.core import kernel_backend, sampler
from repro.core.noisy_conditionals import ConditionalTable, NoisyModel
from repro.core.privbayes import PrivBayes
from repro.core.sampler import (
    sample_synthetic,
    sample_synthetic_chunks,
    sample_synthetic_split,
)
from repro.data.attribute import Attribute
from repro.data.marginals import domain_size
from repro.data.taxonomy import TaxonomyTree
from repro.datasets import load_dataset
from repro.encoding import make_encoder


def _native_kernel():
    try:
        return kernel_backend.load_native()
    except kernel_backend.KernelBackendError:
        return None


NATIVE = _native_kernel()

needs_native = pytest.mark.skipif(
    NATIVE is None, reason="no C toolchain for native kernel"
)

#: Child domain sizes: empty search, binary, odd, and Adult-sized widths.
SIZES = (1, 2, 3, 16, 41)

#: Cap on a generated conditional's rows (its parent domain).
MAX_ROWS = 4096


def _attribute(name, size, generalizable):
    labels = tuple(str(value) for value in range(size))
    taxonomy = TaxonomyTree.balanced_binary(labels) if generalizable else None
    return Attribute(name, labels, taxonomy=taxonomy)


@st.composite
def networks(draw):
    """A random model, its schema, and a seed for its CDFs and uniforms."""
    d = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    attrs = [
        _attribute(f"a{i}", draw(st.sampled_from(SIZES)), draw(st.booleans()))
        for i in range(d)
    ]
    pairs, conditionals = [], []
    for i, attr in enumerate(attrs):
        chosen = draw(
            st.lists(
                st.integers(0, i - 1) if i else st.nothing(),
                unique=True,
                max_size=min(4, i),
            )
        )
        parents = []
        for j in chosen:
            height = attrs[j].height
            parents.append((attrs[j].name, draw(st.integers(0, height - 1))))
        by_name = {a.name: a for a in attrs}
        while True:
            pair = APPair.make(attr.name, parents)
            sizes = tuple(
                by_name[name].generalized(level).size
                for name, level in pair.parents
            )
            rows = domain_size(sizes)
            if rows <= MAX_ROWS:
                break
            parents.pop()
        # Zero cells (repeated CDF values) and unnormalized rows are both
        # valid: the CDF predicate stays true on a prefix of every row.
        matrix = rng.random((rows, attr.size))
        matrix[rng.random(matrix.shape) < 0.3] = 0.0
        totals = matrix.sum(axis=1, keepdims=True)
        normalize = (totals > 0) & (rng.random((rows, 1)) < 0.8)
        matrix = matrix / np.where(normalize, totals, 1.0)
        pairs.append(pair)
        conditionals.append(
            ConditionalTable(attr.name, pair.parents, sizes, attr.size, matrix)
        )
    model = NoisyModel(BayesianNetwork(pairs), tuple(conditionals))
    return model, attrs, seed


def _uniforms(model, n, seed):
    """A uniform block with some entries set exactly onto CDF values."""
    rng = np.random.default_rng(seed + 1)
    block = rng.random((model.network.d, n))
    for i, conditional in enumerate(model.conditionals):
        values = conditional.row_cdfs.ravel()
        values = values[values < 1.0]
        if n and values.size:
            hit = rng.random(n) < 0.25
            block[i, hit] = rng.choice(values, size=int(hit.sum()))
            block[i, rng.random(n) < 0.02] = 0.0
    return block


@needs_native
@settings(max_examples=60, deadline=None)
@given(network=networks(), n=st.sampled_from([0, 1, 17, 4096]))
def test_native_block_equals_numpy_block(network, n):
    model, attrs, seed = network
    plan = sampler._sampling_plan(model, sampler._check_schema(model, attrs))
    uniforms = _uniforms(model, n, seed)
    expected = uniforms.copy()
    sampler._numpy_block(plan, expected)
    got = uniforms.copy()
    NATIVE.sample_block(plan.attrs, plan.parents, plan.maps, plan.cdfs, got)
    codes = got.view(np.int64)
    assert np.array_equal(codes, expected.view(np.int64))
    for row, attr in zip(codes, attrs):
        assert ((row >= 0) & (row < attr.size)).all()


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("d, n", [(1, 0), (1, 5), (3, 1), (15, 941), (16, 17)])
def test_block_draw_equals_sequential_draws(bit_generator, d, n):
    """``rng.random((d, n))`` is ``d`` sequential ``rng.random(n)`` calls:
    the same uniforms in the same order, leaving the same stream state."""
    block_rng = np.random.Generator(bit_generator(20140622))
    serial_rng = np.random.Generator(bit_generator(20140622))
    block = block_rng.random((d, n))
    serial = [serial_rng.random(n) for _ in range(d)]
    assert np.array_equal(block, np.array(serial).reshape(d, n))
    assert block_rng.random() == serial_rng.random()


def _plan_case():
    """A valid two-attribute plan: a0 (width 4), then a1 | a0 via a map."""
    return {
        "attrs": np.array([[0, 1, 4, 0, 0], [4, 2, 2, 0, 1]], dtype=np.int64),
        "parents": np.array([[0, 0, 4, 2]], dtype=np.int64),
        "maps": np.array([0, 0, 1, 1], dtype=np.int64),
        "cdfs": np.array([0.25, 0.5, 0.75, 1.0, 0.5, 1.0, 0.5, 1.0]),
        # Uniform 0.9 draws a0 = 3: the last map index, mapped to 1.
        "block": np.array([[0.1, 0.9], [0.3, 0.7]]),
    }


@needs_native
class TestCheckedGathers:
    def test_valid_plan_samples(self):
        case = _plan_case()
        NATIVE.sample_block(**case)
        assert case["block"].view(np.int64).tolist() == [[0, 3], [0, 1]]

    @pytest.mark.parametrize(
        "array, index, value",
        [
            # a0 as a raw parent: code 3 is above the radix 2.
            ("parents", (0, 1), -1),
            # Map length 3: map index 3 is past it.
            ("parents", (0, 2), 3),
            # Mapped code 2 is above the radix.
            ("maps", 3, 2),
            # One CDF row: the radices do not multiply to it.
            ("attrs", (1, 1), 1),
            # a1 conditioned on itself.
            ("parents", (0, 0), 1),
            # The CDF block runs past the buffer.
            ("attrs", (1, 0), 5),
            # The parent entries run past the table.
            ("attrs", (1, 4), 2),
            # The map runs past the buffer.
            ("parents", (0, 1), 1),
        ],
        ids=[
            "parent-code",
            "map-index",
            "mapped-code",
            "row",
            "source-index",
            "cdf-extent",
            "parent-extent",
            "map-extent",
        ],
    )
    def test_bad_gather_raises(self, array, index, value):
        """Every check runs before any tuple: the uniforms stay intact."""
        case = _plan_case()
        case[array][index] = value
        uniforms = case["block"].copy()
        with pytest.raises(
            kernel_backend.KernelBackendError, match="status 2"
        ):
            NATIVE.sample_block(**case)
        assert np.array_equal(case["block"], uniforms)

    def test_layouts_are_checked_before_the_call(self):
        case = _plan_case()
        with pytest.raises(ValueError, match="C-contiguous"):
            NATIVE.sample_block(**{**case, "block": case["block"].T})
        with pytest.raises(ValueError, match="C-contiguous"):
            NATIVE.sample_block(
                **{**case, "attrs": case["attrs"].astype(np.int32)}
            )
        with pytest.raises(ValueError, match="headers"):
            NATIVE.sample_block(**{**case, "attrs": case["attrs"][:1]})


@pytest.fixture(scope="module")
def adult_model():
    table = load_dataset("adult", n=2000, seed=0)
    encoded = make_encoder("hierarchical").encode(table)
    model = PrivBayes(epsilon=0.8, score="R", generalize=True).fit(
        encoded, np.random.default_rng(1)
    )
    return model.noisy, model.table_attributes


def _columns(tables):
    return [
        np.stack([table.column(name) for name in table.attribute_names])
        for table in tables
    ]


@needs_native
def test_public_samplers_agree_across_backends(adult_model, monkeypatch):
    """Resident, split and chunked releases are equal without the kernel."""
    noisy, attrs = adult_model

    def draws():
        return (
            _columns(
                [sample_synthetic(noisy, attrs, 941, np.random.default_rng(3))]
            )
            + _columns(
                sample_synthetic_split(
                    noisy, attrs, [5, 0, 900, 33], np.random.default_rng(3)
                )
            )
            + _columns(
                sample_synthetic_chunks(
                    noisy, attrs, 10000, np.random.default_rng(3),
                    chunk_rows=3000,
                )
            )
        )

    monkeypatch.setattr(kernel_backend, "NATIVE_KERNEL", NATIVE)
    native = draws()
    monkeypatch.setattr(kernel_backend, "NATIVE_KERNEL", None)
    fallback = draws()
    assert len(native) == len(fallback) == 1 + 4 + 4
    for got, expected in zip(native, fallback):
        assert np.array_equal(got, expected)


def _one_conditional(matrix):
    attrs = [Attribute("a", tuple(str(v) for v in range(matrix.shape[1])))]
    network = BayesianNetwork([APPair.make("a", [])])
    table = ConditionalTable("a", (), (), matrix.shape[1], matrix)
    return NoisyModel(network, (table,)), attrs


class TestUnsampleableInputs:
    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[0.5, -0.3, 0.8, 0.0]]),
            np.array([[np.nan, 0.5, 0.5]]),
            np.array([[0.5, np.inf, 0.5]]),
        ],
        ids=["negative", "nan", "inf"],
    )
    def test_row_cdfs_reject_entries_no_inversion_agrees_on(
        self, matrix, backend
    ):
        """A negative or non-finite entry breaks the prefix shape every
        inversion relies on; it fails naming the child, on both backends."""
        model, attrs = _one_conditional(matrix)
        with pytest.raises(ValueError, match="'a'"):
            model.conditionals[0].row_cdfs
        with pytest.raises(ValueError, match="'a'"):
            sample_synthetic(model, attrs, 10, np.random.default_rng(0))

    def test_conditional_wider_than_the_attribute(self, backend):
        model, _ = _one_conditional(np.array([[0.25, 0.25, 0.5]]))
        attrs = [Attribute("a", ("x", "y"))]
        with pytest.raises(ValueError, match="3 columns"):
            sample_synthetic(model, attrs, 10, np.random.default_rng(0))

    def test_parent_radix_below_its_codes(self, backend):
        attrs = [Attribute("p", ("a", "b", "c")), Attribute.binary("q")]
        network = BayesianNetwork(
            [APPair.make("p", []), APPair.make("q", ["p"])]
        )
        model = NoisyModel(
            network,
            (
                ConditionalTable("p", (), (), 3, np.full((1, 3), 1 / 3)),
                ConditionalTable(
                    "q", (("p", 0),), (2,), 2, np.full((2, 2), 0.5)
                ),
            ),
        )
        with pytest.raises(ValueError, match="codes reach 3"):
            sample_synthetic(model, attrs, 10, np.random.default_rng(0))

    def test_parent_radix_above_its_codes(self, backend):
        """A radix above the parent's codes leaves rows no draw reaches,
        so the model is not the one its file or fit describes."""
        attrs = [Attribute.binary("p"), Attribute.binary("q")]
        network = BayesianNetwork(
            [APPair.make("p", []), APPair.make("q", ["p"])]
        )
        model = NoisyModel(
            network,
            (
                ConditionalTable("p", (), (), 2, np.full((1, 2), 0.5)),
                ConditionalTable(
                    "q", (("p", 0),), (3,), 2, np.full((3, 2), 0.5)
                ),
            ),
        )
        with pytest.raises(ValueError, match="3 values, but its codes reach"):
            sample_synthetic(model, attrs, 10, np.random.default_rng(0))


def test_plan_cache_follows_the_taxonomy(backend):
    """Attribute equality ignores the taxonomy, the generalization maps do
    not: a schema with a regrouped taxonomy gets its own plan."""
    leaves = ("a", "b", "c", "d")
    by_half = TaxonomyTree.from_groups(
        leaves, (("ab", ("a", "b")), ("cd", ("c", "d")))
    )
    by_parity = TaxonomyTree.from_groups(
        leaves, (("ac", ("a", "c")), ("bd", ("b", "d")))
    )
    network = BayesianNetwork(
        [APPair.make("p", []), APPair.make("q", [("p", 1)])]
    )
    model = NoisyModel(
        network,
        (
            ConditionalTable("p", (), (), 4, np.full((1, 4), 0.25)),
            # q = 1 iff p falls in the second group of its taxonomy.
            ConditionalTable(
                "q", (("p", 1),), (2,), 2, np.array([[1.0, 0.0], [0.0, 1.0]])
            ),
        ),
    )
    for taxonomy, second in ((by_half, {2, 3}), (by_parity, {1, 3})):
        attrs = [
            Attribute("p", leaves, taxonomy=taxonomy),
            Attribute.binary("q"),
        ]
        synthetic = sample_synthetic(
            model, attrs, 2000, np.random.default_rng(4)
        )
        p = synthetic.column("p")
        q = synthetic.column("q")
        assert (np.isin(p, list(second)) == (q == 1)).all()

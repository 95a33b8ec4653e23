"""Property tests: variable elimination equals brute-force enumeration."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bn.inference import model_marginal
from repro.bn.network import APPair, BayesianNetwork
from repro.core.noisy_conditionals import ConditionalTable, NoisyModel
from repro.data.attribute import Attribute
from repro.data.marginals import domain_size, flatten_index, unflatten_index


def _random_model(sizes, max_parents, rng):
    """Random network + random conditionals over the given domain sizes."""
    attrs = [
        Attribute(f"x{i}", tuple(f"v{j}" for j in range(s)))
        for i, s in enumerate(sizes)
    ]
    pairs = []
    conditionals = []
    placed = []
    for attr in attrs:
        width = min(max_parents, len(placed))
        count = int(rng.integers(0, width + 1)) if width else 0
        chosen = (
            sorted(rng.choice(len(placed), size=count, replace=False).tolist())
            if count
            else []
        )
        parents = [placed[i] for i in chosen]
        pair = APPair.make(attr.name, [p.name for p in parents])
        # APPair sorts parents by name; rebuild sizes accordingly.
        by_name = {p.name: p.size for p in parents}
        parent_sizes = tuple(by_name[name] for name in pair.parent_names)
        rows = domain_size(parent_sizes)
        matrix = rng.dirichlet(np.ones(attr.size), size=rows)
        pairs.append(pair)
        conditionals.append(
            ConditionalTable(
                child=attr.name,
                parents=pair.parents,
                parent_sizes=parent_sizes,
                child_size=attr.size,
                matrix=matrix,
            )
        )
        placed.append(attr)
    return NoisyModel(BayesianNetwork(pairs), tuple(conditionals)), attrs


def _bruteforce_marginal(model, attrs, query):
    """Enumerate the full domain and sum the model probabilities."""
    sizes = [a.size for a in attrs]
    names = [a.name for a in attrs]
    total = domain_size(sizes)
    coords = unflatten_index(np.arange(total), sizes)
    position = {name: i for i, name in enumerate(names)}
    probs = np.ones(total)
    for pair in model.network:
        cond = model.conditional_for(pair.child)
        rows = flatten_index(
            [coords[:, position[name]] for name, _ in cond.parents],
            cond.parent_sizes,
            total,
        )
        probs *= cond.matrix[rows, coords[:, position[pair.child]]]
    query_sizes = [attrs[position[name]].size for name in query]
    out = np.zeros(domain_size(query_sizes))
    cells = flatten_index(
        [coords[:, position[name]] for name in query], query_sizes, total
    )
    np.add.at(out, cells, probs)
    return out


@given(
    sizes=st.lists(st.integers(2, 4), min_size=2, max_size=5),
    seed=st.integers(0, 100_000),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_elimination_matches_bruteforce(sizes, seed, data):
    rng = np.random.default_rng(seed)
    model, attrs = _random_model(sizes, max_parents=2, rng=rng)
    names = [a.name for a in attrs]
    query_size = data.draw(st.integers(1, min(3, len(names))))
    query_idx = data.draw(
        st.lists(
            st.integers(0, len(names) - 1),
            min_size=query_size,
            max_size=query_size,
            unique=True,
        )
    )
    query = [names[i] for i in query_idx]
    inferred = model_marginal(model, attrs, query)
    brute = _bruteforce_marginal(model, attrs, query)
    assert np.allclose(inferred, brute, atol=1e-10)
    np.testing.assert_allclose(inferred.sum(), 1.0, atol=1e-9)

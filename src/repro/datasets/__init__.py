"""Evaluation datasets (Section 6.1, Table 5).

The paper evaluates on NLTCS, ACS (IPUMS-USA), Adult (UCI) and BR2000
(IPUMS-Brazil).  Those files cannot be fetched in this offline environment,
so each module here is a *schema-faithful seeded generator*: the real
schema (attribute names, domain sizes, taxonomy trees) with rows sampled
from a hand-built ground-truth process that encodes the well-known
correlations of the source data.  Table 5's cardinality,
dimensionality and domain size are matched exactly at the default sizes.
"""

from repro.datasets.acs import load_acs
from repro.datasets.adult import load_adult
from repro.datasets.br2000 import load_br2000
from repro.datasets.nltcs import load_nltcs
from repro.datasets.synthetic import (
    NetworkSource,
    NodeSpec,
    random_binary_source,
    random_binary_table,
    random_network_specs,
    sample_network,
)

LOADERS = {
    "nltcs": load_nltcs,
    "acs": load_acs,
    "adult": load_adult,
    "br2000": load_br2000,
}

#: Table 5 of the paper: (cardinality, dimensionality, log2 domain size).
TABLE5 = {
    "nltcs": (21_574, 16, 16),
    "acs": (47_461, 23, 23),
    "adult": (45_222, 15, 52),
    "br2000": (38_000, 14, 32),
}


def load_dataset(name: str, n=None, seed: int = 0):
    """Load one of the four evaluation datasets by name."""
    try:
        loader = LOADERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(LOADERS)}"
        ) from None
    return loader(n=n, seed=seed)


__all__ = [
    "load_nltcs",
    "load_acs",
    "load_adult",
    "load_br2000",
    "load_dataset",
    "LOADERS",
    "TABLE5",
    "NodeSpec",
    "NetworkSource",
    "sample_network",
    "random_network_specs",
    "random_binary_table",
    "random_binary_source",
]

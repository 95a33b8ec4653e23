"""Ground-truth Bayesian-network data generators.

Used both as a generic workload source for tests/benchmarks and as the
substrate for the schema-faithful dataset generators: a ground-truth
network with known conditionals is the natural way to produce correlated
discrete data whose low-dimensional structure PrivBayes should recover.

A network is authored as :class:`NodeSpec` s and drawn by the release
sampler (:mod:`repro.core.sampler`): the specs become one
:class:`~repro.core.noisy_conditionals.NoisyModel`, so the ground truth
and the synthetic release share one CDF inversion, native whenever the
compiled kernel is loaded.  Two emission modes:

* :func:`sample_network` — resident: all ``n`` rows in one
  :class:`~repro.data.Table`, through
  :func:`~repro.core.sampler.sample_synthetic`.
* :class:`NetworkSource` — streaming: the same network emitted as a
  re-iterable :class:`~repro.data.chunks.ChunkedSource` of bounded
  chunks, the million-row workload feed for the scale benchmarks,
  through :func:`~repro.core.sampler.sample_synthetic_chunks`.  Each
  node draws from its own deterministic child stream, so the emitted
  rows are invariant to the chunk size and identical on every pass —
  but (by the per-node stream split) not row-identical to
  :func:`sample_network` under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.data.attribute import Attribute
from repro.data.chunks import ChunkedSource, DEFAULT_CHUNK_ROWS
from repro.data.marginals import domain_size
from repro.data.table import Table


@dataclass(frozen=True)
class NodeSpec:
    """One node of a ground-truth network: attribute, parents, CPT.

    ``cpt`` has one row per flattened parent configuration (mixed radix
    over the parents in listed order) and one column per attribute value;
    rows must be stochastic.
    """

    attribute: Attribute
    parents: Tuple[str, ...]
    cpt: np.ndarray

    def __post_init__(self) -> None:
        if self.cpt.ndim != 2 or self.cpt.shape[1] != self.attribute.size:
            raise ValueError(
                f"CPT for {self.attribute.name!r} has shape {self.cpt.shape}; "
                f"expected (*, {self.attribute.size})"
            )
        if not np.allclose(self.cpt.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError(f"CPT rows for {self.attribute.name!r} must sum to 1")


def _spec_model(specs: Sequence[NodeSpec]):
    """The specs as a :class:`~repro.core.noisy_conditionals.NoisyModel`.

    An :class:`~repro.bn.network.APPair` sorts its parents by name, and a
    conditional's rows follow that order, so each CPT's rows are permuted
    from the listed parent order into the sorted one.  Every row keeps
    its values, so every tuple inverts the same CDF row.
    """
    # Imported here: repro.core sits above the data layer this module
    # otherwise stays within.
    from repro.core.noisy_conditionals import ConditionalTable, NoisyModel

    sizes = {spec.attribute.name: spec.attribute.size for spec in specs}
    pairs, conditionals = [], []
    for spec in specs:
        pair = APPair.make(spec.attribute.name, spec.parents)
        listed = list(spec.parents)
        radix = [sizes[name] for name in listed]
        if spec.cpt.shape[0] != domain_size(radix):
            raise ValueError(
                f"CPT for {pair.child!r} has {spec.cpt.shape[0]} rows; its "
                f"parents {listed} have {domain_size(radix)} configurations"
            )
        order = [listed.index(name) for name in pair.parent_names]
        child_size = spec.attribute.size
        matrix = (
            spec.cpt.reshape(radix + [child_size])
            .transpose(order + [len(listed)])
            .reshape(-1, child_size)
        )
        pairs.append(pair)
        conditionals.append(
            ConditionalTable(
                child=pair.child,
                parents=pair.parents,
                parent_sizes=tuple(sizes[name] for name in pair.parent_names),
                child_size=child_size,
                matrix=np.ascontiguousarray(matrix),
            )
        )
    return NoisyModel(BayesianNetwork(pairs), tuple(conditionals))


def sample_network(
    specs: Sequence[NodeSpec], n: int, rng: np.random.Generator
) -> Table:
    """Ancestral sampling of ``n`` rows from a ground-truth network.

    Node ``i`` inverts the ``i``-th block of ``n`` uniforms that ``rng``
    draws, as :func:`~repro.core.sampler.sample_synthetic` does.
    """
    from repro.core.sampler import sample_synthetic

    attributes = [spec.attribute for spec in specs]
    return sample_synthetic(_spec_model(specs), attributes, n, rng)


class NetworkSource(ChunkedSource):
    """A ground-truth network emitted as a chunked source (see module doc).

    ``seed`` fully determines the rows: every call to :meth:`chunks`
    spawns one child stream per spec from ``default_rng(seed)``, and spec
    ``i``'s stream draws its ``n`` uniforms in row order across chunks
    (:func:`~repro.core.sampler.sample_synthetic_chunks`) — so the stream
    is re-iterable, deterministic, and invariant to ``chunk_rows``, as
    the :class:`~repro.data.chunks.ChunkedSource` protocol requires.
    """

    def __init__(
        self,
        specs: Sequence[NodeSpec],
        n: int,
        seed: int = 0,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self._model = _spec_model(specs)
        self._attributes = tuple(spec.attribute for spec in specs)
        self._n = int(n)
        self._seed = int(seed)
        self._chunk_rows = int(chunk_rows)

    def chunks(self) -> Iterator[Mapping[str, np.ndarray]]:
        from repro.core.sampler import sample_synthetic_chunks

        for chunk in sample_synthetic_chunks(
            self._model,
            self._attributes,
            self._n,
            np.random.default_rng(self._seed),
            self._chunk_rows,
        ):
            yield {name: chunk.column(name) for name in chunk.attribute_names}


def random_network_specs(
    attributes: Sequence[Attribute],
    max_parents: int,
    rng: np.random.Generator,
    concentration: float = 0.4,
) -> List[NodeSpec]:
    """Random ground-truth network over the given schema.

    Each attribute (after the first) receives up to ``max_parents`` random
    parents from its predecessors; CPT rows are Dirichlet draws with the
    given ``concentration`` — small values make rows near-deterministic,
    i.e. strongly correlated data.
    """
    if max_parents < 0:
        raise ValueError("max_parents must be non-negative")
    specs: List[NodeSpec] = []
    placed: List[Attribute] = []
    for attr in attributes:
        width = min(max_parents, len(placed))
        count = int(rng.integers(0, width + 1)) if width else 0
        parent_attrs = (
            [placed[i] for i in rng.choice(len(placed), size=count, replace=False)]
            if count
            else []
        )
        rows = domain_size([p.size for p in parent_attrs])
        cpt = rng.dirichlet(np.full(attr.size, concentration), size=rows)
        specs.append(
            NodeSpec(
                attribute=attr,
                parents=tuple(p.name for p in parent_attrs),
                cpt=cpt,
            )
        )
        placed.append(attr)
    return specs


def random_binary_table(
    n: int,
    d: int,
    max_parents: int = 2,
    concentration: float = 0.4,
    seed: int = 0,
    structure_seed: Optional[int] = None,
) -> Table:
    """Convenience: ``n`` rows of ``d`` correlated binary attributes.

    ``structure_seed`` fixes the ground-truth network independently of the
    row-sampling ``seed`` so several draws of "the same dataset" exist.
    """
    structure_rng = np.random.default_rng(
        seed if structure_seed is None else structure_seed
    )
    attrs = [Attribute.binary(f"x{i}") for i in range(d)]
    specs = random_network_specs(attrs, max_parents, structure_rng, concentration)
    return sample_network(specs, n, np.random.default_rng(seed))


def random_binary_source(
    n: int,
    d: int,
    max_parents: int = 2,
    concentration: float = 0.4,
    seed: int = 0,
    structure_seed: Optional[int] = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> NetworkSource:
    """Chunk-emitting counterpart of :func:`random_binary_table`.

    The ground-truth network is built exactly as in
    :func:`random_binary_table` (same ``structure_seed`` → same specs);
    the rows stream from a :class:`NetworkSource`, so arbitrarily large
    ``n`` never materializes.  Per-node streams mean the rows differ from
    ``random_binary_table(n, d, ..., seed)`` — both are seeded and
    deterministic, but they are distinct processes.
    """
    structure_rng = np.random.default_rng(
        seed if structure_seed is None else structure_seed
    )
    attrs = [Attribute.binary(f"x{i}") for i in range(d)]
    specs = random_network_specs(attrs, max_parents, structure_rng, concentration)
    return NetworkSource(specs, n, seed=seed, chunk_rows=chunk_rows)

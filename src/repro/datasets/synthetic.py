"""Ground-truth Bayesian-network data generators.

Used both as a generic workload source for tests/benchmarks and as the
substrate for the schema-faithful dataset generators: a ground-truth
network with known conditionals is the natural way to produce correlated
discrete data whose low-dimensional structure PrivBayes should recover.

Two emission modes share one ancestral-sampling core:

* :func:`sample_network` — resident: all ``n`` rows in one
  :class:`~repro.data.Table` (the historical path; its seeded outputs,
  including the four schema-faithful dataset generators built on it, are
  pinned by golden tests and unchanged).
* :class:`NetworkSource` — streaming: the same network emitted as a
  re-iterable :class:`~repro.data.chunks.ChunkedSource` of bounded
  chunks, the million-row workload feed for the scale benchmarks.  Each
  node draws from its own deterministic child stream, so the emitted
  rows are invariant to the chunk size and identical on every pass —
  but (by the per-node stream split) not row-identical to
  :func:`sample_network` under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.attribute import Attribute
from repro.data.chunks import ChunkedSource, DEFAULT_CHUNK_ROWS
from repro.data.marginals import domain_size, flatten_index
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


def _spec_cdfs(specs: Sequence[NodeSpec]) -> List[np.ndarray]:
    """Row CDFs of every spec's CPT, last column clamped to exactly 1.0."""
    cdfs = []
    for spec in specs:
        cdf = np.cumsum(spec.cpt, axis=1)
        cdf[:, -1] = 1.0
        cdfs.append(cdf)
    return cdfs


def _sample_spec_block(
    specs: Sequence[NodeSpec],
    cdfs: Sequence[np.ndarray],
    n: int,
    uniforms_for: Callable[[int, int], np.ndarray],
) -> Dict[str, np.ndarray]:
    """One ancestral-sampling pass of ``n`` rows over the network.

    ``uniforms_for(index, count)`` supplies spec ``index``'s uniforms; the
    CDF inversion is the shared binary search of
    :func:`repro.core.sampler.invert_row_cdfs`, bit-identical to the
    historical ``(uniforms[:, None] > cdf[rows]).sum(axis=1)`` broadcast.
    """
    # Imported here: repro.core.sampler sits above the data layer this
    # module otherwise stays within.
    from repro.core.sampler import invert_row_cdfs

    sampled: Dict[str, np.ndarray] = {}
    sizes: Dict[str, int] = {}
    for index, spec in enumerate(specs):
        rows = flatten_index(
            [sampled[p] for p in spec.parents], [sizes[p] for p in spec.parents], n
        )
        sampled[spec.attribute.name] = invert_row_cdfs(
            cdfs[index], rows, uniforms_for(index, n)
        )
        sizes[spec.attribute.name] = spec.attribute.size
    return sampled


def sample_network(
    specs: Sequence[NodeSpec], n: int, rng: np.random.Generator
) -> Table:
    """Ancestral sampling of ``n`` rows from a ground-truth network."""
    sampled = _sample_spec_block(
        specs, _spec_cdfs(specs), n, lambda index, count: rng.random(count)
    )
    attrs = [spec.attribute for spec in specs]
    return Table(attrs, {a.name: sampled[a.name] for a in attrs})


class NetworkSource(ChunkedSource):
    """A ground-truth network emitted as a chunked source (see module doc).

    ``seed`` fully determines the rows: every call to :meth:`chunks`
    rebuilds one child stream per spec from it (``rng.spawn`` semantics
    via :class:`numpy.random.SeedSequence`), and spec ``i``'s stream draws
    its ``n`` uniforms in row order across chunks — so the stream is
    re-iterable, deterministic, and invariant to ``chunk_rows``, as the
    :class:`~repro.data.chunks.ChunkedSource` protocol requires.
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
        self._specs = list(specs)
        self._cdfs = _spec_cdfs(self._specs)
        self._attributes = tuple(spec.attribute for spec in self._specs)
        self._n = int(n)
        self._seed = int(seed)
        self._chunk_rows = int(chunk_rows)

    def chunks(self) -> Iterator[Mapping[str, np.ndarray]]:
        streams = np.random.default_rng(self._seed).spawn(len(self._specs))
        start = 0
        while True:
            count = min(self._chunk_rows, self._n - start)
            yield _sample_spec_block(
                self._specs,
                self._cdfs,
                count,
                lambda index, rows: streams[index].random(rows),
            )
            start += count
            if start >= self._n:
                return


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

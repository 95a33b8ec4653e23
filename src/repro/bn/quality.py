"""Quality measures of a Bayesian network against the data it models.

The network-learning experiments (Figure 4) score a network by the sum of
mutual information over its AP pairs, ``sum_i I(X_i, Π_i)`` — the quantity
Algorithm 2 greedily maximizes (Equation 6 shows the KL divergence from the
model to the data decreases as that sum grows).

The module also holds :class:`ParentIndexCache`, the contingency counting
of a resident table that scoring and distribution learning share: a
Walsh–Hadamard transform of the full joint on all-binary tables up to
:data:`MAX_WALSH_CELLS` cells, per-parent-set bincounts over the raw rows
otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.core.score_kernels import score_I_segments
from repro.data.attribute import Attribute
from repro.data.chunks import CountGroup, GroupCounts
from repro.data.marginals import (
    domain_size,
    ensure_int64_domain,
    flatten_index,
    joint_distribution,
    stacked_joint_counts,
    unflatten_index,
    walsh_hadamard,
)
from repro.data.table import Table
from repro.infotheory.measures import kl_divergence, segment_sums

#: Largest full joint, in cells, that an all-binary table's counting
#: keeps as Walsh–Hadamard coefficients: 2**24 int64 cells are 128 MB.
#: NLTCS (2**16 cells, 512 KB) and ACS (2**23, 64 MB) fit; Adult
#: binarized to 52 bits does not, and counts its raw rows.
MAX_WALSH_CELLS = 1 << 24


def _generalize(
    attr: Attribute, codes: np.ndarray, level: int
) -> Tuple[np.ndarray, int]:
    """``codes`` of ``attr`` mapped to taxonomy ``level``, plus the
    generalized domain size."""
    if level == 0:
        return codes, attr.size
    mapping = attr.generalization_map(level)
    return mapping[codes], int(mapping.max()) + 1 if mapping.size else 1


def generalized_codes(table: Table, name: str, level: int) -> Tuple[np.ndarray, int]:
    """Column codes of ``name`` generalized to taxonomy ``level``.

    Returns the codes and the generalized domain size.  Level 0 returns the
    raw column.
    """
    return _generalize(table.attribute(name), table.column(name), level)


def _flatten_columns(
    columns: Sequence[np.ndarray], sizes: Sequence[int], rows: int
) -> np.ndarray:
    """Mixed-radix flattening of parallel code columns (first column most
    significant) into one int64 index per row.

    The index accumulates in place in a single array: the integers of
    :func:`~repro.data.marginals.flatten_index`, under the same int64
    domain check, without first stacking the columns into an ``n × m``
    matrix.  No columns give ``rows`` zeros.
    """
    ensure_int64_domain(domain_size(sizes))
    if not columns:
        return np.zeros(rows, dtype=np.int64)
    flat = np.array(columns[0], dtype=np.int64)
    for codes, size in zip(columns[1:], sizes[1:]):
        flat *= size
        flat += codes
    return flat


class ParentIndexCache:
    """Contingency counting over one resident table — the single counting
    entry point of the candidate-scoring engine (:mod:`repro.core.scoring`)
    and the distribution learner's
    :class:`~repro.core.noisy_conditionals.JointCounter`.

    Two engines, chosen once, at construction, from the input alone:

    * **Walsh–Hadamard** when every attribute is binary, the full joint
      has at most :data:`MAX_WALSH_CELLS` cells and ``n · 2**d`` fits
      int64.  The full joint is counted once (through :meth:`counts`, one
      ordinary flatten and bincount, attribute ``i`` at bit ``d-1-i``) and
      transformed in place into its integer Walsh–Hadamard coefficients
      (:func:`~repro.data.marginals.walsh_hadamard`).  A joint over a set
      ``S`` of level-0 attributes is then the inverse transform of the
      coefficients of the subsets of ``S`` (the identity behind the
      Fourier baseline, :mod:`repro.baselines.fourier`): a gather of
      ``2**|S|`` coefficients, ``|S|`` butterfly stages and a right shift
      by ``|S|``, all exact int64 arithmetic.  Every coefficient is at
      most ``n`` in magnitude and every butterfly value at most
      ``2**|S| · n``, hence the int64 condition.
    * **Raw rows** otherwise, and for any group with a generalized parent:
      each parent set's flat index is rebuilt in place (:meth:`flat`) and
      every child is one ``np.bincount`` over it.  The flat index is never
      retained, so memory stays ``O(d · n)`` however many parent sets a
      search visits.

    Either way :meth:`grouped_counts` returns the exact integers a per-row
    ``np.bincount`` produces.  The cache keeps the per-(attribute, level)
    code columns and, on the Walsh path, the ``2**d`` coefficients.  One
    cache per table serves both consumers (shared through
    :class:`~repro.core.scoring.ScoringCache`).  Everything here is a
    deterministic data statistic; cached arrays must be treated as
    read-only.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._codes: Dict[Tuple[str, int], Tuple[np.ndarray, int]] = {}
        #: Walsh–Hadamard coefficients of the full joint, or ``None`` when
        #: counting runs over the raw rows.
        self.coefficients: Optional[np.ndarray] = None
        names = table.attribute_names
        d = len(names)
        if (
            d
            and all(attr.size == 2 for attr in table.attributes)
            and 1 << d <= MAX_WALSH_CELLS
            and table.n << d <= np.iinfo(np.int64).max
        ):
            full = self.counts(
                tuple((name, 0) for name in names[:-1]), names[-1:]
            )
            self.coefficients = walsh_hadamard(full[0], d)
            self.coefficients.setflags(write=False)
            #: Bit of each attribute in a coefficient's index.
            self._bit = {name: 1 << (d - 1 - i) for i, name in enumerate(names)}

    def codes(self, name: str, level: int) -> Tuple[np.ndarray, int]:
        """Memoized :func:`generalized_codes`."""
        key = (name, level)
        if key not in self._codes:
            self._codes[key] = generalized_codes(self.table, name, level)
        return self._codes[key]

    def flat(
        self, parents: Tuple[Tuple[str, int], ...]
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Flattened parent configuration of every row, plus the parent
        sizes (built afresh; not retained)."""
        coded = [self.codes(name, level) for name, level in parents]
        sizes = tuple(size for _, size in coded)
        flat = _flatten_columns([c for c, _ in coded], sizes, self.table.n)
        return flat, sizes

    def counts(
        self, parents: Tuple[Tuple[str, int], ...], children: Sequence[str]
    ) -> GroupCounts:
        """Int64 contingency counts of ``Pr[Π, X]`` for every child of one
        parent set: the one-group case of :meth:`grouped_counts`."""
        return self.grouped_counts([(tuple(parents), tuple(children))])[0]

    def grouped_counts(
        self, groups: Sequence[CountGroup]
    ) -> List[GroupCounts]:
        """Int64 contingency counts for many ``(parents, children)``
        groups — the resident twin of
        :func:`repro.data.chunks.stream_grouped_joint_counts`.

        Each result is ``(block, offsets, lengths, parent_sizes,
        child_sizes)``: the :func:`~repro.data.marginals.stacked_joint_counts`
        layout (parents in the order given, the first most significant,
        the child innermost) plus the size metadata.  On the Walsh path
        all level-0 groups of one width share one gather and one
        butterfly; other groups count their raw rows one by one.
        """
        results: List[Optional[GroupCounts]] = [None] * len(groups)
        by_width: Dict[int, List[int]] = {}
        for position, (parents, children) in enumerate(groups):
            if self.coefficients is not None and all(
                level == 0 for _, level in parents
            ):
                by_width.setdefault(len(parents) + 1, []).append(position)
            else:
                results[position] = self._raw_counts(parents, children)
        for width, positions in by_width.items():
            counted = self._walsh_counts([groups[p] for p in positions], width)
            for position, group in zip(positions, counted):
                results[position] = group
        return results

    def _raw_counts(
        self, parents: Tuple[Tuple[str, int], ...], children: Sequence[str]
    ) -> GroupCounts:
        flat, parent_sizes = self.flat(parents)
        parent_dom = domain_size(parent_sizes)
        child_sizes = tuple(self.table.attribute(c).size for c in children)
        for child, child_size in zip(children, child_sizes):
            ensure_int64_domain(
                parent_dom * child_size, f"joint domain of (Π, {child!r})"
            )
        block, offsets, lengths = stacked_joint_counts(
            flat,
            parent_dom,
            [self.codes(child, 0)[0] for child in children],
            child_sizes,
        )
        return block, offsets, lengths, parent_sizes, child_sizes

    def _walsh_counts(
        self, groups: Sequence[CountGroup], width: int
    ) -> List[GroupCounts]:
        """Joints of groups of ``width`` level-0 attributes each (parents
        plus child) from the coefficients.

        Local cell ``t`` of a joint puts parent ``j`` at bit
        ``width-1-j`` and the child at bit 0, which is the
        ``stacked_joint_counts`` layout; its coefficient index is the XOR
        of the bits of the attributes ``t`` selects.  For distinct
        attributes that is their OR, and for an attribute listed twice
        its two characters cancel, as they do in the data.  The gather is
        cell-major (one column per joint) so the butterfly runs along
        contiguous rows; the shift writes the joints back row-major.
        """
        bit = self._bit
        cells = np.zeros((1, len(groups)), dtype=np.int64)
        for j in range(width - 1):
            parent_bits = np.array(
                [bit[parents[j][0]] for parents, _ in groups], dtype=np.int64
            )
            cells = np.stack([cells, cells ^ parent_bits], axis=1).reshape(
                2 << j, len(groups)
            )
        fanout = [len(children) for _, children in groups]
        cells = np.repeat(cells, fanout, axis=1)
        child_bits = np.array(
            [bit[child] for _, children in groups for child in children],
            dtype=np.int64,
        )
        cell_count = 1 << width
        index = np.stack([cells, cells ^ child_bits], axis=1)
        spectra = self.coefficients[
            index.reshape(cell_count, len(child_bits))
        ]
        walsh_hadamard(spectra, width)
        joint = np.empty((len(child_bits), cell_count), dtype=np.int64)
        np.right_shift(spectra.T, width, out=joint)
        results: List[GroupCounts] = []
        start = 0
        for count in fanout:
            results.append((
                joint[start : start + count].reshape(-1),
                tuple(range(0, count * cell_count, cell_count)),
                (cell_count,) * count,
                (2,) * (width - 1),
                (2,) * count,
            ))
            start += count
        return results


def _flatten_generalized_parents(
    table: Table, parents: Sequence[Tuple[str, int]]
) -> Tuple[np.ndarray, List[int]]:
    """Per-row parent configuration codes and sizes for a (possibly
    generalized) parent set — the uncached counterpart of
    :meth:`ParentIndexCache.flat`, shared by every joint builder in this
    module so the flattening semantics cannot drift between them."""
    coded = [generalized_codes(table, name, level) for name, level in parents]
    sizes = [size for _, size in coded]
    return _flatten_columns([c for c, _ in coded], sizes, table.n), sizes


def pair_joint_distribution(
    table: Table,
    child: str,
    parents: Sequence[Tuple[str, int]],
) -> Tuple[np.ndarray, int]:
    """Empirical ``Pr[Π, X]`` (child innermost) for a possibly generalized
    parent set.  Returns the flat joint and the child domain size."""
    parent_flat, sizes = _flatten_generalized_parents(table, parents)
    child_attr = table.attribute(child)
    total = ensure_int64_domain(
        domain_size(sizes + [child_attr.size]), "pair joint domain"
    )
    flat = parent_flat * child_attr.size + table.column(child)
    counts = np.bincount(flat, minlength=total).astype(float)
    joint = counts / counts.sum() if counts.sum() > 0 else counts
    return joint, child_attr.size


def pair_group_mutual_information(
    table: Table,
    parents: Sequence[Tuple[str, int]],
    children: Sequence[str],
) -> List[float]:
    """``I(child, Π)`` for every child sharing one (generalized) parent set.

    The parent configuration is flattened once, all children's joints are
    counted into one stacked block, and the block goes
    *straight* into the ragged segmented kernel
    (:func:`repro.core.score_kernels.score_I_segments`) — no per-candidate
    reshaping or same-size bucketing here.  Normalization divides each
    element by its candidate's exact segment total
    (:func:`repro.infotheory.measures.segment_sums`), so each value is
    bit-equal to ``mutual_information(*pair_joint_distribution(...))`` on
    the same pair.  This is the batched core under both
    :func:`network_mutual_information` and
    :meth:`repro.core.scoring.MutualInformationCache.pair_mi_batch`.
    """
    parent_flat, sizes = _flatten_generalized_parents(table, parents)
    parent_dom = domain_size(sizes)
    child_sizes = [table.attribute(c).size for c in children]
    block, offsets, lengths = stacked_joint_counts(
        parent_flat, parent_dom,
        [table.column(c) for c in children], child_sizes,
    )
    floats = block.astype(float)
    lengths = np.asarray(lengths, dtype=np.int64)
    ids = np.repeat(np.arange(len(children), dtype=np.int64), lengths)
    totals = segment_sums(floats, ids, len(children))
    # Empty table: pair_joint_distribution leaves the all-zero vector
    # unnormalized (divide by 1 here), and the kernel scores it to the
    # same exact 0.0 the normalized path produces.
    divisors = np.where(totals > 0.0, totals, 1.0)
    normalized = floats / np.repeat(divisors, lengths)
    values = score_I_segments(normalized, offsets, lengths, child_sizes)
    return [float(v) for v in values]


def network_mutual_information(
    table: Table, network: BayesianNetwork, mi_cache=None
) -> float:
    """``sum_i I(X_i, Π_i)`` of the network on the empirical distribution.

    AP pairs sharing a parent set are measured together through
    :func:`pair_group_mutual_information` (bit-equal to the pair-by-pair
    path, summed in network order).  ``mi_cache`` is an optional
    :class:`~repro.core.scoring.MutualInformationCache` (duck-typed to keep
    this module import-light); pass one when scoring many networks over the
    same table so repeated AP pairs are measured once.
    """
    if mi_cache is not None and mi_cache.table is not table:
        raise ValueError("mi_cache was built for a different table")
    groups: Dict[Tuple, List[str]] = {}
    for pair in network:
        if pair.parents:
            groups.setdefault(pair.parents, []).append(pair.child)
    pair_values: Dict[Tuple, float] = {}
    for parents, children in groups.items():
        if mi_cache is not None:
            mi_cache.pair_mi_batch(parents, children)
            for child in children:
                pair_values[(child, parents)] = mi_cache.pair_mi(
                    child, parents
                )
        else:
            for child, value in zip(
                children,
                pair_group_mutual_information(table, parents, children),
            ):
                pair_values[(child, parents)] = value
    total = 0.0
    for pair in network:
        if pair.parents:
            total += pair_values[(pair.child, pair.parents)]
    return total


def exact_model_joint(table: Table, network: BayesianNetwork) -> np.ndarray:
    """Materialize ``Pr_N[A]`` over the full domain (small domains only).

    Attributes follow the network's construction order.  Intended for tests
    and tiny illustrative examples — the whole point of PrivBayes is to never
    need this at scale.
    """
    order = list(network.attribute_order)
    sizes = [table.attribute(name).size for name in order]
    total = domain_size(sizes)
    if total > 2_000_000:
        raise ValueError(f"domain size {total} too large to materialize")
    grid = np.ones(total, dtype=float)
    coords = unflatten_index(np.arange(total), sizes)  # (total, d)
    position = {name: i for i, name in enumerate(order)}
    for pair in network:
        child_idx = position[pair.child]
        child_size = sizes[child_idx]
        if pair.parents:
            if any(level != 0 for _, level in pair.parents):
                raise ValueError(
                    "exact_model_joint does not support generalized parents"
                )
            parent_names = list(pair.parent_names)
            joint = joint_distribution(table, parent_names + [pair.child])
            parent_sizes = [table.attribute(p).size for p in parent_names]
            conditional = joint.reshape(-1, child_size)
            row_sums = conditional.sum(axis=1, keepdims=True)
            safe = np.where(row_sums > 0, row_sums, 1.0)
            conditional = np.where(
                row_sums > 0, conditional / safe, 1.0 / child_size
            )
            parent_coords = np.stack(
                [coords[:, position[p]] for p in parent_names], axis=1
            )
            parent_flat = flatten_index(parent_coords, parent_sizes)
            grid *= conditional[parent_flat, coords[:, child_idx]]
        else:
            marginal = joint_distribution(table, [pair.child])
            grid *= marginal[coords[:, child_idx]]
    return grid


def model_kl_to_data(table: Table, network: BayesianNetwork) -> float:
    """``D_KL(Pr[A] || Pr_N[A])`` over the full domain (small domains only)."""
    order = list(network.attribute_order)
    data_joint = joint_distribution(table, order)
    model_joint = exact_model_joint(table, network)
    return kl_divergence(data_joint, model_joint)

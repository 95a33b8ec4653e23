"""Distribution learning: noisy conditionals via the Laplace mechanism.

Implements Algorithm 1 (binary domains, degree-``k`` networks: the first
``k`` conditionals are derived from the ``(k+1)``-th noisy joint at no
extra privacy cost) and Algorithm 3 (general domains: one noisy joint per
AP pair, budget split evenly over all ``d``).  Algorithm 3 is Algorithm 1
at ``k = 0`` — all ``d`` joints materialized at ``ε₂/d``, none derived —
so both entry points run one body.

Each released conditional is a :class:`ConditionalTable`: a row-stochastic
matrix ``Pr*[X | Π]`` indexed by the mixed-radix flattening of the parent
values (parents sorted by name, as in :class:`~repro.bn.network.APPair`).

Batched materialization
-----------------------
The contingency counts behind every ``Pr[Π, X]`` are pure data statistics;
only the Laplace perturbation consumes randomness or budget.  A
:class:`JointCounter` therefore materializes all of a network's joints in
one grouped counting call (pairs sharing a parent set share one stacked
count block, counted through
:meth:`~repro.bn.quality.ParentIndexCache.grouped_counts`, which reads a
resident table or a chunked source in at most one pass), then
memoizes the integer counts per AP pair so repeated fits over the same
table — an ε sweep, or the repeat cells of the figure experiments — never
rescan the data.  Noise draws stay strictly per-pair in network order, and
the counts are the integers a per-pair scan of the rows gives, so seeded
outputs are bit-identical to the historical per-pair path (pinned by the
golden-fingerprint regression tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.bn.quality import ParentIndexCache
from repro.data.marginals import (
    conditional_from_joint,
    domain_size,
    normalize_distribution,
    project_distribution,
)

# Counting runs in ParentIndexCache.grouped_counts; this module binding is
# kept because the perfbench traced replay asserts it wraps the function
# here.
from repro.data.marginals import stacked_joint_counts  # noqa: F401
from repro.dp.accountant import (
    PrivacyAccountant,
    check_epsilon,
    split_epsilon_even,
)
from repro.dp.mechanisms import laplace_mechanism

#: L1 sensitivity of a joint probability distribution of one table:
#: changing one tuple moves 1/n of mass from one cell to another.
JOINT_DISTRIBUTION_SENSITIVITY = 2.0


@dataclass(frozen=True)
class ConditionalTable:
    """One released conditional distribution ``Pr*[X | Π]``.

    ``matrix`` has one row per flattened parent configuration (mixed radix
    over ``parent_sizes``, parents in ``parents`` order) and one column per
    child value; rows sum to 1.  It may be given as any rectangular array
    of numbers (a loaded document's lists of rows) and is held as a float
    array.
    """

    child: str
    parents: Tuple[Tuple[str, int], ...]
    parent_sizes: Tuple[int, ...]
    child_size: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if any(size < 1 for size in self.parent_sizes) or self.child_size < 1:
            raise ValueError(
                f"conditional for {self.child!r}: domain sizes must be "
                f"positive; got parent_sizes={self.parent_sizes}, "
                f"child_size={self.child_size}"
            )
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        expected = (domain_size(self.parent_sizes), self.child_size)
        if self.matrix.shape != expected:
            raise ValueError(
                f"conditional for {self.child!r}: matrix shape "
                f"{self.matrix.shape} != expected {expected}"
            )

    @property
    def row_cdfs(self) -> np.ndarray:
        """Per-row CDFs of ``matrix``, computed once and cached.

        Ancestral sampling inverts each row's CDF per draw batch; caching
        here makes repeated ``model.sample()`` / ``fit_sample(n=...)``
        calls on one fitted model stop recomputing ``np.cumsum`` per call.
        The values are exactly ``np.cumsum(matrix, axis=1)`` with the last
        column clamped to 1.0 (guarding rounding drift), so cached and
        fresh computations are bit-identical.  The array is read-only.

        Raises :class:`ValueError` naming the child when ``matrix`` has a
        negative or non-finite entry.  Every CDF inversion relies on
        ``cdf < u`` holding on a prefix of each row, which the cumulative
        sums of finite non-negative entries (last column 1.0) guarantee
        for every uniform in ``[0, 1)``; on other rows the inversions can
        disagree, or silently return code 0.
        """
        cached = getattr(self, "_row_cdfs", None)
        if cached is None:
            matrix = self.matrix
            if not (np.isfinite(matrix).all() and (matrix >= 0).all()):
                raise ValueError(
                    f"conditional for {self.child!r}: matrix has a negative "
                    "or non-finite entry, so its row CDFs cannot be inverted"
                )
            cached = np.cumsum(matrix, axis=1)
            cached[:, -1] = 1.0
            cached.setflags(write=False)
            object.__setattr__(self, "_row_cdfs", cached)
        return cached

    @property
    def binary_thresholds(self) -> np.ndarray:
        """First CDF column as a contiguous vector (binary children only).

        For a binary child the whole CDF inversion reduces to one
        comparison against this column (the last column is exactly 1.0 and
        uniforms lie in ``[0, 1)``); a contiguous copy makes the per-draw
        gather cheap.  Values are exactly ``row_cdfs[:, 0]``.
        """
        cached = getattr(self, "_binary_thresholds", None)
        if cached is None:
            cached = np.ascontiguousarray(self.row_cdfs[:, 0])
            cached.setflags(write=False)
            object.__setattr__(self, "_binary_thresholds", cached)
        return cached


@dataclass(frozen=True)
class NoisyModel:
    """The output of distribution learning: conditionals in network order.

    Holds exactly one conditional per network pair, with that pair's
    parents.  Whether it fits a schema is checked by
    :func:`repro.core.sampler.check_model`.
    """

    network: BayesianNetwork
    conditionals: Tuple[ConditionalTable, ...]

    def __post_init__(self) -> None:
        # Sampling looks a conditional up once per attribute per draw batch;
        # index by child so the lookup is O(1) instead of a scan over d.
        by_child: Dict[str, ConditionalTable] = {}
        for table in self.conditionals:
            if table.child in by_child:
                raise ValueError(
                    f"duplicate conditional for child {table.child!r}"
                )
            by_child[table.child] = table
        children, held = {pair.child for pair in self.network}, set(by_child)
        if children != held:
            raise ValueError(
                "network children do not match conditionals: "
                f"missing conditionals for {sorted(children - held)}, "
                "conditionals without a network pair: "
                f"{sorted(held - children)}"
            )
        for pair in self.network:
            parents = by_child[pair.child].parents
            if parents != pair.parents:
                raise ValueError(
                    f"conditional {pair.child!r}: parents {parents} != "
                    f"network parents {pair.parents}"
                )
        object.__setattr__(self, "_by_child", by_child)

    def conditional_for(self, child: str) -> ConditionalTable:
        try:
            return self._by_child[child]
        except KeyError:
            raise KeyError(f"no conditional for {child!r}") from None


class JointCounter:
    """Batched, memoized contingency counts for AP-pair joints.

    All state is derived deterministically from the data: the counting
    engine (a :class:`~repro.bn.quality.ParentIndexCache`, shareable with
    the candidate scorer so that, on an all-binary input, the full
    joint's Walsh–Hadamard coefficients are built once per table) and
    the integer counts of each ``(child, parents)`` joint.  Counting
    consumes no randomness and spends no budget, so one counter may be
    shared across many fits over the same table (e.g. via
    :class:`~repro.core.scoring.ScoringCache`) without perturbing any
    seeded output.  Cached count arrays are read-only; consumers copy on
    conversion to probabilities.

    ``table`` may also be a :class:`~repro.data.chunks.ChunkedSource`:
    the same engine then accumulates counts chunk by chunk (exact int64
    addition — the same integers the resident scan produces), with
    :meth:`warm` counting all of a network's raw parent-set groups in a
    single pass over the rows.
    """

    def __init__(
        self, table, parent_index: Optional[ParentIndexCache] = None
    ) -> None:
        if parent_index is not None and parent_index.table is not table:
            raise ValueError("parent_index was built for a different table")
        self.table = table
        self._parent_index = (
            parent_index if parent_index is not None else ParentIndexCache(table)
        )
        self._counts: Dict[Tuple, Tuple[np.ndarray, Tuple[int, ...]]] = {}

    def _pair_key(self, pair: APPair) -> Tuple:
        return (pair.child, pair.parents)

    def warm(self, pairs: Sequence[APPair]) -> None:
        """Materialize the counts of every listed pair in one grouped call.

        Pairs sharing a parent set are counted into one stacked block (see
        :meth:`repro.bn.quality.ParentIndexCache.grouped_counts`); the
        resulting integer segments are identical to per-pair bincounts.
        All raw groups are accumulated in one pass over the rows.
        """
        groups: Dict[Tuple, Dict[str, None]] = {}
        for pair in pairs:
            if self._pair_key(pair) not in self._counts:
                # Dict-as-ordered-set: dedupe children per parent set while
                # preserving first-seen order.
                groups.setdefault(pair.parents, {})[pair.child] = None
        if not groups:
            return
        group_list = [
            (parents, tuple(children)) for parents, children in groups.items()
        ]
        counted = self._parent_index.grouped_counts(group_list)
        for (parents, children), group in zip(group_list, counted):
            self._store_group(parents, children, group)

    def _store_group(self, parents, children, counted) -> None:
        """File one group's counts under its per-pair keys."""
        block, offsets, lengths, parent_sizes, child_sizes = counted
        for child, child_size, offset, length in zip(
            children, child_sizes, offsets, lengths
        ):
            counts = np.ascontiguousarray(block[offset : offset + length])
            counts.setflags(write=False)
            self._counts[(child, parents)] = (
                counts,
                tuple(parent_sizes) + (int(child_size),),
            )

    def counts(self, pair: APPair) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Integer counts of ``Pr[Π, X]`` (child innermost) and the sizes."""
        self.warm([pair])
        return self._counts[self._pair_key(pair)]


def _noisy_joint(
    table,
    pair: APPair,
    epsilon_share: Optional[float],
    rng: np.random.Generator,
    counter: JointCounter,
) -> Tuple[np.ndarray, List[int]]:
    """Materialize ``Pr[Π, X]``, perturb, clamp, normalize (Alg 1/3 lines 3-5).

    ``epsilon_share`` is the per-marginal budget (``ε₂/(d-k)`` in
    Algorithm 1, ``ε₂/d`` in Algorithm 3), so the Laplace scale is the
    paper's ``2(d-k)/(n·ε₂)`` resp. ``2d/(n·ε₂)``.  ``None`` skips the
    noise entirely — the non-private BestMarginal diagnostic of Figure 11.

    The integer counts come from the ``counter``'s (batched, memoized)
    cache; they are the exact integers a direct scan of the rows produces,
    so the derived floats — and every downstream noise draw — are
    bit-identical to it.
    """
    raw, sizes = counter.counts(pair)
    counts = raw.astype(float)
    sizes = list(sizes)
    total = counts.size
    joint = counts / table.n if table.n else np.full(total, 1.0 / total)
    if epsilon_share is None:
        return normalize_distribution(joint), sizes
    noisy = laplace_mechanism(
        joint,
        sensitivity=JOINT_DISTRIBUTION_SENSITIVITY / max(table.n, 1),
        epsilon=epsilon_share,
        rng=rng,
    )
    return normalize_distribution(noisy), sizes


def _conditional_from(
    pair: APPair, joint: np.ndarray, sizes: Sequence[int]
) -> ConditionalTable:
    child_size = int(sizes[-1])
    return ConditionalTable(
        child=pair.child,
        parents=pair.parents,
        parent_sizes=tuple(int(s) for s in sizes[:-1]),
        child_size=child_size,
        matrix=conditional_from_joint(joint, child_size),
    )


def noisy_conditionals_general(
    table,
    network: BayesianNetwork,
    epsilon2: Optional[float],
    rng: np.random.Generator,
    accountant: Optional[PrivacyAccountant] = None,
    counter: Optional[JointCounter] = None,
) -> NoisyModel:
    """Algorithm 3: one noisy joint per AP pair, ε₂ split over all ``d``.

    This is Algorithm 1 at ``k = 0``: every pair is materialized at
    ``ε₂/d`` and none is derived, so the two share one body.

    ``epsilon2 = None`` releases exact conditionals (non-private; the
    BestMarginal diagnostic of Figure 11).  ``counter`` is any object with
    a ``table``, ``warm(pairs)`` and ``counts(pair)`` like
    :class:`JointCounter`: pass a shared one to reuse its counts (e.g.
    across the fits of a sweep).  Without one, a fresh
    :class:`JointCounter` materializes the network's joints in grouped
    single-pass bincounts.
    """
    return _noisy_conditionals(
        table, network, 0, epsilon2, rng, accountant, counter
    )


def noisy_conditionals_fixed_k(
    table,
    network: BayesianNetwork,
    k: int,
    epsilon2: Optional[float],
    rng: np.random.Generator,
    accountant: Optional[PrivacyAccountant] = None,
    counter: Optional[JointCounter] = None,
) -> NoisyModel:
    """Algorithm 1: materialize ``d - k`` joints; derive the first ``k``
    conditionals from the ``(k+1)``-th noisy joint at zero privacy cost.

    Requires the structural guarantee of Algorithm 2 (Section 3): for every
    ``i ≤ k``, ``X_i ∈ Π_{k+1}`` and ``Π_i ⊂ Π_{k+1}``.  Falls back to
    materializing a pair directly if the guarantee does not hold for it
    (that costs budget, so callers built via Algorithm 2 never hit it).

    ``epsilon2`` and ``counter`` work as in
    :func:`noisy_conditionals_general`; only the ``d - k`` materialized
    pairs are pre-counted (fallback pairs count on demand).
    """
    return _noisy_conditionals(
        table, network, k, epsilon2, rng, accountant, counter
    )


def _noisy_conditionals(
    table,
    network: BayesianNetwork,
    k: int,
    epsilon2: Optional[float],
    rng: np.random.Generator,
    accountant: Optional[PrivacyAccountant],
    counter: Optional[JointCounter],
) -> NoisyModel:
    """The body of Algorithms 1 and 3 (Algorithm 3 passes ``k = 0``).

    Pairs ``k..d-1`` are materialized at ``ε₂/(d-k)`` each, charged as
    ``marginal[<child>]`` in network order; pairs ``0..k-1`` are derived
    from pair ``k``'s noisy joint.  An empty network gives an empty model.
    """
    if epsilon2 is not None:
        check_epsilon(epsilon2, "epsilon2")
    d = network.d
    if not 0 <= k < max(d, 1):
        raise ValueError(f"k={k} out of range for d={d}")
    if counter is None:
        # repro: allow[PRIV003] -- counting here and in warm() below releases nothing; each noisy joint is drawn only after its in-loop charge
        counter = JointCounter(table)
    if counter.table is not table:
        raise ValueError("counter was built for a different table")
    pairs = list(network.pairs)
    counter.warm(pairs[k:])
    share = None if epsilon2 is None else split_epsilon_even(
        epsilon2, max(d - k, 1)
    )
    conditionals: Dict[str, ConditionalTable] = {}
    anchor_joint: Optional[np.ndarray] = None
    anchor_sizes: Optional[List[int]] = None
    anchor_names: Optional[List[str]] = None
    for i in range(k, d):
        pair = pairs[i]
        if accountant is not None and share is not None:
            accountant.spend(f"marginal[{pair.child}]", share)
        joint, sizes = _noisy_joint(table, pair, share, rng, counter)
        conditionals[pair.child] = _conditional_from(pair, joint, sizes)
        if i == k:
            anchor_joint, anchor_sizes = joint, sizes
            anchor_names = [name for name, _ in pair.parents] + [pair.child]
    for i in range(k):
        pair = pairs[i]
        derived = _derive_from_anchor(
            pair, anchor_joint, anchor_sizes, anchor_names
        )
        if derived is None:
            # Structural guarantee missing: materialize directly (charged).
            if accountant is not None and share is not None:
                accountant.spend(f"marginal[{pair.child}] (fallback)", share)
            joint, sizes = _noisy_joint(table, pair, share, rng, counter)
            derived = _conditional_from(pair, joint, sizes)
        conditionals[pair.child] = derived
    ordered = tuple(conditionals[pair.child] for pair in pairs)
    return NoisyModel(network=network, conditionals=ordered)


def _derive_from_anchor(
    pair: APPair,
    anchor_joint: Optional[np.ndarray],
    anchor_sizes: Optional[List[int]],
    anchor_names: Optional[List[str]],
) -> Optional[ConditionalTable]:
    """Derive ``Pr*[X_i | Π_i]`` from ``Pr*[X_{k+1}, Π_{k+1}]`` (Alg 1 l.8)."""
    if anchor_joint is None or anchor_names is None:
        return None
    if any(level != 0 for _, level in pair.parents):
        return None
    wanted = [name for name, _ in pair.parents] + [pair.child]
    if any(name not in anchor_names for name in wanted):
        return None
    keep = [anchor_names.index(name) for name in wanted]
    projected = project_distribution(anchor_joint, anchor_sizes, keep)
    sizes = [anchor_sizes[i] for i in keep]
    return _conditional_from(pair, projected, sizes)

"""Batched score kernels: F / I / R over whole candidate sets at once.

This is the compute layer under :mod:`repro.core.scoring`.  Each kernel
scores a *batch* of (child, parent-set) candidates in one call — typically
every child sharing a parent set, or (for ``F``) every candidate of a greedy
round sharing a parent-domain size — instead of one Python call per
candidate.  The layering is::

    score_kernels   pure batched numerics (this module)
        ^ scores    thin per-candidate wrappers (public score functions)
        ^ scoring   CandidateScorer / MutualInformationCache (memo + counting)
        ^ greedy_bayes, bn.structure_search, bn.quality, experiments

Bit-identity contract
---------------------
Every kernel returns, for each candidate, the exact float the corresponding
per-candidate function produces — not merely a numerically close value.
The golden-fingerprint regression tests pin this.  The contract holds
because:

* ``F`` minimizes the same objective over the same reachable ``(K0, K1)``
  mass states (Equation 10) whatever the blocking: states are exact int64,
  Pareto pruning (Definition 4.6) only removes states whose shortfall is
  float-monotonically dominated, and the final shortfall floats use the
  identical expression ``max(0, .5 - K0/n) + max(0, .5 - K1/n)``, so the
  minimum float over any dominating subset is bit-equal to the reference
  dynamic program :func:`score_F_dp`.  The compiled backend also drops
  states that cannot reach the minimum (below); the states it keeps
  include one the minimum float is taken at.
* ``I`` marginalizes batched (sums along a contiguous / middle axis are
  bit-equal to the per-candidate sums) and evaluates the entropies through
  the same :func:`repro.infotheory.measures.entropy` per candidate — its
  nonzero-compaction makes rows ragged, so that last step stays scalar.
* ``R`` vectorizes completely: the outer product has inner dimension one
  (each element a single IEEE multiplication) and the final reduction sums
  the same contiguous buffer per candidate.

The F kernel
------------
``score_F`` on ``|dom(Pi)| = m`` parent cells is exact over ``2^m`` column
assignments (Section 4.4).  Three regimes:

* ``m <= enum_max_cells`` — **bitset enumeration**: all ``2^m`` assignment
  masks at once via one matmul against the cached 0/1 mask matrix.  The
  matmul runs in float64 for BLAS speed; every partial sum is an integer
  below 2**53, so the result is exact.
* ``m > enum_max_cells`` — **blocked-bitset dynamic program**: parent cells
  whose two counts are not both positive are folded into the start state
  (their optimal side is forced — the other branch is dominated).  The
  remaining *mixed* cells are processed in blocks of adaptive width
  ``B <= DEFAULT_BLOCK_CELLS``: one matmul against the shared mask cache
  enumerates the block's ``2^B`` assignments as packed state shifts, and
  the block combines into the running Pareto frontier of Definition 4.6
  vectorized across the candidate axis.  Each state packs
  ``(candidate, K0, K1)`` into a single int64 key with power-of-two bit
  fields, so the frontier combine is: one broadcast subtract, one value
  sort (timsort merges the pre-sorted runs near-linearly), one running-max
  scan that implements the dominated-state prune, and zero integer
  divisions.  Candidates are processed in cache-sized chunks, most mixed
  cells first, so the lock-step loop always works on a contiguous active
  prefix.
* ``n`` too large for the bit fields (``3 * bit_length(n) > 62``) — falls
  back to the per-candidate reference DP; exactness is never at risk.

The compiled backend
--------------------
The ``m > enum_max_cells`` regime has an optional **native** backend
(``core/_native/scoref.c``), selected once at import by
:mod:`repro.core.kernel_backend` (``REPRO_KERNEL_BACKEND=auto|numpy|native``,
default ``auto`` = use the compiled kernel when a toolchain exists, NumPy
otherwise).  It computes the same minimum over a *bounded* frontier: each
candidate's mixed cells run largest first, an achievable incumbent
objective is tracked in exact int64, and every state whose lower bound is
strictly above it is dropped (for ``n <= 2^48``; see the README next to
the source for the proof).  The native path is bit-identical to the NumPy
path — all DP states are exact int64 either way, the kept states include
one the minimum is taken at, and the final shortfall floats use the
identical float64 expression — so backend selection is invisible to every
caller; the ``backend=`` parameter exists for tests and benchmarks that
pin one side.

The I kernel
------------
``score_I_batch`` and the ragged :func:`score_I_segments` evaluate every
candidate's three entropies through one segmented exact-sum pass
(:func:`repro.infotheory.measures.entropy_segmented`): nonzero compaction
and ``log`` run once over the concatenated batch, and per-candidate sums
are reduced in NumPy's own per-array pairwise order, so each output stays
bit-equal to ``mutual_information`` on that candidate alone.

Validation is unified here: batched and scalar paths reject malformed
counts identically (binary-child shape, integer counts, counts summing to
``n`` per candidate) — see :func:`validate_F_counts`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import kernel_backend
from repro.infotheory.measures import _entropy_by_count

__all__ = [
    "DEFAULT_ENUM_MAX_CELLS",
    "DEFAULT_BLOCK_CELLS",
    "MaskCache",
    "shared_mask_cache",
    "validate_F_counts",
    "score_F_batch",
    "score_F_dp",
    "score_I_batch",
    "score_I_segments",
    "score_R_batch",
    "score_R_segments",
]

#: Enumeration / blocked-DP crossover: largest parent-cell count scored by
#: direct enumeration of all ``2^m`` column assignments.  A documented kernel
#: parameter (``enum_max_cells``) rather than a hidden module constant: any
#: value yields bit-identical scores (both regimes minimize the same
#: objective over the same assignment set), so the threshold is purely a
#: speed/memory trade — ``2^m x batch`` enumeration states versus the
#: frontier DP's sorting passes.  12 (4096 masks) keeps the enumeration
#: matmul comfortably in cache while covering every fixed-k binary workload
#: up to k = 12.
DEFAULT_ENUM_MAX_CELLS = 12

#: Largest mini-block width the blocked DP enumerates per step.  The actual
#: width adapts downward so a step expands at most ``_STEP_STATES`` states.
DEFAULT_BLOCK_CELLS = 12

#: Expansion budget per DP step (states before pruning).  Small enough to
#: prune often (the frontier stays compact), large enough to amortize the
#: fixed cost of a numpy call over many states.
_STEP_STATES = 1 << 14

#: Live-state budget per candidate chunk.  Chunks keep the working set
#: cache-resident; the per-candidate frontier is bounded by ``n/2 + 1``.
_CHUNK_STATES = 1 << 18

#: State budget for the enumeration regime (``2^m x chunk`` matmul output).
_ENUM_STATES = 1 << 22


class MaskCache:
    """Cached 0/1 column-assignment masks, shared across kernel calls.

    ``masks(w)`` returns the ``(2^w, w)`` matrix whose row ``r`` is the
    binary expansion of ``r`` (which cells of a block go to ``Z0+``), plus
    its complement (which go to ``Z1+``), both float64 for BLAS matmuls.
    Masks are pure functions of the width, so one module-level instance
    (:data:`shared_mask_cache`) serves every scorer, including fork-
    inherited sweep workers.
    """

    def __init__(self) -> None:
        self._masks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def masks(self, width: int) -> Tuple[np.ndarray, np.ndarray]:
        if width not in self._masks:
            indices = np.arange(1 << width, dtype=np.int64)
            bits = (indices[:, None] >> np.arange(width, dtype=np.int64)) & 1
            self._masks[width] = (
                bits.astype(np.float64),
                (1 - bits).astype(np.float64),
            )
        return self._masks[width]


#: Default mask cache used when a kernel call does not supply one.
shared_mask_cache = MaskCache()


# ---------------------------------------------------------------------------
# Validation (shared by the scalar wrapper and every batched path)
# ---------------------------------------------------------------------------


def validate_F_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Check and canonicalize a batch of F contingency counts.

    ``counts`` is one flat joint (1-D), a batch of flat joints (2-D,
    candidate-major) or a batch of ``(m, 2)`` matrices (3-D).  Returns the
    int64 ``(batch, m, 2)`` stack.  Raises exactly the errors the scalar
    ``score_F`` has always raised — the batched and scalar paths reject
    malformed counts identically:

    * odd joint length (non-binary child),
    * non-integer counts,
    * counts not summing to ``n`` (checked per candidate).
    """
    array = np.asarray(counts)
    if array.ndim == 1:
        array = array[None, :]
    if array.ndim == 2:
        if array.shape[1] % 2 != 0:
            raise ValueError("F requires a binary child (even-length joint)")
        array = array.reshape(array.shape[0], -1, 2)
    if array.ndim != 3 or array.shape[2] != 2:
        raise ValueError(
            "F counts must be flat joints or (m, 2) matrices per candidate"
        )
    if np.issubdtype(array.dtype, np.integer):
        matrices = array.astype(np.int64, copy=False)
    else:
        # Non-finite values have no int64 cast; the rest must equal their
        # rounding exactly (a tolerance would pass 1000.004 as 1000).
        if not np.isfinite(array).all():
            raise ValueError("F expects integer contingency counts")
        matrices = np.rint(array).astype(np.int64)
        if not np.array_equal(array, matrices):
            raise ValueError("F expects integer contingency counts")
    totals = matrices.sum(axis=(1, 2))
    bad = np.nonzero(totals != n)[0]
    if bad.size:
        raise ValueError(
            f"counts sum to {int(totals[bad[0]])}, expected n={n}"
        )
    return matrices


# ---------------------------------------------------------------------------
# Reference per-candidate dynamic program (Section 4.4)
# ---------------------------------------------------------------------------


def _pareto_prune(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Keep only non-dominated (a, b) states (Definition 4.6), vectorized.

    Sorts by ``a`` descending / ``b`` descending and keeps states whose
    ``b`` strictly exceeds every ``b`` seen at a larger-or-equal ``a``.
    """
    order = np.lexsort((-b, -a))
    a = a[order]
    b = b[order]
    best_b = np.maximum.accumulate(b)
    keep = np.empty(b.size, dtype=bool)
    keep[0] = True
    keep[1:] = b[1:] > best_b[:-1]
    return a[keep], b[keep]


def score_F_dp(joint_counts: np.ndarray, n: int) -> float:
    """Exact ``F`` for one candidate via the Section 4.4 dynamic program.

    One Python-loop iteration per parent cell, each extending and pruning
    the ``(K0, K1)`` frontier.  This is the seed implementation, kept as
    the correctness oracle and benchmark baseline for the batched kernel;
    production scoring goes through :func:`score_F_batch`.
    """
    matrix = validate_F_counts(joint_counts, n)[0]
    if n == 0:
        return -0.5
    # Each column pi contributes its X=0 count to K0 or its X=1 count to K1
    # (Equation 10).  Masses at or above n/2 saturate the objective, so
    # coordinates are capped there to bound the frontier size.
    cap = (n + 1) // 2
    a = np.zeros(1, dtype=np.int64)
    b = np.zeros(1, dtype=np.int64)
    for c0, c1 in matrix:
        new_a = np.concatenate([np.minimum(a + int(c0), cap), a])
        new_b = np.concatenate([b, np.minimum(b + int(c1), cap)])
        a, b = _pareto_prune(new_a, new_b)
    shortfall = np.maximum(0.0, 0.5 - a / n) + np.maximum(0.0, 0.5 - b / n)
    return -float(shortfall.min())


# ---------------------------------------------------------------------------
# Batched F kernel
# ---------------------------------------------------------------------------


def _enumerate_F(
    matrices: np.ndarray, n: int, mask_cache: MaskCache
) -> np.ndarray:
    """All ``2^m`` column assignments for every candidate, by matmul.

    Partial sums are integers bounded by ``m * n < 2**53``, so the float64
    matmul is exact and the scores are bit-equal to the integer DP.
    """
    count, m, _ = matrices.shape
    masks, complements = mask_cache.masks(m)
    out = np.empty(count)
    chunk = max(1, _ENUM_STATES >> m)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        k0 = masks @ matrices[lo:hi, :, 0].T.astype(np.float64)
        k1 = complements @ matrices[lo:hi, :, 1].T.astype(np.float64)
        shortfall = np.maximum(0.0, 0.5 - k0 / n) + np.maximum(
            0.0, 0.5 - k1 / n
        )
        out[lo:hi] = -shortfall.min(axis=0)
    return out


def _blocked_F_chunk(
    g0: np.ndarray,
    g1: np.ndarray,
    base_a: np.ndarray,
    base_b: np.ndarray,
    mixed_counts: np.ndarray,
    n: int,
    field_bits: int,
    block_cells: int,
    mask_cache: MaskCache,
) -> np.ndarray:
    """Blocked-bitset DP over one chunk of candidates.

    ``g0``/``g1`` hold each candidate's mixed-cell counts packed leftward
    (zeros beyond ``mixed_counts[c]`` cells); candidates arrive sorted by
    ``mixed_counts`` descending so the per-step active set is a prefix.
    Each state is one int64 ``cid << 2s | (2^s-1 - K0) << s | (2^s-1 - K1)``
    with ``s = field_bits``; ascending key order is exactly
    (candidate asc, K0 desc, K1 desc), the order the Pareto scan needs.
    Coordinates stay uncapped — they are bounded by ``n < 2^s`` — which
    changes no score: capping only merges states whose shortfall terms are
    already exactly zero.
    """
    count = g0.shape[0]
    s = field_bits
    fmask = (np.int64(1) << s) - 1
    max_mixed = int(mixed_counts[0]) if count else 0

    key = (
        (np.arange(count, dtype=np.int64) << (2 * s))
        + ((fmask - base_a) << s)
        + (fmask - base_b)
    )
    ends = np.arange(1, count + 1, dtype=np.int64)

    sh0 = g0.astype(np.float64)
    sh1 = g1.astype(np.float64)

    j = 0
    while j < max_mixed:
        # Candidates still holding unprocessed mixed cells (mixed > j);
        # the mixed-descending candidate order makes them a prefix.
        active = int(np.searchsorted(-mixed_counts, -j, side="left"))
        if active <= 0:
            break
        size = int(ends[active - 1])
        width = max(
            1,
            min(
                block_cells,
                max_mixed - j,
                (_STEP_STATES // max(1, size)).bit_length() - 1,
            ),
        )
        masks, complements = mask_cache.masks(width)
        # Subset sums of the block's cells on both sides, packed as state
        # shifts: sending a cell to Z0 adds c0 to K0 (subtracts c0 << s from
        # the key), to Z1 adds c1 to K1 (subtracts c1).
        k0 = (masks @ sh0[:active, j : j + width].T).astype(np.int64)
        k1 = (complements @ sh1[:active, j : j + width].T).astype(np.int64)
        shifts = (k0 << s) + k1
        cells = key[:size]
        cid = np.repeat(
            np.arange(active, dtype=np.int64),
            np.diff(np.concatenate([[0], ends[:active]])) << width,
        )
        expanded = (cells[None, :] - shifts[:, _cid_of(ends, active, size)])
        expanded = expanded.reshape(-1)
        expanded.sort(kind="stable")
        # Pareto prune (Definition 4.6): in (cid asc, K0 desc, K1 desc)
        # order, a state survives iff its K1 strictly exceeds every K1 seen
        # at a larger-or-equal K0 of the same candidate.
        aug = (cid << s) - (expanded & fmask)
        run = np.maximum.accumulate(aug)
        keep = np.empty(aug.size, dtype=bool)
        keep[0] = True
        keep[1:] = aug[1:] > run[:-1]
        kept = expanded[keep]
        ckept = cid[keep]
        new_ends = np.searchsorted(
            ckept, np.arange(1, active + 1, dtype=np.int64), side="left"
        )
        if active < count:
            key = np.concatenate([kept, key[size:]])
            ends = np.concatenate(
                [new_ends, ends[active:] - size + int(new_ends[-1])]
            )
        else:
            key = kept
            ends = new_ends
        j += width

    a = fmask - ((key >> s) & fmask)
    b = fmask - (key & fmask)
    shortfall = np.maximum(0.0, 0.5 - a / n) + np.maximum(0.0, 0.5 - b / n)
    starts = np.concatenate([[0], ends[:-1]])
    return -np.minimum.reduceat(shortfall, starts)


def _cid_of(ends: np.ndarray, active: int, size: int) -> np.ndarray:
    """Candidate id per frontier state for the active prefix."""
    return np.repeat(
        np.arange(active, dtype=np.int64),
        np.diff(np.concatenate([[0], ends[:active]])),
    )


def _native_for(backend: Optional[str]) -> Optional[kernel_backend.NativeKernel]:
    """Resolve a per-call backend override to a native kernel (or None).

    ``None`` defers to the import-time selection
    (:data:`repro.core.kernel_backend.NATIVE_KERNEL`); ``"numpy"`` pins the
    pure-NumPy path; ``"native"`` requires the compiled kernel, building it
    on demand and raising :class:`~repro.core.kernel_backend.KernelBackendError`
    when no toolchain exists.
    """
    if backend is None:
        return kernel_backend.NATIVE_KERNEL
    if backend == "numpy":
        return None
    if backend == "native":
        return kernel_backend.NATIVE_KERNEL or kernel_backend.load_native()
    raise ValueError(f"backend must be 'numpy' or 'native', got {backend!r}")


def score_F_batch(
    counts: np.ndarray,
    n: int,
    *,
    enum_max_cells: int = DEFAULT_ENUM_MAX_CELLS,
    block_cells: int = DEFAULT_BLOCK_CELLS,
    mask_cache: MaskCache = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Exact ``F`` for a whole batch of binary-child candidates at once.

    Parameters
    ----------
    counts:
        Batch of integer contingency counts, candidate-major: flat joints
        ``(batch, 2m)`` or matrices ``(batch, m, 2)`` (a single flat joint
        is promoted to a batch of one).  Every candidate's counts must sum
        to ``n`` — validation is identical to the scalar path.
    n:
        Number of tuples.
    enum_max_cells:
        Enumeration/DP crossover (see :data:`DEFAULT_ENUM_MAX_CELLS`).
        Any value >= 0 produces bit-identical scores; only speed changes.
    block_cells:
        Upper bound on the blocked DP's mini-block width (adaptive per
        step); also bit-identity-neutral.
    mask_cache:
        Optional :class:`MaskCache`; defaults to the module-shared one.
    backend:
        ``None`` (default) uses the backend selected at import;
        ``"numpy"`` / ``"native"`` pin one side for tests and benchmarks.
        Either way the scores are bit-identical — the native kernel
        computes the same minimum over a bounded frontier, with the same
        final float expression.

    Returns the ``(batch,)`` float array of (non-positive) F scores, each
    bit-equal to ``score_F_dp`` on the same candidate.
    """
    if enum_max_cells < 0:
        raise ValueError("enum_max_cells must be non-negative")
    if block_cells < 1:
        raise ValueError("block_cells must be positive")
    native = _native_for(backend)
    matrices = validate_F_counts(counts, n)
    count, m, _ = matrices.shape
    if count == 0:
        return np.zeros(0)
    if n == 0:
        return np.full(count, -0.5)
    cache = mask_cache if mask_cache is not None else shared_mask_cache
    # Enumeration is capped at 2^16 masks regardless of the requested
    # threshold — beyond that the mask matrix itself outgrows the cache.
    # This regime is cheap and shared: the native kernel only replaces the
    # frontier DP below it.
    if m <= min(enum_max_cells, 16):
        return _enumerate_F(matrices, n, cache)
    if native is not None:
        # The C frontier DP also covers the wide-n regime that would
        # overflow the NumPy path's packed bit fields — its coordinates
        # are plain int64 pairs, never packed.
        return native.score_f_batch(matrices[:, :, 0], matrices[:, :, 1], n)
    field_bits = max(1, int(n).bit_length())
    if 2 * field_bits + 1 > 62:
        # Packed states would overflow int64; exactness first.  Flatten
        # each (m, 2) matrix — handed 2-D it would be misread as a batch.
        return np.array([score_F_dp(row.reshape(-1), n) for row in matrices])

    cap = (n + 1) // 2
    c0 = matrices[:, :, 0]
    c1 = matrices[:, :, 1]
    # One-sided cells are forced: with c1 = 0, sending the cell to Z1 gains
    # nothing while Z0 gains c0 (and vice versa) — the other branch is
    # dominated, so fold them into the start state.
    mixed = (c0 > 0) & (c1 > 0)
    base_a = np.minimum(np.where(c1 == 0, c0, 0).sum(axis=1), cap)
    base_b = np.minimum(np.where(c0 == 0, c1, 0).sum(axis=1), cap)
    mixed_counts = mixed.sum(axis=1)

    order = np.argsort(-mixed_counts, kind="stable")
    inverse = np.empty(count, dtype=np.int64)
    inverse[order] = np.arange(count)
    c0 = c0[order]
    c1 = c1[order]
    mixed = mixed[order]
    base_a = base_a[order]
    base_b = base_b[order]
    mixed_counts = mixed_counts[order]

    # Pack each candidate's mixed cells leftward; the padding cells are
    # (0, 0) no-ops that the active-prefix loop never touches.
    col_order = np.argsort(~mixed, axis=1, kind="stable")
    packed_mask = np.take_along_axis(mixed, col_order, axis=1)
    g0 = np.where(packed_mask, np.take_along_axis(c0, col_order, axis=1), 0)
    g1 = np.where(packed_mask, np.take_along_axis(c1, col_order, axis=1), 0)

    chunk = max(
        1,
        min(
            count,
            _CHUNK_STATES // max(64, cap),
            (1 << max(1, 62 - 2 * field_bits)) - 1,
        ),
    )
    out = np.empty(count)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out[lo:hi] = _blocked_F_chunk(
            g0[lo:hi],
            g1[lo:hi],
            base_a[lo:hi],
            base_b[lo:hi],
            mixed_counts[lo:hi],
            n,
            field_bits,
            block_cells,
            cache,
        )
    return out[inverse]


# ---------------------------------------------------------------------------
# Batched I and R kernels
# ---------------------------------------------------------------------------


def _as_joint_stack(joints: np.ndarray, child_size: int) -> np.ndarray:
    """Canonicalize to a float ``(batch, parent_dom, child_size)`` stack."""
    stack = np.asarray(joints, dtype=float)
    if stack.ndim == 1:
        stack = stack[None, :]
    if stack.ndim == 2:
        stack = stack.reshape(stack.shape[0], -1, child_size)
    if stack.ndim != 3 or stack.shape[2] != child_size:
        raise ValueError(
            "joints must be flat vectors or (parent_dom, child_size) "
            "matrices per candidate"
        )
    return stack


def _rows_entropy(matrix: np.ndarray) -> np.ndarray:
    """Per-row Shannon entropies of a rectangular float batch.

    One segmented exact-sum pass over all rows; each output is bit-equal
    to :func:`repro.infotheory.measures.entropy` on that row alone.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    count, width = matrix.shape
    return _entropy_by_count(
        matrix.reshape(-1), np.full(count, width, dtype=np.int64)
    )


def score_I_batch(joints: np.ndarray, child_size: int) -> np.ndarray:
    """Mutual information for a batch of joints sharing a child size.

    Marginalization and all three entropy terms are vectorized across the
    batch — the entropies go through the segmented exact-sum pass of
    :func:`_rows_entropy`, whose per-row reduction order matches the
    scalar :func:`~repro.infotheory.measures.entropy`.  Each output is
    bit-equal to ``mutual_information(joint, child_size)`` on the same
    joint.
    """
    stack = _as_joint_stack(joints, child_size)
    count = stack.shape[0]
    h_parent = _rows_entropy(stack.sum(axis=2))
    h_child = _rows_entropy(stack.sum(axis=1))
    h_joint = _rows_entropy(stack.reshape(count, -1))
    return np.maximum(0.0, h_child + h_parent - h_joint)


def _segment_groups(
    lengths: np.ndarray, child_sizes: np.ndarray
) -> List[Tuple[int, int, np.ndarray]]:
    """Candidate indices grouped by (segment length, child size).

    Returns ``(length, child_size, candidate_indices)`` triples; grouping
    is a stable lexsort so traversal is deterministic given the candidate
    order.
    """
    count = lengths.shape[0]
    if count == 0:
        return []
    order = np.lexsort((child_sizes, lengths))
    changed = (np.diff(lengths[order]) != 0) | (np.diff(child_sizes[order]) != 0)
    bounds = np.concatenate([[0], np.nonzero(changed)[0] + 1, [count]])
    return [
        (
            int(lengths[order[lo]]),
            int(child_sizes[order[lo]]),
            order[lo:hi],
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _ragged_args(
    values: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    child_sizes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize the ragged-batch arguments shared by the segment kernels."""
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    sizes = np.asarray(child_sizes, dtype=np.int64).reshape(-1)
    if offsets.shape != lengths.shape or offsets.shape != sizes.shape:
        raise ValueError("offsets, lengths and child_sizes must align")
    if offsets.size and (
        offsets.min() < 0 or int((offsets + lengths).max()) > flat.size
    ):
        raise ValueError("segment [offset, offset+length) out of bounds")
    return flat, offsets, lengths, sizes


def score_I_segments(
    values: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    child_sizes: np.ndarray,
) -> np.ndarray:
    """Mutual information for a *ragged* batch of flat joints.

    ``values`` concatenates the candidates' flat ``Pr[Pi, X]`` joints
    (child innermost); candidate ``i`` occupies
    ``values[offsets[i] : offsets[i] + lengths[i]]`` and has child domain
    size ``child_sizes[i]``.  This is exactly the layout
    :func:`repro.data.marginals.stacked_joint_counts` produces, so callers
    feed the stacked block straight in — no per-candidate reshaping or
    same-size bucketing on their side.

    Candidates are permuted into ``(length, child_size)`` order by one
    ragged gather, so every same-shape group is a contiguous block: the
    joint entropy is a single segmented pass over the whole batch, and
    each group's parent and child marginals are plain slice-reshape-sums
    of its ``(group, parent_dom, child_size)`` stack — the exact
    ``matrix.sum(axis=1)`` / ``matrix.sum(axis=0)`` reduction shapes of
    the scalar path (NumPy's axis-0 order differs from a contiguous 1-D
    sum, so the child term in particular must keep that stack shape).
    The scores un-permute once at the end; every output is bit-equal to
    ``mutual_information(values[segment], child_size)`` on that candidate
    alone.
    """
    flat, offsets, lengths, sizes = _ragged_args(
        values, offsets, lengths, child_sizes
    )
    count = offsets.shape[0]
    if count == 0:
        return np.empty(0)
    if np.any(sizes < 1):
        raise ValueError("child_sizes must be positive")
    if np.any(lengths % sizes):
        raise ValueError(
            "each segment length must be a multiple of its child size"
        )
    total = int(lengths.sum())
    order = np.lexsort((sizes, lengths))
    g_lengths = lengths[order]
    g_sizes = sizes[order]
    bounds = np.concatenate([[0], np.cumsum(g_lengths)])
    shift = np.repeat(offsets[order] - bounds[:-1], g_lengths)
    grouped = flat[shift + np.arange(total, dtype=np.int64)]

    h_joint = _entropy_by_count(grouped, g_lengths)

    g_cells = g_lengths // g_sizes
    parent_values = np.empty(int(g_cells.sum()))
    child_values = np.empty(int(g_sizes.sum()))
    edges = bounds.tolist()
    p_edges = np.concatenate([[0], np.cumsum(g_cells)]).tolist()
    c_edges = np.concatenate([[0], np.cumsum(g_sizes)]).tolist()
    changed = (np.diff(g_lengths) != 0) | (np.diff(g_sizes) != 0)
    starts = np.concatenate([[0], np.nonzero(changed)[0] + 1, [count]]).tolist()
    for g in range(len(starts) - 1):
        lo, hi = starts[g], starts[g + 1]
        if g_lengths[lo] == 0:  # empty joints: both marginals are zeros
            child_values[c_edges[lo] : c_edges[hi]] = 0.0
            continue
        stack = grouped[edges[lo] : edges[hi]].reshape(
            hi - lo, -1, int(g_sizes[lo])
        )
        # Parent cells are contiguous child-size blocks (trailing axis);
        # the child marginal keeps the scalar path's axis-0 sum shape.
        parent_values[p_edges[lo] : p_edges[hi]] = stack.sum(axis=2).reshape(-1)
        child_values[c_edges[lo] : c_edges[hi]] = stack.sum(axis=1).reshape(-1)
    h_parent = _entropy_by_count(parent_values, g_cells)
    h_child = _entropy_by_count(child_values, g_sizes)

    scores = np.empty(count)
    scores[order] = np.maximum(0.0, h_child + h_parent - h_joint)
    return scores


def score_R_segments(
    values: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    child_sizes: np.ndarray,
) -> np.ndarray:
    """``R`` (Equation 11) for a ragged batch of flat joints.

    Same ragged layout and grouping as :func:`score_I_segments`; each
    ``(length, child_size)`` group delegates to the fully vectorized
    :func:`score_R_batch`, preserving its per-candidate bit-identity.
    """
    flat, offsets, lengths, sizes = _ragged_args(
        values, offsets, lengths, child_sizes
    )
    out = np.empty(offsets.shape[0])
    for length, child_size, idx in _segment_groups(lengths, sizes):
        gathered = flat[offsets[idx][:, None] + np.arange(length)]
        out[idx] = score_R_batch(gathered, child_size)
    return out


def score_R_batch(joints: np.ndarray, child_size: int) -> np.ndarray:
    """``R`` (Equation 11) for a batch of joints sharing a child size.

    Fully vectorized; each output is bit-equal to the scalar ``score_R``
    (the outer product's inner dimension is one, so every element is a
    single exact multiplication, and the final reduction sums the same
    contiguous values per candidate).
    """
    stack = _as_joint_stack(joints, child_size)
    count = stack.shape[0]
    parent = stack.sum(axis=2, keepdims=True)
    child = stack.sum(axis=1, keepdims=True)
    independent = parent @ child
    return 0.5 * np.abs(stack - independent).reshape(count, -1).sum(axis=1)

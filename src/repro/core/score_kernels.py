"""Batched score kernels: F / I / R over whole candidate sets at once.

This is the compute layer under :mod:`repro.core.scoring`.  Each kernel
scores a *batch* of (child, parent-set) candidates in one call — typically
every child sharing a parent set, or (for ``F``) every candidate of a greedy
round sharing a parent-domain size — instead of one Python call per
candidate.  The layering is::

    score_kernels   pure batched numerics (this module)
        ^ scoring   CandidateScorer (memo + counting)
        ^ greedy_bayes, bn.quality (network quality), experiments

Bit-identity contract
---------------------
Every kernel returns, for each candidate, the exact float a computation on
that candidate alone produces — not merely a numerically close value, and
whatever else is in the batch: ``F`` equals the reference dynamic program
:func:`score_F_dp`, ``I`` equals
:func:`repro.infotheory.measures.mutual_information`, and ``R`` equals
Equation 11 evaluated on the candidate's ``(parent cells, child)`` matrix.
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
  bit-equal to the per-candidate sums) and evaluates the entropies in one
  segmented exact-sum pass (below).
* ``R`` vectorizes completely: the outer product has inner dimension one
  (each element a single IEEE multiplication) and the final reduction sums
  the same contiguous buffer per candidate.

The F kernel
------------
``F`` on ``|dom(Pi)| = m`` parent cells is exact over ``2^m`` column
assignments (Section 4.4).  Three regimes:

* ``m <= ENUM_MAX_CELLS`` — **bitset enumeration**: all ``2^m`` assignment
  masks at once via one matmul against the cached 0/1 mask matrix.  The
  matmul runs in float64 for BLAS speed; every partial sum is an integer
  below 2**53, so the result is exact.
* ``m > ENUM_MAX_CELLS`` — **blocked-bitset dynamic program**: parent cells
  whose two counts are not both positive are folded into the start state
  (their optimal side is forced — the other branch is dominated).  The
  remaining *mixed* cells are processed in blocks of adaptive width
  ``B <= BLOCK_CELLS``: one matmul against the cached masks enumerates
  the block's ``2^B`` assignments as packed state shifts, and the block
  combines into the running Pareto frontier of Definition 4.6
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

Both constants are read at call time; any values score bit-identically,
so they trade speed and memory only.

The compiled backend
--------------------
The ``m > ENUM_MAX_CELLS`` regime has an optional **native** backend
(``core/_native/scoref.c``).  :func:`score_F_batch` follows
:data:`repro.core.kernel_backend.NATIVE_KERNEL` on every call, as the
sampler and the CSV codec do; the kernel is selected once at import
(``REPRO_KERNEL_BACKEND=auto|numpy|native``, default ``auto`` = use the
compiled kernel when a toolchain exists, NumPy otherwise).  It computes
the same minimum over a *bounded* frontier: each candidate's mixed cells
run by ``x/y`` descending, an achievable incumbent objective is tracked
in exact integers, and every state whose fractional relaxation (each
remaining cell split between the two sides) is strictly above it is
dropped; a candidate whose majority assignment is the unique optimum
skips the merge (both for ``n <= 2^48``; see the README next to the
source for the proof).  The native path is bit-identical to the NumPy
path — all DP states are exact int64 either way, the kept states include
one the minimum is taken at, and the final shortfall floats use the
identical float64 expression — so backend selection is invisible to
every caller.

The I and R kernels
-------------------
:func:`score_I_segments` and :func:`score_R_segments` take a *ragged*
batch: flat joints laid end to end, as
:func:`repro.data.marginals.stacked_joint_counts` lays them out (a
rectangular batch is the equal-length case).  Both sort the candidates
once by (length, child size), gather them in that order with one ragged
gather, score each same-shape run as a ``(run, parent cells, child
size)`` stack and un-permute the scores once at the end.  ``I``
evaluates every candidate's three entropies through one segmented
exact-sum pass (:func:`repro.infotheory.measures._entropy_by_count`):
nonzero compaction and ``log`` run once over the concatenated batch, and
per-candidate sums are reduced in NumPy's own per-array pairwise order,
so each output stays bit-equal to ``mutual_information`` on that
candidate alone.

Validation: :func:`validate_F_counts` checks ``F`` counts (binary-child
shape, integer counts, counts summing to ``n`` per candidate) for the
batched kernel and the reference DP alike, and :func:`_regrouped` checks
the ragged kernels' segment arguments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import kernel_backend
from repro.infotheory.measures import _entropy_by_count

__all__ = [
    "ENUM_MAX_CELLS",
    "BLOCK_CELLS",
    "validate_F_counts",
    "score_F_batch",
    "score_F_dp",
    "score_I_segments",
    "score_R_segments",
]

#: Enumeration / blocked-DP crossover: largest parent-cell count scored by
#: direct enumeration of all ``2^m`` column assignments (never above 16:
#: beyond that the mask matrix itself outgrows the cache).  Any value
#: yields bit-identical scores (both regimes minimize the same objective
#: over the same assignment set), so the threshold is purely a
#: speed/memory trade — ``2^m x batch`` enumeration states versus the
#: frontier DP's sorting passes.  12 (4096 masks) keeps the enumeration
#: matmul comfortably in cache while covering every fixed-k binary workload
#: up to k = 12.
ENUM_MAX_CELLS = 12

#: Largest mini-block width the blocked DP enumerates per step (at least
#: 1).  The actual width adapts downward so a step expands at most
#: ``_STEP_STATES`` states; any value is bit-identity-neutral.
BLOCK_CELLS = 12

#: Expansion budget per DP step (states before pruning).  Small enough to
#: prune often (the frontier stays compact), large enough to amortize the
#: fixed cost of a numpy call over many states.
_STEP_STATES = 1 << 14

#: Live-state budget per candidate chunk.  Chunks keep the working set
#: cache-resident; the per-candidate frontier is bounded by ``n/2 + 1``.
_CHUNK_STATES = 1 << 18

#: State budget for the enumeration regime (``2^m x chunk`` matmul output).
_ENUM_STATES = 1 << 22

#: 0/1 column-assignment masks per block width, shared by every call (and
#: by fork-inherited sweep workers): pure functions of the width.
_MASKS: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _masks(width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(2^w, w)`` matrix whose row ``r`` is the binary expansion of
    ``r`` (which cells of a block go to ``Z0+``), and its complement (which
    go to ``Z1+``), both float64 for BLAS matmuls."""
    masks = _MASKS.get(width)
    if masks is None:
        indices = np.arange(1 << width, dtype=np.int64)
        bits = (indices[:, None] >> np.arange(width, dtype=np.int64)) & 1
        masks = _MASKS[width] = (
            bits.astype(np.float64),
            (1 - bits).astype(np.float64),
        )
    return masks


# ---------------------------------------------------------------------------
# Validation (shared by the batched kernel and the reference DP)
# ---------------------------------------------------------------------------


def validate_F_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Check and canonicalize a batch of F contingency counts.

    ``counts`` is one flat joint (1-D), a batch of flat joints (2-D,
    candidate-major) or a batch of ``(m, 2)`` matrices (3-D).  Returns the
    int64 ``(batch, m, 2)`` stack.  :func:`score_F_batch` and
    :func:`score_F_dp` both validate through it, so they reject malformed
    counts identically:

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


def _enumerate_F(matrices: np.ndarray, n: int) -> np.ndarray:
    """All ``2^m`` column assignments for every candidate, by matmul.

    Partial sums are integers bounded by ``m * n < 2**53``, so the float64
    matmul is exact and the scores are bit-equal to the integer DP.
    """
    count, m, _ = matrices.shape
    masks, complements = _masks(m)
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
                BLOCK_CELLS,
                max_mixed - j,
                (_STEP_STATES // max(1, size)).bit_length() - 1,
            ),
        )
        masks, complements = _masks(width)
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


def score_F_batch(counts: np.ndarray, n: int) -> np.ndarray:
    """Exact ``F`` for a whole batch of binary-child candidates at once.

    ``counts`` is a batch of integer contingency counts, candidate-major:
    flat joints ``(batch, 2m)`` or matrices ``(batch, m, 2)`` (a single
    flat joint is promoted to a batch of one).  Every candidate's counts
    must sum to ``n``, the number of tuples (see
    :func:`validate_F_counts`).  The blocked DP runs natively when
    :data:`repro.core.kernel_backend.NATIVE_KERNEL` is loaded; the scores
    are bit-identical either way.

    Returns the ``(batch,)`` float array of (non-positive) F scores, each
    bit-equal to ``score_F_dp`` on the same candidate.
    """
    return _score_F(
        validate_F_counts(counts, n), n, kernel_backend.NATIVE_KERNEL
    )


def _score_F(
    matrices: np.ndarray,
    n: int,
    native: Optional[kernel_backend.NativeKernel],
) -> np.ndarray:
    """:func:`score_F_batch` on validated ``(batch, m, 2)`` int64
    ``matrices``, with the blocked DP run by ``native`` (``None``: NumPy)."""
    count, m, _ = matrices.shape
    if count == 0:
        return np.zeros(0)
    if n == 0:
        return np.full(count, -0.5)
    # This regime is cheap and shared: the native kernel only replaces the
    # frontier DP above it.
    if m <= min(ENUM_MAX_CELLS, 16):
        return _enumerate_F(matrices, n)
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
        )
    return out[inverse]


# ---------------------------------------------------------------------------
# Batched I and R kernels
# ---------------------------------------------------------------------------


#: One same-shape run of a regrouped batch: ``(lo, hi, stack)``.
_Run = Tuple[int, int, np.ndarray]


def _regrouped(
    values: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    child_sizes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[_Run]]:
    """Check a ragged batch and regroup it by (length, child size).

    Returns the stable ``lexsort`` order of the candidates by (segment
    length, child size); the joints gathered in that order by one ragged
    gather, with their lengths and child sizes in that order; and one
    ``(lo, hi, stack)`` per same-shape run: candidates ``lo:hi`` of the
    order as a ``(hi - lo, parent cells, child size)`` view of the
    gathered joints.
    """
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
    if (sizes < 1).any():
        raise ValueError("child_sizes must be positive")
    if (lengths % sizes).any():
        raise ValueError(
            "each segment length must be a multiple of its child size"
        )
    order = np.lexsort((sizes, lengths))
    lengths = lengths[order]
    sizes = sizes[order]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    shift = np.repeat(offsets[order] - bounds[:-1], lengths)
    grouped = flat[shift + np.arange(bounds[-1], dtype=np.int64)]
    changed = (lengths[1:] != lengths[:-1]) | (sizes[1:] != sizes[:-1])
    starts = [0] + (changed.nonzero()[0] + 1).tolist() if order.size else []
    edges = bounds.tolist()
    runs = []
    for lo, hi in zip(starts, starts[1:] + [order.size]):
        size = int(sizes[lo])
        cells = int(lengths[lo]) // size
        runs.append(
            (lo, hi, grouped[edges[lo] : edges[hi]].reshape(hi - lo, cells, size))
        )
    return order, grouped, lengths, sizes, runs


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
    ragged gather (:func:`_regrouped`), so every same-shape group is a
    contiguous block: the joint entropy is a single segmented pass over
    the whole batch, and each group's parent and child marginals are
    plain sums of its ``(group, parent_dom, child_size)`` stack — the
    exact ``matrix.sum(axis=1)`` / ``matrix.sum(axis=0)`` reduction shapes
    of ``mutual_information`` (NumPy's axis-0 order differs from a
    contiguous 1-D sum, so the child term in particular must keep that
    stack shape).  The scores un-permute once at the end; every output is
    bit-equal to ``mutual_information(values[segment], child_size)`` on
    that candidate alone.
    """
    order, grouped, lengths, sizes, runs = _regrouped(
        values, offsets, lengths, child_sizes
    )
    h_joint = _entropy_by_count(grouped, lengths)
    cells = lengths // sizes
    parent_values = np.empty(int(cells.sum()))
    child_values = np.empty(int(sizes.sum()))
    p_edges = np.concatenate([[0], np.cumsum(cells)]).tolist()
    c_edges = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    for lo, hi, stack in runs:
        # Parent cells are contiguous child-size blocks (trailing axis);
        # the child marginal keeps the axis-0 sum shape.
        parent_values[p_edges[lo] : p_edges[hi]] = stack.sum(axis=2).reshape(-1)
        child_values[c_edges[lo] : c_edges[hi]] = stack.sum(axis=1).reshape(-1)
    h_parent = _entropy_by_count(parent_values, cells)
    h_child = _entropy_by_count(child_values, sizes)
    scores = np.empty(order.size)
    scores[order] = np.maximum(0.0, h_child + h_parent - h_joint)
    return scores


def score_R_segments(
    values: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    child_sizes: np.ndarray,
) -> np.ndarray:
    """``R`` (Equation 11) for a ragged batch of flat joints.

    Same ragged layout and regrouping as :func:`score_I_segments`.  Each
    same-shape group scores its whole ``(group, parent_dom, child_size)``
    stack at once: the independent joint is the product of the parent and
    child marginals (inner dimension one, so every element is a single
    exact multiplication), and each candidate's ``0.5 * |stack -
    independent|`` sums its own contiguous row.  The scores un-permute
    once at the end; each is bit-equal to Equation 11 on that candidate
    alone.
    """
    order, _, _, _, runs = _regrouped(values, offsets, lengths, child_sizes)
    grouped_scores = np.empty(order.size)
    for lo, hi, stack in runs:
        independent = stack.sum(axis=2, keepdims=True) @ stack.sum(
            axis=1, keepdims=True
        )
        grouped_scores[lo:hi] = 0.5 * np.abs(stack - independent).reshape(
            hi - lo, -1
        ).sum(axis=1)
    scores = np.empty(order.size)
    scores[order] = grouped_scores
    return scores

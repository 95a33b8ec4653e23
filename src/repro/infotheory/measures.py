"""Entropy, mutual information and total variation distance.

Inputs are flat probability vectors (see :mod:`repro.data.marginals` for the
mixed-radix layout).  Mutual information between a child attribute ``X`` and
a parent set ``Π`` expects the joint laid out as ``Pr[Π, X]`` with the child
innermost — the same layout :func:`repro.data.marginals.marginal_counts`
produces when the child is listed last.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.marginals import marginal_counts
from repro.data.table import Table

_LOG2 = np.log(2.0)


def entropy(dist: np.ndarray) -> float:
    """Shannon entropy ``H`` in bits of a probability vector."""
    p = np.asarray(dist, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum() / _LOG2)


def _sums_by_count(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exact sums of contiguous segments of ``flat`` with the given
    element counts.

    The result is **bit-identical** to ``segment.sum()`` computed per
    segment, and an empty segment sums to ``0.0``.  Segments are permuted
    into length order once so each length class is a single contiguous
    block, then every block reduces as the rows of a rectangular view —
    NumPy sums the trailing contiguous axis of a 2-D array with the same
    pairwise order it applies to each row as a standalone 1-D array.  This
    is the exact-sum core under the segmented score kernels
    (:mod:`repro.core.score_kernels`): "vectorize across candidates
    without changing any candidate's float" is only possible because the
    per-segment reduction order is preserved.
    """
    num_segments = counts.size
    sums = np.zeros(num_segments)
    if num_segments == 0 or flat.size == 0:
        return sums
    if np.any(np.diff(counts) < 0):
        order = np.argsort(counts, kind="stable")
        sorted_counts = counts[order]
        bounds = np.concatenate([[0], np.cumsum(sorted_counts)])
        starts = np.concatenate([[0], np.cumsum(counts[:-1])])
        shift = np.repeat(starts[order] - bounds[:-1], sorted_counts)
        flat = flat[shift + np.arange(flat.size, dtype=np.int64)]
    else:  # already length-sorted (e.g. uniform lengths): no permutation
        order = None
        sorted_counts = counts
        bounds = np.concatenate([[0], np.cumsum(counts)])
    groups = np.concatenate(
        [[0], np.nonzero(np.diff(sorted_counts))[0] + 1, [num_segments]]
    ).tolist()
    edges = bounds[groups].tolist()
    out = np.zeros(num_segments)
    for g in range(len(groups) - 1):
        lo, hi = groups[g], groups[g + 1]
        width = (edges[g + 1] - edges[g]) // (hi - lo)
        if width == 0:
            continue
        block = flat[edges[g] : edges[g + 1]]
        np.add.reduce(block.reshape(hi - lo, width), axis=1, out=out[lo:hi])
    if order is None:
        return out
    sums[order] = out
    return sums


def _entropy_by_count(p: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shannon entropies (bits) of the contiguous segments of ``p`` with
    the given element counts.

    Each output is bit-equal to :func:`entropy` on that segment alone:
    the zero compaction, ``log`` and multiply are elementwise, the
    per-segment nonzero counts fall out of one cumulative sum of the mask,
    and the only per-segment work is the exact reduction in
    :func:`_sums_by_count`.  The ragged ``I`` kernel
    (:func:`repro.core.score_kernels.score_I_segments`) computes all three
    entropies of every candidate with it.
    """
    mask = p > 0.0
    if mask.all():  # common for marginals: nothing to compact
        nz, nz_counts = p, counts
    else:
        bounds = np.concatenate([[0], np.cumsum(counts)])
        running = np.concatenate([[0], np.cumsum(mask)])
        nz_counts = np.diff(running[bounds])
        nz = p[mask]
    terms = np.log(nz)
    terms *= nz
    return _sums_by_count(terms, nz_counts) / -_LOG2


def mutual_information(joint: np.ndarray, child_size: int) -> float:
    """``I(X, Π)`` (Equation 5) from a flat ``Pr[Π, X]`` vector.

    Computed as ``H(X) + H(Π) - H(X, Π)`` (Equation 12), which is exact for
    empirical distributions and numerically robust for sparse joints.
    Clamped at zero: floating-point cancellation can produce tiny negatives.
    """
    joint = np.asarray(joint, dtype=float)
    matrix = joint.reshape(-1, child_size)
    h_parent = entropy(matrix.sum(axis=1))
    h_child = entropy(matrix.sum(axis=0))
    value = h_child + h_parent - entropy(joint)
    return max(0.0, float(value))


def mutual_information_from_table(
    table: Table, child: str, parents: Sequence[str]
) -> float:
    """Empirical ``I(X, Π)`` of a child attribute and its parent set."""
    if not parents:
        return 0.0
    counts = marginal_counts(table, list(parents) + [child])
    total = counts.sum()
    if total <= 0:
        return 0.0
    return mutual_information(counts / total, table.attribute(child).size)


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance: half the L1 distance between P and Q.

    This is the accuracy metric of Section 6.1 for noisy marginals.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    return float(0.5 * np.abs(p - q).sum())

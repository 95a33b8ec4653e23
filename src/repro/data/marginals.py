"""Marginal and joint-distribution materialization over integer-coded tables.

Joint distributions over attribute subsets are stored as flat numpy vectors
indexed in mixed radix: for attributes ``(A_1, ..., A_m)`` with sizes
``(s_1, ..., s_m)``, the cell for values ``(v_1, ..., v_m)`` sits at
``v_1 * s_2 * ... * s_m + v_2 * s_3 * ... * s_m + ... + v_m`` (row-major,
first attribute most significant).  This is the representation PrivBayes
perturbs in its distribution-learning phase.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.data.table import Table


_INT64_MAX = np.iinfo(np.int64).max


def domain_size(sizes: Sequence[int]) -> int:
    """Product of domain sizes; 1 for the empty attribute set.

    Computed in Python integers, so the result is exact no matter how wide
    the joint domain is — use :func:`ensure_int64_domain` before trusting it
    as a numpy index bound.
    """
    size = 1
    for s in sizes:
        size *= int(s)
    return size


def ensure_int64_domain(total: int, context: str = "joint domain") -> int:
    """Reject joint domains whose flat indices would overflow int64.

    ``flatten_index`` accumulates mixed-radix indices in int64; a joint
    domain wider than ``2**63 - 1`` would wrap around silently and corrupt
    every downstream count.  ``total`` must be the exact Python-int product
    from :func:`domain_size`.
    """
    if int(total) > _INT64_MAX:
        raise ValueError(
            f"{context} has {total} cells, which exceeds the int64 indexing "
            f"limit ({_INT64_MAX}); drop attributes from the set or "
            "generalize them to coarser taxonomy levels"
        )
    return int(total)


def flatten_index(
    columns: Sequence[np.ndarray], sizes: Sequence[int], rows: int
) -> np.ndarray:
    """Mixed-radix flattening of parallel code columns (first column most
    significant) into one int64 index per row.

    The index accumulates in place in a single array, without stacking
    the columns into an ``n × m`` matrix; no columns give ``rows`` zeros.
    Raises :class:`ValueError` (instead of silently wrapping) when the
    joint domain of ``sizes`` does not fit in int64, and when the numbers
    of columns and sizes differ.
    """
    ensure_int64_domain(domain_size(sizes))
    if len(columns) != len(sizes):
        raise ValueError(
            f"{len(columns)} code columns for {len(sizes)} sizes"
        )
    if not len(columns):
        return np.zeros(rows, dtype=np.int64)
    flat = np.array(columns[0], dtype=np.int64)
    for codes, size in zip(columns[1:], sizes[1:]):
        flat *= size
        flat += codes
    return flat


def unflatten_index(flat: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`flatten_index`: flat indices -> ``(n, m)`` code
    matrix (its columns are :func:`flatten_index`'s input)."""
    flat = np.asarray(flat, dtype=np.int64)
    out = np.zeros((flat.shape[0], len(sizes)), dtype=np.int64)
    for j in range(len(sizes) - 1, -1, -1):
        size = int(sizes[j])
        out[:, j] = flat % size
        flat = flat // size
    return out


def walsh_hadamard(block: np.ndarray, bits: int) -> np.ndarray:
    """Unnormalized Walsh–Hadamard transform of ``block`` along its first
    axis, in place; returns ``block``.

    ``block`` is a C-contiguous int64 array whose first axis has
    ``2**bits`` cells, indexed by bit vectors; each trailing position is
    an independent transform.  Each of the ``bits`` stages pairs every
    cell ``a`` whose stage bit is clear with its partner ``b`` and writes
    ``(a + b, a - b)`` as ``a += b; b *= -2; b += a``, on views, so no
    block-sized temporary is allocated.  Along the first axis every stage
    updates contiguous runs of ``2**stage`` times the trailing size, not
    the short strided pairs of a last-axis transform, so a batch of small
    transforms is best laid out one per column.  The arithmetic is exact
    as long as no value leaves int64: a count vector with total ``n``
    stays within ``2**bits · n`` at every stage.  Applying the transform
    twice multiplies by ``2**bits``, so the transform followed by
    ``>> bits`` inverts it exactly on the coefficients of non-negative
    counts.
    """
    if block.dtype != np.int64 or not block.flags.c_contiguous:
        raise ValueError("walsh_hadamard needs a C-contiguous int64 block")
    if block.shape[0] != 1 << bits:
        raise ValueError(
            f"first axis has {block.shape[0]} cells, expected 2**{bits}"
        )
    trailing = block.shape[1:]
    for stage in range(bits):
        half = 1 << stage
        # A reshape of a C-contiguous array is a view: the updates below
        # land in ``block``.
        pairs = block.reshape(
            (block.shape[0] // (2 * half), 2, half) + trailing
        )
        low, high = pairs[:, 0], pairs[:, 1]
        low += high
        high *= -2
        high += low
    return block


def stacked_joint_counts(
    parent_flat: np.ndarray,
    parent_dom: int,
    child_columns: Sequence[np.ndarray],
    child_sizes: Sequence[int],
) -> Tuple[np.ndarray, Tuple[int, ...], Tuple[int, ...]]:
    """Contingency counts of several joints ``Pr[Π, X_j]`` sharing one
    flattened parent configuration, laid out in one stacked block.

    ``parent_flat`` is the mixed-radix parent index of every row (from
    :func:`flatten_index` over the parent columns) and ``parent_dom`` its
    domain size; each child ``j`` contributes its raw codes and domain
    size.  Returns ``(block, offsets, lengths)`` where
    ``block[offsets[j] : offsets[j] + lengths[j]]`` holds the int64 counts
    of joint ``j`` (child innermost) — the exact integers ``d`` separate
    per-joint bincounts would produce, so any float derived downstream is
    bit-identical to the unbatched path.

    Each joint is one ``np.bincount`` over ``parent_flat * size_j + X_j``,
    built in a single reused row-index buffer and written straight into
    its segment: a stacked ``(children × rows)`` index matrix costs
    several block-sized temporaries per call, whose allocation outweighs
    the counting itself.
    """
    lengths = tuple(int(parent_dom) * int(s) for s in child_sizes)
    offsets = [0]
    for length in lengths[:-1]:
        offsets.append(offsets[-1] + length)
    offsets = tuple(offsets)
    total = ensure_int64_domain(sum(lengths), "batched joint-count block")
    block = np.zeros(total, dtype=np.int64)
    index = np.empty(len(parent_flat), dtype=np.int64)
    for column, size, offset, length in zip(
        child_columns, child_sizes, offsets, lengths
    ):
        np.multiply(parent_flat, int(size), out=index)
        index += column
        block[offset : offset + length] = np.bincount(index, minlength=length)
    return block, offsets, lengths


def marginal_counts(table, names: Sequence[str]) -> np.ndarray:
    """Contingency counts of the named attributes as a flat vector.

    ``table`` is a resident :class:`~repro.data.Table` or any
    :class:`~repro.data.chunks.ChunkedSource`, read chunk by chunk
    through :func:`~repro.data.chunks.as_chunks` (a table as column
    views); the int64 bincounts accumulate, which is exact integer
    addition, so the result is the same whatever the chunking.  The
    result has ``prod(sizes)`` entries summing to ``table.n``.  An empty
    ``names`` yields the single count ``[n]``.
    """
    sizes = [table.attribute(name).size for name in names]
    total = ensure_int64_domain(domain_size(sizes))
    if not names:
        return np.array([float(table.n)])
    # Lazy import: data.chunks builds on this module.
    from repro.data.chunks import as_chunks

    # Later chunks add into the first chunk's counts, so a table read as
    # one chunk holds no second domain-sized array.
    per_chunk = (
        np.bincount(
            flatten_index(
                [chunk[name] for name in names], sizes, len(chunk[names[0]])
            ),
            minlength=total,
        )
        for chunk in as_chunks(table)
    )
    accumulated = next(per_chunk, None)
    if accumulated is None:
        return np.zeros(total)
    for counts in per_chunk:
        accumulated += counts
    return accumulated.astype(float)


def joint_distribution(table: Table, names: Sequence[str]) -> np.ndarray:
    """Empirical joint probability vector ``Pr[A_1, ..., A_m]``."""
    counts = marginal_counts(table, names)
    if table.n == 0:
        return np.full_like(counts, 1.0 / counts.size)
    return counts / float(table.n)


def normalize_distribution(vector: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize to total mass 1.

    This is the post-processing of Algorithm 1 line 5 / Algorithm 3 line 5.
    Falls back to the uniform distribution when everything is clipped away.
    """
    clipped = np.clip(np.asarray(vector, dtype=float), 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        return np.full_like(clipped, 1.0 / clipped.size)
    return clipped / total


def project_distribution(
    dist: np.ndarray,
    sizes: Sequence[int],
    keep: Sequence[int],
) -> np.ndarray:
    """Marginalize a flat joint distribution onto the ``keep`` axes.

    ``keep`` lists axis positions (into ``sizes``) to retain, in the order
    they should appear in the output.
    """
    sizes = [int(s) for s in sizes]
    grid = np.asarray(dist, dtype=float).reshape(sizes)
    drop = tuple(i for i in range(len(sizes)) if i not in set(keep))
    reduced = grid.sum(axis=drop) if drop else grid
    kept_order = [i for i in range(len(sizes)) if i in set(keep)]
    # reduced's axes follow kept_order; permute them into the requested order.
    perm = [kept_order.index(i) for i in keep]
    return np.transpose(reduced, perm).reshape(-1)


def conditional_from_joint(
    joint: np.ndarray, child_size: int
) -> np.ndarray:
    """Derive ``Pr[X | Π]`` from a flat ``Pr[Π, X]`` vector.

    The joint must be laid out with the parent block most significant and
    the child as the innermost (fastest-varying) axis, i.e. shape
    ``(|dom(Π)|, child_size)`` after reshaping.  Rows with zero mass become
    uniform over the child (they are never reachable when sampling from the
    same model, but keep the output a valid stochastic matrix).
    """
    joint = np.asarray(joint, dtype=float)
    if joint.size % child_size != 0:
        raise ValueError("joint size is not a multiple of child domain size")
    matrix = joint.reshape(-1, child_size).copy()
    row_sums = matrix.sum(axis=1, keepdims=True)
    zero_rows = (row_sums <= 0.0).reshape(-1)
    matrix[zero_rows] = 1.0 / child_size
    row_sums = matrix.sum(axis=1, keepdims=True)
    return matrix / row_sums

"""Data synthesis: ancestral sampling from the noisy model (Section 3).

Attributes are sampled in the network's construction order, so every parent
is available (at raw granularity) before any child that conditions on it.
Generalized parents are handled by mapping the already-sampled raw codes
through the attribute's taxonomy before indexing the conditional table.

This is the library's one CDF inversion: the ground-truth generators of
:mod:`repro.datasets.synthetic` convert their networks into a
:class:`~repro.core.noisy_conditionals.NoisyModel` and draw through
:func:`sample_synthetic` and :func:`sample_synthetic_chunks` too.

One draw is one block: a ``(d, n)`` matrix whose row ``i`` holds the
uniforms of the network's ``i``-th attribute and is overwritten with its
codes (:func:`_ancestral_block`).  The model's network, generalization
maps and row CDFs are flattened into a sampling plan once per (model,
schema) and cached on the model; the CDFs themselves are computed once
per conditional (see
:attr:`~repro.core.noisy_conditionals.ConditionalTable.row_cdfs`), so
repeated ``model.sample()`` calls redo neither.

Building the plan is the one check that a model fits a schema (the
network places each schema attribute once, each CDF is as wide as its
attribute's domain, each parent radix equals the codes that parent can
take); :func:`check_model` runs it without a draw, as a model load does.

CDF inversion
-------------
A tuple's code is the first column of its CDF row at or above its uniform:
the number of entries ``cdf < u`` holds on, because that predicate holds
on a prefix of every row (cumulative sums of finite non-negative entries,
last column clamped to 1.0, against ``u`` in ``[0, 1)``; ``row_cdfs``
rejects any other matrix).  Every implementation evaluates that same
comparison on the same doubles, so all of them return the same codes:

* the native sampler (``repro_sample_block`` in ``core/_native/scoref.c``)
  draws the whole block in one call — parent rows, map gathers and a
  branch-free lower-bound search per tuple, every gather checked.  It runs
  whenever :data:`repro.core.kernel_backend.NATIVE_KERNEL` is loaded.
* without it, :func:`_numpy_block` runs per attribute: binary children
  take a single comparison against the first CDF column, and the rest
  :func:`invert_row_cdfs`, a vectorized binary search (O(n·log C)
  gathers, no ``n × C`` intermediate).
* the ``(n, C)`` comparison-and-sum broadcast is the reference: the
  equivalence tests and the scaling benchmark write it out themselves.

Streaming releases
------------------
:func:`sample_synthetic_chunks` yields the release as bounded-size chunk
tables instead of one resident ``n × d`` table, for
:func:`repro.data.io.write_csv` to stream to disk.  Each attribute draws
from its own ``rng.spawn`` child stream, so the concatenated output is
invariant to the chunk size (stream ``i`` emits the same ``n`` uniforms in
the same order no matter how they are split across chunks).  Note this is
a *different* (equally seeded-deterministic) stream than the single-stream
:func:`sample_synthetic`, whose draw order interleaves attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernel_backend
from repro.core.noisy_conditionals import ConditionalTable, NoisyModel
from repro.core.rng import fallback_rng
from repro.data.attribute import Attribute
from repro.data.chunks import DEFAULT_CHUNK_ROWS
from repro.data.table import Table


def invert_row_cdfs(
    cdf: np.ndarray, rows: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Batched per-row CDF inversion by vectorized binary search.

    ``cdf`` is a ``(rows, C)`` matrix of row CDFs, ``rows[t]`` selects
    tuple ``t``'s row and ``uniforms[t]`` its draw.  Returns, per tuple,
    the first column index whose CDF value is ``>= uniform``.  On a row
    where ``cdf < u`` holds for a prefix of the columns (every
    nondecreasing row) that index is the prefix length: the number of
    entries strictly below ``u``, exactly what the ``(n, C)`` broadcast
    ``(uniforms[:, None] > cdf[rows]).sum(axis=1)`` and the native
    sampler compute, since every probe evaluates the identical float
    comparison.  Other rows (a negative or NaN entry, which
    :attr:`~repro.core.noisy_conditionals.ConditionalTable.row_cdfs`
    rejects) carry no such guarantee.  O(n·log C) gathers instead of an
    ``n × C`` broadcast.
    """
    count = rows.shape[0]
    width = cdf.shape[1]
    lo = np.zeros(count, dtype=np.int64)
    hi = np.full(count, width, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        # Converged lanes may sit at mid == width; clamp their (discarded)
        # probe index instead of branching per lane.
        below = cdf[rows, np.minimum(mid, width - 1)] < uniforms
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)


def _invert_conditional(
    conditional: ConditionalTable,
    parent_rows: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Map uniforms to child codes through the conditional's row CDFs.

    For binary children only the first CDF column can be exceeded
    (uniforms lie in ``[0, 1)`` and the last column is exactly 1.0), so
    one gather + one comparison yields the identical codes.
    """
    if conditional.child_size == 2:
        thresholds = conditional.binary_thresholds
        return (uniforms > thresholds[parent_rows]).astype(np.int64)
    return invert_row_cdfs(conditional.row_cdfs, parent_rows, uniforms)


def check_model(model: NoisyModel, attributes: Sequence[Attribute]) -> None:
    """Raise :class:`ValueError` unless ``model`` can be sampled over
    ``attributes``; the checked sampling plan stays cached on the model,
    so the first draw does not build it again."""
    _sampling_plan(model, _check_schema(model, attributes))


def _check_schema(
    model: NoisyModel, attributes: Sequence[Attribute]
) -> Dict[str, Attribute]:
    """Validate that the network places exactly the requested schema."""
    by_name: Dict[str, Attribute] = {a.name: a for a in attributes}
    if len(by_name) != len(attributes):
        names = [a.name for a in attributes]
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"schema repeats attribute name(s) {repeated}")
    placed = {pair.child for pair in model.network}
    missing = [a.name for a in attributes if a.name not in placed]
    if missing:
        raise ValueError(
            "model's network does not place schema attribute(s) "
            f"{missing}; a truncated or custom network cannot synthesize "
            "columns for them"
        )
    unknown = sorted(placed - set(by_name))
    if unknown:
        raise ValueError(
            f"model's network places attribute(s) {unknown} that are not "
            "in the requested schema"
        )
    return by_name


@dataclass(frozen=True, eq=False)
class _SamplingPlan:
    """A model's network flattened for one ancestral draw per call.

    ``attrs`` holds one row per attribute in network order (CDF offset,
    CDF rows, CDF width, first parent entry, parent count), ``parents``
    one row per parent in mixed-radix order (source attribute index, map
    offset or -1, map length, radix); ``maps`` and ``cdfs`` concatenate
    the generalization maps and the row-CDF matrices.  ``schema`` is the
    cache key: the schema attributes in network order, each beside its
    taxonomy, because :class:`Attribute` equality ignores the taxonomy
    the maps come from.
    """

    schema: Tuple
    conditionals: Tuple[ConditionalTable, ...]
    attrs: np.ndarray
    parents: np.ndarray
    maps: np.ndarray
    cdfs: np.ndarray


def _sampling_plan(
    model: NoisyModel, by_name: Dict[str, Attribute]
) -> _SamplingPlan:
    """The model's sampling plan for this schema, built once and cached.

    Cached on the model (as ``row_cdfs`` is on each conditional), so
    repeated draws from one fitted model redo none of this.  Raises
    :class:`ValueError` naming the child when a conditional does not fit
    the schema: a CDF width other than the attribute's size, a parent
    level the parent's taxonomy does not have, or a parent radix other
    than the number of codes the parent can take.  A
    mismatch would otherwise emit out-of-range codes, alias conditional
    rows or leave rows no parent code reaches.
    """
    schema = tuple(
        (by_name[pair.child], by_name[pair.child].taxonomy)
        for pair in model.network
    )
    plan = getattr(model, "_sampling_plan", None)
    if plan is not None and plan.schema == schema:
        return plan
    index_of = {pair.child: i for i, pair in enumerate(model.network)}
    conditionals = []
    attrs, parents, maps, cdfs = [], [], [], []
    cdf_offset = map_offset = 0
    for pair in model.network:
        conditional = model.conditional_for(pair.child)
        size = by_name[pair.child].size
        if conditional.child_size != size:
            raise ValueError(
                f"conditional for {pair.child!r} has {conditional.child_size} "
                f"columns but the schema attribute has {size} values"
            )
        cdf = conditional.row_cdfs
        attrs.append(
            (cdf_offset, cdf.shape[0], cdf.shape[1], len(parents),
             len(pair.parents))
        )
        cdfs.append(cdf.ravel())
        cdf_offset += cdf.size
        for (name, level), radix in zip(
            pair.parents, conditional.parent_sizes
        ):
            height = by_name[name].height
            if not 0 <= level < height:
                raise ValueError(
                    f"conditional for {pair.child!r} gives parent {name!r} "
                    f"level {level}, but its levels are [0, {height})"
                )
            if level == 0:
                reach = by_name[name].size
                parents.append((index_of[name], -1, 0, radix))
            else:
                generalize = by_name[name].generalization_map(level)
                reach = int(generalize.max()) + 1
                parents.append(
                    (index_of[name], map_offset, generalize.size, radix)
                )
                maps.append(generalize)
                map_offset += generalize.size
            if reach != radix:
                raise ValueError(
                    f"conditional for {pair.child!r} gives parent "
                    f"{name!r} (level {level}) {radix} values, but its "
                    f"codes reach {reach}"
                )
        conditionals.append(conditional)
    arrays = (
        np.array(attrs, dtype=np.int64).reshape(-1, 5),
        np.array(parents, dtype=np.int64).reshape(-1, 4),
        np.concatenate(maps + [np.zeros(0, dtype=np.int64)]),
        np.concatenate(cdfs + [np.zeros(0)]),
    )
    for array in arrays:
        array.setflags(write=False)
    plan = _SamplingPlan(schema, tuple(conditionals), *arrays)
    object.__setattr__(model, "_sampling_plan", plan)
    return plan


def _numpy_block(plan: _SamplingPlan, block: np.ndarray) -> None:
    """:func:`_ancestral_block` without the native kernel.

    Per attribute: mixed-radix parent rows from the codes already drawn,
    then :func:`_invert_conditional` on the attribute's uniforms.
    """
    codes = block.view(np.int64)
    parents = plan.parents.tolist()
    for index, conditional in enumerate(plan.conditionals):
        first, count = plan.attrs[index, 3:].tolist()
        rows = None
        # Mixed-radix accumulation, same integer arithmetic as
        # data.marginals.flatten_index: the plan already proved every
        # code is below its radix.
        for source, offset, length, radix in parents[first:first + count]:
            parent = codes[source]
            if offset >= 0:
                parent = plan.maps[offset:offset + length][parent]
            rows = parent if rows is None else rows * radix + parent
        if rows is None:
            rows = np.zeros(block.shape[1], dtype=np.int64)
        codes[index] = _invert_conditional(conditional, rows, block[index])


def _ancestral_block(
    model: NoisyModel, by_name: Dict[str, Attribute], block: np.ndarray
) -> np.ndarray:
    """Sample one block of tuples, every attribute in network order.

    ``block`` is a ``(d, n)`` float64 matrix whose row ``i`` holds the
    uniforms of the network's ``i``-th attribute; it is overwritten in
    place with the codes, returned as its int64 view.  One native call
    draws the whole block when the compiled kernel is loaded
    (:data:`repro.core.kernel_backend.NATIVE_KERNEL`); otherwise
    :func:`_numpy_block` runs.  Both return the same codes.
    """
    plan = _sampling_plan(model, by_name)
    kernel = kernel_backend.NATIVE_KERNEL
    if kernel is None:
        _numpy_block(plan, block)
    else:
        kernel.sample_block(
            plan.attrs, plan.parents, plan.maps, plan.cdfs, block
        )
    return block.view(np.int64)


def _release_table(
    model: NoisyModel,
    ordered_attrs: Sequence[Attribute],
    codes: np.ndarray,
) -> Table:
    """The schema-ordered table over a block of codes in network order."""
    index_of = {pair.child: i for i, pair in enumerate(model.network)}
    # Codes are in [0, attr.size) by construction: each inverts a
    # conditional whose width the plan checked equals attr.size.  Skip
    # the validating constructor's per-column scans.
    return Table.from_trusted_columns(
        ordered_attrs, {a.name: codes[index_of[a.name]] for a in ordered_attrs}
    )


def sample_synthetic(
    model: NoisyModel,
    attributes: Sequence[Attribute],
    n: int,
    rng: Optional[np.random.Generator] = None,
) -> Table:
    """Sample ``n`` synthetic tuples from the noisy Bayesian model.

    Parameters
    ----------
    model:
        Output of the distribution-learning phase.  Its network must place
        every attribute of ``attributes`` (and no attribute outside them);
        a mismatched schema raises :class:`ValueError` up front, naming
        the offending attributes.
    attributes:
        The schema of the original table (synthetic tuples use the same
        attributes, in the same order — the released dataset "obeys the
        same schema and format of the original input").
    n:
        Number of tuples; the paper releases ``n`` equal to the input size.
    """
    rng = fallback_rng(rng)
    if n < 0:
        raise ValueError("n must be non-negative")
    by_name = _check_schema(model, attributes)
    # Row i of the block is what d sequential rng.random(n) calls would
    # give attribute i: the historical draw order, in one call.
    codes = _ancestral_block(
        model, by_name, rng.random((model.network.d, n))
    )
    return _release_table(
        model, [by_name[a.name] for a in attributes], codes
    )


def sample_synthetic_split(
    model: NoisyModel,
    attributes: Sequence[Attribute],
    counts: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> list:
    """One coalesced draw serving many ``sample(n_i)`` requests.

    Draws ``sum(counts)`` tuples with a **single** vectorized
    :func:`sample_synthetic` pass and slices the result into one table per
    requested count, in order.  This is the serving layer's batching
    primitive: ``m`` concurrent requests cost one ancestral pass over the
    network (one uniform block and one CDF inversion per attribute)
    instead of ``m``, and the concatenation of the returned tables is
    bit-identical to ``sample_synthetic(model, attributes, sum(counts),
    rng)`` — slicing rows is pure post-processing of the very same draw,
    so coalescing changes throughput, never output.

    The slices' columns are disjoint row-range views of the draw's
    ``(d, sum(counts))`` int64 block, so each keeps the whole block alive.
    """
    counts = [int(count) for count in counts]
    if any(count < 0 for count in counts):
        raise ValueError(f"counts must be non-negative; got {counts}")
    table = sample_synthetic(model, attributes, sum(counts), rng)
    columns = [(name, table.column(name)) for name in table.attribute_names]
    slices, start = [], 0
    for count in counts:
        views = {name: column[start:start + count] for name, column in columns}
        slices.append(Table.from_trusted_columns(table.attributes, views))
        start += count
    return slices


def sample_synthetic_chunks(
    model: NoisyModel,
    attributes: Sequence[Attribute],
    n: int,
    rng: Optional[np.random.Generator] = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Iterator[Table]:
    """Sample ``n`` synthetic tuples as a stream of bounded-size chunks.

    Yields :class:`~repro.data.Table` chunks of at most ``chunk_rows``
    rows whose concatenation is the full release — feed them straight to
    :func:`repro.data.io.write_csv` and a million-row release never holds
    more than one chunk of codes in memory.  At least one (possibly
    empty) chunk is always yielded, so the schema survives ``n == 0``.

    Determinism: the parent stream spawns one child stream per network
    attribute (``rng.spawn``), and stream ``i`` draws attribute ``i``'s
    ``n`` uniforms in row order across chunks — so for a fixed seed the
    concatenated release is **invariant to ``chunk_rows``** (asserted in
    ``tests/core/test_sampler.py``).  The draw order differs from the
    single-stream :func:`sample_synthetic`, so the two paths are each
    deterministic but not bit-identical to each other.
    """
    rng = fallback_rng(rng)
    if n < 0:
        raise ValueError("n must be non-negative")
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    by_name = _check_schema(model, attributes)
    ordered_attrs = [by_name[a.name] for a in attributes]
    streams = rng.spawn(model.network.d)
    start = 0
    while True:
        count = min(chunk_rows, n - start)
        block = np.empty((model.network.d, count))
        for row, stream in zip(block, streams):
            stream.random(out=row)
        codes = _ancestral_block(model, by_name, block)
        yield _release_table(model, ordered_attrs, codes)
        start += count
        if start >= n:
            return

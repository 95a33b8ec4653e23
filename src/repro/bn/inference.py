"""Exact marginal inference on a (noisy) Bayesian model.

The paper's concluding remarks raise "whether certain questions could be
answered directly from the materialized model and its parameters, rather
than via random sampling".  This module implements that: variable
elimination along the network's construction order answers any marginal
query ``Pr_N[Q]`` exactly, removing the sampling noise that a finite
synthetic dataset adds on top of the model.

The algorithm walks the AP pairs in construction order, maintaining a
joint factor over the *live* attributes — those still needed either by the
query or as parents of a yet-unprocessed pair — and sums out attributes
the moment they go dead.  For a degree-``k`` network the factor holds at
most (query size + k·depth-overlap) attributes; for the low-degree
networks PrivBayes builds this stays far below the full domain.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.noisy_conditionals import ConditionalTable, NoisyModel
from repro.data.marginals import domain_size

#: Safety bound on the intermediate factor size (cells).
DEFAULT_MAX_FACTOR_CELLS = 4_000_000


class _Factor:
    """A dense factor over an ordered list of (name, size) variables."""

    def __init__(self, names: List[str], sizes: List[int], values: np.ndarray):
        self.names = names
        self.sizes = sizes
        self.values = values.reshape(sizes) if sizes else values.reshape(())

    @staticmethod
    def unit() -> "_Factor":
        return _Factor([], [], np.array(1.0))

    def multiply_conditional(
        self,
        conditional: ConditionalTable,
        parent_names: List[str],
        parent_sizes: List[int],
        max_cells: int,
    ) -> "_Factor":
        """Multiply in ``Pr[child | parents]``, extending the scope.

        Parents not yet in scope must not exist (the caller introduces
        parents before children, so every parent is already in scope or is
        scope-extended here with its marginal folded in earlier).
        """
        child = conditional.child
        if child in self.names:
            raise ValueError(f"child {child!r} already in factor scope")
        # Extend scope with any missing parents (uniform axes are wrong —
        # parents are always introduced by their own conditional first, so
        # this is a structural error if it triggers).
        for name in parent_names:
            if name not in self.names:
                raise ValueError(
                    f"parent {name!r} used before being introduced"
                )
        new_names = self.names + [child]
        new_sizes = self.sizes + [conditional.child_size]
        if domain_size(new_sizes) > max_cells:
            raise ValueError(
                f"inference factor would need {domain_size(new_sizes)} cells "
                f"(> {max_cells}); query touches too much of the network"
            )
        # Broadcast: reshape the conditional to align parent axes.
        cond = conditional.matrix.reshape(parent_sizes + [conditional.child_size])
        # Axes of cond in the new factor: parents at their positions, child last.
        perm_src = []
        for name in parent_names:
            perm_src.append(self.names.index(name))
        # Move cond's axes into position via transpose + reshape with newaxis.
        # Order cond axes to match increasing factor axis index.
        positions = perm_src + [len(new_names) - 1]
        order = np.argsort(positions)
        cond_t = np.transpose(cond, order)
        shape = [1] * len(new_names)
        for axis_pos, cond_axis in zip(sorted(positions), range(cond_t.ndim)):
            shape[axis_pos] = cond_t.shape[cond_axis]
        aligned = cond_t.reshape(shape)
        new_values = self.values[..., np.newaxis] * aligned
        return _Factor(new_names, new_sizes, new_values)

    def sum_out(self, name: str) -> "_Factor":
        axis = self.names.index(name)
        new_values = self.values.sum(axis=axis)
        names = self.names[:axis] + self.names[axis + 1 :]
        sizes = self.sizes[:axis] + self.sizes[axis + 1 :]
        return _Factor(names, sizes, new_values)

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Flat marginal over ``names`` in the given order."""
        keep = set(names)
        factor = self
        for name in list(factor.names):
            if name not in keep:
                factor = factor.sum_out(name)
        # Permute axes into the requested order.
        perm = [factor.names.index(name) for name in names]
        return np.transpose(factor.values, perm).reshape(-1)


def _generalization_factor(
    conditional: ConditionalTable,
    raw_parent_sizes: Dict[str, int],
    attribute_maps: Dict[str, np.ndarray],
) -> Tuple[List[str], List[int], ConditionalTable]:
    """Lift a conditional with generalized parents to raw parent domains.

    The conditional's rows are indexed by generalized parent codes; raw
    inference tracks raw codes, so expand the matrix to raw-parent rows by
    indexing through the taxonomy maps.
    """
    parent_names = [name for name, _ in conditional.parents]
    raw_sizes = [raw_parent_sizes[name] for name in parent_names]
    if all(level == 0 for _, level in conditional.parents):
        return parent_names, list(conditional.parent_sizes), conditional
    # Build the row index for every raw parent combination.
    from repro.data.marginals import unflatten_index, flatten_index

    total = domain_size(raw_sizes)
    raw_codes = unflatten_index(np.arange(total), raw_sizes)
    gen_columns = []
    for j, (name, level) in enumerate(conditional.parents):
        column = raw_codes[:, j]
        if level != 0:
            column = attribute_maps[(name, level)][column]
        gen_columns.append(column)
    gen_rows = flatten_index(gen_columns, list(conditional.parent_sizes), total)
    lifted = ConditionalTable(
        child=conditional.child,
        parents=tuple((name, 0) for name in parent_names),
        parent_sizes=tuple(raw_sizes),
        child_size=conditional.child_size,
        matrix=conditional.matrix[gen_rows],
    )
    return parent_names, raw_sizes, lifted


def model_marginal(
    model: NoisyModel,
    attributes,
    query: Sequence[str],
    max_factor_cells: int = DEFAULT_MAX_FACTOR_CELLS,
) -> np.ndarray:
    """Exact ``Pr_N[query]`` by variable elimination (no sampling).

    Parameters
    ----------
    model:
        Output of distribution learning (noisy or oracle).
    attributes:
        Schema of the original table (for domain sizes / taxonomies).
    query:
        Attribute names, in the order of the returned flat marginal's
        mixed-radix layout.

    Returns a flat probability vector over the query attributes' domains.
    """
    by_name = {a.name: a for a in attributes}
    for name in query:
        if name not in by_name:
            raise KeyError(f"unknown attribute {name!r}")
    if len(set(query)) != len(query):
        raise ValueError("query attributes must be distinct")
    order = list(model.network.attribute_order)
    query_set = set(query)
    # Death position: the last pair index at which each attribute is needed.
    last_needed: Dict[str, int] = {}
    pairs = list(model.network.pairs)
    for i, pair in enumerate(pairs):
        last_needed[pair.child] = i
        for name in pair.parent_names:
            last_needed[name] = i
    # Precompute taxonomy maps for generalized parents.
    attribute_maps: Dict[Tuple[str, int], np.ndarray] = {}
    for pair in pairs:
        for name, level in pair.parents:
            if level != 0:
                attribute_maps[(name, level)] = by_name[name].generalization_map(
                    level
                )
    raw_sizes = {a.name: a.size for a in attributes}

    factor = _Factor.unit()
    for i, pair in enumerate(pairs):
        conditional = model.conditional_for(pair.child)
        parent_names, parent_sizes, lifted = _generalization_factor(
            conditional, raw_sizes, attribute_maps
        )
        factor = factor.multiply_conditional(
            lifted, parent_names, parent_sizes, max_factor_cells
        )
        # Sum out attributes that are dead: not in the query and never a
        # parent of a later pair.
        for name in list(factor.names):
            if name in query_set:
                continue
            if last_needed.get(name, -1) <= i:
                factor = factor.sum_out(name)
    return factor.marginal(list(query))


def model_marginals(
    model: NoisyModel,
    attributes,
    workload: Sequence[Sequence[str]],
    max_factor_cells: int = DEFAULT_MAX_FACTOR_CELLS,
) -> Dict[Tuple[str, ...], np.ndarray]:
    """Answer a whole marginal workload directly from the model."""
    return {
        tuple(names): model_marginal(
            model, attributes, list(names), max_factor_cells
        )
        for names in workload
    }

"""Laplace, Contingency and Uniform marginal-release baselines (Section 6.1).

All marginal baselines share one interface: ``release(table, workload,
epsilon, rng)`` returns ``{marginal_names: probability_vector}`` with the
paper's two consistency steps applied (non-negativity, then normalization).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.marginals import (
    domain_size,
    marginal_counts,
    normalize_distribution,
    project_distribution,
)
from repro.data.table import Table
from repro.dp.accountant import check_epsilon, split_epsilon_even
from repro.dp.mechanisms import laplace_mechanism

Workload = Sequence[Tuple[str, ...]]


class LaplaceMarginals:
    """Materialize every workload marginal and add Laplace noise directly.

    The budget is split evenly over the ``M`` workload marginals; each
    marginal (as a probability vector) has sensitivity ``2/n``, so every
    cell receives ``Lap(2M / (n ε))`` noise — exactly why this baseline
    deteriorates as α (and hence M) grows (Section 6.5).
    """

    name = "Laplace"

    def release(
        self,
        table: Table,
        workload: Workload,
        epsilon: float,
        rng: np.random.Generator,
    ) -> Dict[Tuple[str, ...], np.ndarray]:
        check_epsilon(epsilon)
        workload = [tuple(names) for names in workload]
        share = split_epsilon_even(epsilon, max(len(workload), 1))
        released = {}
        for names in workload:
            counts = marginal_counts(table, names)
            marginal = counts / max(table.n, 1)
            noisy = laplace_mechanism(
                marginal, sensitivity=2.0 / max(table.n, 1), epsilon=share, rng=rng
            )
            released[names] = normalize_distribution(noisy)
        return released


class ContingencyMarginals:
    """Noisy full contingency table, projected onto the workload.

    Only one Laplace release (sensitivity ``2/n`` on the full joint), but
    over a domain of ``prod |dom(A_i)|`` cells — the signal-to-noise
    problem of Section 1 in its purest form.  Only applicable when the full
    domain fits in memory (NLTCS and ACS in the paper).
    """

    name = "Contingency"

    def __init__(self, max_cells: int = 2 ** 24) -> None:
        self.max_cells = max_cells

    def release(
        self,
        table: Table,
        workload: Workload,
        epsilon: float,
        rng: np.random.Generator,
    ) -> Dict[Tuple[str, ...], np.ndarray]:
        check_epsilon(epsilon)
        names = list(table.attribute_names)
        sizes = [table.attribute(name).size for name in names]
        total = domain_size(sizes)
        if total > self.max_cells:
            raise ValueError(
                f"full domain has {total} cells > limit {self.max_cells}; "
                "the Contingency baseline does not scale to this dataset"
            )
        counts = marginal_counts(table, names)
        joint = counts / max(table.n, 1)
        noisy = normalize_distribution(
            laplace_mechanism(
                joint, sensitivity=2.0 / max(table.n, 1), epsilon=epsilon, rng=rng
            )
        )
        position = {name: i for i, name in enumerate(names)}
        released = {}
        for marginal_names in workload:
            keep = [position[name] for name in marginal_names]
            released[tuple(marginal_names)] = normalize_distribution(
                project_distribution(noisy, sizes, keep)
            )
        return released


class UniformMarginals:
    """The trivial baseline: a uniform distribution for every marginal."""

    name = "Uniform"

    def release(
        self,
        table: Table,
        workload: Workload,
        epsilon: float,
        rng: np.random.Generator,
    ) -> Dict[Tuple[str, ...], np.ndarray]:
        released = {}
        for names in workload:
            size = domain_size([table.attribute(name).size for name in names])
            released[tuple(names)] = np.full(size, 1.0 / size)
        return released

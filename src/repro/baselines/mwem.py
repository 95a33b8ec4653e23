"""MWEM: Multiplicative Weights + Exponential Mechanism (Hardt et al., 2012).

Maintains a synthetic distribution ``A`` over the *full* domain, improved
iteratively: each round privately selects (exponential mechanism) the
workload query on which ``A`` errs most, measures it with Laplace noise,
and applies a multiplicative-weights update.  Queries here are marginal
cell counts: for every workload marginal and every cell, the count of rows
falling in that cell.

Like the paper, the per-iteration budget is fixed (0.05 by default —
Section 6.5 lowers the authors' 1.0 so that "at least one round of
improvement occurs" at small ε); the iteration count is ``ε / per_round``,
capped for tractability.  Applicable only when the full domain is
materializable (NLTCS/ACS in the paper).
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
from repro.dp.mechanisms import exponential_mechanism, laplace_noise, laplace_scale

Workload = Sequence[Tuple[str, ...]]


class MWEM:
    """Multiplicative Weights / Exponential Mechanism baseline."""

    name = "MWEM"

    def __init__(
        self,
        per_round_epsilon: float = 0.05,
        max_rounds: int = 40,
        max_cells: int = 2 ** 24,
    ) -> None:
        self.per_round_epsilon = per_round_epsilon
        self.max_rounds = max_rounds
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
                "MWEM does not scale to this dataset"
            )
        position = {name: i for i, name in enumerate(names)}
        n = max(table.n, 1)

        # Workload bookkeeping: per marginal, the axes it keeps and its
        # counts in the data.
        marginals: List[Tuple[Tuple[str, ...], List[int], np.ndarray]] = []
        for marginal_names in workload:
            keep = [position[name] for name in marginal_names]
            counts = marginal_counts(table, marginal_names)
            marginals.append((tuple(marginal_names), keep, counts))

        # Round count only sizes the loop; the actual spend below flows
        # through split_epsilon_even.
        rounds = max(1, min(self.max_rounds, int(round(epsilon / self.per_round_epsilon))))
        # Half of each round's share for selection, half for measurement.
        eps_round = split_epsilon_even(epsilon, rounds)
        eps_half = split_epsilon_even(eps_round, 2)

        A = np.full(total, float(n) / total)  # uniform synthetic histogram
        for _ in range(rounds):
            # Score every query (marginal cell) by |true - estimate|.
            scores: List[float] = []
            index: List[Tuple[int, int]] = []
            estimates: List[np.ndarray] = []
            for j, (_, keep, counts) in enumerate(marginals):
                estimate = project_distribution(A, sizes, keep)
                estimates.append(estimate)
                errors = np.abs(counts - estimate)
                for cell in range(errors.size):
                    scores.append(float(errors[cell]))
                    index.append((j, cell))
            chosen = exponential_mechanism(
                np.asarray(scores),
                sensitivity=1.0,  # one tuple moves one cell count by 1
                epsilon=eps_half,
                rng=rng,
            )
            j, cell = index[chosen]
            _, keep, counts = marginals[j]
            measurement = counts[cell] + float(
                laplace_noise(laplace_scale(1.0, eps_half), 1, rng)[0]
            )
            estimate = estimates[j][cell]
            # Multiplicative-weights update on the full histogram.
            m_sizes = [sizes[i] for i in keep]
            member = self._cell_indicator(sizes, keep, m_sizes, cell)
            A = A * np.exp(member * (measurement - estimate) / (2.0 * n))
            A *= n / A.sum()

        released = {}
        for marginal_names, keep, _ in marginals:
            released[marginal_names] = normalize_distribution(
                project_distribution(A, sizes, keep)
            )
        return released

    @staticmethod
    def _cell_indicator(
        sizes: List[int], keep: List[int], m_sizes: List[int], cell: int
    ) -> np.ndarray:
        """0/1 vector over the full domain marking rows in the given cell."""
        out = np.zeros(sizes)
        slicer = [slice(None)] * len(sizes)
        coords = np.unravel_index(cell, m_sizes)
        for axis, i in enumerate(keep):
            slicer[i] = coords[axis]
        out[tuple(slicer)] = 1.0
        return out.reshape(-1)

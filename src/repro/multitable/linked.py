"""Linked two-table schema: a primary table plus owned child rows."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.data.table import Table


class LinkedTables:
    """A primary table and a child table linked by an owner index.

    Each primary row represents one individual; ``owners[j]`` is the
    primary row index that owns child row ``j``.  Individuals may own any
    number of child rows, including zero.
    """

    def __init__(self, primary: Table, child: Table, owners: np.ndarray) -> None:
        owners = np.asarray(owners, dtype=np.int64)
        if owners.ndim != 1 or owners.shape[0] != child.n:
            raise ValueError(
                f"owners has shape {owners.shape}, expected ({child.n},)"
            )
        if child.n and (owners.min() < 0 or owners.max() >= primary.n):
            raise ValueError("owner indices outside the primary table")
        self.primary = primary
        self.child = child
        self.owners = owners

    @property
    def n_individuals(self) -> int:
        return self.primary.n

    @property
    def n_child_rows(self) -> int:
        return self.child.n

    def fanout_counts(self) -> np.ndarray:
        """Child rows owned by each individual (length = primary.n)."""
        return np.bincount(self.owners, minlength=self.primary.n)

    def max_fanout(self) -> int:
        counts = self.fanout_counts()
        return int(counts.max()) if counts.size else 0

    def truncate(
        self, max_rows: int, rng: Optional[np.random.Generator] = None
    ) -> "LinkedTables":
        """Keep at most ``max_rows`` child rows per individual.

        Bounding the per-individual contribution is the standard first step
        of user-level DP over fan-out data; dropped rows are chosen
        uniformly at random (or first-k when no rng is given).
        """
        if max_rows < 0:
            raise ValueError("max_rows must be non-negative")
        keep_indices = []
        by_owner: Dict[int, list] = {}
        for j, owner in enumerate(self.owners.tolist()):
            by_owner.setdefault(owner, []).append(j)
        for owner in sorted(by_owner):
            rows = by_owner[owner]
            if len(rows) > max_rows:
                if rng is None:
                    rows = rows[:max_rows]
                else:
                    chosen = rng.choice(len(rows), size=max_rows, replace=False)
                    rows = [rows[i] for i in sorted(chosen)]
            keep_indices.extend(rows)
        keep = np.array(sorted(keep_indices), dtype=np.int64)
        return LinkedTables(
            self.primary, self.child.take(keep), self.owners[keep]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkedTables(individuals={self.primary.n}, "
            f"child_rows={self.child.n}, max_fanout={self.max_fanout()})"
        )

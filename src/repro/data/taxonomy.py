"""Taxonomy trees for hierarchical attribute generalization (Section 5.1).

A taxonomy tree generalizes an attribute's domain level by level: level 0
holds the raw values (leaves), each higher level merges groups of the level
below, and the (omitted) root would merge everything.  ``X^(i)`` in the
paper is the attribute re-coded at level ``i``.

The tree is stored bottom-up as a list of *group assignments*: for each
level ``i >= 1``, an integer array mapping each node of level ``i-1`` to its
parent node at level ``i``, plus the labels of the level-``i`` nodes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class TaxonomyTree:
    """Generalization hierarchy over a discrete domain.

    Parameters
    ----------
    leaf_labels:
        Labels of the raw domain (level 0), in domain order.
    levels:
        For each level ``i >= 1``, a pair ``(parents, labels)`` where
        ``parents[j]`` is the index of the level-``i`` group containing
        node ``j`` of level ``i-1``, and ``labels`` names the level-``i``
        groups.  Levels must shrink strictly (fewer groups than the level
        below) and parent assignments must be surjective.
    """

    def __init__(
        self,
        leaf_labels: Sequence[str],
        levels: Sequence[Tuple[Sequence[int], Sequence[str]]] = (),
    ) -> None:
        self._leaf_labels: Tuple[str, ...] = tuple(leaf_labels)
        if not self._leaf_labels:
            raise ValueError("taxonomy needs at least one leaf")
        self._parents: List[np.ndarray] = []
        self._labels: List[Tuple[str, ...]] = [self._leaf_labels]
        prev_size = len(self._leaf_labels)
        for parents, labels in levels:
            labels = tuple(labels)
            if len(parents) != prev_size:
                raise ValueError(
                    f"level parent array has shape ({len(parents)},), "
                    f"expected ({prev_size},)"
                )
            if len(labels) >= prev_size:
                raise ValueError("each taxonomy level must be strictly smaller")
            # Checked before the int64 conversion, which an index past
            # its range would overflow.
            if set(parents) != set(range(len(labels))):
                raise ValueError("parent assignment must cover every group")
            self._parents.append(np.asarray(parents, dtype=np.int64))
            self._labels.append(labels)
            prev_size = len(labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def leaf_count(self) -> int:
        return len(self._leaf_labels)

    @property
    def height(self) -> int:
        """Number of usable levels (level 0 .. height-1), excluding the root."""
        return len(self._labels)

    def level_size(self, level: int) -> int:
        self._check_level(level)
        return len(self._labels[level])

    def level_labels(self, level: int) -> Tuple[str, ...]:
        self._check_level(level)
        return self._labels[level]

    @property
    def levels(self) -> List[Tuple[np.ndarray, Tuple[str, ...]]]:
        """The ``(parents, labels)`` of each level above the leaves, as
        the constructor takes them."""
        return list(zip(self._parents, self._labels[1:]))

    def leaf_to_level(self, level: int) -> np.ndarray:
        """Map each leaf code to its group code at ``level``."""
        self._check_level(level)
        mapping = np.arange(self.leaf_count, dtype=np.int64)
        for parents in self._parents[:level]:
            mapping = parents[mapping]
        return mapping

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.height:
            raise ValueError(
                f"level {level} out of range [0, {self.height})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(labels) for labels in self._labels]
        return f"TaxonomyTree(levels={sizes})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def balanced_binary(leaf_labels: Sequence[str]) -> "TaxonomyTree":
        """Binary tree over an ordered domain (used for binned continuous
        attributes, Figure 2): each level pairs up adjacent groups."""
        leaf_labels = tuple(leaf_labels)
        levels: List[Tuple[List[int], List[str]]] = []
        labels = list(leaf_labels)
        while len(labels) > 2:
            size = len(labels)
            parents = [j // 2 for j in range(size)]
            group_count = (size + 1) // 2
            new_labels = []
            for g in range(group_count):
                members = [labels[j] for j in range(size) if j // 2 == g]
                new_labels.append("+".join(members) if len(members) > 1 else members[0])
            levels.append((parents, new_labels))
            labels = new_labels
        return TaxonomyTree(leaf_labels, levels)

    @staticmethod
    def from_groups(
        leaf_labels: Sequence[str],
        grouping: Sequence[Tuple[str, Sequence[str]]],
    ) -> "TaxonomyTree":
        """Two-level taxonomy from named groups of leaves.

        ``grouping`` lists ``(group_label, member_leaf_labels)`` pairs that
        must partition the leaves.  This is the common shape for categorical
        attributes like ``workclass`` in Figure 3.
        """
        leaf_labels = tuple(leaf_labels)
        index = {v: i for i, v in enumerate(leaf_labels)}
        parents = np.full(len(leaf_labels), -1, dtype=np.int64)
        group_labels = []
        for g, (label, members) in enumerate(grouping):
            group_labels.append(label)
            for member in members:
                if member not in index:
                    raise ValueError(f"group member {member!r} is not a leaf")
                if parents[index[member]] != -1:
                    raise ValueError(f"leaf {member!r} assigned to two groups")
                parents[index[member]] = g
        if (parents == -1).any():
            missing = [leaf_labels[i] for i in np.nonzero(parents == -1)[0]]
            raise ValueError(f"leaves not covered by any group: {missing}")
        return TaxonomyTree(leaf_labels, [(parents.tolist(), group_labels)])

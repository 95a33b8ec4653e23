"""Bayesian network structure as an ordered list of attribute-parent pairs.

A network over attributes ``A`` is a sequence of AP pairs
``(X_1, Π_1), ..., (X_d, Π_d)`` (Section 2.2) where each ``Π_i`` is a subset
of ``{X_1, ..., X_{i-1}}`` — the construction order itself witnesses
acyclicity.  For the hierarchical encoding, parents may be *generalized*
attributes; each parent is therefore stored as a ``(name, level)`` pair,
level 0 meaning the raw attribute.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class APPair:
    """One attribute-parent pair ``(X, Π)``.

    ``parents`` is a tuple of ``(attribute_name, generalization_level)``
    pairs, sorted by name for canonical equality.  Level 0 is the raw
    attribute; higher levels refer to taxonomy-tree generalizations
    (Section 5.1).
    """

    child: str
    parents: Tuple[Tuple[str, int], ...]

    @staticmethod
    def make(child: str, parents: Sequence) -> "APPair":
        """Normalize ``parents`` given as names or (name, level) pairs."""
        normalized: List[Tuple[str, int]] = []
        for parent in parents:
            if isinstance(parent, str):
                normalized.append((parent, 0))
            else:
                name, level = parent
                normalized.append((str(name), int(level)))
        normalized.sort()
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parent attributes in {names}")
        if child in names:
            raise ValueError(f"child {child!r} cannot be its own parent")
        return APPair(child=child, parents=tuple(normalized))

    @property
    def parent_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.parents)

    @property
    def degree(self) -> int:
        return len(self.parents)

    def __str__(self) -> str:  # pragma: no cover - display helper
        rendered = ", ".join(
            name if level == 0 else f"{name}^({level})"
            for name, level in self.parents
        )
        return f"({self.child} | {{{rendered}}})"


class BayesianNetwork:
    """An ordered collection of AP pairs forming a DAG.

    The constructor validates the three structural conditions of
    Section 2.2: children are unique, parents precede their children in the
    construction order, and hence the network is acyclic.
    """

    def __init__(self, pairs: Sequence[APPair]) -> None:
        self._pairs: Tuple[APPair, ...] = tuple(pairs)
        seen: List[str] = []
        for pair in self._pairs:
            if pair.child in seen:
                raise ValueError(f"attribute {pair.child!r} appears twice")
            for name in pair.parent_names:
                if name not in seen:
                    raise ValueError(
                        f"parent {name!r} of {pair.child!r} does not precede "
                        f"it in the construction order"
                    )
            seen.append(pair.child)
        self._order: Tuple[str, ...] = tuple(seen)

    @property
    def pairs(self) -> Tuple[APPair, ...]:
        return self._pairs

    @property
    def d(self) -> int:
        return len(self._pairs)

    @property
    def attribute_order(self) -> Tuple[str, ...]:
        """Construction (topological) order of the attributes."""
        return self._order

    @property
    def degree(self) -> int:
        """Maximum parent-set size (the ``k`` of Section 2.2)."""
        return max((pair.degree for pair in self._pairs), default=0)

    def edges(self) -> List[Tuple[str, str]]:
        """Directed edges (parent, child), ignoring generalization levels."""
        out = []
        for pair in self._pairs:
            for name in pair.parent_names:
                out.append((name, pair.child))
        return out

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, BayesianNetwork) and self._pairs == other._pairs

    def __hash__(self) -> int:
        # In-process dict/set keys ONLY: the tuple hash recurses into the
        # attribute-name strings, whose hashes are PYTHONHASHSEED-salted, so
        # this value differs between interpreter processes.  Anything
        # crossing a process boundary (cache keys on disk, worker seeds,
        # transcripts) must use stable_fingerprint() instead — the exact
        # drift class behind the fig12-15 hash(name) seeding bug.
        return hash(self._pairs)

    def stable_fingerprint(self) -> int:
        """Process-stable CRC32 fingerprint of the network structure.

        Derived from a canonical textual rendering of the AP pairs, so the
        same structure yields the same value in every interpreter
        regardless of ``PYTHONHASHSEED`` (unlike :meth:`__hash__`).  Equal
        networks always agree; distinct structures collide only with CRC32
        probability, which is fine for cache keys, seeds and transcript
        stamps — not for adversarial integrity.
        """
        payload = ";".join(
            "%s|%s" % (
                pair.child,
                ",".join(f"{name}^{level}" for name, level in pair.parents),
            )
            for pair in self._pairs
        )
        return zlib.crc32(payload.encode("utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return "BayesianNetwork[" + "; ".join(str(p) for p in self._pairs) + "]"

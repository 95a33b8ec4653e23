"""Reference implementations for the ``repro.bn`` tests.

Non-private structure searches and exact-model oracles that the library
never calls, kept as test oracles:

* :func:`chow_liu_tree` — the exact optimal 1-degree network (Chow & Liu
  1968): a maximum spanning tree over pairwise mutual information, rooted
  at a chosen attribute.  Algorithm 2 with ``k = 1`` and argmax selection
  is equivalent (Section 4.1); this is the independent MST construction
  that checks the claim.
* :func:`exhaustive_best_network` — the true optimum ``max Σ I(X_i, Π_i)``
  over *all* attribute orders and parent sets, by dynamic programming over
  subsets.  Exponential in ``d`` (the problem is NP-hard for ``k > 1``,
  Section 4.1), usable for ``d ≤ ~12``.
* :func:`network_score` — ``Σ I(X_i, Π_i)`` of a raw-parent network,
  pair by pair through
  :func:`~repro.infotheory.measures.mutual_information_from_table`.
* :func:`exact_model_joint` — the model's ``Pr_N[A]`` over the full
  domain, and :func:`model_kl_to_data` its KL divergence from the data
  (:func:`kl_divergence`), the two sides of Equation 6.

Slow and plainly correct; never used by the library.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.data.marginals import (
    domain_size,
    flatten_index,
    joint_distribution,
    unflatten_index,
)
from repro.data.table import Table
from repro.infotheory.measures import mutual_information_from_table

_LOG2 = np.log(2.0)


def pairwise_mutual_information(table: Table) -> Dict[Tuple[str, str], float]:
    """``I(X, Y)`` for every unordered attribute pair ``(X, Y)``, as
    ``I(Y, {X})``."""
    return {
        (a, b): mutual_information_from_table(table, b, [a])
        for a, b in itertools.combinations(table.attribute_names, 2)
    }


def chow_liu_tree(table: Table, root: Optional[str] = None) -> BayesianNetwork:
    """Exact optimal 1-degree network via maximum spanning tree.

    Kruskal over edges weighted by mutual information, then oriented away
    from ``root`` (default: the first attribute) by breadth-first search.
    """
    names = list(table.attribute_names)
    if not names:
        return BayesianNetwork([])
    if root is None:
        root = names[0]
    if root not in names:
        raise ValueError(f"unknown root {root!r}")
    if len(names) == 1:
        return BayesianNetwork([APPair.make(root, [])])
    weights = pairwise_mutual_information(table)
    edges = sorted(weights.items(), key=lambda kv: -kv[1])
    # Kruskal with union-find.
    parent_of = {name: name for name in names}

    def find(x):
        while parent_of[x] != x:
            parent_of[x] = parent_of[parent_of[x]]
            x = parent_of[x]
        return x

    adjacency: Dict[str, List[str]] = {name: [] for name in names}
    accepted = 0
    for (a, b), _ in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent_of[ra] = rb
        adjacency[a].append(b)
        adjacency[b].append(a)
        accepted += 1
        if accepted == len(names) - 1:
            break
    # Orient away from the root (BFS); isolated attrs become parentless.
    pairs = [APPair.make(root, [])]
    visited = {root}
    frontier = deque([root])
    while frontier:
        current = frontier.popleft()
        for neighbor in adjacency[current]:
            if neighbor in visited:
                continue
            visited.add(neighbor)
            pairs.append(APPair.make(neighbor, [current]))
            frontier.append(neighbor)
    for name in names:
        if name not in visited:
            pairs.append(APPair.make(name, []))
            visited.add(name)
    return BayesianNetwork(pairs)


def network_score(table: Table, network: BayesianNetwork) -> float:
    """``Σ I(X_i, Π_i)`` of a raw-parent network on the empirical
    distribution."""
    total = 0.0
    for pair in network:
        if pair.parents:
            total += mutual_information_from_table(
                table, pair.child, list(pair.parent_names)
            )
    return total


def exhaustive_best_network(
    table: Table, k: int, max_d: int = 12
) -> BayesianNetwork:
    """The true optimal ``k``-degree network by subset dynamic programming.

    State: the set ``S`` of already-placed attributes; value: the best
    achievable ``Σ I`` placing exactly the attributes of ``S`` first.
    Transition: append attribute ``x ∉ S`` with its best parent set
    ``Π ⊆ S, |Π| ≤ k``.  ``O(2^d · d · C(d, k))``.
    """
    names = list(table.attribute_names)
    d = len(names)
    if d > max_d:
        raise ValueError(f"exhaustive search limited to d <= {max_d}")
    if d == 0:
        return BayesianNetwork([])

    # Best parent set (and its MI) for each (attribute, available-mask).
    best_mi: Dict[Tuple[int, int], Tuple[float, Tuple[str, ...]]] = {}

    def best_parents(x: int, mask: int) -> Tuple[float, Tuple[str, ...]]:
        key = (x, mask)
        if key in best_mi:
            return best_mi[key]
        available = [names[i] for i in range(d) if mask & (1 << i)]
        best = (0.0, ())
        width = min(k, len(available))
        for combo in itertools.combinations(available, width):
            mi = mutual_information_from_table(table, names[x], list(combo))
            if mi > best[0]:
                best = (mi, combo)
        best_mi[key] = best
        return best

    # DP over subsets.
    NEG = float("-inf")
    value = np.full(1 << d, NEG)
    choice: Dict[int, Tuple[int, Tuple[str, ...]]] = {}
    value[0] = 0.0
    for mask in range(1 << d):
        if value[mask] == NEG:
            continue
        for x in range(d):
            if mask & (1 << x):
                continue
            mi, parents = best_parents(x, mask)
            new_mask = mask | (1 << x)
            if value[mask] + mi > value[new_mask]:
                value[new_mask] = value[mask] + mi
                choice[new_mask] = (x, parents)
    # Reconstruct.
    order: List[Tuple[str, Tuple[str, ...]]] = []
    mask = (1 << d) - 1
    while mask:
        x, parents = choice[mask]
        order.append((names[x], parents))
        mask &= ~(1 << x)
    order.reverse()
    return BayesianNetwork([APPair.make(child, parents) for child, parents in order])


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """``D_KL(P || Q)`` in bits; ``inf`` when P puts mass where Q has none."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return float("inf")
    return float((p[mask] * np.log(p[mask] / q[mask])).sum() / _LOG2)


def exact_model_joint(table: Table, network: BayesianNetwork) -> np.ndarray:
    """Materialize ``Pr_N[A]`` over the full domain (small domains only).

    Attributes follow the network's construction order.
    """
    order = list(network.attribute_order)
    sizes = [table.attribute(name).size for name in order]
    total = domain_size(sizes)
    if total > 2_000_000:
        raise ValueError(f"domain size {total} too large to materialize")
    grid = np.ones(total, dtype=float)
    coords = unflatten_index(np.arange(total), sizes)  # (total, d)
    position = {name: i for i, name in enumerate(order)}
    for pair in network:
        child_idx = position[pair.child]
        child_size = sizes[child_idx]
        if pair.parents:
            if any(level != 0 for _, level in pair.parents):
                raise ValueError(
                    "exact_model_joint does not support generalized parents"
                )
            parent_names = list(pair.parent_names)
            joint = joint_distribution(table, parent_names + [pair.child])
            parent_sizes = [table.attribute(p).size for p in parent_names]
            conditional = joint.reshape(-1, child_size)
            row_sums = conditional.sum(axis=1, keepdims=True)
            safe = np.where(row_sums > 0, row_sums, 1.0)
            conditional = np.where(
                row_sums > 0, conditional / safe, 1.0 / child_size
            )
            parent_flat = flatten_index(
                [coords[:, position[p]] for p in parent_names], parent_sizes, total
            )
            grid *= conditional[parent_flat, coords[:, child_idx]]
        else:
            marginal = joint_distribution(table, [pair.child])
            grid *= marginal[coords[:, child_idx]]
    return grid


def model_kl_to_data(table: Table, network: BayesianNetwork) -> float:
    """``D_KL(Pr[A] || Pr_N[A])`` over the full domain (small domains only)."""
    order = list(network.attribute_order)
    data_joint = joint_distribution(table, order)
    model_joint = exact_model_joint(table, network)
    return kl_divergence(data_joint, model_joint)

"""Maximal parent-set enumeration (Algorithms 5 and 6), with memoization.

Given the set ``V`` of already-placed attributes and a domain-size budget
``τ`` (from θ-usefulness), a *maximal parent set* is a subset of ``V``
whose joint domain fits within ``τ`` and which cannot be grown — by adding
another attribute, or (with taxonomies) by refining an attribute to a less
generalized level — without busting the budget.

Parent sets are represented as frozensets of ``(attribute_name, level)``
pairs; level 0 is the raw attribute.

Both algorithms run through one recursion.  It peels the head attribute
and recurses on the tail once for each level the head may join at, then
once without the head.  A ``levels`` function gives the domain size of
each such level: Algorithm 5 offers an attribute at its raw size only,
Algorithm 6 at every taxonomy level.  So Algorithm 5 is Algorithm 6 on
the same attributes with their taxonomies stripped.

Memoization
-----------
Every subproblem is identified by ``(attribute tail, τ)``, each attribute
keyed by its name and the level sizes it is offered at.  The results are
pure functions of those inputs, and the computed *set* of maximal parent
sets is independent of the attribute ordering (the returned list is
canonically sorted), so results can be cached and shared:

* within one call, repeated ``(tail, τ)`` subproblems — common when domain
  sizes repeat, e.g. all-binary tables where ``τ/2/2`` meets ``τ/4`` — are
  computed once instead of exponentially many times;
* across calls, a :class:`ParentSetCache` carries the memo between greedy
  rounds.  :func:`repro.core.greedy_bayes.greedy_bayes_theta` passes the
  placed attributes newest-first, so each round's tail subproblems are
  exactly the previous round's full problems and hit the cache directly.

One memo serves both entry points: a key with one level per attribute
means the same subproblem under either.  Keys carry the level domain
sizes, so a cache is also safe to share across tables; τ is keyed by
exact float value (equal floats behave identically throughout the
recursion, so hits are always exact).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.data.attribute import Attribute

ParentSet = FrozenSet[Tuple[str, int]]

#: Memo table: ((name, level sizes) per attribute, τ) -> sorted tuple of
#: parent sets.
_Memo = Dict[Tuple[Tuple, float], Tuple[ParentSet, ...]]

#: Domain sizes of the levels an attribute may join a parent set at.
_Levels = Callable[[Attribute], Tuple[int, ...]]


def _raw_size(attr: Attribute) -> Tuple[int, ...]:
    """Algorithm 5: the raw attribute only."""
    return (attr.size,)


def _level_sizes(attr: Attribute) -> Tuple[int, ...]:
    """Algorithm 6: domain size of ``attr`` at every generalization level."""
    if attr.taxonomy is None:
        return (attr.size,)
    return tuple(
        attr.taxonomy.level_size(level) for level in range(attr.taxonomy.height)
    )


class ParentSetCache:
    """Reusable memo passed to :func:`maximal_parent_sets` and its
    generalized variant via their ``cache`` parameter.

    One cache instance may serve many calls of either — and many tables:
    keys carry the attribute names *and* the level domain sizes they are
    offered at, so distinct schemas never collide.  Entries are immutable
    tuples of frozensets; callers must not mutate the returned lists'
    elements.
    """

    def __init__(self) -> None:
        self._memo: _Memo = {}


def _maximal(
    attributes: Tuple[Attribute, ...], tau: float, memo: _Memo, levels: _Levels
) -> Tuple[ParentSet, ...]:
    """Algorithm 6 recursion, each attribute offered at ``levels(attr)``,
    with subproblem memoization."""
    if tau < 1.0:
        return ()
    if not attributes:
        return (frozenset(),)
    key = (tuple((a.name, levels(a)) for a in attributes), tau)
    hit = memo.get(key)
    if hit is not None:
        return hit
    head, rest = attributes[0], attributes[1:]
    result: Set[ParentSet] = set()
    used: Set[ParentSet] = set()
    # Levels from least generalized (0) upward: the first level that admits a
    # given remainder-set Z wins, so Z is combined with the most specific
    # usable version of `head` (lines 5-8 of Algorithm 6).
    for level, size in enumerate(levels(head)):
        for subset in _maximal(rest, tau / size, memo, levels):
            if subset in used:
                continue
            used.add(subset)
            result.add(subset | {(head.name, level)})
    # Remainder sets that cannot host `head` at any level (lines 9-11).
    for subset in _maximal(rest, tau, memo, levels):
        if subset not in used:
            result.add(subset)
    out = tuple(sorted(result, key=_canonical_key))
    memo[key] = out
    return out


def maximal_parent_sets(
    attributes: Sequence[Attribute],
    tau: float,
    cache: Optional[ParentSetCache] = None,
) -> List[ParentSet]:
    """Algorithm 5: all maximal subsets of ``attributes`` with joint domain
    size at most ``tau`` (no generalization).

    Returns frozensets of ``(name, 0)`` pairs.  ``τ < 1`` admits nothing;
    an empty ``attributes`` admits only the empty set.  ``cache`` carries
    the subproblem memo across calls (see :class:`ParentSetCache`); without
    one, a fresh memo still dedupes repeated subproblems within the call.
    """
    memo: _Memo = cache._memo if cache is not None else {}
    return list(_maximal(tuple(attributes), float(tau), memo, _raw_size))


def maximal_parent_sets_generalized(
    attributes: Sequence[Attribute],
    tau: float,
    cache: Optional[ParentSetCache] = None,
) -> List[ParentSet]:
    """Algorithm 6: maximal generalized parent sets.

    Each attribute may participate at any taxonomy level; a set is maximal
    when no attribute can be added and no member refined to a lower
    (more specific) level while keeping the joint domain within ``τ``.
    ``cache`` works as in :func:`maximal_parent_sets`.
    """
    memo: _Memo = cache._memo if cache is not None else {}
    return list(_maximal(tuple(attributes), float(tau), memo, _level_sizes))


def parent_set_domain_size(
    parent_set: ParentSet, attributes_by_name: Dict[str, Attribute]
) -> int:
    """Joint domain size of a (possibly generalized) parent set."""
    size = 1
    for name, level in parent_set:
        attr = attributes_by_name[name]
        if level == 0:
            size *= attr.size
        else:
            size *= attr.taxonomy.level_size(level)
    return size


def _canonical_key(parent_set: ParentSet) -> Tuple:
    return tuple(sorted(parent_set))

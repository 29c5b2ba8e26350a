"""Trie reduction: reorganizing an n-dim range trie into an (n-1)-dim one.

This is the transformation of paper Section 5.1 (Figure 6(d)): after the
traversal of a trie over dimensions ``(A1, ..., An)`` has produced every
range binding ``A1``, the trie is reorganized into one over
``(A2, ..., An)``:

1. every root child drops its ``A1`` value (set to ``*``);
2. a child whose remaining key does not expose the new start dimension
   ``A2`` pushes its key values down (either wrapping its children or
   appending to their keys) so its children surface;
3. surfaced siblings that now share the same ``A2`` value are merged,
   re-extracting the dimension values they have in common.  All k of
   them merge in one step (:func:`merge_siblings`), so each reduced node
   is built once, as the paper's each-node-aggregated-once argument
   assumes.

Everything here is **non-destructive**: reorganization allocates fresh
nodes and shares untouched sub-tries, because the recursive step of range
cubing (Algorithm 2) walks into children of the *original* trie after the
parent level has conceptually moved on.

``rebuild_reduced`` is the slow reference implementation — it projects the
trie's leaf assignments onto the remaining dimensions and rebuilds with
Algorithm 1.  The range trie is canonical (insertion-order invariant), so
the property test ``merge reduction == rebuild`` pins the fast path down.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.range_trie import RangeTrie, RangeTrieNode, merge_key
from repro.table.aggregates import Aggregator


def _surface_candidates(
    residual: Sequence[tuple[int, int]],
    children: dict,
    agg,
) -> list[RangeTrieNode]:
    """Nodes exposing the subtree ``residual + children`` at its start dim.

    ``residual`` holds (dim, value) pairs that used to sit *above*
    ``children``.  The returned nodes all have keys beginning at the true
    start dimension of the combined subtree:

    * no residual: the children already surface it;
    * no children: the residual becomes a leaf;
    * residual starts below the children's start dimension: wrap;
    * otherwise: append the residual to every child's key (fresh nodes,
      grandchildren shared).
    """
    if not residual:
        return list(children.values())
    if not children:
        return [RangeTrieNode(tuple(residual), {}, agg)]
    child_start = next(iter(children.values())).key[0][0]
    if residual[0][0] < child_start:
        return [RangeTrieNode(tuple(residual), children, agg)]
    return [
        RangeTrieNode(merge_key(child.key, residual), child.children, child.agg)
        for child in children.values()
    ]


def merge_siblings(
    candidates: Iterable[RangeTrieNode],
    merge_agg: Callable,
    children: dict | None = None,
) -> dict[int, RangeTrieNode]:
    """Key ``candidates`` by start value, building each shared value's node once.

    All candidates share one start dimension.  A value seen once keeps its
    candidate as it is (the sub-trie is shared, not copied); the k >= 2
    candidates of a value are collected first and merged by ONE
    :func:`_merge_group` call, so no intermediate node is allocated, nor
    its children rebuilt, per extra candidate.  ``children``, when given,
    is a dict of already-unique siblings the candidates fold into.
    Values keep their first-appearance order.
    """
    if children is None:
        children = {}
    get = children.get
    groups: dict[int, list[RangeTrieNode]] = {}
    for cand in candidates:
        value = cand.key[0][1]
        present = get(value)
        if present is None:
            children[value] = cand
        else:
            group = groups.get(value)
            if group is None:
                groups[value] = [present, cand]
            else:
                group.append(cand)
    for value, group in groups.items():
        children[value] = _merge_group(group, merge_agg)
    return children


def _merge_group(group: list[RangeTrieNode], merge_agg: Callable) -> RangeTrieNode:
    """The one node for k >= 2 nodes that share their start (dim, value) pair.

    Its key keeps exactly the (dim, value) pairs common to all k keys —
    the values still shared by *all* tuples underneath, the "find the
    common dimension values" step Algorithm 1 performs during insertion,
    applied trie-to-trie.  Each node's leftover pairs are surfaced once
    and the surfaced siblings are merged by value, recursively.  States
    fold left in group order, so the association order (and every float)
    is that of merging the nodes one after another.
    """
    first = group[0]
    key = first.key
    state = first.agg
    shared = None  # the common pairs, once some key differs from the first
    for node in group[1:]:
        state = merge_agg(state, node.agg)
        if node.key != key:
            if shared is None:
                shared = set(key)
            shared.intersection_update(node.key)
    candidates: list[RangeTrieNode] = []
    if shared is None:
        # Equal keys: nothing to surface; fold the others' children into
        # a copy of the first node's.
        for node in group[1:]:
            candidates.extend(node.children.values())
        children = merge_siblings(candidates, merge_agg, dict(first.children))
        return RangeTrieNode(key, children, state)
    common = tuple([p for p in key if p in shared])
    n_common = len(common)
    for node in group:
        if len(node.key) == n_common:
            candidates.extend(node.children.values())
        else:
            residual = [p for p in node.key if p not in shared]
            candidates.extend(_surface_candidates(residual, node.children, node.agg))
    return RangeTrieNode(common, merge_siblings(candidates, merge_agg), state)


def merge_nodes(a: RangeTrieNode, b: RangeTrieNode, merge_agg: Callable) -> RangeTrieNode:
    """Merge two range-trie nodes that share their start (dim, value) pair."""
    return _merge_group([a, b], merge_agg)


def reduce_trie(root: RangeTrieNode, merge_agg: Callable) -> RangeTrieNode:
    """Drop the start dimension of ``root``'s children; return a new root.

    The new root's children form the range trie of the same tuples
    projected onto the remaining dimensions.  ``root`` and its descendants
    are never modified.
    """
    candidates: list[RangeTrieNode] = []
    for child in root.children.values():
        key = child.key
        if len(key) == 1:
            candidates.extend(child.children.values())
        else:
            candidates.extend(_surface_candidates(key[1:], child.children, child.agg))
    return RangeTrieNode((), merge_siblings(candidates, merge_agg), root.agg)


def rebuild_reduced(trie: RangeTrie, drop_dim: int, aggregator: Aggregator) -> RangeTrie:
    """Reference reduction: project leaves onto the remaining dims, rebuild.

    Only used for testing the fast merge-based :func:`reduce_trie`; it is
    quadratically slower but unarguably correct.
    """
    reduced = RangeTrie(trie.n_dims, aggregator)
    for assignment, agg in trie.leaf_assignments():
        pairs = sorted((d, v) for d, v in assignment.items() if d != drop_dim)
        reduced.insert_assignment(pairs, agg)
    return reduced

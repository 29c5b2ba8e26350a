"""Unit tests for the trie reduction (paper Section 5.1, Figure 6).

The figure tests pin down the exact reduced tries of the running example;
the property test checks the fast merge-based reduction against the
rebuild-from-projection reference, which is canonical because the trie is
insertion-order invariant.
"""

import copy
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reduction
from repro.core.range_trie import RangeTrie
from repro.core.reduction import rebuild_reduced, reduce_trie
from repro.table.aggregates import SumCountAggregator

from tests.conftest import make_encoded_table, make_paper_table, table_strategy
from tests.test_range_trie import key, snapshot

STORE, CITY, PRODUCT, DATE = 0, 1, 2, 3
AGG = SumCountAggregator(0)


def reduced_times(n: int):
    """The paper trie reduced ``n`` times (n=1 -> Figure 6(a), etc.)."""
    trie = RangeTrie.build(make_paper_table(), AGG)
    root = trie.root
    for _ in range(n):
        root = reduce_trie(root, AGG.merge)
    return root


def test_figure_6a_city_product_date_trie():
    root = reduced_times(1)
    by_value = {c.start_value: c for c in root.children.values()}
    assert set(by_value) == {0, 1, 2}  # C1, C2, C3

    c1 = by_value[0]
    assert c1.key == key((CITY, 0))
    assert c1.agg[0] == 3
    c1_kids = {c.key: c for c in c1.children.values()}
    assert set(c1_kids) == {key((PRODUCT, 0)), key((PRODUCT, 1), (DATE, 1))}
    p1 = c1_kids[key((PRODUCT, 0))]
    assert p1.agg[0] == 2
    assert {c.key for c in p1.children.values()} == {key((DATE, 0)), key((DATE, 1))}

    c2 = by_value[1]
    assert c2.key == key((CITY, 1), (PRODUCT, 0), (DATE, 1))
    assert c2.is_leaf

    c3 = by_value[2]
    assert c3.key == key((CITY, 2))
    assert c3.agg[0] == 2
    assert {c.key for c in c3.children.values()} == {
        key((PRODUCT, 1), (DATE, 1)),
        key((PRODUCT, 2), (DATE, 0)),
    }


def test_figure_6b_product_date_trie():
    root = reduced_times(2)
    by_value = {c.start_value: c for c in root.children.values()}
    assert set(by_value) == {0, 1, 2}  # P1, P2, P3
    p1 = by_value[0]
    assert p1.key == key((PRODUCT, 0))
    assert p1.agg[0] == 3
    dates = {c.key: c.agg[0] for c in p1.children.values()}
    assert dates == {key((DATE, 0)): 1, key((DATE, 1)): 2}
    assert by_value[1].key == key((PRODUCT, 1), (DATE, 1))
    assert by_value[1].agg[0] == 2
    assert by_value[2].key == key((PRODUCT, 2), (DATE, 0))
    assert by_value[2].agg[0] == 1


def test_figure_6c_date_trie():
    root = reduced_times(3)
    dates = {c.key: c.agg[0] for c in root.children.values()}
    assert dates == {key((DATE, 0),): 2, key((DATE, 1),): 4}


def test_reduction_terminates_with_empty_root():
    root = reduced_times(4)
    assert root.children == {}


def test_reduction_preserves_total_aggregate():
    trie = RangeTrie.build(make_paper_table(), AGG)
    root = trie.root
    for _ in range(4):
        root = reduce_trie(root, AGG.merge)
        assert root.agg[0] == 6


def test_reduction_is_non_destructive():
    trie = RangeTrie.build(make_paper_table(), AGG)
    before = snapshot(trie.root)
    before_deep = copy.deepcopy(
        [(n.key, n.agg) for n in trie.iter_nodes()]
    )
    reduce_trie(trie.root, AGG.merge)
    assert snapshot(trie.root) == before
    assert [(n.key, n.agg) for n in trie.iter_nodes()] == before_deep


def test_reduced_trie_satisfies_invariants():
    # Wrap the reduced root in a RangeTrie to reuse the checker.
    trie = RangeTrie.build(make_paper_table(), AGG)
    reduced = RangeTrie(4, AGG)
    reduced.root = reduce_trie(trie.root, AGG.merge)
    reduced.check_invariants()


@settings(max_examples=60, deadline=None)
@given(table_strategy())
def test_merge_reduction_equals_rebuild_reference(table):
    trie = RangeTrie.build(table, AGG)
    fast = reduce_trie(trie.root, AGG.merge)
    slow = rebuild_reduced(trie, drop_dim=0, aggregator=AGG)
    assert snapshot(fast) == snapshot(slow.root)


@settings(max_examples=40, deadline=None)
@given(table_strategy(min_dims=2))
def test_iterated_reduction_equals_iterated_rebuild(table):
    trie = RangeTrie.build(table, AGG)
    fast = trie.root
    slow = trie
    for dim in range(table.n_dims):
        fast = reduce_trie(fast, AGG.merge)
        slow = rebuild_reduced(slow, drop_dim=dim, aggregator=AGG)
        assert snapshot(fast) == snapshot(slow.root)


@st.composite
def broken_dependency_table(draw):
    """A table whose first reduction merges k >= 3 siblings with differing keys.

    Every row binds ``d1`` to one value and ``d2`` to its ``d0`` value,
    except a few rows that break both dependencies.  Dropping ``d0``
    leaves each of the k >= 3 ``d0`` branches a candidate at ``d1 = 0``
    whose key or children still carry that branch's own ``d2``, so the
    k candidates merge as one group whose residuals must surface.
    """
    n_dims = draw(st.integers(3, 5))
    k = draw(st.integers(3, 5))
    n_rows = draw(st.integers(k, 30))
    rows = []
    for i in range(n_rows):
        head = i if i < k else draw(st.integers(0, k - 1))  # every d0 value occurs
        tail = [draw(st.integers(0, 2)) for _ in range(n_dims - 3)]
        rows.append([head, 0, head, *tail])
    for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=3)):
        rows[i][1] = draw(st.integers(0, 2))
        rows[i][2] = draw(st.integers(0, k))
    measures = [(float(draw(st.integers(0, 50))),) for _ in rows]
    return make_encoded_table(rows, measures=measures)


@settings(max_examples=60, deadline=None)
@given(broken_dependency_table(), st.sampled_from(["tuple", "bulk"]))
def test_k_way_group_merge_equals_iterated_rebuild(table, strategy):
    build = RangeTrie.build if strategy == "tuple" else RangeTrie.bulk_build
    trie = build(table, AGG)
    groups = []
    merge_group = reduction._merge_group

    def spy(group, merge_agg):
        groups.append([node.key for node in group])
        return merge_group(group, merge_agg)

    fast = trie.root
    slow = trie
    with mock.patch.object(reduction, "_merge_group", spy):
        for dim in range(table.n_dims):
            fast = reduce_trie(fast, AGG.merge)
            slow = rebuild_reduced(slow, drop_dim=dim, aggregator=AGG)
            assert snapshot(fast) == snapshot(slow.root)
    # The premise: some group of three or more had keys that differ.
    assert any(len(keys) >= 3 and len(set(keys)) > 1 for keys in groups)

"""Unit + property tests for partitioned trie construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import range_cubing_from_trie
from repro.core.partitioned import build_partitioned, chunked, merge_tries
from repro.core.range_cubing import range_cubing
from repro.core.range_trie import RangeTrie
from repro.core.reduction import merge_nodes
from repro.table.aggregates import SumCountAggregator
from repro.table.base_table import BaseTable
from repro.table.schema import Schema

from tests.conftest import cubes_equal, make_paper_table, table_strategy
from tests.test_range_trie import snapshot

AGG = SumCountAggregator(0)


def test_chunking_covers_all_rows():
    table = make_paper_table()
    chunks = list(chunked(table, 4))
    assert sum(c.n_rows for c in chunks) == table.n_rows
    assert all(c.n_rows > 0 for c in chunks)
    with pytest.raises(ValueError):
        list(chunked(table, 0))


def test_partitioned_build_equals_monolithic():
    table = make_paper_table()
    monolithic = RangeTrie.build(table, AGG)
    for n_chunks in (1, 2, 3, 6):
        partitioned = build_partitioned(table, n_chunks, AGG)
        assert snapshot(partitioned.root) == snapshot(monolithic.root)
        partitioned.check_invariants()


def test_partitioned_trie_yields_identical_cube():
    table = make_paper_table()
    trie = build_partitioned(table, 3, AGG)
    assert cubes_equal(
        dict(range_cubing_from_trie(trie).expand()),
        dict(range_cubing(table).expand()),
    )


def test_merge_tries_validations():
    with pytest.raises(ValueError):
        merge_tries([])
    a = RangeTrie(2, AGG)
    b = RangeTrie(3, AGG)
    with pytest.raises(ValueError):
        merge_tries([a, b])


def test_merge_skips_empty_tries():
    table = make_paper_table()
    loaded = RangeTrie.build(table, AGG)
    empty = RangeTrie(table.n_dims, AGG)
    merged = merge_tries([empty, loaded, empty])
    assert snapshot(merged.root) == snapshot(loaded.root)


def test_merge_nodes_is_the_two_trie_merge_of_one_branch():
    table = make_paper_table()
    first, second = (RangeTrie.build(c, AGG) for c in chunked(table, 2))
    shared = first.root.children.keys() & second.root.children.keys()
    assert shared  # the paper table's halves both hold store S2
    merged = merge_tries([first, second])
    for value in shared:
        node = merge_nodes(first.root.children[value], second.root.children[value], AGG.merge)
        assert snapshot(node) == snapshot(merged.root.children[value])


def test_empty_table():
    schema = Schema.from_names(["a", "b"])
    table = BaseTable(schema, np.zeros((0, 2), dtype=np.int64))
    trie = build_partitioned(table, 4, AGG)
    assert trie.root.children == {}


def test_inputs_unmodified_by_merge():
    table = make_paper_table()
    chunks = list(chunked(table, 2))
    tries = [RangeTrie.build(c, AGG) for c in chunks]
    before = [snapshot(t.root) for t in tries]
    merge_tries(tries)
    assert [snapshot(t.root) for t in tries] == before


@settings(max_examples=50, deadline=None)
@given(table_strategy(min_rows=1), st.integers(1, 6))
def test_partitioned_equals_monolithic_property(table, n_chunks):
    monolithic = RangeTrie.build(table, AGG)
    partitioned = build_partitioned(table, n_chunks, AGG)
    assert snapshot(partitioned.root) == snapshot(monolithic.root)


@settings(max_examples=50, deadline=None)
@given(table_strategy(min_rows=6, max_rows=40), st.integers(3, 6))
def test_one_pass_merge_of_bulk_chunks_equals_the_whole_table(table, n_chunks):
    whole = RangeTrie.bulk_build(table, AGG)
    parts = np.array_split(np.arange(table.n_rows), n_chunks)  # all non-empty
    chunks = [
        RangeTrie.bulk_build_arrays(
            table.n_dims, table.dim_codes[rows], table.measures[rows], AGG
        )
        for rows in parts
    ]
    merged = merge_tries(chunks)
    # Node by node: keys, counts (exact) and children, in canonical order.
    assert snapshot(merged.root) == snapshot(whole.root)
    assert merged.root.agg[0] == whole.root.agg[0] == table.n_rows
    merged.check_invariants()

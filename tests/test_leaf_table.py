"""The index's leaf table against the full trie that ``build_tst`` sweeps.

The leaf table keeps no trie nodes, yet it must give the paper's trie
figures (node count and reference length), the navigation parents and every
leaf string exactly as the trie does.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.container import dump_index, load_index
from lcex.lce import build_index
from lcex.navtree import build_navtree
from lcex.textstore import Text, load_text
from lcex.tst import build_leaf_table, build_tst, compact_reference, reference_length

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from conftest import TWIN_CASES, built_and_loaded  # noqa: E402


def scanned_parents(leaf_of_pos: np.ndarray, leaves: int) -> np.ndarray:
    """Navigation parents by the right-to-left scan: the node at i gets the
    node at i+1 as its parent on first visit."""
    lop = leaf_of_pos.tolist()
    n = len(lop)
    parent = [-1] * leaves
    parent[lop[n - 1]] = lop[n - 1]
    for i in range(n - 2, -1, -1):
        if parent[lop[i]] < 0:
            parent[lop[i]] = lop[i + 1]
    return np.asarray(parent)


def check_against_trie(text: Text, blk: int, strings: int | None = None) -> None:
    q = 2 * blk
    table, leaf_of_pos, leftmost = build_leaf_table(text, q)
    tree = build_tst(text, q)
    assert table.node_count == tree.node_count
    assert reference_length(leftmost, q, text.n) == len(compact_reference(tree, text).ref)
    nav = build_navtree(text, table, leaf_of_pos, blk)
    assert (nav.parent == scanned_parents(leaf_of_pos, table.leaf_count)).all()
    table.nav_parent = nav.parent
    ranks = range(table.leaf_count) if strings is None else np.linspace(
        0, table.leaf_count - 1, strings).astype(int).tolist()
    for g in ranks:
        assert table.leaf_string(g) == tree.leaf_string(g), g
        assert table.lca_prefix_len(g, g) == len(tree.leaf_string(g))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda sigma: st.lists(st.integers(0, sigma - 1), min_size=4, max_size=300)), st.data())
def test_leaf_table_matches_trie(symbols, data):
    text = load_text(bytes(97 + s for s in symbols))
    blk = data.draw(st.integers(1, text.n // 2))
    check_against_trie(text, blk)


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_leaf_table_matches_trie_on_bench_texts(name):
    spec = workloads.SPECS[name]
    text = load_text(workloads.make_text(spec, 1))
    check_against_trie(text, spec.t_prime, strings=3000)


def test_index_stats_are_the_trie_figures():
    text = load_text(workloads.make_text(workloads.SPECS["thue-tradeoff"], 1)[:5000])
    ix = build_index(text, 32, 8)
    tree = build_tst(text, 16)
    assert ix.stats.tst_nodes == tree.node_count == ix.tree.node_count
    assert ix.stats.tst_ref_len == len(compact_reference(tree, text).ref)
    for tree in (ix.tree, load_index(dump_index(ix)).tree):
        assert not hasattr(tree, "leaf_of_pos") and not hasattr(tree, "leftmost")


@pytest.mark.parametrize("raw,t,tp", TWIN_CASES)
def test_lca_prefix_len_batch_matches_scalar(raw, t, tp):
    for ix in built_and_loaded(raw, t, tp):
        tree = ix.tree
        ranks = np.arange(tree.leaf_count, dtype=np.int64)
        u, v = (a.ravel() for a in np.meshgrid(ranks, ranks))   # u == v and both rank ends
        want = [tree.lca_prefix_len(a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert tree.lca_prefix_len_batch(u, v).tolist() == want

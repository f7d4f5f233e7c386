import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.navtree import build_navtree, short_lce
from lcex.oracle import naive_lce
from lcex.textstore import load_text
from lcex.tst import build_tst

from conftest import (FIG_W, TWIN_CASES, built_and_loaded, decode_syms, fib_word,
                      random_text)


def make(raw, t):
    text = load_text(raw)
    tree = build_tst(text, 2 * t)
    nav = build_navtree(text, tree, text.prefix_classes(2 * t)[1], t)
    return text, tree, nav


def test_figure_nodes_exist():
    text, tree, nav = make(FIG_W, 2)
    decoded = {decode_syms(text, tree.leaf_string(g)) for g in range(tree.leaf_count)}
    assert b"bbaa" in decoded and b"abba" in decoded
    assert FIG_W[3:7] == b"bbaa" and FIG_W[2:6] == b"abba"   # contexts at i=4 and i=3


def test_figure_level_ancestor_prefix():
    text, tree, nav = make(FIG_W, 2)
    # i=4 samples back to 3; one ancestor step must expose w[4..5] = "bb"
    i = 4
    alpha = 1 + ((i - 1) // 2) * 2
    assert alpha == 3
    g = nav.level_ancestor(nav.locate(alpha), i - alpha)
    assert decode_syms(text, tree.leaf_string(g))[:2] == b"bb"
    assert nav.locate(i) == g


def test_tiny_chain():
    text, tree, nav = make(b"ab", 1)
    # suffix contexts: positions 3, 2, 1 form a parent chain with depths 0,1,2
    lop_depths = {}
    for i in range(1, 4):
        leaf = nav.locate(i)
        lop_depths[i] = nav.depth[leaf]
    assert lop_depths == {3: 0, 2: 1, 1: 2}


def test_parent_deletes_first_symbol():
    raw = bytes(random.Random(1).choice(b"ab") for _ in range(200))
    text, tree, nav = make(raw, 3)
    for v in range(nav.node_count):
        if v == nav.root:
            continue
        child = tree.leaf_string(v)
        par = tree.leaf_string(nav.parent[v])
        assert par[: len(child) - 1] == child[1:]


def test_suffix_chain_depths():
    text, tree, nav = make(FIG_W, 2)
    n, t = text.n, 2
    lop = text.prefix_classes(2 * t)[1]
    for k in range(max(1, n - 2 * t), n + 1):
        node = int(lop[k - 1])
        assert nav.depth[node] == n - k
        if k < n:
            assert nav.parent[node] == int(lop[k])


def test_sampled_pointers():
    text, tree, nav = make(FIG_W, 3)
    lop = text.prefix_classes(6)[1]
    assert len(nav.sampled) == -(-text.n // 3)
    for k, node in enumerate(nav.sampled):
        assert node == int(lop[k * 3])


@pytest.mark.parametrize("t", [1, 2, 4])
def test_locate_prefix_guarantee(t):
    text, tree, nav = make(FIG_W, t)
    s = bytes(text.symbols())
    n = text.n
    for i in range(1, n + 1):
        got = bytes(tree.leaf_string(nav.locate(i)))
        m = min(t, n - i + 1)
        assert got[:m] == s[i - 1 : i - 1 + m], i


def test_navigation_invariant_all_positions():
    # the d-th ancestor of the sampled node spells w[i..i+t-1] whenever the
    # full 2t window fits
    for t in (1, 2, 3):
        text, tree, nav = make(FIG_W, t)
        s = bytes(text.symbols())
        for i in range(1, text.n - 2 * t + 1):
            alpha = 1 + ((i - 1) // t) * t
            g = nav.level_ancestor(nav.locate(alpha), i - alpha)
            assert bytes(tree.leaf_string(g))[:t] == s[i - 1 : i - 1 + t]


@pytest.mark.parametrize("t", [1, 2, 4])
def test_short_lce_exhaustive_figure(t):
    text, tree, nav = make(FIG_W, t)
    n = text.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert short_lce(nav, tree, i, j) == min(naive_lce(text, i, j), t)


def test_short_lce_diagonal():
    text, tree, nav = make(FIG_W, 4)
    for i in range(1, text.n + 1):
        assert short_lce(nav, tree, i, i) == min(text.n - i + 1, 4)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=2, max_size=120), st.integers(1, 8), st.data())
def test_short_lce_random(raw, t, data):
    text = load_text(raw)
    if 2 * t > text.n:
        t = text.n // 2
    if t < 1:
        return
    tree = build_tst(text, 2 * t)
    nav = build_navtree(text, tree, text.prefix_classes(2 * t)[1], t)
    for _ in range(30):
        i = data.draw(st.integers(1, text.n))
        j = data.draw(st.integers(1, text.n))
        assert short_lce(nav, tree, i, j) == min(naive_lce(text, i, j), t)


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=4, max_size=150), st.integers(1, 6))
def test_level_ancestor_matches_parent_walk(raw, t):
    text = load_text(raw)
    if 2 * t > text.n:
        return
    tree = build_tst(text, 2 * t)
    nav = build_navtree(text, tree, text.prefix_classes(2 * t)[1], t)
    for v in range(nav.node_count):
        u = v
        for d in range(nav.depth[v] + 1):
            assert nav.level_ancestor(v, d) == u, (v, d)
            u = nav.parent[u]


def test_every_node_reaches_root():
    text, tree, nav = make(FIG_W, 2)
    for v in range(nav.node_count):
        u, steps = v, 0
        while u != nav.root:
            u = nav.parent[u]
            steps += 1
            assert steps <= nav.node_count
        assert steps == nav.depth[v]


@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_capped_lifting_level_ancestor_exact(t):
    for raw in (fib_word(120), bytes(random.Random(t).choice(b"abc") for _ in range(90))):
        text, tree, nav = make(raw, t)
        assert len(nav.lift) == t
        assert len(nav.lift[0]) <= min(nav.node_count, -(-text.n // t))
        for v in range(nav.node_count):
            u = v
            for d in range(nav.depth[v] + 1):
                assert nav.level_ancestor(v, d) == u, (v, d)
                if u != nav.root:
                    u = nav.parent[u]


@pytest.mark.parametrize("raw,t,tp", TWIN_CASES)
def test_locate_batch_matches_locate(raw, t, tp):
    for ix in built_and_loaded(raw, t, tp):
        I = np.arange(1, ix.n + 1, dtype=np.int64)
        assert ix.nav.locate_batch(I).tolist() == [ix.nav.locate(i) for i in range(1, ix.n + 1)]


def _walk(nav, v, d):
    for _ in range(d):
        v = int(nav.parent[v])
    return v


def _check_locate(ix):
    nav, tp = ix.nav, ix.t_prime
    assert isinstance(nav.sampled, np.ndarray) and nav.sampled.dtype == np.int64
    want = [_walk(nav, int(nav.sampled[(i - 1) // tp]), (i - 1) % tp)
            for i in range(1, ix.n + 1)]
    assert [nav.locate(i) for i in range(1, ix.n + 1)] == want
    got = nav.locate_batch(np.arange(1, ix.n + 1, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("tp", range(1, 9))
def test_jump_table_locate_is_a_parent_walk(tp):
    for n in (2 * tp, 2 * tp + 1, 5 * tp + 1):
        for ix in built_and_loaded(random_text(n - 1, 3, seed=n), tp, tp):
            assert ix.n == n
            _check_locate(ix)


def test_jump_table_at_256_leaves():
    # leaf ranks reach 255, the top of a uint8 jump table; locate_batch must
    # still return int64, since np.minimum(u, v) + 1 in lca_prefix_len_batch
    # wraps 255 to 0 in uint8
    for ix in built_and_loaded(random_text(255, 4, seed=1), 8, 8):
        assert ix.tree.leaf_count == 256 and ix.nav.lift_np.dtype == np.uint8
        _check_locate(ix)
        nav, tree = ix.nav, ix.tree
        I = np.arange(1, ix.n + 1, dtype=np.int64)
        J = np.full(ix.n, [nav.locate(i) for i in I].index(255) + 1, dtype=np.int64)
        got = tree.lca_prefix_len_batch(nav.locate_batch(I), nav.locate_batch(J))
        assert got.tolist() == [tree.lca_prefix_len(nav.locate(i), nav.locate(j))
                                for i, j in zip(I.tolist(), J.tolist())]

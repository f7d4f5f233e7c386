import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.lz77 import lz77_factorize
from lcex.textstore import load_text
from lcex.tst import build_tst, compact_reference

from conftest import EXAMPLE_W, FIG_W, fib_word


def clipped_suffixes(t, q):
    s = bytes(t.symbols())
    return {s[i : min(i + q, t.n)] for i in range(t.n)}


def test_leaf_count_figure_string():
    t = load_text(FIG_W)
    tree = build_tst(t, 5)
    assert tree.leaf_count == len(clipped_suffixes(t, 5))


def test_full_depth_all_suffixes_distinct():
    t = load_text(FIG_W)
    tree = build_tst(t, t.n)
    assert tree.leaf_count == t.n


def test_leaf_count_example_bound():
    t = load_text(EXAMPLE_W)
    z = lz77_factorize(t).z
    assert z == 6
    tree = build_tst(t, 4)
    assert tree.leaf_count == len(clipped_suffixes(t, 4))
    assert tree.leaf_count <= z * 3 + 4


def test_leaves_sorted_strictly():
    t = load_text(FIG_W)
    tree = build_tst(t, 5)
    decoded = [bytes(tree.leaf_string(g)) for g in range(tree.leaf_count)]
    assert decoded == sorted(decoded)
    assert len(set(decoded)) == len(decoded)


def test_position_completeness():
    t = load_text(FIG_W)
    tree = build_tst(t, 5)
    s = bytes(t.symbols())
    leaf_of_pos = t.prefix_classes(5)[1]
    for i in range(1, t.n + 1):
        g = int(leaf_of_pos[i - 1])
        assert bytes(tree.leaf_string(g)) == s[i - 1 : min(i - 1 + 5, t.n)]


def test_internal_nodes_branching():
    t = load_text(FIG_W)
    tree = build_tst(t, 5)
    kids = np.bincount(tree.parent[1:], minlength=tree.node_count)
    leaves = np.zeros(tree.node_count, dtype=bool)
    leaves[tree.leaves] = True
    assert (kids[~leaves] >= 2).all()
    assert (kids[leaves] == 0).all()


def test_lca_matches_naive_scan():
    t = load_text(FIG_W)
    tree = build_tst(t, 5)
    decoded = [bytes(tree.leaf_string(g)) for g in range(tree.leaf_count)]
    for a, b in itertools.product(range(tree.leaf_count), repeat=2):
        x, y = decoded[a], decoded[b]
        k = 0
        while k < min(len(x), len(y)) and x[k] == y[k]:
            k += 1
        assert tree.lca_prefix_len(a, b) == k


def test_lca_self_is_full_depth():
    t = load_text(FIG_W)
    tree = build_tst(t, 5)
    for g in range(tree.leaf_count):
        assert tree.lca_prefix_len(g, g) == len(tree.leaf_string(g))


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=120), st.integers(1, 16))
def test_leaf_count_equals_enumeration(raw, q):
    t = load_text(raw)
    q = min(q, t.n)
    tree = build_tst(t, q)
    assert tree.leaf_count == len(clipped_suffixes(t, q))
    decoded = {bytes(tree.leaf_string(g)) for g in range(tree.leaf_count)}
    assert decoded == clipped_suffixes(t, q)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_leaf_count_factor_bound(q):
    for raw in [EXAMPLE_W, FIG_W, fib_word(1000), b"a" * 100,
                bytes(random.Random(3).choice(b"ab") for _ in range(500))]:
        t = load_text(raw)
        if q > t.n:
            continue
        z = lz77_factorize(t).z
        tree = build_tst(t, q)
        assert tree.leaf_count <= min(t.n, z * (q - 1) + q)


def test_compact_unary_run():
    t = load_text(b"a" * 100)
    z = lz77_factorize(t).z
    tree = build_tst(t, 8)
    before = [bytes(tree.leaf_string(g)) for g in range(tree.leaf_count)]
    compact_reference(tree, t)
    after = [bytes(tree.leaf_string(g)) for g in range(tree.leaf_count)]
    assert before == after
    assert len(tree.ref) <= min(101, 2 * 8 * (z + 1))


def test_compact_depth_one_is_alphabet():
    t = load_text(b"mississippi")
    tree = build_tst(t, 1)
    compact_reference(tree, t)
    assert len(tree.ref) == t.sigma


def test_compact_fibonacci():
    t = load_text(fib_word(1000))
    z = lz77_factorize(t).z
    tree = build_tst(t, 16)
    before = [bytes(tree.leaf_string(g)) for g in range(tree.leaf_count)]
    compact_reference(tree, t)
    assert [bytes(tree.leaf_string(g)) for g in range(tree.leaf_count)] == before
    assert len(tree.ref) <= min(t.n, 2 * 16 * (z + 1))


def test_compact_releases_text_array():
    t = load_text(FIG_W)
    tree = build_tst(t, 5)
    assert np.shares_memory(tree.ref, t.arr)
    compact_reference(tree, t)
    assert not np.shares_memory(tree.ref, t.arr)

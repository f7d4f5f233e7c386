"""Spanning-tree navigation over 2t-gram contexts: maps any position to its
trie leaf in O(1) and answers length-capped LCE queries.

Nodes are the leaves of the depth-2t truncated suffix tree.  Each node's
parent is the node of the position after its rightmost occurrence; walking
d ancestors from the node of a sampled position deletes d leading
characters, which recovers the node spelling at least the first t
characters of any position's context.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .textstore import Text
from .tst import LeafTable


class NavTree:
    """Parent links over trie leaves plus a lifting table and sampled pointers.

    ``parent`` maps the root to itself.  ``locate`` climbs fewer than t
    levels, so the lifting table stops at the jump 2^(L-1) with
    L = max(1, bit_length(t-1)); ``level_ancestor`` takes repeated top-level
    jumps for the bits above it.  ``locate_batch`` is the batch ``locate``.
    """

    def __init__(self, t: int, n: int, parent: np.ndarray, root: int,
                 sampled: list[int]):
        self.t = t
        self.n = n
        self.parent = parent
        self.root = root
        self.sampled = sampled
        # lift_np[k][v] is the 2^k-th ancestor of v (the root maps to itself);
        # the scalar path reads zero-copy memoryviews of its rows
        self.lift_np = self._build_lifting()
        self.lift = tuple(memoryview(row) for row in self.lift_np)
        # numpy mirror for the batch query path
        self.sampled_np = np.asarray(sampled, dtype=np.int64)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @cached_property
    def depth(self) -> np.ndarray:
        """Per node, its number of parent steps to the root (pointer jumping)."""
        depth = (self.parent != np.arange(len(self.parent))).astype(np.int64)
        up = self.parent
        while (depth[up] > 0).any():
            depth += depth[up]
            up = up[up]
        return depth

    def _build_lifting(self) -> np.ndarray:
        levels = max(1, (self.t - 1).bit_length())
        up = np.empty((levels, len(self.parent)), dtype=np.int64)
        up[0] = self.parent
        for k in range(1, levels):
            up[k] = up[k - 1][up[k - 1]]
        return up

    def level_ancestor(self, v: int, d: int) -> int:
        """The d-th ancestor of v; d must not exceed depth(v)."""
        lift = self.lift
        top = len(lift) - 1
        while d >> top > 1:   # d >= 2^(top+1): above the table
            v = lift[top][v]
            d -= 1 << top
        k = 0
        while d:
            if d & 1:
                v = lift[k][v]
            d >>= 1
            k += 1
        return v

    def locate(self, i: int) -> int:
        """Leaf (by lex rank) whose string starts with w[i..i+t-1], clipped."""
        t = self.t
        k = (i - 1) // t
        d = i - 1 - k * t
        v = self.sampled[k]
        lift = self.lift
        b = 0
        while d:
            if d & 1:
                v = lift[b][v]
            d >>= 1
            b += 1
        return v

    def locate_batch(self, I: np.ndarray) -> np.ndarray:
        """``locate`` for every position of an int64 array, one gather per bit."""
        k = (I - 1) // self.t
        d = I - 1 - k * self.t
        nodes = self.sampled_np[k]
        b = 0
        while d.any():
            take = (d & 1).astype(bool)
            if take.any():
                nodes[take] = self.lift_np[b][nodes[take]]
            d >>= 1
            b += 1
        return nodes


def build_navtree(t: Text, tree: LeafTable, blk: int) -> NavTree:
    """Spanning tree over the 2*blk-gram graph.

    parent(node at i) = node at i+1, taken at the node's rightmost
    occurrence; every node is some position's context, so the relation is a
    tree rooted at the sentinel node, which occurs only at position n.
    """
    if tree.q != 2 * blk:
        raise ValueError("navigation tree needs a trie of depth exactly 2*blk")
    if tree.leaf_of_pos is None:
        raise ValueError("trie is missing its transient position map")
    n = t.n
    lop = tree.leaf_of_pos
    rightmost = np.full(tree.leaf_count, -1, dtype=np.int64)
    np.maximum.at(rightmost, lop[: n - 1], np.arange(n - 1))
    root = int(lop[n - 1])
    parent = lop[rightmost + 1]
    parent[root] = root
    return NavTree(t=blk, n=n, parent=parent, root=root, sampled=lop[::blk].tolist())


def short_lce(nav: NavTree, tree: LeafTable, i: int, j: int) -> int:
    """min(LCE(i, j), t) via two leaf locates and one LCA depth."""
    return min(tree.lca_prefix_len(nav.locate(i), nav.locate(j)), nav.t)

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
    """Parent links over trie leaves and the jump table of sampled pointers.

    ``parent`` maps the root to itself; ``sampled[k]`` is the node of
    position k*t'+1.  ``locate`` climbs d < t' parents from a sampled node,
    so one row per distinct sampled node, holding its ancestors at 0..t'-1
    steps, answers it with one read: min(leaves, ceil(n/t')) * t' entries
    at most (963,584 for the Fibonacci word at n = 1e6, t = t' = 1024).
    ``sampled`` is ``lift_np[0][row_np]``.  ``locate_batch`` is the batch
    ``locate``; ``level_ancestor`` walks parents.
    """

    def __init__(self, t: int, n: int, parent: np.ndarray, root: int,
                 sampled: np.ndarray):
        self.t = t
        self.n = n
        self.parent = parent
        self.root = root
        # lift_np[d][r] is the d-th ancestor of the r-th distinct sampled
        # node and row_np[k] the row of sampled[k], both in their narrowest
        # unsigned dtype; the scalar path reads zero-copy memoryviews
        mark = np.zeros(len(parent), dtype=bool)
        mark[sampled] = True
        nodes = np.flatnonzero(mark)
        row_of = np.empty(len(parent), dtype=np.min_scalar_type(len(nodes) - 1))
        row_of[nodes] = np.arange(len(nodes))
        self.row_np = row_of[sampled]
        self.lift_np = np.empty((t, len(nodes)), dtype=np.min_scalar_type(len(parent) - 1))
        for d in range(t):
            self.lift_np[d] = nodes
            nodes = parent[nodes]
        self.lift = tuple(memoryview(r) for r in self.lift_np)
        self.row = memoryview(self.row_np)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def sampled(self) -> np.ndarray:
        """The node of every t'-th position, as int64 (a fresh array)."""
        return self.lift_np[0][self.row_np].astype(np.int64)

    @cached_property
    def depth(self) -> np.ndarray:
        """Per node, its number of parent steps to the root (pointer jumping)."""
        depth = (self.parent != np.arange(len(self.parent))).astype(np.int64)
        up = self.parent
        while (depth[up] > 0).any():
            depth += depth[up]
            up = up[up]
        return depth

    def level_ancestor(self, v: int, d: int) -> int:
        """The d-th ancestor of v, by a walk of d parent links."""
        parent = self.parent
        for _ in range(d):
            v = parent[v]
        return int(v)

    def locate(self, i: int) -> int:
        """Leaf (by lex rank) whose string starts with w[i..i+t-1], clipped."""
        k, d = divmod(i - 1, self.t)
        return self.lift[d][self.row[k]]

    def locate_batch(self, I: np.ndarray) -> np.ndarray:
        """``locate`` for every position of an int64 array: one int64 gather."""
        k, d = np.divmod(I - 1, self.t)
        return self.lift_np[d, self.row_np[k]].astype(np.int64)


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
    return NavTree(t=blk, n=n, parent=parent, root=root, sampled=lop[::blk])


def short_lce(nav: NavTree, tree: LeafTable, i: int, j: int) -> int:
    """min(LCE(i, j), t) via two leaf locates and one LCA depth."""
    return min(tree.lca_prefix_len(nav.locate(i), nav.locate(j)), nav.t)

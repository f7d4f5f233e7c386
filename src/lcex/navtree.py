"""Spanning-tree navigation over 2t-gram contexts: maps any position to its
trie leaf in O(1) and answers length-capped LCE queries.

Nodes are the leaves of the depth-2t truncated suffix tree.  Scanning the
text right to left, each position's node gets the next position's node as
parent on first visit; walking d ancestors from the node of a sampled
position deletes d leading characters, which recovers the node spelling at
least the first t characters of any position's context.
"""

from __future__ import annotations

import numpy as np

from .textstore import Text
from .tst import TruncatedSuffixTree


class NavTree:
    """Parent links over trie leaves plus a lifting table and sampled pointers.

    ``parent`` maps the root to itself.  ``locate`` climbs fewer than t
    levels, so the lifting table stops at the jump 2^(L-1) with
    L = max(1, bit_length(t-1)); ``level_ancestor`` takes repeated top-level
    jumps for the bits above it.
    """

    def __init__(self, t: int, n: int, parent: np.ndarray, root: int,
                 sampled: list[int]):
        self.t = t
        self.n = n
        self.parent = parent
        self.root = root
        self.sampled = sampled
        self._depth: list[int] | None = None
        # lift_np[k][v] is the 2^k-th ancestor of v (the root maps to itself);
        # the scalar path reads zero-copy memoryviews of its rows
        self.lift_np = self._build_lifting()
        self.lift = tuple(memoryview(row) for row in self.lift_np)
        # numpy mirror for the batch query path
        self.sampled_np = np.asarray(sampled, dtype=np.int64)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def depth(self) -> list[int]:
        """Per node, its number of parent steps to the root; built on first use."""
        if self._depth is None:
            self._depth = self._compute_depths()
        return self._depth

    def _compute_depths(self) -> list[int]:
        parent = self.parent.tolist()
        depth = [-1] * len(parent)
        depth[self.root] = 0
        for v in range(len(parent)):
            if depth[v] >= 0:
                continue
            path = []
            u = v
            while depth[u] < 0:
                path.append(u)
                u = parent[u]
            d = depth[u]
            for w in reversed(path):
                d += 1
                depth[w] = d
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


def build_navtree(t: Text, tree: TruncatedSuffixTree, blk: int) -> NavTree:
    """Spanning tree over the 2*blk-gram graph, built by one right-to-left scan.

    parent(node at i) = node at i+1, assigned at the rightmost occurrence;
    every node is some position's context, so the relation is a tree rooted
    at the sentinel node.
    """
    if tree.q != 2 * blk:
        raise ValueError("navigation tree needs a trie of depth exactly 2*blk")
    if tree.leaf_of_pos is None:
        raise ValueError("trie is missing its transient position map")
    n = t.n
    lop = tree.leaf_of_pos.tolist()
    root = lop[n - 1]
    parent = [-1] * tree.leaf_count
    parent[root] = root
    for i in range(n - 2, -1, -1):
        u = lop[i]
        if parent[u] < 0:
            parent[u] = lop[i + 1]
    sampled = [lop[k] for k in range(0, n, blk)]
    return NavTree(t=blk, n=n, parent=np.asarray(parent, dtype=np.int64), root=root,
                   sampled=sampled)


def short_lce(nav: NavTree, tree: TruncatedSuffixTree, i: int, j: int) -> int:
    """min(LCE(i, j), t) via two leaf locates and one LCA depth."""
    u = nav.locate(i)
    v = nav.locate(j)
    if u == v:
        return min(tree.sdepth[tree.leaves[u]], nav.t)
    return min(tree.lca_prefix_len(u, v), nav.t)

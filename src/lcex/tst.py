"""Truncated suffix tree as a leaf table, and the full compacted trie.

The leaves are the text's depth-q prefix classes (``Text.prefix_classes``):
truncating the sorted suffixes at q keeps them sorted, and each LCP interval
of depth q collapses into one leaf per distinct clipped suffix.  The index
keeps only the LCP-interval view of the trie (Abouelhoda, Kurtz & Ohlebusch
2004): the adjacent-leaf LCPs, the few leaf depths below q and the alphabet.
For the paper's space bounds, ``build_tst`` adds the compacted trie's nodes
by one left-to-right stack sweep over the leaves, and ``compact_reference``
its reference string.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .suffixes import SparseMin
from .textstore import Text


class LeafTable:
    """The leaves of the q-truncated suffix tree in lexicographic order.

    ``leaf_lcp[g]`` is the lcp of leaves g-1 and g, with ``leaf_lcp[0] = 0``.
    Every leaf has depth q except the ``short_leaf`` ranks (ascending), whose
    clipped suffixes reach the end of the text and have depths
    ``short_depth``.  ``alphabet`` is the sorted set of symbols.  Leaf
    strings decode through ``nav_parent``, the navigation tree's parents,
    which the index attaches once it has them.  ``lca_prefix_len_batch`` is
    ``lca_prefix_len`` over arrays of leaf ranks.
    """

    def __init__(self, q: int, n: int, leaf_lcp: np.ndarray, short_leaf: np.ndarray,
                 short_depth: np.ndarray, alphabet: np.ndarray):
        self.q = q
        self.n = n
        self.short_leaf = short_leaf
        self.short_depth = short_depth
        self.alphabet = alphabet
        # every leaf's depth; the scalar path reads a zero-copy memoryview
        self.depth = np.full(len(leaf_lcp), q, dtype=np.min_scalar_type(q))
        self.depth[short_leaf] = short_depth
        self._depth = memoryview(self.depth)
        # range minimum over leaf_lcp, held once as the table's level 0: the
        # LCA depth of two leaves (an old name that perfbench/worker.py reads)
        self.tour_sparse = SparseMin(leaf_lcp)
        self.leaf_lcp = self.tour_sparse.table[0]
        self.nav_parent: np.ndarray | None = None

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_lcp)

    @cached_property
    def node_count(self) -> int:
        """Nodes of the compacted trie: the leaves, the root, and one per LCP
        interval of positive depth.  A positive leaf_lcp entry opens a new
        interval unless the previous entry of the same value is in it, that
        is, no smaller value lies between the two."""
        h = self.leaf_lcp
        order = np.argsort(h, kind="stable")
        hs = h[order]
        k = np.flatnonzero((hs[1:] == hs[:-1]) & (hs[1:] > 0))
        prev, g = order[k], order[k + 1]
        gap = g - prev > 1
        joined = np.ones(len(g), dtype=bool)
        joined[gap] = self.tour_sparse.query_batch(prev[gap] + 1, g[gap] - 1) > h[g[gap]]
        return len(h) + 1 + int(np.count_nonzero(h)) - int(np.count_nonzero(joined))

    @cached_property
    def _decoder(self) -> tuple[list[int], list[int]]:
        # the first symbol changes exactly where adjacent leaves share nothing
        first = self.alphabet[np.cumsum(self.leaf_lcp == 0) - 1]
        return first.tolist(), self.nav_parent.tolist()

    def leaf_string(self, g: int) -> list[int]:
        """str(leaf g): a navigation parent step drops one leading symbol,
        so the string is first(g), first(p(g)), first(p(p(g))), ..."""
        first, parent = self._decoder
        out = []
        for _ in range(self._depth[g]):
            out.append(first[g])
            g = parent[g]
        return out

    def lca_prefix_len(self, leaf_a: int, leaf_b: int) -> int:
        """String depth of the LCA of two leaves (by rank); O(1).

        Leaves are in lexicographic order, so the common prefix of leaves
        a < b is the minimum of the adjacent-leaf LCPs leaf_lcp[a+1..b] (the
        LCP-interval view of the trie); a leaf with itself is its full depth.
        """
        if leaf_a == leaf_b:
            return self._depth[leaf_a]
        if leaf_a > leaf_b:
            leaf_a, leaf_b = leaf_b, leaf_a
        return self.tour_sparse.query(leaf_a + 1, leaf_b)

    def lca_prefix_len_batch(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``lca_prefix_len`` for every lane of two int64 leaf-rank arrays."""
        hi = np.maximum(u, v)
        # lanes with u == v read a dummy in-range cell and are overwritten below
        lo = np.minimum(np.minimum(u, v) + 1, hi)
        val = self.tour_sparse.query_batch(lo, hi).astype(np.int64)
        same = u == v
        if same.any():
            val[same] = self.depth[u[same]]
        return val


def build_leaf_table(t: Text, q: int) -> tuple[LeafTable, np.ndarray, np.ndarray]:
    """The leaves of the q-truncated trie are the text's depth-q prefix
    classes.  Also returns the build-only maps that the navigation tree and
    the reference string read: each 0-based position's leaf rank and each
    leaf's leftmost 0-based occurrence."""
    if not 1 <= q <= t.n:
        raise ValueError(f"q={q} not in [1..{t.n}]")
    sa = t.suffix_array()
    starts, leaf_of_pos = t.prefix_classes(q)
    leaf_lcp = t.lcp_array()[starts]             # lcp[0] = 0, the rest are < q
    depth = np.minimum(t.n - sa[starts], q)
    short = np.flatnonzero(depth < q)
    table = LeafTable(q, t.n, leaf_lcp, short, depth[short], t.arr[sa[starts[leaf_lcp == 0]]])
    return table, leaf_of_pos, np.minimum.reduceat(sa, starts)


class TruncatedSuffixTree(LeafTable):
    """A leaf table plus its compacted trie: ``parent`` per node (-1 at the
    root) and ``leaves``, the leaf node ids in lexicographic order.  Leaf g
    spells ``ref[start[g] : start[g] + depth]``; until ``compact_reference``
    rebases the windows onto a private reference string, ``ref`` is the
    text itself.
    """

    def __init__(self, table: LeafTable, parent: np.ndarray, leaves: list[int],
                 ref: np.ndarray, start: np.ndarray):
        vars(self).update(vars(table))
        self.parent = parent
        self.leaves = leaves
        self.start = start
        self.ref = ref

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def leaf_string(self, g: int) -> list[int]:
        s = int(self.start[g])
        return self.ref[s : s + self._depth[g]].tolist()


def build_tst(t: Text, q: int) -> TruncatedSuffixTree:
    """Build the q-truncated suffix tree with lex-sorted leaves and O(1) LCA
    depth (one range minimum over leaf_lcp).

    One sweep over the leaves in lex order keeps the stack of open nodes;
    leaf windows reference the Text until ``compact_reference`` rebases them.
    """
    table, _, leftmost = build_leaf_table(t, q)
    parent = [-1]
    sdepth = [0]
    leaves = []
    stack = [0]
    for h, length in zip(table.leaf_lcp.tolist(), table.depth.tolist()):
        last = -1
        while sdepth[stack[-1]] > h:
            last = stack.pop()
        top = stack[-1]
        if sdepth[top] < h:
            # split: truncated suffixes are never prefixes of each other, so a
            # strictly deeper node was popped and becomes the new child
            mid = len(parent)
            parent.append(top)
            sdepth.append(h)
            parent[last] = mid
            stack.append(mid)
            top = mid
        leaves.append(len(parent))
        stack.append(len(parent))
        parent.append(top)
        sdepth.append(length)
    return TruncatedSuffixTree(table, np.asarray(parent, dtype=np.int64), leaves, t.arr,
                               leftmost)


def _reference_pieces(leftmost: np.ndarray, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each leaf's leftmost occurrence window [p, min(p+q, n)), with
    overlapping windows merged: the sorted starts and ends of the pieces."""
    starts = np.sort(leftmost)
    ends = np.minimum(starts + q, n)
    new = np.ones(len(starts), dtype=bool)
    new[1:] = starts[1:] > np.maximum.accumulate(ends)[:-1]
    head = np.flatnonzero(new)
    return starts[head], np.maximum.reduceat(ends, head)


def reference_length(leftmost: np.ndarray, q: int, n: int) -> int:
    """Length of the reference string ``compact_reference`` would build from
    the leaves' leftmost occurrences."""
    p_start, p_end = _reference_pieces(leftmost, q, n)
    return int((p_end - p_start).sum())


def compact_reference(tree: TruncatedSuffixTree, t: Text) -> TruncatedSuffixTree:
    """Rebase every leaf window onto a private reference string.

    Each leaf contributes its leftmost occurrence window; overlapping windows
    merge, the surviving pieces concatenate into the reference string, and
    the windows are remapped.  Decoded strings are unchanged and the tree no
    longer references the Text.
    """
    p_start, p_end = _reference_pieces(tree.start, tree.q, tree.n)
    p_len = p_end - p_start
    p_off = np.cumsum(p_len) - p_len
    tree.ref = t.arr[np.repeat(p_start - p_off, p_len) + np.arange(int(p_len.sum()))]
    k = np.searchsorted(p_start, tree.start, side="right") - 1
    tree.start = p_off[k] + (tree.start - p_start[k])
    return tree

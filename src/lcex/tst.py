"""Truncated suffix tree: compacted trie over all q-clipped suffixes.

Construction runs over the suffix array of the text: truncating sorted
suffixes at q keeps them sorted, adjacent duplicates collapse into one leaf
per distinct clipped suffix, and the compacted trie falls out of a single
left-to-right stack sweep over the deduplicated LCP values.
"""

from __future__ import annotations

import numpy as np

from .suffixes import SparseMin
from .textstore import Text


class TruncatedSuffixTree:
    """Compacted trie over the q-clipped suffixes of a text.

    Nodes are parallel arrays: ``parent`` (-1 at the root) and the edge
    window ``estart``/``elen`` into ``ref`` are numpy arrays; ``sdepth`` is a
    list, read with ``leaves`` (leaf node ids in lexicographic order) by the
    scalar query path.  ``leaf_lcp[g]`` is the lcp of leaves g-1 and g, with
    ``leaf_lcp[0] = 0``.  After ``compact_reference`` the edge windows point
    into a private reference string and the original text is no longer
    needed.  Child maps are built on first access; queries never read them.
    """

    def __init__(self, q: int, n: int, parent: np.ndarray, sdepth: list[int],
                 estart: np.ndarray, elen: np.ndarray, leaves: list[int],
                 leaf_lcp: np.ndarray, ref: np.ndarray):
        self.q = q
        self.n = n
        self.parent = parent
        self.sdepth = sdepth
        self.estart = estart
        self.elen = elen
        self.leaves = leaves
        self.leaf_lcp = leaf_lcp
        self.ref = ref
        # range minimum over leaf_lcp: the LCA depth of two leaves (the name
        # predates it; perfbench/worker.py reads the attribute)
        self.tour_sparse = SparseMin(leaf_lcp)
        self._children: list[dict | None] | None = None
        # transient: position -> leaf rank, dropped once dependents are built
        self.leaf_of_pos: np.ndarray | None = None

    # -- structure accessors -------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def children(self) -> list[dict | None]:
        """Per node, its children keyed by first edge symbol (None for leaves)."""
        if self._children is None:
            kids: list[dict | None] = [None] * self.node_count
            first = self.ref[self.estart[1:]].tolist()
            for v, (p, sym) in enumerate(zip(self.parent[1:].tolist(), first), 1):
                c = kids[p]
                if c is None:
                    c = kids[p] = {}
                c[sym] = v
            self._children = kids
        return self._children

    def _label(self, v: int) -> np.ndarray:
        s = int(self.estart[v])
        return self.ref[s : s + int(self.elen[v])]

    def node_string(self, node: int) -> list[int]:
        """Decode str(node) by walking edge windows up to the root."""
        parts = []
        v = node
        while v != 0:
            parts.append(self._label(v))
            v = int(self.parent[v])
        parts.reverse()
        if not parts:
            return []
        return np.concatenate(parts).tolist()

    def leaf_string(self, leaf_rank: int) -> list[int]:
        return self.node_string(self.leaves[leaf_rank])

    def descend_suffix(self, symbols: list[int]) -> int | None:
        """Walk edge labels from the root along ``symbols`` until a leaf.

        Returns the leaf reached, or None when the walk falls off the trie or
        exhausts the input between nodes.  Feeding a whole suffix w[i..n]
        always ends exactly at the leaf spelling its q-clipped form.
        """
        children = self.children
        v = 0
        pos = 0
        while True:
            c = children[v]
            if not c:
                return v
            if pos >= len(symbols):
                return None
            nxt = c.get(symbols[pos])
            if nxt is None:
                return None
            lab = self._label(nxt).tolist()
            take = len(symbols) - pos
            if take < len(lab):
                return None
            if lab != symbols[pos : pos + len(lab)]:
                return None
            pos += len(lab)
            v = nxt

    def lca_prefix_len(self, leaf_a: int, leaf_b: int) -> int:
        """String depth of the LCA of two leaves (by rank); O(1).

        Leaves are in lexicographic order, so the common prefix of leaves
        a < b is the minimum of the adjacent-leaf LCPs leaf_lcp[a+1..b] (the
        LCP-interval view of the trie); a leaf with itself is its full depth.
        """
        if leaf_a == leaf_b:
            return self.sdepth[self.leaves[leaf_a]]
        if leaf_a > leaf_b:
            leaf_a, leaf_b = leaf_b, leaf_a
        return self.tour_sparse.query(leaf_a + 1, leaf_b)


def build_tst(t: Text, q: int) -> TruncatedSuffixTree:
    """Build the q-truncated suffix tree with lex-sorted leaves and O(1) LCA
    depth (one range minimum over leaf_lcp).

    Edges reference the Text until ``compact_reference`` rebases them.
    """
    if not 1 <= q <= t.n:
        raise ValueError(f"q={q} not in [1..{t.n}]")
    n = t.n
    sa = t.suffix_array()
    lcp = t.lcp_array()

    trunc_len = np.minimum(q, n - sa)
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    is_new[1:] = lcp[1:] < q
    group = np.cumsum(is_new) - 1
    starts = np.flatnonzero(is_new)

    leaf_lcp = np.minimum(lcp[starts], q)
    leaf_lcp[0] = 0

    # One sweep over the leaves in lex order.  first[v] is the leftmost
    # occurrence of str(v): a node popped off the stack has its whole subtree
    # built, so it hands its minimum to the node below it.
    parent = [-1]
    sdepth = [0]
    first = [int(sa[0])]
    leaves = []
    stack = [0]
    for h, length, pos in zip(leaf_lcp.tolist(), trunc_len[starts].tolist(),
                              np.minimum.reduceat(sa, starts).tolist()):
        last = -1
        while sdepth[stack[-1]] > h:
            last = stack.pop()
            if first[last] < first[stack[-1]]:
                first[stack[-1]] = first[last]
        top = stack[-1]
        if sdepth[top] < h:
            # split: truncated suffixes are never prefixes of each other, so a
            # strictly deeper node was popped and becomes the new child
            assert last >= 0
            mid = len(parent)
            parent.append(top)
            sdepth.append(h)
            first.append(first[last])
            parent[last] = mid
            stack.append(mid)
            top = mid
        leaves.append(len(parent))
        stack.append(len(parent))
        parent.append(top)
        sdepth.append(length)
        first.append(pos)
    while len(stack) > 1:
        v = stack.pop()
        if first[v] < first[stack[-1]]:
            first[stack[-1]] = first[v]

    par = np.asarray(parent, dtype=np.int64)
    sd = np.asarray(sdepth, dtype=np.int64)
    parent_depth = np.zeros_like(sd)
    parent_depth[1:] = sd[par[1:]]
    estart = np.asarray(first, dtype=np.int64) + parent_depth
    estart[0] = 0
    tree = TruncatedSuffixTree(q=q, n=n, parent=par, sdepth=sdepth, estart=estart,
                               elen=sd - parent_depth, leaves=leaves,
                               leaf_lcp=leaf_lcp, ref=t.arr)
    leaf_of_pos = np.empty(n, dtype=np.int64)
    leaf_of_pos[sa] = group
    tree.leaf_of_pos = leaf_of_pos
    return tree


def compact_reference(tree: TruncatedSuffixTree, t: Text) -> TruncatedSuffixTree:
    """Rebase every edge onto a private reference string.

    Each leaf contributes its leftmost occurrence window; overlapping windows
    merge, the surviving pieces concatenate into the reference string, and all
    edge windows are remapped.  Decoded labels are unchanged and the tree no
    longer references the Text.
    """
    leaves = np.asarray(tree.leaves, dtype=np.int64)
    sd = np.asarray(tree.sdepth, dtype=np.int64)
    # a leaf's edge starts sdepth(parent) past its leftmost occurrence
    starts = np.sort(tree.estart[leaves] - sd[tree.parent[leaves]])   # 0-based
    ends = np.minimum(starts + tree.q, tree.n)                          # half-open
    new = np.ones(len(starts), dtype=bool)
    new[1:] = starts[1:] > np.maximum.accumulate(ends)[:-1]
    head = np.flatnonzero(new)
    p_start = starts[head]
    p_end = np.maximum.reduceat(ends, head)
    p_len = p_end - p_start
    p_off = np.cumsum(p_len) - p_len
    ref = t.arr[np.repeat(p_start - p_off, p_len) + np.arange(int(p_len.sum()))]

    es = tree.estart[1:]
    k = np.searchsorted(p_start, es, side="right") - 1
    assert (es + tree.elen[1:] <= p_end[k]).all(), "edge window escapes its merged piece"
    tree.estart[1:] = p_off[k] + (es - p_start[k])
    tree.ref = ref
    return tree

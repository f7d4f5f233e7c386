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

    Nodes are parallel arrays (parent, string depth, edge window into
    ``ref``); ``leaves`` lists leaf node ids in lexicographic order.  After
    ``compact_reference`` the edge windows point into a private reference
    string and the original text is no longer needed.  Child maps are built
    on first access; queries never read them.
    """

    def __init__(self, q: int, n: int):
        self.q = q
        self.n = n
        self.parent: list[int] = []
        self.sdepth: list[int] = []
        self.estart: list[int] = []
        self.elen: list[int] = []
        self.node_repr: list[int] = []   # build only: leftmost occurrence of str(node), 0-based
        self._children: list[dict | None] | None = None
        self.leaves: list[int] = []
        self.leaf_lcp: list[int] = []    # lcp of adjacent leaf strings, [0] = 0
        self.ref: np.ndarray | None = None
        self.ref_is_private = False
        # per-leaf rank of the depth-t ancestor, 0 reserved for short leaves
        self.tgram_rank: list[int] | None = None
        self.tgram_depth: int | None = None
        self.tgram_count: int = 0
        self.inserted_nodes: int = 0
        # range minimum over leaf_lcp: the LCA depth of two leaves (the name
        # predates it; perfbench/worker.py reads the attribute)
        self.tour_sparse: SparseMin | None = None
        # transient: position -> leaf rank, dropped once dependents are built
        self.leaf_of_pos: np.ndarray | None = None

    # -- structure accessors -------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def _new_node(self, parent: int, sdepth: int, repr_pos: int) -> int:
        nid = len(self.parent)
        self.parent.append(parent)
        self.sdepth.append(sdepth)
        self.estart.append(0)
        self.elen.append(0)
        self.node_repr.append(repr_pos)
        return nid

    @property
    def children(self) -> list[dict | None]:
        """Per node, its children keyed by first edge symbol (None for leaves)."""
        if self._children is None:
            kids: list[dict | None] = [None] * self.node_count
            first = self.ref[np.asarray(self.estart[1:], dtype=np.int64)].tolist()
            parent = self.parent
            for v, sym in enumerate(first, 1):
                c = kids[parent[v]]
                if c is None:
                    c = kids[parent[v]] = {}
                c[sym] = v
            self._children = kids
        return self._children

    def node_string(self, node: int) -> list[int]:
        """Decode str(node) by walking edge windows up to the root."""
        parts = []
        v = node
        while v != 0:
            s, l = self.estart[v], self.elen[v]
            parts.append(self.ref[s : s + l])
            v = self.parent[v]
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
            s, l = self.estart[nxt], self.elen[nxt]
            lab = self.ref[s : s + l].tolist()
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

    # -- construction passes ---------------------------------------------------

    def _finalize_edges(self) -> None:
        """Derive edge windows from node_repr and depths."""
        order = sorted(range(1, self.node_count), key=self.sdepth.__getitem__, reverse=True)
        for v in order:
            p = self.parent[v]
            if self.node_repr[v] < self.node_repr[p]:
                self.node_repr[p] = self.node_repr[v]
        for v in range(1, self.node_count):
            p = self.parent[v]
            self.estart[v] = self.node_repr[v] + self.sdepth[p]
            self.elen[v] = self.sdepth[v] - self.sdepth[p]


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
    m = int(group[-1]) + 1
    starts = np.flatnonzero(is_new)

    leaf_len = trunc_len[starts]
    leaf_lcp = np.minimum(lcp[starts], q)
    leaf_lcp[0] = 0
    leaf_repr = np.minimum.reduceat(sa, starts)

    tree = TruncatedSuffixTree(q=q, n=n)
    tree.ref = t.arr
    root = tree._new_node(parent=-1, sdepth=0, repr_pos=int(sa[0]))
    tree.leaf_lcp = leaf_lcp.tolist()
    tree.tour_sparse = SparseMin(leaf_lcp)

    lens = leaf_len.tolist()
    lcps = tree.leaf_lcp
    reprs = leaf_repr.tolist()
    stack = [root]
    sdepth = tree.sdepth
    parent = tree.parent
    leaves = tree.leaves
    for g in range(m):
        h = lcps[g]
        last = -1
        while sdepth[stack[-1]] > h:
            last = stack.pop()
        top = stack[-1]
        if sdepth[top] < h:
            # split: truncated suffixes are never prefixes of each other, so a
            # strictly deeper node was popped and becomes the new child
            assert last >= 0
            mid = tree._new_node(parent=top, sdepth=h, repr_pos=tree.node_repr[last])
            parent[last] = mid
            stack.append(mid)
            top = mid
        leaf = tree._new_node(parent=top, sdepth=lens[g], repr_pos=reprs[g])
        leaves.append(leaf)
        stack.append(leaf)

    tree._finalize_edges()

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
    q, n = tree.q, tree.n
    intervals = []
    for g, leaf in enumerate(tree.leaves):
        start = tree.node_repr[leaf]
        intervals.append((start, min(start + q, n)))   # 0-based, half-open
    intervals.sort()
    merged: list[list[int]] = []
    for s, e in intervals:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1][1] = e
        else:
            merged.append([s, e])

    out_off = []
    total = 0
    for s, e in merged:
        out_off.append(total)
        total += e - s
    refstr = np.concatenate([t.arr[s:e] for s, e in merged]) if merged else t.arr[:0]

    starts = [s for s, _ in merged]
    import bisect

    def rebase(pos: int, length: int) -> int:
        k = bisect.bisect_right(starts, pos) - 1
        s, e = merged[k]
        assert s <= pos and pos + length <= e, "edge window escapes its merged piece"
        return out_off[k] + (pos - s)

    for v in range(1, tree.node_count):
        if tree.elen[v]:
            tree.estart[v] = rebase(tree.estart[v], tree.elen[v])
    tree.ref = refstr
    tree.ref_is_private = True
    return tree


def mark_tgram_nodes(tree: TruncatedSuffixTree, t: int) -> list[int]:
    """Make every depth-t string an explicit node and rank leaves by it.

    Depth-t nodes receive lexicographic ranks 1..K; each leaf of depth >= t
    records the rank of its depth-t ancestor.  Shorter leaves keep the
    reserved rank 0 and never participate in block ranking.
    """
    if tree.q < t:
        raise ValueError("tree depth is smaller than the block length")
    if tree.ref_is_private:
        raise ValueError("mark t-grams before compacting the reference string")
    m = tree.leaf_count
    ranks = [0] * m
    rank = 0
    split_targets: list[int] = []
    run_min = None   # min adjacent lcp since the previous qualifying leaf
    for g in range(m):
        leaf = tree.leaves[g]
        if g > 0:
            b = tree.leaf_lcp[g]
            run_min = b if run_min is None else min(run_min, b)
        if tree.sdepth[leaf] < t:
            continue
        if rank == 0 or run_min < t:
            rank += 1
            split_targets.append(leaf)
        ranks[g] = rank
        run_min = None

    # Split the edge crossing depth t above one leaf per distinct t-gram.
    inserted = 0
    for leaf in split_targets:
        v = leaf
        while tree.sdepth[tree.parent[v]] >= t:
            v = tree.parent[v]
        if tree.sdepth[v] == t:
            continue
        p = tree.parent[v]
        mid = tree._new_node(parent=p, sdepth=t, repr_pos=tree.node_repr[v])
        tree.estart[mid] = tree.node_repr[v] + tree.sdepth[p]
        tree.elen[mid] = t - tree.sdepth[p]
        tree.parent[v] = mid
        tree.estart[v] = tree.node_repr[v] + t
        tree.elen[v] = tree.sdepth[v] - t
        inserted += 1

    tree.inserted_nodes = inserted
    tree.tgram_rank = ranks
    tree.tgram_depth = t
    tree.tgram_count = rank
    tree._children = None
    return ranks

"""Block-wise LCE over cover positions: rank t-blocks, concatenate per-residue
rank sequences with unique separators, and run suffix-array machinery on the
result so one range-minimum answers floor(LCE/t)."""

from __future__ import annotations

import numpy as np

from .diffcover import CoverIndex
from .suffixes import SparseMin, inverse_permutation, lcp_array, suffix_array
from .textstore import Text


def rank_blocks(t: Text, cover: CoverIndex, t_prime: int) -> np.ndarray:
    """Lexicographic rank of each defined t-block, indexed by 1-based position.

    Read off the text's suffix array: suffixes of length >= t in SA order
    start a new t-gram wherever the LCP run-minimum since the previous one
    is < t (an LCP interval).  With t' = t the ranks are dense over all
    t-grams of the text; with t' < t they are dense over the defined cover
    positions.  Positions outside the cover, or whose block would overrun
    the text, keep the reserved rank 0.
    """
    n, bt = t.n, cover.t
    sa = t.suffix_array()
    lcp = t.lcp_array()
    keep = np.flatnonzero(sa <= n - bt)
    # lcp_next[k] = lcp(sa[k], sa[k+1]); a segment's minimum spans the gap
    # of short suffixes between two kept ones
    lcp_next = np.append(lcp[1:], 0)
    new = np.ones(len(keep), dtype=np.int64)
    new[1:] = np.minimum.reduceat(lcp_next, keep)[:-1] < bt
    full = np.zeros(n + 1, dtype=np.int64)
    full[sa[keep] + 1] = np.cumsum(new)

    defined = cover.defined_positions()
    vals = full[defined]
    if t_prime < bt:
        vals = np.unique(vals, return_inverse=True)[1] + 1
    ranks = np.zeros(n + 1, dtype=np.int64)
    ranks[defined] = vals
    return ranks


class BlockCode:
    """The suffix-array stack of code(w): ``isa`` and the RMQ over ``lcp``
    answer floor(LCE/t) for cover positions in O(1)."""

    def __init__(self, cover: CoverIndex, isa: np.ndarray, lcp: np.ndarray):
        self.t = cover.t
        self.n = cover.n
        self.cover = cover
        self.isa = isa
        self.lcp = lcp
        self.rmq = SparseMin(lcp)
        # the scalar path reads Python ints from a zero-copy view
        self._isa_view = memoryview(isa)

    @property
    def code_len(self) -> int:
        return len(self.isa)

    def long_lce(self, i: int, j: int):
        """floor(LCE(i, j) / t) for cover positions; None when either position
        is outside the cover.  The diagonal returns the count of defined
        blocks from i."""
        cov = self.cover
        n, t = self.n, self.t
        ridx = cov._residue_index
        if not (1 <= i <= n and 1 <= j <= n):
            return None
        ri = ridx[i % t]
        rj = ridx[j % t]
        if ri < 0 or rj < 0:
            return None
        if i == j:
            return (n - i + 1) // t
        if i + t - 1 > n or j + t - 1 > n:
            return 0
        first, start = cov._first_pos, cov._seg_start
        a = self._isa_view[start[ri] + (i - first[ri]) // t]
        b = self._isa_view[start[rj] + (j - first[rj]) // t]
        if a > b:
            a, b = b, a
        return self.rmq.query(a + 1, b)

    def long_lce_batch(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Vectorized ``long_lce`` for distinct cover positions: 0 for lanes
        whose block runs past the text, floor(LCE/t) for the rest."""
        out = np.zeros(len(I), dtype=np.int64)
        fits = np.maximum(I, J) <= self.n - self.t + 1
        I, J = I[fits], J[fits]
        cov = self.cover
        ri = cov.residue_index[I % self.t]
        rj = cov.residue_index[J % self.t]
        ci = cov.seg_start[ri] + (I - cov.first_pos[ri]) // self.t
        cj = cov.seg_start[rj] + (J - cov.first_pos[rj]) // self.t
        a = self.isa[ci]
        b = self.isa[cj]
        out[fits] = self.rmq.query_batch(np.minimum(a, b) + 1, np.maximum(a, b))
        return out


def assemble_code(ranks: np.ndarray, cover: CoverIndex) -> np.ndarray:
    """code(w): the block ranks segment by segment in ascending residue order.

    Separators are the distinct values -1, -2, ... appended after each
    non-empty segment, smaller than every rank so no common prefix crosses a
    segment boundary.
    """
    code = np.empty(cover.code_len, dtype=np.int64)
    ends = (cover.seg_start + cover.seg_len)[cover.seg_len > 0]
    code[ends] = -np.arange(1, len(ends) + 1)
    slots = np.ones(cover.code_len, dtype=bool)
    slots[ends] = False
    code[slots] = ranks[cover.defined_positions()]
    return code


def build_blockcode(ranks: np.ndarray, cover: CoverIndex) -> BlockCode:
    """Sort the suffixes of code(w); only their inverse and LCP are kept."""
    code = assemble_code(ranks, cover)
    sa = suffix_array(code)
    return BlockCode(cover, inverse_permutation(sa), lcp_array(code, sa))

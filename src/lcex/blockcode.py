"""Block-wise LCE over cover positions: rank t-blocks by the text's depth-t
prefix classes, concatenate per-residue rank sequences with unique
separators, and run suffix-array machinery on the result so one
range-minimum answers floor(LCE/t)."""

from __future__ import annotations

import numpy as np

from .diffcover import CoverIndex
from .suffixes import SparseMin, inverse_permutation, lcp_array, suffix_array
from .textstore import Text


def rank_blocks(t: Text, cover: CoverIndex) -> np.ndarray:
    """Lexicographic ranks of the defined t-blocks, in code(w) order (block
    i fills slot ``seg_start[i % t] + (i - 1) // t``).

    The text's depth-t prefix classes are its t-grams in SA order, plus one
    singleton class per suffix shorter than t; counting the whole t-grams
    ranks them.  The ranks are dense over all t-grams of the text, 1-based;
    ``suffix_array(code)`` reads only their order and equalities.
    """
    starts, group = t.prefix_classes(cover.t)
    whole = t.suffix_array()[starts] <= t.n - cover.t
    return np.cumsum(whole)[group[cover.defined_positions() - 1]]


class BlockCode:
    """The suffix-array stack of code(w): ``isa`` and the RMQ over ``lcp``
    answer floor(LCE/t) for cover positions in O(1)."""

    def __init__(self, cover: CoverIndex, isa: np.ndarray, lcp: np.ndarray):
        self.t = cover.t
        self.n = cover.n
        self.cover = cover
        self.isa = isa
        self.rmq = SparseMin(lcp)
        self.lcp = self.rmq.table[0]   # held once, as the RMQ's level 0
        # the scalar path reads Python ints from a zero-copy view
        self._isa_view = memoryview(isa)

    @property
    def code_len(self) -> int:
        return len(self.isa)

    def long_lce(self, i: int, j: int):
        """floor(LCE(i, j) / t) for cover positions; None when either position
        is outside the cover.  The diagonal returns the count of defined
        blocks from i."""
        n, t = self.n, self.t
        if not (1 <= i <= n and 1 <= j <= n):
            return None
        start = self.cover._seg_start
        si, sj = start[i % t], start[j % t]
        if si < 0 or sj < 0:
            return None
        if i == j:
            return (n - i + 1) // t
        if i + t - 1 > n or j + t - 1 > n:
            return 0
        a = self._isa_view[si + (i - 1) // t]
        b = self._isa_view[sj + (j - 1) // t]
        if a > b:
            a, b = b, a
        return self.rmq.query(a + 1, b)

    def long_lce_batch(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Vectorized ``long_lce`` for distinct cover positions: 0 for lanes
        whose block runs past the text, floor(LCE/t) for the rest."""
        t = self.t
        out = np.zeros(len(I), dtype=np.int64)
        fits = np.maximum(I, J) <= self.n - t + 1
        I, J = I[fits], J[fits]
        start = self.cover.seg_start
        a = self.isa[start[I % t] + (I - 1) // t]
        b = self.isa[start[J % t] + (J - 1) // t]
        out[fits] = self.rmq.query_batch(np.minimum(a, b) + 1, np.maximum(a, b))
        return out


def assemble_code(ranks: np.ndarray, cover: CoverIndex) -> np.ndarray:
    """code(w) from the defined blocks' ranks in code order (``rank_blocks``).

    Separators are the distinct values -1, -2, ... inserted after each
    non-empty segment, smaller than every rank so no common prefix crosses a
    segment boundary.
    """
    lens = cover.seg_len[cover.seg_len > 0]
    return np.insert(np.asarray(ranks, dtype=np.int64), np.cumsum(lens),
                     -np.arange(1, len(lens) + 1))


def build_blockcode(ranks: np.ndarray, cover: CoverIndex) -> BlockCode:
    """Sort the suffixes of code(w); only their inverse and LCP are kept."""
    code = assemble_code(ranks, cover)
    sa = suffix_array(code)
    return BlockCode(cover, inverse_permutation(sa), lcp_array(code, sa))

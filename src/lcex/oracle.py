"""Ground-truth LCE answers: naive scan and the classical ISA+LCP+RMQ stack."""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange
from .suffixes import SparseMin, inverse_permutation, lcp_array, suffix_array
from .textstore import Text


def naive_lce(t: Text, i: int, j: int) -> int:
    """Character-by-character longest common extension; O(result) time."""
    t.check_range(i, j)
    s = t.symbols()
    n = t.n
    a, b = i - 1, j - 1
    k = 0
    while a + k < n and b + k < n and s[a + k] == s[b + k]:
        k += 1
    return k


def naive_lce_table(t: Text) -> np.ndarray:
    """All-pairs LCE table, T[i, j] 1-based; the exhaustive test oracle."""
    n = t.n
    s = t.arr
    table = np.zeros((n + 2, n + 2), dtype=np.int32)
    for i in range(n, 0, -1):
        eq = s[i - 1] == s[i - 1 :]
        table[i, i:n + 1] = np.where(eq, table[i + 1, i + 1 : n + 2] + 1, 0)
        table[i:n + 1, i] = table[i, i:n + 1]
    return table


class IsaOracle:
    """Inverse suffix array + LCP + RMQ over the raw text; O(1) queries."""

    def __init__(self, t: Text):
        self.n = t.n
        self.sa = suffix_array(t.arr)
        self.isa = inverse_permutation(self.sa)
        self.lcp = lcp_array(t.arr, self.sa)
        self.rmq = SparseMin(self.lcp)
        self._isa_list = self.isa.tolist()

    def lce(self, i: int, j: int) -> int:
        """LCE for distinct positions via one range-minimum over the LCP array."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise OutOfRange(f"positions ({i},{j}) not in [1..{self.n}]")
        if i == j:
            return self.n - i + 1
        a = self._isa_list[i - 1]
        b = self._isa_list[j - 1]
        if a > b:
            a, b = b, a
        return self.rmq.query(a + 1, b)

    def lce_batch(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        a = self.isa[I - 1]
        b = self.isa[J - 1]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        out = np.zeros(len(I), dtype=np.int64)
        off = lo != hi
        if off.any():
            out[off] = self.rmq.query_batch(lo[off] + 1, hi[off])
        diag = ~off
        if diag.any():
            out[diag] = self.n - I[diag] + 1
        return out

    def nbytes(self) -> int:
        """Bytes held by the query structures (arrays plus the RMQ table)."""
        return self.sa.nbytes + self.isa.nbytes + self.lcp.nbytes + self.rmq.table.nbytes

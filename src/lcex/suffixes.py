"""Suffix array, LCP array, and range-minimum plumbing used across modules."""

from __future__ import annotations

import numpy as np

_SMALL_N = 96


def suffix_array(seq: np.ndarray) -> np.ndarray:
    """Suffix array of an integer sequence, O(n log n) prefix doubling.

    Small inputs are sorted directly; larger ones go through numpy lexsort
    rounds.  Works for any integer dtype, negatives included.
    """
    n = len(seq)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n <= _SMALL_N:
        lst = seq.tolist()
        order = sorted(range(n), key=lambda i: lst[i:])
        return np.asarray(order, dtype=np.int64)
    _, rank = np.unique(seq, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    idx = np.arange(n, dtype=np.int64)
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        sa = np.lexsort((key2, rank))
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (rank[sa[1:]] != rank[sa[:-1]]) | (key2[sa[1:]] != key2[sa[:-1]])
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[sa] = np.cumsum(changed)
        rank = new_rank
        if rank[sa[-1]] == n - 1 or k >= n:
            return sa
        k *= 2


def inverse_permutation(sa: np.ndarray) -> np.ndarray:
    isa = np.empty(len(sa), dtype=np.int64)
    isa[sa] = np.arange(len(sa), dtype=np.int64)
    return isa


def lcp_array(seq: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """LCP array by Kasai's algorithm; lcp[k] = lcp(suffix sa[k-1], suffix sa[k])."""
    n = len(sa)
    lcp = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return lcp
    isa = inverse_permutation(sa)
    s = seq.tolist()
    sa_l = sa.tolist()
    isa_l = isa.tolist()
    out = lcp.tolist()
    k = 0
    for i in range(n):
        r = isa_l[i]
        if r == 0:
            k = 0
            continue
        j = sa_l[r - 1]
        while i + k < n and j + k < n and s[i + k] == s[j + k]:
            k += 1
        out[r] = k
        if k:
            k -= 1
    return np.asarray(out, dtype=np.int64)


def log2_table(n: int) -> np.ndarray:
    """Lookup of floor(log2(x)) for x in [0..n]; entry 0 is unused."""
    table = np.zeros(n + 1, dtype=np.uint8)
    for k in range(1, n.bit_length()):
        table[1 << k : 1 << (k + 1)] = k
    return table


class SparseMin:
    """Static range-minimum over an integer array; O(1) value queries.

    Batch queries gather from the numpy table; scalar queries read a
    zero-copy memoryview of it, which avoids per-element numpy boxing.
    """

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values, dtype=np.int32)
        self.size = len(vals)
        self.log2 = log2_table(max(1, self.size))
        levels = 1 if self.size <= 1 else int(self.log2[self.size]) + 1
        table = np.empty((levels, self.size), dtype=np.int32)
        if self.size:
            table[0] = vals
        for k in range(1, levels):
            half = 1 << (k - 1)
            m = self.size - (1 << k) + 1
            np.minimum(table[k - 1, :m], table[k - 1, half : half + m], out=table[k, :m])
        self.table = table
        self._flat = memoryview(table.reshape(-1))

    def query(self, lo: int, hi: int) -> int:
        """Minimum of values[lo..hi], both ends inclusive."""
        flat = self._flat
        k = int(hi - lo + 1).bit_length() - 1
        base = k * self.size
        a = flat[base + lo]
        b = flat[base + hi - (1 << k) + 1]
        return a if a < b else b

    def query_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        k = self.log2[hi - lo + 1].astype(np.int64)
        left = self.table[k, lo]
        right = self.table[k, hi - (np.int64(1) << k) + 1]
        return np.minimum(left, right)

"""Suffix array, LCP array, and range-minimum plumbing used across modules.

Both arrays are numpy throughout.  ``suffix_array`` is prefix doubling
(Manber & Myers 1993) that starts from packed q-grams and sorts one int64
key per round; ``lcp_array`` computes the permuted LCP array (Kärkkäinen,
Manzini & Puglisi 2009), comparing text only at its irreducible entries.
"""

from __future__ import annotations

import numpy as np

# lcp_array works on blocks of _LCP_BUF text positions and compares at most
# _LCP_BUF symbol pairs per step, so its temporaries stay a few hundred KB at
# any n.  Comparison windows start _LCP_FIRST_WIDTH symbols wide and double.
_LCP_BUF = 1 << 16
_LCP_FIRST_WIDTH = 8


def suffix_array(seq: np.ndarray) -> np.ndarray:
    """Suffix array of an integer sequence by prefix doubling: at most
    log2(n) rounds, each one sort of n int64 keys.

    Works for any integer dtype, negatives included, and needs no unique
    terminator: a suffix that is a prefix of another sorts first.  Once the
    suffixes are ranked 1..m by their first k symbols (0 marks the end of
    the text), one int64 key packs the ranks at i, i+k, ..., i+(c-1)k with
    c = 63 // bits(m), so a sort of the keys ranks the first c*k symbols.
    The first round packs the symbols themselves (q-grams), and while m is
    small, as on Fibonacci-like text, k grows more than twofold per round.
    The sort need not be stable: the last round's keys are all distinct.
    """
    n = len(seq)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    alphabet = np.unique(seq)
    rank = np.searchsorted(alphabet, seq).astype(np.int64, copy=False)
    rank += 1
    m = len(alphabet)
    del alphabet
    key = np.empty(n, dtype=np.int64)
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    k = 1
    while True:
        bits = m.bit_length()
        c = min(63 // bits, -(-n // k))     # (c-1)*k < n: no all-zero slots
        key[:] = rank
        for j in range(1, c):
            key <<= bits
            key[: n - j * k] |= rank[j * k :]
        sa = np.argsort(key)
        np.take(key, sa, out=rank)          # rank holds the sorted keys here
        np.not_equal(rank[1:], rank[:-1], out=changed[1:])
        np.cumsum(changed, out=key)         # dense 1-based ranks in SA order
        m = int(key[-1])
        if m == n:
            return sa
        rank[sa] = key
        del sa
        k *= c


def inverse_permutation(sa: np.ndarray) -> np.ndarray:
    isa = np.empty(len(sa), dtype=np.int64)
    isa[sa] = np.arange(len(sa), dtype=np.int64)
    return isa


def _match_lengths(seq: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """lcp of the suffixes at a[x] and b[x] (a[x] != b[x]), pairwise.

    Compares windows whose width doubles from ``_LCP_FIRST_WIDTH`` for the
    pairs still matching, with at most ``_LCP_BUF`` symbol pairs per step.
    """
    n = len(seq)
    out = np.zeros(len(a), dtype=np.int64)
    live = np.arange(len(a))
    width = _LCP_FIRST_WIDTH
    while len(live):
        step = max(1, _LCP_BUF // width)
        offs = np.arange(width)
        nxt = []
        for lo in range(0, len(live), step):
            idx = live[lo : lo + step]
            done = out[idx]
            pa = (a[idx] + done)[:, None] + offs
            pb = (b[idx] + done)[:, None] + offs
            ok = np.maximum(pa, pb) < n
            np.minimum(pa, n - 1, out=pa)
            np.minimum(pb, n - 1, out=pb)
            ok &= seq[pa] == seq[pb]
            run = np.where(ok.all(axis=1), width, ok.argmin(axis=1))
            out[idx] = done + run
            nxt.append(idx[run == width])
        live = np.concatenate(nxt)
        width = min(2 * width, _LCP_BUF)
    return out


def lcp_array(seq: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """LCP array; lcp[k] = lcp(suffix sa[k-1], suffix sa[k]) and lcp[0] = 0.

    Goes through the permuted array plcp[i] = lcp(i, phi[i]), where phi[i]
    is the suffix just before i in SA order.  Entry i is reducible when
    phi[i-1] = phi[i]-1 and seq[i-1] = seq[phi[i]-1]: then plcp[i] =
    plcp[i-1]-1.  (The first condition always holds after a unique
    terminator; without one it can fail.)  Only irreducible entries compare
    symbols.  plcp[i] + i never decreases, so a running maximum over the
    irreducible entries' plcp[i] + i fills in the rest.  Exact, and equal to
    Kasai's.
    """
    n = len(sa)
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    phi = np.empty(n, dtype=np.int64)
    phi[sa[1:]] = sa[:-1]
    phi[sa[0]] = -1
    # phi becomes plcp[i] + i at irreducible i and 0 elsewhere, one block at
    # a time; before carries phi[s-1] past its overwrite (-3 at s = 0, where
    # it can equal no phi[0] - 1)
    before = -3
    for s in range(0, n, _LCP_BUF):
        e = min(n, s + _LCP_BUF)
        ph = phi[s:e].copy()
        j = ph - 1
        reducible = j >= 0
        reducible[0] &= before == j[0]
        reducible[1:] &= ph[:-1] == j[1:]
        reducible &= seq.take(np.arange(s - 1, e - 1)) == seq.take(np.maximum(j, 0))
        before = ph[-1]
        irr = np.flatnonzero(~reducible)
        pos = irr + s
        partner = ph[irr]
        has = partner >= 0
        val = pos.copy()
        val[has] += _match_lengths(seq, pos[has], partner[has])
        block = phi[s:e]
        block[:] = 0
        block[irr] = val
    np.maximum.accumulate(phi, out=phi)
    lcp = phi[sa]
    lcp -= sa
    return lcp


def log2_table(n: int) -> np.ndarray:
    """Lookup of floor(log2(x)) for x in [0..n]; entry 0 is unused."""
    table = np.zeros(n + 1, dtype=np.uint8)
    for k in range(1, n.bit_length()):
        table[1 << k : 1 << (k + 1)] = k
    return table


class SparseMin:
    """Static range-minimum over an integer array; O(1) value queries.

    Batch queries gather from the numpy table; scalar queries read a
    zero-copy memoryview of it, which avoids per-element numpy boxing.  The
    table takes the narrowest unsigned dtype that holds non-negative values
    (leaf LCPs fit uint8, a block code's LCPs mostly uint16), else int32;
    batch callers cast the minima before doing arithmetic on them.
    """

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values)
        self.size = len(vals)
        dtype = np.int32
        if self.size and int(vals.min()) >= 0:
            top = int(vals.max())
            dtype = np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16 else np.uint32
        self.log2 = log2_table(max(1, self.size))
        levels = 1 if self.size <= 1 else int(self.log2[self.size]) + 1
        table = np.empty((levels, self.size), dtype=dtype)
        if self.size:
            table[0] = vals
        for k in range(1, levels):
            half = 1 << (k - 1)
            m = self.size - (1 << k) + 1
            np.minimum(table[k - 1, :m], table[k - 1, half : half + m], out=table[k, :m])
            # a rank past the minima, as a corrupt container can give, reads
            # zeros, not whatever memory the allocator handed back
            table[k, m:] = 0
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

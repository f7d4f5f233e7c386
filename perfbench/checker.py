"""Answer check made apart from the program under test.

An answer l to LCE(i, j) is right exactly when the l symbols from i and
from j agree and then either the next symbols differ or a suffix ends.  The
second half is checked symbol by symbol.  The first half compares Karp-Rabin
fingerprints of the two windows under two independent 31-bit primes, so a
wrong answer passes with probability below 2^-60; nothing here shares code
with the suffix arrays, LCP arrays or sparse tables of the index.
"""

from __future__ import annotations

import numpy as np

_PRIMES = (2_147_483_647, 2_147_483_629)
_BASES = (1_000_003, 911_382_323)


def _powers(base: int, p: int, count: int) -> np.ndarray:
    pw = np.empty(count, dtype=np.int64)
    pw[0] = 1
    filled = 1
    while filled < count:
        step = min(filled, count - filled)
        pw[filled:filled + step] = pw[:step] * (pw[filled - 1] * base % p) % p
        filled += step
    return pw


class TextChecker:
    """Prefix fingerprints of one text (0-based integer symbols)."""

    def __init__(self, sym: np.ndarray):
        self.sym = np.asarray(sym, dtype=np.int64)
        self.n = len(self.sym)
        c = self.sym - self.sym.min() + 1
        self._tables = []
        for base, p in zip(_BASES, _PRIMES):
            pw = _powers(base, p, self.n + 1)
            prefix = np.zeros(self.n + 1, dtype=np.int64)
            prefix[1:] = np.cumsum(c * pw[:-1] % p) % p
            self._tables.append((p, base, pw, prefix))

    def windows_equal(self, a: np.ndarray, b: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Whether sym[a:a+length] == sym[b:b+length], lane by lane (0-based,
        windows must lie inside the text)."""
        ok = np.ones(len(a), dtype=bool)
        for p, _, pw, prefix in self._tables:
            ha = (prefix[a + length] - prefix[a]) % p
            hb = (prefix[b + length] - prefix[b]) % p
            ok &= ha * pw[b] % p == hb * pw[a] % p
        return ok

    def check(self, i, j, ans) -> np.ndarray:
        """Boolean mask of the answers that are right, for 1-based pairs."""
        i = np.asarray(i, dtype=np.int64).ravel()
        j = np.asarray(j, dtype=np.int64).ravel()
        ans = np.asarray(ans, dtype=np.int64).ravel()
        n = self.n
        a, b = i - 1, j - 1
        ok = (a >= 0) & (b >= 0) & (a < n) & (b < n) & (ans >= 0)
        ok &= (a + ans <= n) & (b + ans <= n)
        a, b, ln = np.where(ok, a, 0), np.where(ok, b, 0), np.where(ok, ans, 0)
        ok &= self.windows_equal(a, b, ln)
        ea, eb = a + ln, b + ln
        ends = (ea == n) | (eb == n)
        ok &= ends | (self.sym[np.minimum(ea, n - 1)] != self.sym[np.minimum(eb, n - 1)])
        return ok


def window_hashes(sym: np.ndarray, width: int) -> np.ndarray:
    """One int64 key per window sym[p:p+width], p = 0..n-width: both
    fingerprints packed together."""
    chk = TextChecker(sym)
    p0 = np.arange(chk.n - width + 1, dtype=np.int64)
    keys = np.zeros(len(p0), dtype=np.int64)
    for p, base, _, prefix in chk._tables:
        # divide out the start power so that equal windows get equal keys
        h = (prefix[p0 + width] - prefix[p0]) % p
        inv = _powers(pow(base, p - 2, p), p, len(p0))
        keys = keys * p + h * inv % p
    return keys

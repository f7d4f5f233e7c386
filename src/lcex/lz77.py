"""Self-referential LZ77 factorization via suffix array + longest previous factor.

Used for space accounting and parameter tuning only; queries never touch it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .suffixes import SparseMin
from .textstore import Text, substring


@dataclass(frozen=True)
class Literal:
    symbol: int


@dataclass(frozen=True)
class Copy:
    src: int   # 1-based start of an earlier occurrence
    length: int


@dataclass
class LZFactorization:
    """Greedy leftmost factorization of a Text, sentinel factor included.

    ``z`` excludes the final sentinel literal; ``z_total`` counts every factor.
    """

    factors: list
    z: int
    z_total: int

    def factor_strings(self, t: Text) -> list[bytes]:
        out = []
        pos = 1
        for f in self.factors:
            ln = 1 if isinstance(f, Literal) else f.length
            out.append(substring(t, pos, pos + ln - 1))
            pos += ln
        return out


def longest_previous_factors(sa: np.ndarray, lcp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LPF and source arrays from a sequence's suffix and LCP arrays: for
    each 0-based i, the longest match length starting at some src < i, and
    one such src (-1 when none)."""
    n = len(sa)
    rmq = SparseMin(lcp)

    # Nearest SA neighbours that start earlier in the text, via monotonic stacks.
    prev_slot = np.full(n, -1, dtype=np.int64)
    next_slot = np.full(n, -1, dtype=np.int64)
    stack: list[int] = []
    sa_l = sa.tolist()
    for k in range(n):
        while stack and sa_l[stack[-1]] > sa_l[k]:
            stack.pop()
        prev_slot[k] = stack[-1] if stack else -1
        stack.append(k)
    stack.clear()
    for k in range(n - 1, -1, -1):
        while stack and sa_l[stack[-1]] > sa_l[k]:
            stack.pop()
        next_slot[k] = stack[-1] if stack else -1
        stack.append(k)

    lpf = np.zeros(n, dtype=np.int64)
    src = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        i = sa_l[k]
        best, best_src = 0, -1
        p = prev_slot[k]
        if p >= 0:
            l = rmq.query(p + 1, k)
            if l > best:
                best, best_src = l, sa_l[p]
        q = next_slot[k]
        if q >= 0:
            l = rmq.query(k + 1, q)
            if l > best:
                best, best_src = l, sa_l[q]
        lpf[i] = best
        src[i] = best_src
    return lpf, src


def lz77_factorize(t: Text) -> LZFactorization:
    """Greedy leftmost factorization; the sentinel always ends as a literal."""
    lpf, src = longest_previous_factors(t.suffix_array(), t.lcp_array())
    factors = []
    syms = t.symbols()
    i = 0
    while i < t.n:
        if lpf[i] == 0:
            factors.append(Literal(syms[i]))
            i += 1
        else:
            ln = int(lpf[i])
            factors.append(Copy(src=int(src[i]) + 1, length=ln))
            i += ln
    z_total = len(factors)
    last = factors[-1]
    z = z_total - 1 if isinstance(last, Literal) and last.symbol == t.sentinel else z_total
    return LZFactorization(factors=factors, z=z, z_total=z_total)


def decode_factors(fact: LZFactorization) -> list[int]:
    """Re-expand a factorization to its symbol sequence (test oracle)."""
    out: list[int] = []
    for f in fact.factors:
        if isinstance(f, Literal):
            out.append(f.symbol)
        else:
            for k in range(f.length):
                out.append(out[f.src - 1 + k])
    return out

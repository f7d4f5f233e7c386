"""Difference covers of Z_t, the derived position cover S(t), and the O(1)
alignment offset h(i, j)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

# Hand-verified minimal covers for small moduli.  Every entry is checked for
# the coverage identity at build time; larger moduli use the Wichmann-ruler
# construction below.  The t=5 entry is the classic perfect cover {1,2,4}.
_SMALL_COVERS = {
    1: (0,),
    2: (0, 1),
    3: (0, 1),
    4: (0, 1, 2),
    5: (1, 2, 4),
    6: (0, 1, 3),
    7: (1, 2, 4),
    8: (0, 1, 2, 4),
    9: (0, 1, 2, 4),
    13: (0, 1, 3, 9),
}


def _wichmann_cover(t: int) -> tuple[int, ...]:
    """Marks of a Wichmann ruler of length >= floor(t/2), reduced mod t.

    For r, s >= 0 the ruler with gaps 1^r, r+1, (2r+1)^r, (4r+3)^s,
    (2r+2)^(r+1), 1^r has 4r+s+3 marks and length L = 4r(r+s+2) + 3(s+1),
    and measures every distance 0..L (Wichmann 1963).  Every d in Z_t has d
    or t-d in 0..floor(t/2), so once L >= floor(t/2) the marks mod t are a
    t-difference cover.  The (r, s) with the fewest marks, the smallest r on
    a tie, gives |D| <= ceil(sqrt(1.5 t)) + 3 for t >= 16 (Colbourn & Ling
    2000), about two thirds of a sqrt(t)-spaced block cover.
    """
    half = t // 2
    best = None
    r = 0
    while best is None or 4 * r + 3 < best[0]:
        # the fewest (4r+3)-gaps that stretch the ruler to half
        s = max(0, -(-(half - 4 * r * (r + 2) - 3) // (4 * r + 3)))
        if best is None or 4 * r + s + 3 < best[0]:
            best = (4 * r + s + 3, r, s)
        r += 1
    _, r, s = best
    gaps = ([1] * r + [r + 1] + [2 * r + 1] * r + [4 * r + 3] * s
            + [2 * r + 2] * (r + 1) + [1] * r)
    return tuple(sorted({x % t for x in accumulate(gaps, initial=0)}))


@dataclass
class DifferenceCover:
    """A t-difference-cover D with the offset table hdelta.

    hdelta[d] is the smallest x in D with (x+d) mod t in D; it exists for
    every d because differences of D cover Z_t.  ``h_batch`` is the batch ``h``.
    """

    t: int
    members: tuple
    hdelta: np.ndarray = field(repr=False)   # int64; h reads it through a memoryview

    def __post_init__(self):
        self._hdelta = memoryview(self.hdelta)

    def h(self, i: int, j: int) -> int:
        """Offset delta in [0..t-1] with i+delta and j+delta both in S(t).

        Callers keep i, j <= n-t+1, so the shifted positions stay in [1..n].
        """
        t = self.t
        return (self._hdelta[(j - i) % t] - i) % t

    def h_batch(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """``h`` for every lane of two int64 position arrays."""
        return (self.hdelta[(J - I) % self.t] - I) % self.t


@lru_cache(maxsize=None)
def build_difference_cover(t: int) -> DifferenceCover:
    """Deterministic t-difference-cover with a fully populated hdelta table,
    in O(|D|^2 + t): the smallest x over the pairs (x, y) of each difference
    (y - x) mod t."""
    if t < 1:
        raise ValueError("modulus must be >= 1")
    members = _SMALL_COVERS.get(t) or _wichmann_cover(t)
    d = np.asarray(members, dtype=np.int64)
    hdelta = np.full(t, t, dtype=np.int64)
    np.minimum.at(hdelta, ((d[None, :] - d[:, None]) % t).ravel(), np.repeat(d, len(d)))
    if hdelta.max() == t:
        raise AssertionError(f"residue {int(hdelta.argmax())} not covered for t={t}")
    return DifferenceCover(t=t, members=tuple(members), hdelta=hdelta)


@dataclass
class CoverIndex:
    """S(t) membership plus the layout of code(w), both indexed by residue.

    Residue x's segment lists the ranks of the blocks at x, x+t, ... (from t
    when x = 0) while the block fits inside [1..n]; segments follow in
    ascending residue order, each non-empty one closed by a separator.
    ``seg_start[x]`` is the segment's 0-based offset in code(w), -1 when x is
    not in D; ``seg_len[x]`` its number of defined blocks, 0 outside D.
    Every segment's first position lies in [1..t], so block i sits at slot
    ``seg_start[i % t] + (i - 1) // t``.
    """

    t: int
    n: int
    dc: DifferenceCover
    seg_start: np.ndarray
    seg_len: np.ndarray
    code_len: int

    def __post_init__(self):
        # a list mirror keeps the scalar query path off numpy scalar boxing
        self._seg_start = self.seg_start.tolist()

    def in_cover(self, i: int) -> bool:
        return 1 <= i <= self.n and self._seg_start[i % self.t] >= 0

    def pos_in_code(self, i: int) -> int:
        """0-based position of block i inside code(w); block must be defined."""
        return self._seg_start[i % self.t] + (i - 1) // self.t

    def positions(self) -> list[int]:
        """All cover positions in [1..n], ascending."""
        idx = np.arange(1, self.n + 1)
        return idx[self.seg_start[idx % self.t] >= 0].tolist()

    def defined_positions(self) -> np.ndarray:
        """Cover positions whose t-block fits inside [1..n], in code(w) order."""
        t = self.t
        return np.concatenate([(x or t) + t * np.arange(self.seg_len[x], dtype=np.int64)
                               for x in self.dc.members])


def build_cover_index(dc: DifferenceCover, n: int) -> CoverIndex:
    if n < 1:
        raise ValueError("n must be >= 1")
    t = dc.t
    d = np.asarray(dc.members, dtype=np.int64)
    first = np.where(d == 0, t, d)
    length = np.maximum((n - t + 1 - first) // t + 1, 0)
    width = length + (length > 0)            # blocks plus the separator
    seg_start = np.full(t, -1, dtype=np.int64)
    seg_start[d] = np.cumsum(width) - width
    seg_len = np.zeros(t, dtype=np.int64)
    seg_len[d] = length
    return CoverIndex(t=t, n=n, dc=dc, seg_start=seg_start, seg_len=seg_len,
                      code_len=int(width.sum()))

"""Input text: bytes remapped to 1..sigma-1 with the sentinel 0 appended,
addressed 1..n."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import suffixes
from .errors import EmptyInput, OutOfRange

DISPLAY_SENTINEL = ord("$")


@dataclass
class Text:
    """A sentinel-terminated symbol string, addressed 1..n.

    ``arr`` holds internal symbol values; position ``i`` lives at ``arr[i-1]``.
    The original bytes are remapped to ``1..sigma-1`` in byte order and the
    sentinel is 0 (lexicographically smallest); ``remap`` translates
    internal values back to original bytes.
    """

    arr: np.ndarray
    n: int
    sigma: int
    remap: np.ndarray | None = None
    sentinel: ClassVar[int] = 0
    _symbols: list | None = field(default=None, repr=False, compare=False)
    _sa: np.ndarray | None = field(default=None, repr=False, compare=False)
    _lcp: np.ndarray | None = field(default=None, repr=False, compare=False)

    def symbols(self) -> list:
        """Internal symbols as a plain list (cached; fast for scalar scans)."""
        if self._symbols is None:
            self._symbols = self.arr.tolist()
        return self._symbols

    def suffix_array(self) -> np.ndarray:
        """Suffix array of the text (0-based starts; cached, sorted once)."""
        if self._sa is None:
            self._sa = suffixes.suffix_array(self.arr)
        return self._sa

    def lcp_array(self) -> np.ndarray:
        """LCP array over ``suffix_array()``; lcp[k] is the common prefix of
        the suffixes at sa[k-1] and sa[k], lcp[0] = 0 (cached)."""
        if self._lcp is None:
            self._lcp = suffixes.lcp_array(self.arr, self.suffix_array())
        return self._lcp

    def prefix_classes(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Group the suffixes by their first k >= 1 symbols, clipped at the
        end of the text: the depth-k LCP intervals, in SA order.  Returns the
        SA slots where a group starts (``lcp < k``) and each 0-based
        position's 0-based group."""
        is_new = self.lcp_array() < k
        ids = np.cumsum(is_new)
        ids -= 1
        group = np.empty(self.n, dtype=np.int64)
        group[self.suffix_array()] = ids
        return np.flatnonzero(is_new), group

    def symbol(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRange(f"position {i} not in [1..{self.n}]")
        return int(self.arr[i - 1])

    def check_range(self, *positions: int) -> None:
        for p in positions:
            if not 1 <= p <= self.n:
                raise OutOfRange(f"position {p} not in [1..{self.n}]")


def load_text(raw: bytes) -> Text:
    """Build a Text from raw bytes: each byte is remapped to its rank
    ``1..sigma-1`` among the distinct bytes, and the sentinel 0, strictly
    smaller than every symbol, is appended."""
    if len(raw) == 0:
        raise EmptyInput("input must be non-empty")
    vals = np.frombuffer(bytes(raw), dtype=np.uint8)
    uniq = np.unique(vals)
    table = np.zeros(256, dtype=np.uint16)
    table[uniq] = np.arange(1, len(uniq) + 1, dtype=np.uint16)
    sigma = len(uniq) + 1
    arr = np.empty(len(raw) + 1, dtype=np.uint8 if sigma <= 255 else np.uint16)
    arr[:-1] = table[vals]
    arr[-1] = 0
    remap = np.empty(sigma, dtype=np.uint8)
    remap[0] = DISPLAY_SENTINEL
    remap[1:] = uniq
    return Text(arr=arr, n=len(arr), sigma=sigma, remap=remap)


def load_file(path: str) -> Text:
    """Read a file as uninterpreted bytes and wrap it in a Text."""
    with open(path, "rb") as fh:
        return load_text(fh.read())


def substring(t: Text, i: int, j: int) -> bytes:
    """Return positions i..j inclusive, expressed on original symbols; the
    sentinel renders as ``$`` (display convention)."""
    if not (1 <= i <= j <= t.n):
        raise OutOfRange(f"substring range ({i},{j}) not within [1..{t.n}]")
    return t.remap[t.arr[i - 1 : j]].tobytes()

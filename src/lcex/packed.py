"""Small-alphabet variant: the text as a packed bit string.

Capped bit-LCE needs no tree at all: one unaligned word fetch per side, an
exclusive-or, and a leading-zero count.  Whole-word runs reuse the block-code
machinery over the bit string, with word values themselves acting as block
ranks (most-significant-first packing makes numeric order lexicographic).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .blockcode import BlockCode, build_blockcode
from .diffcover import CoverIndex, build_cover_index, build_difference_cover
from .errors import OutOfRange
from .lce import _compose
from .textstore import Text

_PAD = 16   # zero bytes past the end so unaligned fetches never slice short


@dataclass
class PackedText:
    """n symbols of b bits each, most significant bit first."""

    bits: bytes
    b: int
    n: int
    word_size: int
    nbits: int

    def fetch(self, p: int, width: int) -> int:
        """width bits starting at bit position p (1-based), zero padded."""
        byte0 = (p - 1) >> 3
        off = (p - 1) & 7
        window = int.from_bytes(self.bits[byte0 : byte0 + 10], "big")
        return (window >> (80 - off - width)) & ((1 << width) - 1)

    def decode(self, i: int) -> int:
        """Symbol at text position i."""
        return self.fetch((i - 1) * self.b + 1, self.b)


def pack(t: Text, word_size: int = 64) -> PackedText:
    """Pack internal symbols at ceil(log2 sigma) bits each."""
    if t.sigma < 2:
        raise ValueError("packing needs at least two distinct symbols")
    if not 1 <= word_size <= 64:
        raise ValueError("word size must be in [1..64]")
    b = max(1, (t.sigma - 1).bit_length())
    nbits = t.n * b
    # bit planes, most significant first: row k holds symbol k's b bits
    shifts = np.arange(b - 1, -1, -1, dtype=t.arr.dtype)
    planes = ((t.arr[:, None] >> shifts) & 1).astype(np.uint8)
    raw = np.packbits(planes).tobytes() + b"\x00" * _PAD
    return PackedText(bits=raw, b=b, n=t.n, word_size=word_size, nbits=nbits)


def leading_equal_bits(x: int, width: int) -> int:
    """Bits before the most significant set bit of x, within width (all of
    them when x is 0)."""
    return width - x.bit_length()


def _capped(pt: PackedText, bi: int, bj: int) -> int:
    # min(bitLCE(bi, bj), word_size) for bi, bj >= 1.  Bit suffixes may match
    # to the very end (no bit-level sentinel), so a chained step can start one
    # past the last bit; that contributes nothing
    w = pt.word_size
    cap = min(w, pt.nbits - bi + 1, pt.nbits - bj + 1)
    if cap <= 0:
        return 0
    return min(leading_equal_bits(pt.fetch(bi, w) ^ pt.fetch(bj, w), w), cap)


def bit_short_lce(pt: PackedText, bi: int, bj: int) -> int:
    """min(bitLCE(bi, bj), word_size) with one fetch per side plus XOR/msb."""
    bi, bj = operator.index(bi), operator.index(bj)
    if not (1 <= bi <= pt.nbits and 1 <= bj <= pt.nbits):
        raise OutOfRange(f"bit positions ({bi},{bj}) not in [1..{pt.nbits}]")
    return _capped(pt, bi, bj)


def _fetch_words(pt: PackedText, positions: np.ndarray, width: int) -> np.ndarray:
    """``pt.fetch(p, width)`` for every 1-based bit position p, as uint64:
    the width bits at p are the top of the 72-bit window of the 9 bytes from
    p's byte on."""
    byte0 = (positions - 1) >> 3
    off = ((positions - 1) & 7).astype(np.uint64)
    window = np.frombuffer(pt.bits, dtype=np.uint8)[byte0[:, None] + np.arange(9)]
    hi = np.ascontiguousarray(window[:, :8]).view(">u8")[:, 0].astype(np.uint64)
    lo = window[:, 8].astype(np.uint64)
    return ((hi << off) | (lo >> (np.uint64(8) - off))) >> np.uint64(64 - width)


def bit_block_ranks(pt: PackedText) -> tuple[np.ndarray, CoverIndex]:
    """Ranks of the word_size-bit blocks at defined cover bit positions, in
    code(w) order.

    A block's word value is its lexicographic key; dense-ranking the values
    yields exactly the rank sequence the block code needs.
    """
    w = pt.word_size
    cover = build_cover_index(build_difference_cover(w), pt.nbits)
    words = _fetch_words(pt, cover.defined_positions(), w)
    return np.unique(words, return_inverse=True)[1] + 1, cover


def build_bit_blockcode(pt: PackedText) -> BlockCode:
    """Block code over the bit string with block length word_size."""
    return build_blockcode(*bit_block_ranks(pt))


@dataclass
class PackedLce:
    """Bundled packed text and its bit-level block code."""

    pt: PackedText
    bc: BlockCode

    def lce(self, i: int, j: int) -> int:
        """Symbol-level LCE recovered as floor(bitLCE / b)."""
        pt = self.pt
        i, j = operator.index(i), operator.index(j)
        if not (1 <= i <= pt.n and 1 <= j <= pt.n):
            raise OutOfRange(f"positions ({i},{j}) not in [1..{pt.n}]")
        b = pt.b
        return _compose(pt.nbits, pt.word_size, partial(_capped, pt), self.bc,
                        (i - 1) * b + 1, (j - 1) * b + 1) // b

    def bit_lce(self, bi: int, bj: int) -> int:
        """Exact bit-level LCE by the same decompose-align-finish algorithm."""
        pt = self.pt
        bi, bj = operator.index(bi), operator.index(bj)
        if not (1 <= bi <= pt.nbits and 1 <= bj <= pt.nbits):
            raise OutOfRange(f"bit positions ({bi},{bj}) not in [1..{pt.nbits}]")
        return _compose(pt.nbits, pt.word_size, partial(_capped, pt), self.bc, bi, bj)


def build_packed(t: Text, word_size: int = 64) -> PackedLce:
    pt = pack(t, word_size)
    return PackedLce(pt=pt, bc=build_bit_blockcode(pt))

import random

import pytest
from hypothesis import given, settings, strategies as st

from lcex.errors import OutOfRange
from lcex.lce import build_index
from lcex.oracle import naive_lce
from lcex.packed import (bit_short_lce, build_packed, leading_equal_bits,
                         pack, packed_lce)
from lcex.textstore import load_text

from conftest import FIG_W, random_text


# byte-table msb: index of the highest set bit of a byte
_MSB_TABLE = [0] + [v.bit_length() - 1 for v in range(1, 256)]


def naive_bit_lcp(pt, bi, bj):
    k = 0
    while bi + k <= pt.nbits and bj + k <= pt.nbits and \
            pt.fetch(bi + k, 1) == pt.fetch(bj + k, 1):
        k += 1
    return k


def test_bits_per_symbol():
    # sigma counts the sentinel, so two raw symbols need two bits
    assert pack(load_text(b"abab")).b == 2
    assert pack(load_text(b"aaaa")).b == 1
    assert pack(load_text(b"abcdabcd")).b == 3   # 4 raw symbols + sentinel


def test_decode_every_position():
    for raw in (b"abab" * 10, b"aaa", random_text(150, 4, seed=2)):
        text = load_text(raw)
        pt = pack(text)
        for i in range(1, text.n + 1):
            assert pt.decode(i) == text.symbol(i)


def test_sentinel_decodes_at_end():
    text = load_text(b"ab" * 20)
    pt = pack(text)
    assert pt.decode(text.n) == text.sentinel


def test_bit_short_identical_positions():
    text = load_text(b"ab" * 40)
    pt = pack(text, word_size=16)
    assert bit_short_lce(pt, 1, 1) == 16
    tail = pt.nbits - 3
    assert bit_short_lce(pt, tail, tail) == 4   # capped by the remaining bits


def test_bit_short_first_bit_differs():
    text = load_text(b"ab")
    pt = pack(text)
    # symbols a=01, b=10: positions 1 and 3 start with different bits
    assert bit_short_lce(pt, 1, 3) == 0


def test_bit_short_random_all_pairs():
    rng = random.Random(0)
    for sigma, L, ws in [(2, 80, 8), (4, 120, 16), (3, 60, 32)]:
        text = load_text(random_text(L, sigma, seed=L))
        pt = pack(text, word_size=ws)
        if pt.nbits > 2000:
            continue
        for bi in range(1, pt.nbits + 1, 3):
            for bj in range(1, pt.nbits + 1, 5):
                want = min(naive_bit_lcp(pt, bi, bj), ws,
                           pt.nbits - bi + 1, pt.nbits - bj + 1)
                assert bit_short_lce(pt, bi, bj) == want


def test_bit_position_range():
    pt = pack(load_text(b"ab"))
    with pytest.raises(OutOfRange):
        bit_short_lce(pt, 0, 1)
    with pytest.raises(OutOfRange):
        bit_short_lce(pt, 1, pt.nbits + 1)


def test_packed_matches_main_index():
    text = load_text(FIG_W)
    ix = build_index(text, 2)
    pk = build_packed(text, word_size=8)
    for i in range(1, text.n + 1):
        for j in range(1, text.n + 1):
            assert pk.lce(i, j) == ix.lce(i, j)


def test_packed_first_symbol_mismatch():
    text = load_text(FIG_W)
    pk = build_packed(text, word_size=8)
    assert pk.lce(1, 2) == 0


def test_packed_periodic_random_pairs():
    text = load_text(b"ab" * 64)
    pk = build_packed(text, word_size=16)
    rng = random.Random(3)
    for _ in range(2500):
        i, j = rng.randint(1, text.n), rng.randint(1, text.n)
        assert pk.lce(i, j) == naive_lce(text, i, j)


@pytest.mark.parametrize("ws", [8, 16, 64])
def test_packed_word_sizes(ws):
    text = load_text(random_text(200, 4, seed=17))
    pk = build_packed(text, word_size=ws)
    rng = random.Random(ws)
    for _ in range(1500):
        i, j = rng.randint(1, text.n), rng.randint(1, text.n)
        assert pk.lce(i, j) == naive_lce(text, i, j)


def test_bit_sandwich():
    text = load_text(random_text(150, 3, seed=23))
    pk = build_packed(text, word_size=16)
    b = pk.pt.b
    for i in range(1, text.n + 1, 2):
        for j in range(2, text.n + 1, 3):
            sym = naive_lce(text, i, j)
            bits = pk.bit_lce((i - 1) * b + 1, (j - 1) * b + 1)
            if i == j:
                assert bits == b * sym
            else:
                assert b * sym <= bits <= b * sym + b - 1


@given(st.integers(1, 2**64 - 1), st.integers(1, 64))
def test_leading_equal_bits_matches_table(x, width):
    x &= (1 << width) - 1
    if x == 0:
        assert leading_equal_bits(x, width) == width
        return
    # byte-table route: locate the highest nonzero byte
    got = leading_equal_bits(x, width)
    top = x.bit_length() - 1
    byte_idx = top // 8
    assert _MSB_TABLE[(x >> (8 * byte_idx)) & 0xFF] + 8 * byte_idx == top
    assert got == width - 1 - top


def test_packed_requires_two_symbols():
    text = load_text(b"a")
    pack(text)   # sentinel plus one raw symbol is fine
    import numpy as np
    from lcex.textstore import Text

    degenerate = Text(arr=np.zeros(3, dtype=np.uint8), n=3, sigma=1, sentinel=0)
    with pytest.raises(ValueError):
        pack(degenerate)

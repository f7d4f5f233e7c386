import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.errors import OutOfRange
from lcex.lce import build_index
from lcex.oracle import naive_lce
from lcex.blockcode import assemble_code
from lcex.diffcover import build_cover_index, build_difference_cover
from lcex.packed import (_PAD, _fetch_words, bit_block_ranks, bit_short_lce,
                         build_bit_blockcode, build_packed, leading_equal_bits, pack)
from lcex.textstore import load_text

from conftest import FIG_W, random_text


# byte-table msb: index of the highest set bit of a byte
_MSB_TABLE = [0] + [v.bit_length() - 1 for v in range(1, 256)]


def bigint_pack_bits(text):
    """Reference packing: one big integer shifted b bits per symbol, most
    significant first, zero padded to whole bytes."""
    b = max(1, (text.sigma - 1).bit_length())
    acc = 0
    for s in text.symbols():
        acc = (acc << b) | s
    nbits = text.n * b
    pad_bits = (-nbits) % 8
    acc <<= pad_bits
    return acc.to_bytes((nbits + pad_bits) // 8, "big") + b"\x00" * _PAD


def fetch_loop_code(pt):
    """Reference code(w) over the bit string: one fetch per defined cover bit
    position, taken in code order (by residue, then position), ranked densely
    through a value -> rank dict."""
    w = pt.word_size
    cover = build_cover_index(build_difference_cover(w), pt.nbits)
    positions = sorted((p for p in cover.positions() if p + w - 1 <= pt.nbits),
                       key=lambda p: (p % w, p))
    values = [pt.fetch(p, w) for p in positions]
    order = {v: r + 1 for r, v in enumerate(sorted(set(values)))}
    return assemble_code(np.array([order[v] for v in values], dtype=np.int64), cover)


def _mix(distinct, extra, rnd):
    syms = list(distinct) + extra
    rnd.shuffle(syms)
    return bytes(syms)


def packable_texts(max_distinct):
    """Texts of 1..max_distinct distinct raw bytes in random order with
    repeats; 256 reaches sigma 257 with the sentinel, so b = 9 and a uint16
    symbol array."""
    return st.integers(1, max_distinct).flatmap(lambda k: st.tuples(
        st.permutations(range(k)), st.lists(st.integers(0, k - 1), max_size=60),
        st.randoms(use_true_random=False),
    )).map(lambda args: _mix(*args))


@settings(max_examples=80, deadline=None)
@given(packable_texts(256), st.integers(1, 64))
def test_pack_matches_bigint_reference(raw, ws):
    text = load_text(raw)
    pt = pack(text, word_size=ws)
    assert pt.b == max(1, (text.sigma - 1).bit_length())
    assert (pt.nbits, pt.word_size, pt.n) == (text.n * pt.b, ws, text.n)
    assert pt.bits == bigint_pack_bits(text)


def test_pack_reference_covers_wide_and_unaligned():
    text = load_text(bytes(range(256)) + b"\x07")
    assert text.arr.dtype == np.uint16 and text.sigma == 257
    pt = pack(text)
    assert pt.b == 9 and pt.nbits % 8 != 0
    assert pt.bits == bigint_pack_bits(text)


@settings(max_examples=40, deadline=None)
@given(packable_texts(64), st.integers(1, 64))
def test_bit_blockcode_matches_fetch_loop(raw, ws):
    pt = pack(load_text(raw), word_size=ws)
    got, want = assemble_code(*bit_block_ranks(pt)), fetch_loop_code(pt)
    assert got.tolist() == want.tolist()
    assert build_bit_blockcode(pt).code_len == len(want)


@settings(max_examples=60, deadline=None)
@given(packable_texts(256), st.integers(1, 64), st.data())
def test_fetch_words_matches_fetch(raw, width, data):
    pt = pack(load_text(raw))
    last = max(1, pt.nbits - width + 1)
    ps = data.draw(st.lists(st.integers(1, last), min_size=1, max_size=40))
    got = _fetch_words(pt, np.asarray(ps, dtype=np.int64), width)
    assert got.tolist() == [pt.fetch(p, width) for p in ps]


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


def test_packed_entry_points_take_numpy_ints():
    # positions read out of numpy arrays arrive as numpy integers
    text = load_text(random_text(120, 3, seed=4))
    ix = build_index(text, 4, packed=True)
    pk, b, ws = ix.packed, ix.packed.pt.b, ix.packed.pt.word_size
    for i in range(1, text.n + 1, 7):
        for j in range(1, text.n + 1, 5):
            want = ix.lce(i, j)
            bi, bj = np.int64((i - 1) * b + 1), np.int64((j - 1) * b + 1)
            assert pk.lce(np.int64(i), np.int64(j)) == want
            assert pk.bit_lce(bi, bj) // b == want
            assert bit_short_lce(pk.pt, bi, bj) == min(pk.bit_lce(bi, bj), ws)


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

    degenerate = Text(arr=np.zeros(3, dtype=np.uint8), n=3, sigma=1)
    with pytest.raises(ValueError):
        pack(degenerate)

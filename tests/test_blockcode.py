import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.blockcode import assemble_code, build_blockcode, rank_blocks
from lcex.diffcover import build_cover_index, build_difference_cover
from lcex.oracle import naive_lce
from lcex.textstore import load_text

from conftest import FIG_W, fib_word, random_text


def make(raw, t):
    """Text, block code, block ranks by 1-based position (0 where no block is
    defined), and cover."""
    text = load_text(raw)
    cover = build_cover_index(build_difference_cover(t), text.n)
    code_ranks = rank_blocks(text, cover)
    bc = build_blockcode(code_ranks, cover)
    ranks = np.zeros(text.n + 1, dtype=np.int64)
    ranks[cover.defined_positions()] = code_ranks
    return text, bc, ranks, cover


def code_of(ranks, cover):
    return assemble_code(ranks[cover.defined_positions()], cover)


def test_periodic_equal_ranks():
    text, bc, ranks, cover = make(b"ab" * 8, 2)
    odds = [i for i in cover.positions() if i % 2 == 1 and i + 1 <= text.n]
    vals = {int(ranks[i]) for i in odds if i <= text.n - 1 and ranks[i]}
    # every odd cover position carries the same "ab" block
    assert len(vals) == 1


def test_ranks_match_direct_sort():
    text, bc, ranks, cover = make(FIG_W, 2)
    s = bytes(text.symbols())
    blocks = {i: s[i - 1 : i + 1] for i in cover.positions() if i + 1 <= text.n}
    order = sorted(set(blocks.values()))
    for i, b in blocks.items():
        assert int(ranks[i]) == order.index(b) + 1


def test_boundary_positions_reserved():
    for raw in (FIG_W, b"abracadabra" * 7, b"ab" * 30):
        for t in (2, 3, 4, 5):
            text, bc, ranks, cover = make(raw, t)
            for i in cover.positions():
                if i + t - 1 > text.n:
                    assert ranks[i] == 0
                    assert bc.long_lce(i, 1 if cover.in_cover(1) else 2) == 0, (raw, t, i)


def test_rank_order_isomorphism():
    text, bc, ranks, cover = make(FIG_W, 3)
    s = bytes(text.symbols())
    defined = [i for i in cover.positions() if i + 2 <= text.n]
    by_rank = sorted(defined, key=lambda i: int(ranks[i]))
    by_content = sorted(defined, key=lambda i: s[i - 1 : i + 2])
    assert [s[i - 1 : i + 2] for i in by_rank] == [s[i - 1 : i + 2] for i in by_content]
    for a in defined:
        for b in defined:
            assert (ranks[a] == ranks[b]) == (s[a - 1 : a + 2] == s[b - 1 : b + 2])
            assert (ranks[a] < ranks[b]) == (s[a - 1 : a + 2] < s[b - 1 : b + 2])


def test_separators_distinct_below_ranks():
    text, bc, ranks, cover = make(FIG_W, 2)
    code = code_of(ranks, cover).tolist()
    seps = [v for v in code if v < 0]
    assert len(seps) == len(set(seps))
    assert max(seps) < min(v for v in code if v > 0)
    nonempty = int(np.count_nonzero(cover.seg_len))
    assert len(seps) == nonempty
    assert len(code) == int(cover.seg_len.sum()) + nonempty


def test_code_lcp_brute_force_periodic():
    text, bc, ranks, cover = make(b"abc" * 6, 3)
    code = code_of(ranks, cover).tolist()
    # within a residue segment, equal consecutive blocks give equal symbols;
    # verify code suffix lcp by brute force
    for a in range(len(code)):
        for b in range(len(code)):
            k = 0
            while a + k < len(code) and b + k < len(code) and code[a + k] == code[b + k]:
                k += 1
            if a == b:
                continue
            ia, ib = bc.isa[a], bc.isa[b]
            lo, hi = (ia, ib) if ia < ib else (ib, ia)
            assert bc.rmq.query(lo + 1, hi) == k


def test_posmap_roundtrip_random():
    raw = bytes(random.Random(0).choice(b"abcd") for _ in range(500))
    text, bc, ranks, cover = make(raw, 4)
    code = code_of(ranks, cover)
    assert bc.code_len == len(code)
    for i in cover.positions():
        if i + 3 <= text.n:
            assert code[cover.pos_in_code(i)] == ranks[i]


def test_posmap_identity_degenerate():
    text, bc, ranks, cover = make(b"ab" * 6, 1)
    for i in range(1, text.n + 1):
        assert cover.pos_in_code(i) == i - 1
    assert bc.code_len == text.n + 1


def test_bottom_for_noncover():
    text, bc, ranks, cover = make(FIG_W, 5)
    out = [i for i in range(1, text.n + 1) if not cover.in_cover(i)]
    assert out, "expected some positions outside the cover"
    for i in out:
        assert bc.long_lce(i, i) is None


@pytest.mark.parametrize("t", [2, 4])
def test_long_lce_exhaustive_figure(t):
    text, bc, ranks, cover = make(FIG_W, t)
    pos = cover.positions()
    for i in pos:
        for j in pos:
            got = bc.long_lce(i, j)
            want = naive_lce(text, i, j) // t
            assert got == want, (t, i, j)


def test_no_cross_segment_match():
    text, bc, ranks, cover = make(FIG_W, 2)
    code = code_of(ranks, cover).tolist()
    sep_positions = [k for k, v in enumerate(code) if v < 0]
    isa = bc.isa.tolist()
    for p in sep_positions:
        r = isa[p]
        if r + 1 < len(code):
            assert bc.lcp[r + 1] == 0
        assert bc.lcp[r] == 0


def brute_block_ranks(text, cover, t):
    """Block ranks from a plain sort of the text's t-blocks, dense over every
    t-gram of the text, listed in code(w) order: segment by segment in
    ascending residue order, ascending position within a segment."""
    s = text.symbols()
    n = text.n
    block = {i: tuple(s[i - 1 : i - 1 + t]) for i in range(1, n - t + 2)}
    order = sorted(set(block.values()))
    defined = sorted((i for i in cover.positions() if i + t - 1 <= n),
                     key=lambda i: (i % t, i))
    return [order.index(block[i]) + 1 for i in defined]


def check_rank_blocks(raw, t):
    text = load_text(raw)
    cover = build_cover_index(build_difference_cover(t), text.n)
    got = rank_blocks(text, cover)
    assert got.tolist() == brute_block_ranks(text, cover, t), (raw, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(
           lambda k: st.lists(st.integers(0, k), min_size=1, max_size=90)),
       st.data())
def test_rank_blocks_matches_sorted_blocks(syms, data):
    raw = bytes(97 + c for c in syms)
    check_rank_blocks(raw, data.draw(st.integers(1, len(raw) + 1)))


@pytest.mark.parametrize("raw", [b"a" * 40, b"ab" * 8, b"abaab" * 3])
def test_rank_blocks_unary_and_near_2t(raw):
    n = len(raw) + 1
    for t in (n // 2 - 1, n // 2, n // 2 + 1, n):
        check_rank_blocks(raw, t)


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=8, max_size=120), st.integers(1, 6), st.data())
def test_long_lce_random(raw, t, data):
    text = load_text(raw)
    if 2 * t > text.n:
        return
    _, bc, ranks, cover = make(raw, t)
    pos = [i for i in cover.positions()]
    for _ in range(25):
        i = data.draw(st.sampled_from(pos))
        j = data.draw(st.sampled_from(pos))
        if i == j:
            assert bc.long_lce(i, i) == (text.n - i + 1) // t
        else:
            assert bc.long_lce(i, j) == naive_lce(text, i, j) // t


@pytest.mark.parametrize("raw,t", [(fib_word(200), 8), (b"ab" * 40, 5),
                                   (random_text(150, 3, seed=4), 13), (b"a" * 50, 4),
                                   (fib_word(25), 16), (b"a" * 29, 16), (b"a" * 20, 13)])
def test_long_lce_batch_matches_scalar_past_the_text(raw, t):
    # lanes whose block runs past the text read 0, as the scalar does; with
    # n < 2t-1 some residues have no defined block and an empty segment
    text, bc, _, cover = make(raw, t)
    n = text.n
    tail = [i for i in cover.positions() if i > n - 3 * t]
    pairs = [(i, j) for i in tail for j in cover.positions() if i != j]
    assert any(i > n - t + 1 for i, _ in pairs)
    I = np.array([i for i, _ in pairs])
    J = np.array([j for _, j in pairs])
    for a, b in ((I, J), (J, I)):
        want = [bc.long_lce(int(i), int(j)) for i, j in zip(a, b)]
        assert bc.long_lce_batch(a, b).tolist() == want

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex import blockcode, suffixes
from lcex.container import dump_index
from lcex.lce import build_index
from lcex.suffixes import SparseMin, lcp_array, suffix_array
from lcex.textstore import load_text

from conftest import fib_word, random_text, thue_morse


def brute_sa(vals):
    return sorted(range(len(vals)), key=lambda i: vals[i:])


def lexsort_doubling_sa(seq):
    """Reference suffix array: prefix doubling with one np.lexsort of
    (rank, rank at i+k) per round, k = 1, 2, 4, ..."""
    n = len(seq)
    _, rank = np.unique(seq, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
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


def kasai_lcp(seq, sa):
    """Reference LCP array: Kasai's algorithm, one Python step per symbol."""
    n = len(sa)
    out = [0] * n
    isa = [0] * n
    for r, i in enumerate(sa.tolist()):
        isa[i] = r
    s, sa_l = seq.tolist(), sa.tolist()
    k = 0
    for i in range(n):
        r = isa[i]
        if r == 0:
            k = 0
            continue
        j = sa_l[r - 1]
        while i + k < n and j + k < n and s[i + k] == s[j + k]:
            k += 1
        out[r] = k
        if k:
            k -= 1
    return out


def assert_matches_references(seq):
    sa = suffix_array(seq)
    assert sa.tolist() == lexsort_doubling_sa(seq).tolist()
    assert lcp_array(seq, sa).tolist() == kasai_lcp(seq, sa)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=300))
def test_kernels_match_references_without_terminator(vals):
    # no unique terminator: a suffix can be a prefix of another, and phi of
    # a reducible-looking entry need not be phi of its predecessor minus one
    assert_matches_references(np.asarray(vals, dtype=np.int64))


def test_reducible_needs_shifted_phi():
    seq = np.asarray([0, 1, 0], dtype=np.int64)
    assert suffix_array(seq).tolist() == [2, 0, 1]
    assert lcp_array(seq, suffix_array(seq)).tolist() == [0, 1, 0]


WIDE = [-(2**62), -(2**40) - 1, -1, 0, 2**40, 2**40 + 1, 2**41, 2**62]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(WIDE), min_size=1, max_size=200)
       | st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=100))
def test_kernels_match_references_on_wide_values(vals):
    # symbols are ranked before they are packed, so only their order matters
    seq = np.asarray(vals, dtype=np.int64)
    assert suffix_array(seq).tolist() == brute_sa(vals)
    assert_matches_references(seq)


def periodic(kind, n):
    if kind == "fib":
        return list(fib_word(n))
    if kind == "thue-morse":
        return list(thue_morse(n))
    if kind == "unary":
        return [7] * n
    return [i % 5 for i in range(n)]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["fib", "thue-morse", "unary", "period-5"]),
       st.integers(2000, 20000), st.booleans())
def test_kernels_match_references_on_long_repeats(kind, n, terminated):
    # irreducible LCPs here run to thousands of symbols, past several of
    # lcp_array's doubling comparison widths
    vals = periodic(kind, n) + ([-1] if terminated else [])
    assert_matches_references(np.asarray(vals, dtype=np.int64))


@pytest.mark.parametrize("kind", ["fib", "unary", "random"])
def test_lcp_with_small_comparison_buffer(kind):
    # a 64-element cap makes the blocks, the capped widths and the batches
    # within a width all run on a short input
    vals = [*random_text(3000, 3, seed=4)] if kind == "random" else periodic(kind, 3000)
    seq = np.asarray(vals, dtype=np.int64)
    sa = suffix_array(seq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suffixes, "_LCP_BUF", 64)
        mp.setattr(suffixes, "_LCP_FIRST_WIDTH", 2)
        assert lcp_array(seq, sa).tolist() == kasai_lcp(seq, sa)


def test_kernels_on_tiny_and_narrow_inputs():
    assert suffix_array(np.empty(0, dtype=np.int64)).tolist() == []
    assert lcp_array(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).tolist() == []
    for dtype in (np.uint8, np.uint16, np.int8, np.uint64):
        seq = np.asarray([3, 1, 3, 1, 3, 0], dtype=dtype)
        assert suffix_array(seq).tolist() == brute_sa(seq.tolist())
        assert_matches_references(seq)
    assert_matches_references(np.asarray([9], dtype=np.int64))


def reference_text(raw):
    text = load_text(raw)
    text._sa = lexsort_doubling_sa(text.arr)
    text._lcp = np.asarray(kasai_lcp(text.arr, text._sa), dtype=np.int64)
    return text


@pytest.mark.parametrize("raw", [fib_word(700), thue_morse(600), random_text(500, 4, seed=9)],
                         ids=["fib", "thue-morse", "sigma4"])
@pytest.mark.parametrize("t,t_prime,packed", [(8, 8, False), (8, 3, False), (6, 6, True)])
def test_containers_identical_to_reference_kernels(raw, t, t_prime, packed):
    want = dump_index(build_index(load_text(raw), t, t_prime, packed=packed))
    with pytest.MonkeyPatch.context() as mp:
        # code(w) is sorted through blockcode's own imports of the kernels
        mp.setattr(blockcode, "suffix_array", lexsort_doubling_sa)
        mp.setattr(blockcode, "lcp_array",
                   lambda seq, sa: np.asarray(kasai_lcp(seq, sa), dtype=np.int64))
        got = dump_index(build_index(reference_text(raw), t, t_prime, packed=packed))
    assert got == want


@given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
def test_suffix_array_matches_brute(vals):
    seq = np.asarray(vals, dtype=np.int64)
    assert suffix_array(seq).tolist() == brute_sa(vals)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=150))
def test_suffix_array_negative_alphabet(vals):
    seq = np.asarray(vals, dtype=np.int64)
    assert suffix_array(seq).tolist() == brute_sa(vals)


def test_suffix_array_large_forces_doubling():
    rng = np.random.default_rng(1)
    seq = rng.integers(0, 4, size=5000).astype(np.int64)
    seq[-1] = -1
    assert suffix_array(seq).tolist() == brute_sa(seq.tolist())


@given(st.lists(st.integers(0, 3), min_size=2, max_size=150))
def test_lcp_matches_brute(vals):
    seq = np.asarray(vals, dtype=np.int64)
    sa = suffix_array(seq)
    lcp = lcp_array(seq, sa)
    for k in range(1, len(vals)):
        a, b = vals[sa[k - 1] :], vals[sa[k] :]
        m = 0
        while m < min(len(a), len(b)) and a[m] == b[m]:
            m += 1
        assert lcp[k] == m


@settings(max_examples=60)
@given(st.lists(st.integers(-100, 100), min_size=1, max_size=300), st.data())
def test_sparse_min(vals, data):
    rmq = SparseMin(np.asarray(vals))
    lo = data.draw(st.integers(0, len(vals) - 1))
    hi = data.draw(st.integers(lo, len(vals) - 1))
    assert rmq.query(lo, hi) == min(vals[lo : hi + 1])


def test_sparse_min_batch():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 1000, size=500)
    rmq = SparseMin(vals)
    lo = rng.integers(0, 500, size=200)
    hi = np.minimum(499, lo + rng.integers(0, 100, size=200))
    got = rmq.query_batch(lo, hi)
    want = np.array([vals[a : b + 1].min() for a, b in zip(lo, hi)])
    assert (got == want).all()


@pytest.mark.parametrize("values,dtype", [
    ([0, 255, 3, 254, 255, 1, 255], np.uint8),
    ([256, 0, 255, 256, 7, 1], np.uint16),
    ([65535, 2, 65534, 65535, 0, 9], np.uint16),
    ([65536, 65535, 0, 65534, 3, 65536], np.uint32),
    ([-1, 255, 256, -300, 65536, 4], np.int32),
    ([-128, 127, 0, -1], np.int32),
    ([2**31 - 1, 0, 2**31 - 2, 5], np.uint32),
])
def test_sparse_min_narrow_table_matches_int32(values, dtype):
    vals = np.array(values, dtype=np.int64)
    rmq = SparseMin(vals)
    assert rmq.table.dtype == dtype
    ref = vals.astype(np.int32)
    lo, hi = np.triu_indices(len(vals))
    want = [int(ref[a : b + 1].min()) for a, b in zip(lo, hi)]
    assert [rmq.query(int(a), int(b)) for a, b in zip(lo, hi)] == want
    got = rmq.query_batch(lo.astype(np.int64), hi.astype(np.int64))
    assert got.astype(np.int64).tolist() == want


def test_sparse_min_past_a_level_is_deterministic():
    # level k over m values holds m - 2^k + 1 minima; a rank past them, as a
    # corrupt container can give, reads the rest of the row, which must not
    # hold whatever memory the allocator handed back
    vals = np.arange(10, 0, -1)
    got = set()
    for fill in range(1, 20):
        junk = np.full((4, 10), fill, dtype=np.int32)
        del junk
        rmq = SparseMin(vals)
        got.add((rmq.query(5, 12), int(rmq.query_batch(np.array([5]), np.array([12]))[0])))
    assert len(got) == 1


def test_log2_table_around_powers_of_two():
    from lcex.suffixes import log2_table

    for n in sorted({max(1, (1 << p) + d) for p in range(0, 13) for d in (-1, 0, 1)}):
        table = log2_table(n)
        assert len(table) == n + 1
        assert [int(table[x]) for x in range(1, n + 1)] == \
            [x.bit_length() - 1 for x in range(1, n + 1)], n

import numpy as np
from hypothesis import given, settings, strategies as st

from lcex.suffixes import SparseMin, lcp_array, suffix_array


def brute_sa(vals):
    return sorted(range(len(vals)), key=lambda i: vals[i:])


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


def test_log2_table_around_powers_of_two():
    from lcex.suffixes import log2_table

    for n in sorted({max(1, (1 << p) + d) for p in range(0, 13) for d in (-1, 0, 1)}):
        table = log2_table(n)
        assert len(table) == n + 1
        assert [int(table[x]) for x in range(1, n + 1)] == \
            [x.bit_length() - 1 for x in range(1, n + 1)], n

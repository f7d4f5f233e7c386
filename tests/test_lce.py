import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.errors import OutOfRange, ParamOutOfRange
from lcex.lce import TUNE_ALPHA, build_index, estimated_words, tune_tau
from lcex.lz77 import lz77_factorize
from lcex.oracle import IsaOracle, naive_lce, naive_lce_table
from lcex.textstore import Text, load_text
from lcex.tst import build_tst

from conftest import EXAMPLE_W, FIG_W, fib_word, random_text, thue_morse


def test_example_queries():
    t = load_text(EXAMPLE_W)
    ix = build_index(t, 4)
    for i, j in [(1, 8), (1, 15), (2, 9), (3, 14), (7, 22)]:
        assert ix.lce(i, j) == naive_lce(t, i, j)
    assert ix.lce(1, 8) == 14
    assert ix.lce(1, 15) == 7
    assert ix.lce(2, 9) == 13


def test_first_symbol_mismatch():
    t = load_text(EXAMPLE_W)
    ix = build_index(t, 4)
    assert ix.lce(1, 2) == 0


def test_diagonal_definition():
    t = load_text(FIG_W)
    ix = build_index(t, 3)
    for i in range(1, t.n + 1):
        assert ix.lce(i, i) == t.n - i + 1


@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("tp_kind", ["one", "t"])
def test_exhaustive_figure(t, tp_kind):
    text = load_text(FIG_W)
    tp = 1 if tp_kind == "one" else t
    ix = build_index(text, t, tp)
    table = naive_lce_table(text)
    for i in range(1, text.n + 1):
        for j in range(1, text.n + 1):
            assert ix.lce(i, j) == int(table[i, j]), (t, tp, i, j)


def test_degenerate_block_length():
    text = load_text(FIG_W)
    ix = build_index(text, 1)
    table = naive_lce_table(text)
    for i in range(1, text.n + 1):
        for j in range(1, text.n + 1):
            assert ix.lce(i, j) == int(table[i, j])


def test_large_random_sqrt_parameter():
    raw = random_text(10**4, 2, seed=13)
    text = load_text(raw)
    t = int(math.isqrt(text.n))
    ix = build_index(text, t)
    oracle = IsaOracle(text)
    rng = random.Random(99)
    from lcex.batch import lce_batch

    I = np.array([rng.randint(1, text.n) for _ in range(10**5)])
    J = np.array([rng.randint(1, text.n) for _ in range(10**5)])
    assert (lce_batch(ix, I, J) == oracle.lce_batch(I, J)).all()
    for k in range(0, 10**5, 9973):
        assert ix.lce(int(I[k]), int(J[k])) == oracle.lce(int(I[k]), int(J[k]))


def test_decomposition_consistency():
    text = load_text(fib_word(1200))
    t = 8
    ix = build_index(text, t)
    n = text.n
    rng = random.Random(5)
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(4000)]
    # random draws rarely give a long match that ends in the last 3t
    # positions; Fibonacci offsets do
    pairs += [(i, i + d) for d in (13, 21, 34, 55, 89) for i in range(n - 3 * t - d + 1, n - d + 1)]
    block_path_seen = near_end = 0
    for i, j in pairs:
        if i == j:
            continue
        want = naive_lce(text, i, j)
        ans, stats = ix.lce_instrumented(i, j)
        assert ans == want
        if want >= t:
            block_path_seen += 1
            near_end += max(i, j) > n - 3 * t
            delta = ix.bc.cover.dc.h(i, j)
            l2 = ix.bc.long_lce(i + delta, j + delta)
            l3 = want - delta - t * l2
            assert 0 <= l3 < t, (i, j)
    assert block_path_seen > 50 and near_end > 50


def test_tradeoff_instrumentation_bound():
    text = load_text(fib_word(2000))
    t, tp = 16, 4
    ix = build_index(text, t, tp)
    bound = math.ceil(t / tp) + 1
    rng = random.Random(6)
    for _ in range(3000):
        i, j = rng.randint(1, text.n), rng.randint(1, text.n)
        ans, stats = ix.lce_instrumented(i, j)
        assert ans == naive_lce(text, i, j)
        assert stats["per_invocation_max"] <= bound, (i, j, stats)


def test_tradeoff_answers_unchanged():
    text = load_text(FIG_W)
    table = naive_lce_table(text)
    for t, tp in [(4, 2), (6, 3), (8, 2), (5, 1)]:
        ix = build_index(text, t, tp)
        for i in range(1, text.n + 1):
            for j in range(1, text.n + 1):
                assert ix.lce(i, j) == int(table[i, j]), (t, tp, i, j)


def test_param_validation():
    text = load_text(FIG_W)
    with pytest.raises(ParamOutOfRange):
        build_index(text, 0)
    with pytest.raises(ParamOutOfRange):
        build_index(text, text.n + 1)
    with pytest.raises(ParamOutOfRange):
        build_index(text, 4, 5)
    with pytest.raises(ParamOutOfRange):
        build_index(text, text.n, text.n)   # 2t' > n


def test_query_range_errors():
    text = load_text(FIG_W)
    ix = build_index(text, 2, packed=True)
    pk = ix.packed
    nbits = pk.pt.nbits
    queries = [ix.lce, ix.lce_instrumented, ix.short_lce, pk.lce]
    for i, j in [(0, 1), (1, 0), (0, 0), (text.n + 1, 1), (1, text.n + 1),
                 (text.n + 1, text.n + 1)]:
        for query in queries:
            with pytest.raises(OutOfRange):
                query(i, j)
    for bi, bj in [(0, 1), (1, 0), (0, 0), (nbits + 1, 1), (1, nbits + 1),
                   (nbits + 1, nbits + 1)]:
        with pytest.raises(OutOfRange):
            pk.bit_lce(bi, bj)
    # a float position is not an index, even on the diagonal or in range
    for i, j in [(3.0, 3.0), (1.0, 9.0), (1, 9.0), (2.5, 1)]:
        for query in queries:
            with pytest.raises(TypeError):
                query(i, j)


@pytest.mark.parametrize("raw", [fib_word(700),
                                 random_text(500, 4, seed=8) + random_text(500, 4, seed=8)[400:]],
                         ids=["fib", "random4-repeat"])
def test_instrumented_counts_real_calls(monkeypatch, raw):
    import lcex.navtree

    calls = []
    real = lcex.navtree.short_lce

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lcex.navtree, "short_lce", counted)
    text = load_text(raw)
    n = text.n
    rng = random.Random(len(raw))
    for t, tp in [(8, 3), (12, 4), (9, 2)]:
        ix = build_index(text, t, tp)
        pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(300)]
        pairs += [(rng.randint(n - 2 * t, n), rng.randint(1, n)) for _ in range(300)]
        # long matches near the end: Fibonacci offsets, and the random text's
        # copy of its last 100 symbols
        pairs += [(i, i + d) for d in (13, 21, 34, 55, 100) for i in range(n - 3 * t - d, n - d)]
        near_end = 0
        for i, j in pairs:
            calls.clear()
            ans = ix.lce(i, j)
            made = len(calls)
            calls.clear()
            got, stats = ix.lce_instrumented(i, j)
            assert got == ans == naive_lce(text, i, j)
            assert stats["total"] == made == len(calls), (t, tp, i, j)
            if max(i, j) > n - 2 * t - 1 and ans >= t:
                near_end += 1
        assert near_end > 0


def _collect_objects(root):
    seen = set()
    stack = [root]
    out = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if hasattr(obj, "__dict__"):
            stack.extend(obj.__dict__.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(list(obj)[:10000])
        elif isinstance(obj, dict):
            stack.extend(list(obj.values())[:10000])
    return out


def test_text_unreachable_after_build():
    text = load_text(FIG_W)
    ix = build_index(text, 3)
    for obj in _collect_objects(ix):
        assert not isinstance(obj, Text)
        if isinstance(obj, np.ndarray):
            assert not np.shares_memory(obj, text.arr)


def test_space_report_formula():
    text = load_text(fib_word(3000))
    ix = build_index(text, 8)
    st_ = ix.space_report()
    assert st_.estimated_words == estimated_words(
        st_.tst_nodes, st_.tst_ref_len, st_.nav_nodes, st_.sampled_count, st_.code_len)
    assert st_.tst_nodes == ix.tree.node_count == build_tst(text, 16).node_count
    assert st_.code_len == ix.bc.code_len
    assert st_.n == text.n and st_.t == 8 and st_.t_prime == 8


def test_space_stats_factor_bound_fibonacci():
    text = load_text(fib_word(10946))
    z = lz77_factorize(text).z
    ix = build_index(text, 32, z=z)
    tree = build_tst(text, 64)
    assert tree.leaf_count <= z * 63 + 64
    assert ix.stats.z == z


def test_code_len_degenerate():
    text = load_text(random_text(300, 4, seed=1))
    ix = build_index(text, 1)
    assert ix.stats.code_len == text.n + 1   # every position plus one separator


def test_tune_unary_beats_t1():
    text = load_text(b"a" * 4096)
    t_star = tune_tau(text)
    # objective at the chosen point must undercut the t=1 configuration
    from lcex.lce import truncated_leaf_counts

    _, lcp = truncated_leaf_counts(text)

    def obj(q):
        leaves = text.n - int(np.count_nonzero(lcp >= q))
        return TUNE_ALPHA * leaves + math.ceil(text.n / math.sqrt(q))

    assert t_star > 1
    assert obj(t_star) < obj(1)


def test_tune_incompressible_stays_small():
    text = load_text(random_text(4096, 64, seed=8))
    t_star = tune_tau(text)
    assert 1 <= t_star <= 4


def test_tune_tiny():
    text = load_text(b"abc")
    assert 1 <= tune_tau(text) <= text.n


def test_tune_rejects_below_minimum():
    with pytest.raises(ParamOutOfRange):
        tune_tau(load_text(b"ab"))   # n = 3 is below the n >= 4 floor


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=100), st.data())
def test_random_strings_random_params(raw, data):
    text = load_text(raw)
    t = data.draw(st.integers(1, text.n))
    tp_max = min(t, text.n // 2)
    if tp_max < 1:
        return
    tp = data.draw(st.integers(1, tp_max))
    ix = build_index(text, t, tp)
    for _ in range(25):
        i = data.draw(st.integers(1, text.n))
        j = data.draw(st.integers(1, text.n))
        assert ix.lce(i, j) == naive_lce(text, i, j)


@pytest.mark.parametrize("gen", [fib_word, thue_morse])
def test_every_pair_near_the_end(gen):
    """Every pair whose first position is among the last 3t (3 words of the
    packed bit string) against the oracle, both orders in the batch path."""
    from lcex.batch import lce_batch

    text = load_text(gen(1597))
    n, t = text.n, 13
    ix = build_index(text, t, 4, packed=True)
    table = naive_lce_table(text)
    word = ix.packed.pt.word_size // ix.packed.pt.b
    I, J = np.meshgrid(np.arange(n - 3 * max(t, word) + 1, n + 1), np.arange(1, n + 1),
                       indexing="ij")
    I, J = I.ravel(), J.ravel()
    want = table[I, J]
    assert (lce_batch(ix, I, J) == want).all() and (lce_batch(ix, J, I) == want).all()
    near = I > n - 3 * t
    for i, j, x in zip(I[near].tolist(), J[near].tolist(), want[near].tolist()):
        assert ix.lce(i, j) == ix.lce_instrumented(i, j)[0] == x, (i, j)
    for i, j, x in zip(I.tolist(), J.tolist(), want.tolist()):
        assert ix.packed.lce(i, j) == x, (i, j)

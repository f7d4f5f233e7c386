import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.batch import lce_batch, short_chain_batch, short_lce_batch
from lcex.errors import OutOfRange
from lcex.lce import build_index
from lcex.oracle import naive_lce_table
from lcex.textstore import load_text

from conftest import FIG_W, fib_word


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=2, max_size=90), st.data())
def test_batch_equals_scalar(raw, data):
    text = load_text(raw)
    t = data.draw(st.integers(1, text.n))
    tp_hi = min(t, text.n // 2)
    if tp_hi < 1:
        return
    tp = data.draw(st.sampled_from([1, tp_hi]))
    ix = build_index(text, t, tp)
    I = np.array([data.draw(st.integers(1, text.n)) for _ in range(40)])
    J = np.array([data.draw(st.integers(1, text.n)) for _ in range(40)])
    got = lce_batch(ix, I, J)
    for k in range(len(I)):
        assert got[k] == ix.lce(int(I[k]), int(J[k]))


def test_batch_exhaustive_against_table():
    text = load_text(FIG_W)
    table = naive_lce_table(text)
    idx = np.arange(1, text.n + 1)
    I, J = np.meshgrid(idx, idx)
    I, J = I.ravel(), J.ravel()
    for t in (1, 2, 3, 5, 8):
        for tp in {1, t}:
            if 2 * tp > text.n:
                continue
            ix = build_index(text, t, tp)
            assert (lce_batch(ix, I, J) == table[I, J]).all()


def test_batch_short_cap():
    text = load_text(fib_word(500))
    ix = build_index(text, 7)
    table = naive_lce_table(text)
    rng = np.random.default_rng(0)
    I = rng.integers(1, text.n + 1, size=2000)
    J = rng.integers(1, text.n + 1, size=2000)
    got = short_lce_batch(ix, I, J)
    want = np.minimum(table[I, J], 7)
    # the one-shot call answers min(lce, t') for t' = t here
    assert (got == want).all()


def test_batch_chain_matches_cap():
    text = load_text(fib_word(600))
    ix = build_index(text, 12, 3)
    table = naive_lce_table(text)
    rng = np.random.default_rng(1)
    I = rng.integers(1, text.n + 1, size=1500)
    J = rng.integers(1, text.n + 1, size=1500)
    got = short_chain_batch(ix, I, J, 12)
    assert (got == np.minimum(table[I, J], 12)).all()


def test_batch_empty_and_diag():
    text = load_text(FIG_W)
    ix = build_index(text, 2)
    assert len(lce_batch(ix, np.array([], dtype=np.int64), np.array([], dtype=np.int64))) == 0
    I = np.arange(1, text.n + 1)
    assert (lce_batch(ix, I, I) == text.n - I + 1).all()


def test_batch_range_check():
    text = load_text(FIG_W)
    ix = build_index(text, 2)
    with pytest.raises(OutOfRange):
        lce_batch(ix, np.array([0]), np.array([1]))
    with pytest.raises(OutOfRange):
        lce_batch(ix, np.array([1]), np.array([text.n + 1]))


@pytest.mark.parametrize("entry", [lce_batch, short_lce_batch])
@pytest.mark.parametrize("I,J", [([0], [1]), ([1], [0]), ([2, 3], [4, "n+1"]),
                                 (["n+1"], [1]), ([-1, 2], [1, 2])])
def test_batch_entry_points_reject_out_of_range(entry, I, J):
    # the scalar short_lce raises for the same positions
    text = load_text(FIG_W)
    ix = build_index(text, 2)
    I, J = ([text.n + 1 if v == "n+1" else v for v in a] for a in (I, J))
    bad = next((i, j) for i, j in zip(I, J) if not (1 <= i <= text.n and 1 <= j <= text.n))
    with pytest.raises(OutOfRange):
        ix.short_lce(*bad)
    with pytest.raises(OutOfRange):
        entry(ix, np.array(I), np.array(J))


@pytest.mark.parametrize("entry", [lce_batch, short_lce_batch])
@pytest.mark.parametrize("I,J", [([1, 2, 3], [5]), ([5], [1, 2, 3]), ([1, 2], []),
                                 ([[1, 2]], [[3, 4]]), (1, 2)])
def test_batch_entry_points_reject_mismatched_shapes(entry, I, J):
    ix = build_index(load_text(FIG_W), 2)
    with pytest.raises(ValueError):
        entry(ix, np.array(I), np.array(J))


@pytest.mark.parametrize("entry", [lce_batch, short_lce_batch])
@pytest.mark.parametrize("I,J", [([1.9, 3.5], [2.2, 11.0]), ([1.0], [9.0]), (["1"], ["2"]),
                                 ([1, 2], [3.0, 4.0])])
def test_batch_entry_points_reject_non_integer(entry, I, J):
    # the scalar lce raises TypeError for the same positions; an empty
    # input of the same dtype is still an empty answer
    ix = build_index(load_text(FIG_W), 2)
    with pytest.raises(TypeError):
        ix.lce(I[-1], J[-1])
    with pytest.raises(TypeError):
        entry(ix, I, J)
    assert entry(ix, np.array(I)[:0], np.array(J)[:0]).tolist() == []


def test_batch_entry_points_accept_sequences():
    text = load_text(fib_word(120))
    ix = build_index(text, 4, 2)
    I, J = [1, 5, 9, text.n], [3, 5, 30, 1]
    assert lce_batch(ix, I, J).tolist() == [ix.lce(i, j) for i, j in zip(I, J)]
    assert short_lce_batch(ix, I, J).tolist() == [min(ix.lce(i, j), 2) for i, j in zip(I, J)]


def test_short_batch_same_leaf_at_rank_edges():
    from lcex.container import dump_index, load_index

    for raw, t in [(FIG_W, 1), (FIG_W, 2), (fib_word(200), 3), (b"ab" * 40, 1)]:
        text = load_text(raw)
        built = build_index(text, t)
        for ix in (built, load_index(dump_index(built))):
            last = ix.tree.leaf_count - 1
            at = {0: [], last: []}
            for i in range(1, text.n + 1):
                u = ix.nav.locate(i)
                if u in at:
                    at[u].append(i)
            assert at[0] and at[last]
            pairs = [(i, j) for pos in at.values() for i in pos for j in pos]
            I = np.array([i for i, _ in pairs])
            J = np.array([j for _, j in pairs])
            got = short_lce_batch(ix, I, J)
            want = [min(ix.lce(i, j), t) for i, j in pairs]
            assert got.tolist() == want

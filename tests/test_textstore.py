import numpy as np
import pytest
from hypothesis import given, strategies as st

from lcex.errors import EmptyInput, OutOfRange
from lcex.textstore import load_text, substring

from conftest import EXAMPLE_W


def test_auto_load_example():
    t = load_text(EXAMPLE_W)
    assert t.n == 23
    assert t.arr[-1] == t.sentinel
    assert t.sentinel == 0


def test_single_character():
    t = load_text(b"a")
    assert t.n == 2
    assert t.sigma == 2


def test_sentinel_unique_on_random_bytes():
    rng = np.random.default_rng(0)
    raw = rng.choice(np.frombuffer(b"ab", dtype=np.uint8), size=1000).tobytes()
    t = load_text(raw)
    assert t.n == 1001
    assert int((t.arr == t.sentinel).sum()) == 1
    assert int(np.flatnonzero(t.arr == t.sentinel)[0]) == t.n - 1


def test_auto_sentinel_is_smallest():
    t = load_text(bytes(range(1, 100)))
    assert t.sentinel == 0
    assert t.arr[:-1].min() > 0


def test_empty_input():
    with pytest.raises(EmptyInput):
        load_text(b"")


def test_substring_example():
    t = load_text(EXAMPLE_W)
    assert substring(t, 3, 6) == b"abab"
    assert substring(t, 5, 5) == b"a"
    assert substring(t, 1, t.n) == EXAMPLE_W + b"$"


def test_substring_out_of_range():
    t = load_text(b"abc")
    for i, j in [(0, 2), (1, 5), (3, 2)]:
        with pytest.raises(OutOfRange):
            substring(t, i, j)


def test_full_byte_alphabet():
    t = load_text(bytes(range(256)) * 2)
    assert t.sigma == 257
    assert t.arr.dtype == np.uint16
    assert substring(t, 1, 256) == bytes(range(256))


@given(st.binary(min_size=1, max_size=300))
def test_sentinel_position_and_lengths(raw):
    t = load_text(raw)
    assert t.n == len(raw) + 1
    assert int((t.arr == t.sentinel).sum()) == 1
    assert t.arr[-1] == t.sentinel
    assert t.sigma == len(set(raw)) + 1


@given(st.binary(min_size=1, max_size=120), st.data())
def test_substring_length(raw, data):
    t = load_text(raw)
    i = data.draw(st.integers(1, t.n))
    j = data.draw(st.integers(i, t.n))
    assert len(substring(t, i, j)) == j - i + 1


@given(st.binary(min_size=1, max_size=120))
def test_substring_roundtrips_original(raw):
    t = load_text(raw)
    assert substring(t, 1, t.n - 1) == raw

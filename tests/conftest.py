import itertools
import random

import pytest

from lcex.container import dump_index, load_index
from lcex.lce import build_index
from lcex.textstore import load_text

# the worked example string and the figure string used throughout
EXAMPLE_W = b"abababcabababcabababcd"
FIG_W = b"baabbaabbaaabbaabba"


def fib_word(n: int) -> bytes:
    """Prefix of the infinite Fibonacci word over {a, b}."""
    s, p = b"a", b"b"
    while len(s) < n:
        s, p = s + p, s
    return s[:n]


def thue_morse(n: int) -> bytes:
    s = bytearray(b"a")
    comp = {ord("a"): ord("b"), ord("b"): ord("a")}
    while len(s) < n:
        s += bytes(comp[c] for c in s)
    return bytes(s[:n])


def random_text(n: int, sigma: int, seed: int) -> bytes:
    rng = random.Random(seed)
    alphabet = bytes(range(97, 97 + sigma))
    return bytes(rng.choice(alphabet) for _ in range(n))


# (text, t, t') for the batch-twin tests, t' < t in most
TWIN_CASES = [
    (FIG_W, 4, 2),
    (fib_word(300), 8, 3),
    (thue_morse(256), 6, 6),
    (random_text(400, 4, seed=2), 6, 2),
    (b"ab" * 50, 5, 1),
]


def built_and_loaded(raw: bytes, t: int, t_prime: int):
    """The index of raw at (t, t') as built and as loaded from its container."""
    ix = build_index(load_text(raw), t, t_prime)
    return ix, load_index(dump_index(ix))


def all_binary_strings(max_len: int):
    for L in range(1, max_len + 1):
        for bits in itertools.product(b"ab", repeat=L):
            yield bytes(bits)


def decode_syms(text, syms) -> bytes:
    """Internal symbol list back to original bytes (sentinel renders as $)."""
    return bytes(int(text.remap[s]) for s in syms)


def naive_lce_py(s: bytes, i: int, j: int) -> int:
    """Reference scan on raw python bytes, 1-based, sentinel already present."""
    n = len(s)
    k = 0
    while i - 1 + k < n and j - 1 + k < n and s[i - 1 + k] == s[j - 1 + k]:
        k += 1
    return k


@pytest.fixture(scope="session")
def fig_text():
    return load_text(FIG_W)


@pytest.fixture(scope="session")
def example_text():
    return load_text(EXAMPLE_W)

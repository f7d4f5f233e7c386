"""Benchmark inputs: the three texts, their index parameters and the query sets.

Everything here is a pure function of the workload name and the seed, and
uses numpy only: the query sets are found from the text itself, never from
the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checker import window_hashes

UNIFORM_QUERIES = 4096
LONG_QUERIES = 2048


@dataclass(frozen=True)
class Spec:
    name: str
    n_raw: int          # text length before the appended sentinel
    t: int
    t_prime: int
    packed: bool


# Why each workload is here is in BENCHMARK.json and README.md: fib is the
# paper's best case (z ~ log n), random4 the incompressible one, and
# thue-tradeoff the only run of t' < t and of the packed section.
SPECS = {
    "fib": Spec("fib", 500_000, 64, 64, False),
    "random4": Spec("random4", 100_000, 16, 16, False),
    "thue-tradeoff": Spec("thue-tradeoff", 100_000, 32, 8, True),
}

# random4: planted copies cover this share of the text, in segments of
# 64..256 symbols copied from earlier positions, so that long pairs exist.
COPY_SHARE = 0.04
COPY_MIN, COPY_MAX = 64, 256


def fibonacci_word(n: int) -> bytes:
    a, b = b"a", b"ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse(n: int) -> bytes:
    x = np.arange(n, dtype=np.int64)
    parity = np.zeros(n, dtype=np.int64)
    while x.any():
        parity ^= x & 1
        x >>= 1
    return (parity + ord("a")).astype(np.uint8).tobytes()


def random4_with_copies(n: int, rng: np.random.Generator) -> bytes:
    text = rng.choice(np.frombuffer(b"acgt", dtype=np.uint8), n)
    planted = 0
    while planted < COPY_SHARE * n:
        length = int(rng.integers(COPY_MIN, COPY_MAX + 1))
        dest = int(rng.integers(length, n - length))
        src = int(rng.integers(0, dest - length + 1))
        text[dest:dest + length] = text[src:src + length]
        planted += length
    return text.tobytes()


def make_text(spec: Spec, seed: int) -> bytes:
    """The raw bytes of a workload; only random4 depends on the seed."""
    if spec.name == "fib":
        return fibonacci_word(spec.n_raw)
    if spec.name == "thue-tradeoff":
        return thue_morse(spec.n_raw)
    return random4_with_copies(spec.n_raw, np.random.default_rng([seed, 1]))


def symbols(raw: bytes) -> np.ndarray:
    """The indexed text as integers: bytes shifted up by one, then a unique
    smallest terminator, mirroring the sentinel the index appends."""
    out = np.empty(len(raw) + 1, dtype=np.int64)
    out[:-1] = np.frombuffer(raw, dtype=np.uint8).astype(np.int64) + 1
    out[-1] = 0
    return out


def uniform_pairs(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """1-based i, j drawn uniformly from [1..n] (n counts the sentinel)."""
    return (rng.integers(1, n + 1, UNIFORM_QUERIES),
            rng.integers(1, n + 1, UNIFORM_QUERIES))


def long_pairs(sym: np.ndarray, t: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Distinct 1-based i, j <= n-2t-1 whose first 2t symbols agree.

    Positions are grouped by a fingerprint of their 2t-window; each query
    picks a position from a group of two or more and a different member of
    the same group, and the shared window is then confirmed symbol by symbol.
    """
    n = len(sym)
    w = 2 * t
    last = n - 2 * t - 1                      # largest allowed 1-based position
    keys = window_hashes(sym, w)[:last]       # key of the window at 0-based p
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    sizes = np.diff(np.r_[starts, len(sk)])
    group = np.repeat(np.arange(len(starts)), sizes)
    eligible = np.flatnonzero(sizes[group] >= 2)     # indices into order
    if not len(eligible):
        raise ValueError("text has no repeated 2t-window")
    pick = eligible[rng.integers(0, len(eligible), LONG_QUERIES)]
    g = group[pick]
    other = starts[g] + (pick - starts[g] + rng.integers(1, sizes[g])) % sizes[g]
    i = order[pick]
    j = order[other]
    win = np.arange(w)
    if not (sym[i[:, None] + win] == sym[j[:, None] + win]).all():
        raise ValueError("fingerprint collision among 2t-windows")
    return i + 1, j + 1


def query_sets(spec: Spec, raw: bytes, seed: int) -> dict[str, np.ndarray]:
    sym = symbols(raw)
    rng = np.random.default_rng([seed, 2])
    ui, uj = uniform_pairs(len(sym), rng)
    li, lj = long_pairs(sym, spec.t, rng)
    return {"uniform_i": ui, "uniform_j": uj, "long_i": li, "long_j": lj}


def describe(seed: int) -> None:
    """Print each workload's input properties, z from lcex.lz77_factorize."""
    import lcex

    print("workload       n        sigma  t   t'  packed  copied  z")
    for spec in SPECS.values():
        raw = make_text(spec, seed)
        text = lcex.load_text(raw)
        copied = COPY_SHARE if spec.name == "random4" else 0.0
        z = lcex.lz77_factorize(text).z
        print(f"{spec.name:14s} {text.n:<8d} {text.sigma:<6d} {spec.t:<3d} {spec.t_prime:<3d} "
              f"{str(spec.packed):7s} {copied:<7.0%} {z}")


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    describe(int(sys.argv[1]) if len(sys.argv) > 1 else 1)

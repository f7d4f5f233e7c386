#!/usr/bin/env python3
"""Exactness and container-identity sweep over fixed seeded corpora.

Builds every corpus below at every (t, t', packed) setting of GRID that its
length allows, dumps the container, loads it back and checks that dumping
the loaded index gives the same bytes.  Both the built and the loaded index
then answer the sweep's pairs through four paths: ``lce_batch``, ``ix.lce``,
``ix.lce_instrumented`` and, on packed builds, ``ix.packed.lce``.  The
scalar paths get numpy integers, as read out of the pair arrays.  Texts of
at most ALL_PAIRS_N positions check every pair against
``naive_lce_table``; longer texts check PAIRS seeded pairs against
``IsaOracle``.

Corpora: Fibonacci, Thue-Morse, unary (random with sigma = 1), ``ab`` * k
and seeded random text with sigma in {2..6, 26, 255}, each at the lengths
in SIZES, which hold n = 2t and 2t + 1 for every t of GRID.

Prints one JSON line: the number of builds and checked pairs, mismatches per
path (``roundtrip`` counts containers that do not dump back to themselves),
exceptions by path and type, the run time, and last one SHA-256 over every
container in build order.  Equal digests at two commits mean byte-identical
containers.  Exits 1 when it counts any mismatch, roundtrip failure or
exception, else 0.

    PYTHONPATH=src python scripts/exact_sweep.py
"""

import hashlib
import json
import random
import sys
import time
from collections import Counter

import numpy as np

import lcex
from lcex.oracle import IsaOracle, naive_lce_table

# text lengths n, sentinel included
SIZES = (2, 3, 4, 5, 6, 7, 10, 11, 16, 17, 32, 33, 128, 129, 700, 3000)
# (t, t', packed)
GRID = ((1, 1, False), (2, 1, True), (2, 2, False), (3, 3, True), (5, 2, False),
        (8, 3, True), (8, 8, False), (16, 4, False), (16, 16, True),
        (64, 8, True), (64, 64, False))
ALL_PAIRS_N = 40
PAIRS = 1000
PATHS = ("lce_batch", "lce", "lce_instrumented", "packed", "roundtrip")


def fibonacci(m: int) -> bytes:
    s, p = b"a", b"b"
    while len(s) < m:
        s, p = s + p, s
    return s[:m]


def thue_morse(m: int) -> bytes:
    return bytes(97 + bin(k).count("1") % 2 for k in range(m))


def random_text(m: int, sigma: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.choice(range(1, sigma + 1)) for _ in range(m))


CORPORA = {
    "fib": fibonacci,
    "thue-morse": thue_morse,
    "unary": lambda m: b"a" * m,
    "ab": lambda m: (b"ab" * m)[:m],
    **{f"random{s}": (lambda m, s=s: random_text(m, s, seed=s)) for s in (2, 3, 4, 5, 6, 26, 255)},
}


def pairs_and_answers(text, rng):
    """Position arrays I, J and their oracle answers."""
    n = text.n
    if n <= ALL_PAIRS_N:
        I, J = (a.ravel() for a in np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1)))
        return I, J, naive_lce_table(text)[I, J].astype(np.int64)
    I = rng.integers(1, n + 1, size=PAIRS)
    J = rng.integers(1, n + 1, size=PAIRS)
    return I, J, IsaOracle(text).lce_batch(I, J)


def check(ix, I, J, want, mismatches: Counter, exceptions: Counter) -> None:
    paths = {
        "lce_batch": lambda: lcex.lce_batch(ix, I, J),
        "lce": lambda: [ix.lce(i, j) for i, j in zip(I, J)],
        "lce_instrumented": lambda: [ix.lce_instrumented(i, j)[0] for i, j in zip(I, J)],
    }
    if ix.packed is not None:
        paths["packed"] = lambda: [ix.packed.lce(i, j) for i, j in zip(I, J)]
    for path, answer in paths.items():
        try:
            mismatches[path] += int(np.count_nonzero(np.asarray(answer()) != want))
        except Exception as exc:   # counted, and the sweep goes on
            exceptions[f"{path}:{type(exc).__name__}"] += 1


def main() -> int:
    start = time.perf_counter()
    digest = hashlib.sha256()
    mismatches = Counter(dict.fromkeys(PATHS, 0))
    exceptions: Counter = Counter()
    builds = pairs = 0
    rng = np.random.default_rng(0)
    for make in CORPORA.values():
        for n in SIZES:
            text = lcex.load_text(make(n - 1))
            I, J, want = pairs_and_answers(text, rng)
            for t, tp, packed in GRID:
                if t > n or 2 * tp > n:
                    continue
                try:
                    built = lcex.build_index(text, t, tp, packed=packed)
                    blob = lcex.dump_index(built)
                    loaded = lcex.load_index(blob)
                    mismatches["roundtrip"] += lcex.dump_index(loaded) != blob
                except Exception as exc:
                    exceptions[f"build:{type(exc).__name__}"] += 1
                    continue
                digest.update(blob)
                builds += 1
                for ix in (built, loaded):
                    check(ix, I, J, want, mismatches, exceptions)
                    pairs += len(I)
    print(json.dumps({"builds": builds, "pairs": pairs, "mismatches": dict(mismatches),
                      "exceptions": dict(sorted(exceptions.items())),
                      "seconds": round(time.perf_counter() - start, 1),
                      "sha256": digest.hexdigest()}))
    return int(any(mismatches.values()) or bool(exceptions))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Single-bit-flip census of one index container.

Builds the container of a seeded random text (n = 300, sigma = 4, the
``random_text(300, 4, seed=5)`` of tests/conftest.py) at t = 6, t' = 3,
flips each of its bits in turn and loads the result.  A flip that loads is
checked against the oracle: ``lce_batch`` on 3,000 seeded pairs plus every
pair whose first position is among the last 21, and ``ix.lce`` on every
10th of those pairs.  Each flip lands in one outcome:

- ``FormatError``: the load rejected it;
- ``exact``: it loaded and every answer equals the oracle;
- ``wrong``: it loaded and some answer differs;
- any other exception's class name, prefixed ``load:`` when the load raised.

Prints one JSON line: the counts per outcome, then per container section
(``header`` is the magic, version and flags; a section's length prefix
counts with its section).  Exits 1 when any flip has an outcome other than
the first three: a corrupt container must load exactly or raise
``FormatError``, never ``IndexError``, ``MemoryError`` or the like.

    PYTHONPATH=src python scripts/flip_census.py
"""

import json
import random
import struct
import sys
from collections import Counter

import numpy as np

import lcex
from lcex.oracle import naive_lce_table

SECTIONS = ("params", "tst", "navtree", "blockcode", "stats", "packed")
OUTCOMES = {"FormatError", "exact", "wrong"}


def random_text(n: int, sigma: int, seed: int) -> bytes:
    rng = random.Random(seed)
    alphabet = bytes(range(97, 97 + sigma))
    return bytes(rng.choice(alphabet) for _ in range(n))


def section_of_byte(blob: bytes) -> list:
    """The section name of every byte of the container."""
    names = ["header"] * 8
    pos = 8
    for name in SECTIONS:
        if pos == len(blob):
            break
        size = 8 + struct.unpack_from("<Q", blob, pos)[0]
        names += [name] * size
        pos += size
    return names


def outcome(blob: bytes, I: np.ndarray, J: np.ndarray, want: np.ndarray) -> str:
    try:
        ix = lcex.load_index(blob)
    except lcex.FormatError:
        return "FormatError"
    except Exception as exc:
        return "load:" + type(exc).__name__
    try:
        if not (lcex.lce_batch(ix, I, J) == want).all():
            return "wrong"
        for k in range(0, len(I), 10):
            if ix.lce(int(I[k]), int(J[k])) != want[k]:
                return "wrong"
    except Exception as exc:
        return type(exc).__name__
    return "exact"


def main() -> int:
    text = lcex.load_text(random_text(300, 4, seed=5))
    n = text.n
    blob = lcex.dump_index(lcex.build_index(text, 6, 3))
    rng = random.Random(0)
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3000)]
    pairs += [(i, j) for i in range(n - 20, n + 1) for j in range(1, n + 1)]
    I = np.array([p[0] for p in pairs], dtype=np.int64)
    J = np.array([p[1] for p in pairs], dtype=np.int64)
    want = naive_lce_table(text)[I, J].astype(np.int64)

    names = section_of_byte(blob)
    totals = Counter()
    per_section = {}
    buf = bytearray(blob)
    for pos in range(len(blob)):
        for bit in range(8):
            buf[pos] ^= 1 << bit
            got = outcome(bytes(buf), I, J, want)
            buf[pos] ^= 1 << bit
            totals[got] += 1
            per_section.setdefault(names[pos], Counter())[got] += 1
    print(json.dumps({
        "container_bytes": len(blob), "flips": 8 * len(blob), "pairs": len(pairs),
        "outcomes": dict(sorted(totals.items())),
        "sections": {k: dict(sorted(v.items())) for k, v in per_section.items()},
    }))
    return 0 if set(totals) <= OUTCOMES else 1


if __name__ == "__main__":
    sys.exit(main())

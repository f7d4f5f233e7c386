#!/usr/bin/env python3
"""Sweep the block length on one corpus and report measured sizes.

``cover_size`` is the real |D(t)| of the difference cover, so code_len can
be read against n*|D(t)|/t next to the n/sqrt(t) term.

Example:
    python scripts/space_sweep.py corpus.bin --t 1 2 4 8 16 32 64
"""

import argparse
import csv
import math
import sys
import time

import lcex


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("input")
    ap.add_argument("--t", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32, 64])
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    text = lcex.load_file(args.input)
    z = lcex.lz77_factorize(text).z
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["t", "n", "z", "tst_nodes", "ref_len", "code_len",
                     "estimated_words", "index_bytes", "build_s", "n_over_sqrt_t",
                     "cover_size"])
    for t in args.t:
        if t > text.n or 2 * t > text.n:
            continue
        t0 = time.perf_counter()
        ix = lcex.build_index(text, t, z=z)
        dt = time.perf_counter() - t0
        st = ix.stats
        writer.writerow([t, text.n, z, st.tst_nodes, st.tst_ref_len,
                         st.code_len, st.estimated_words,
                         len(lcex.dump_index(ix)), round(dt, 3),
                         math.ceil(text.n / math.sqrt(t)),
                         len(ix.bc.cover.dc.members)])
    if args.csv:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

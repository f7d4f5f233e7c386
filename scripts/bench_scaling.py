#!/usr/bin/env python3
"""Query-latency scaling across text lengths on a repetitive corpus.

Builds indexes for growing prefixes of the Fibonacci word (or a given file)
at a fixed block length and times random queries; mean latency should stay
flat while the input grows, and build time should grow linearly.
--t-prime below --t and --packed exercise the chained-trie and packed build
paths, e.g.:

    python scripts/bench_scaling.py --sizes 50000 100000 200000 400000 \
        --t 32 --t-prime 8 --packed --queries 2000
"""

import argparse
import random
import sys
import time

import lcex


def fib_word(n: int) -> bytes:
    s, p = b"a", b"b"
    while len(s) < n:
        s, p = s + p, s
    return s[:n]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", default=None, help="corpus file; default Fibonacci word")
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[10**4, 10**5, 10**6])
    ap.add_argument("--t", type=int, default=64)
    ap.add_argument("--t-prime", type=int, default=None,
                    help="trie block length t' <= t (default t)")
    ap.add_argument("--packed", action="store_true",
                    help="also build the packed bit-level section")
    ap.add_argument("--queries", type=int, default=50000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    base = open(args.input, "rb").read() if args.input else fib_word(max(args.sizes))
    print("n,build_s,index_bytes,mean_ns,p99_ns")
    for n in args.sizes:
        if n > len(base):
            break
        text = lcex.load_text(base[:n])
        t0 = time.perf_counter()
        t = min(args.t, text.n // 2)
        tp = None if args.t_prime is None else min(args.t_prime, t)
        ix = lcex.build_index(text, t, tp, packed=args.packed)
        build_s = time.perf_counter() - t0
        rng = random.Random(args.seed)
        pairs = [(rng.randint(1, text.n), rng.randint(1, text.n))
                 for _ in range(args.queries)]
        for i, j in pairs:
            ix.lce(i, j)
        times = []
        clock = time.perf_counter_ns
        for i, j in pairs:
            a = clock()
            ix.lce(i, j)
            times.append(clock() - a)
        times.sort()
        mean = sum(times) / len(times)
        print(f"{text.n},{build_s:.2f},{len(lcex.dump_index(ix))},"
              f"{mean:.0f},{times[int(0.99 * (len(times) - 1))]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: build/save/load, batch queries, benchmarking with an
oracle cross-check, LZ77 reporting, and a built-in self test.

All positions on the command line are 1-based.  Exit codes: 0 success,
1 query/bench mismatch, 2 usage or range error, 3 IO or container format
error.  Set LCE_LOG=debug|info for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import random
import sys
import time

from . import container
from .errors import FormatError, LcexError, OutOfRange, ParamOutOfRange
from .lce import build_index, tune_tau
from .lz77 import lz77_factorize
from .oracle import IsaOracle, naive_lce
from .textstore import load_file, load_text

log = logging.getLogger("lcex")

BENCH_COLUMNS = [
    "corpus", "n", "sigma", "z", "t", "t_prime", "build_ms", "index_bytes",
    "queries", "mean_query_ns", "p99_query_ns", "oracle_mean_ns", "mismatches",
]


def _print_stats(st) -> None:
    print(f"n={st.n} t={st.t} t_prime={st.t_prime}")
    print(f"tst_nodes={st.tst_nodes} tst_ref_len={st.tst_ref_len} "
          f"nav_nodes={st.nav_nodes} sampled_count={st.sampled_count} "
          f"code_len={st.code_len}")
    z = "-" if st.z is None else st.z
    print(f"estimated_words={st.estimated_words} z={z}")


def cmd_build(args) -> int:
    text = load_file(args.input)
    if args.auto_tune:
        t = tune_tau(text)
        print(f"auto-tuned t={t}")
    else:
        t = args.t
    if t is None:
        raise ParamOutOfRange("give --t or --auto-tune")
    t0 = time.perf_counter()
    ix = build_index(text, t, args.t_prime, packed=args.packed)
    log.info("build took %.1f ms", 1000 * (time.perf_counter() - t0))
    size = container.save_index(ix, args.output)
    print(f"wrote {args.output} ({size} bytes)")
    _print_stats(ix.stats)
    return 0


def cmd_stats(args) -> int:
    ix = container.load_index_file(args.index)
    _print_stats(ix.stats)
    return 0


def _iter_pairs(args, n):
    if args.pair:
        for i, j in args.pair:
            yield int(i), int(j)
    if args.pairs_file:
        with open(args.pairs_file) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                i, j = line.split()
                yield int(i), int(j)
    if args.random:
        rng = random.Random(args.seed)
        for _ in range(args.random):
            yield rng.randint(1, n), rng.randint(1, n)


def cmd_query(args) -> int:
    ix = container.load_index_file(args.index)
    bad = 0
    for i, j in _iter_pairs(args, ix.n):
        try:
            print(f"{i} {j} {ix.lce(i, j)}")
        except OutOfRange as exc:
            print(f"{i} {j} error: {exc}")
            bad += 1
    return 2 if bad else 0


def cmd_bench(args) -> int:
    text = load_file(args.input)
    if args.index:
        ix = container.load_index_file(args.index)
        build_ms = 0.0
        index_bytes = os.path.getsize(args.index)
        if ix.n != text.n:
            raise FormatError("index and input lengths disagree")
    else:
        t = tune_tau(text) if args.auto_tune else args.t
        if t is None:
            raise ParamOutOfRange("give --t, --auto-tune, or --index")
        t0 = time.perf_counter()
        ix = build_index(text, t, args.t_prime)
        build_ms = 1000 * (time.perf_counter() - t0)
        index_bytes = len(container.dump_index(ix))

    fact = lz77_factorize(text)
    oracle = IsaOracle(text)
    rng = random.Random(args.seed)
    pairs = [(rng.randint(1, ix.n), rng.randint(1, ix.n)) for _ in range(args.queries)]

    answers = [0] * len(pairs)
    timings = [0] * len(pairs)
    q = ix.lce
    clock = time.perf_counter_ns
    for k, (i, j) in enumerate(pairs):
        t0 = clock()
        answers[k] = q(i, j)
        timings[k] = clock() - t0

    t0 = time.perf_counter_ns()
    mismatches = sum(a != oracle.lce(i, j) for a, (i, j) in zip(answers, pairs))
    oracle_ns = (time.perf_counter_ns() - t0) / max(1, len(pairs))

    timings.sort()
    record = {
        "corpus": os.path.basename(args.input),
        "n": ix.n,
        "sigma": ix.sigma,
        "z": fact.z,
        "t": ix.t,
        "t_prime": ix.t_prime,
        "build_ms": round(build_ms, 3),
        "index_bytes": index_bytes,
        "queries": len(pairs),
        "mean_query_ns": round(sum(timings) / max(1, len(timings)), 1),
        "p99_query_ns": timings[int(0.99 * (len(timings) - 1))] if timings else 0,
        "oracle_mean_ns": round(oracle_ns, 1),
        "mismatches": mismatches,
    }
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerow(record)
    finally:
        if args.csv:
            out.close()
    return 1 if mismatches else 0


def cmd_lz77(args) -> int:
    text = load_file(args.input)
    fact = lz77_factorize(text)
    print(f"z={fact.z} z_with_sentinel={fact.z_total}")
    if args.factors:
        for piece in fact.factor_strings(text):
            print(piece.decode("latin-1"))
    return 0


def cmd_selftest(args) -> int:
    import numpy as np

    from .batch import lce_batch
    from .oracle import naive_lce_table

    rng = random.Random(1)
    corpora = [
        b"abababcabababcabababcd",
        b"baabbaabbaaabbaabba",
        bytes(rng.choice(b"ab") for _ in range(257)),
        bytes(rng.choice(b"abcdefgh") for _ in range(200)),
        b"abaababaabaab" * 23,
    ]
    failures = 0
    for raw in corpora:
        text = load_text(raw)
        n = text.n
        table = naive_lce_table(text)
        I, J = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1))
        I, J = I.ravel(), J.ravel()
        # the longest off-diagonal matches reach both block codes: over the
        # text, and over the packed bit string in 64-bit words
        off = table.copy()
        np.fill_diagonal(off, 0)
        longest = np.column_stack(np.unravel_index(np.argsort(off, axis=None)[-16:],
                                                   off.shape)).tolist()
        # t' = 1 chains t capped trie calls per capped check
        for t, tp in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 5), (8, 1), (8, 8)]:
            ix = build_index(text, t, tp, packed=True)
            ok = bool((lce_batch(ix, I, J) == table[I, J]).all())
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(64)] + longest
            spot = all(ix.lce(i, j) == ix.packed.lce(i, j) == int(table[i, j])
                       for i, j in pairs)
            status = "PASS" if ok and spot else "FAIL"
            if status == "FAIL":
                failures += 1
            print(f"{status} corpus={raw[:12]!r} n={n} t={t} t'={tp} packed")
    return 1 if failures else 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lcex", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index file from raw bytes")
    b.add_argument("input")
    b.add_argument("--t", type=int, default=None)
    b.add_argument("--t-prime", type=int, default=None)
    b.add_argument("--auto-tune", action="store_true")
    b.add_argument("--packed", action="store_true")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("stats", help="print the space report of an index file")
    s.add_argument("index")
    s.set_defaults(func=cmd_stats)

    q = sub.add_parser("query", help="answer LCE queries from an index file")
    q.add_argument("index")
    q.add_argument("--pair", nargs=2, action="append", metavar=("I", "J"))
    q.add_argument("--pairs-file")
    q.add_argument("--random", type=int, default=0)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_query)

    bench = sub.add_parser("bench", help="time queries and cross-check the oracle")
    bench.add_argument("--input", required=True)
    bench.add_argument("--index")
    bench.add_argument("--t", type=int, default=None)
    bench.add_argument("--t-prime", type=int, default=None)
    bench.add_argument("--auto-tune", action="store_true")
    bench.add_argument("--queries", type=int, default=10000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv")
    bench.set_defaults(func=cmd_bench)

    lz = sub.add_parser("lz77", help="report the factorization size")
    lz.add_argument("input")
    lz.add_argument("--factors", action="store_true")
    lz.set_defaults(func=cmd_lz77)

    st = sub.add_parser("selftest", help="run the built-in oracle equivalence suite")
    st.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    level = os.environ.get("LCE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (OutOfRange, ParamOutOfRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LcexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: one build or one serving process.

Usage: python3 worker.py JOB.json

The job names a mode and the files to read and write.  A ``build`` job gets
the raw text and writes the container; a ``serve`` job gets the container
and the query pairs only, never the text, and writes its answers and
timings for the parent to check.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

import hostspeed
import tracing

# Rounds of every query class run untimed after load, before timing starts:
# the first passes over a fresh index run 20-35% slower than later ones.
WARMUP_ROUNDS = 2
# Small first batch call; with the first scalar query it forms the first use.
FIRST_BATCH = 64
# Per-call micro timings: calls per timed block, and passes over each input.
BLOCK = 256
PASSES = 5


def peak_mb() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM belongs to the address space made at exec.  ru_maxrss does not
    do: Linux carries it over from the forking parent, so it would report
    the parent benchmark process's size whenever that is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def build(job: dict) -> dict:
    with open(job["raw"], "rb") as fh:
        raw = fh.read()
    import lcex

    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
        root = tracer.open("bench.setup")
    t0 = time.perf_counter()
    text = lcex.load_text(raw)
    ix = lcex.build_index(text, job["t"], job["t_prime"], packed=job["packed"])
    blob = lcex.dump_index(ix)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "peak_mb": peak_mb()}
    if tracer:
        tracer.close(root)
        tracer.uninstall()
        out["spans"] = tracer.spans()
    with open(job["index"], "wb") as fh:
        fh.write(blob)
    return out


def _first_use(lcex, ix, pairs) -> dict:
    """The first scalar query (a long pair, so that it reaches every layer)
    and the first, small, batch call; returns pairs and answers to check."""
    i0, j0 = int(pairs["long_i"][0]), int(pairs["long_j"][0])
    a0 = ix.lce(i0, j0)
    bi = np.concatenate([pairs["long_i"][:FIRST_BATCH], pairs["uniform_i"][:FIRST_BATCH]])
    bj = np.concatenate([pairs["long_j"][:FIRST_BATCH], pairs["uniform_j"][:FIRST_BATCH]])
    got = lcex.lce_batch(ix, bi, bj)
    return {"first_i": np.r_[i0, bi], "first_j": np.r_[j0, bj], "first_ans": np.r_[a0, got]}


def serve(job: dict) -> dict:
    with open(job["index"], "rb") as fh:
        blob = fh.read()
    pairs = dict(np.load(job["pairs"]))
    import lcex

    clock = time.perf_counter_ns
    t0 = clock()
    ix = lcex.load_index(blob)
    record = _first_use(lcex, ix, pairs)
    out = {"load_s": (clock() - t0) / 1e9}
    if job["seconds"] <= 0:
        out["peak_mb"] = peak_mb()
        np.savez(job["answers"], **record)
        return out

    lce = ix.lce
    lce_batch = lcex.lce_batch
    classes = {}
    for cls in ("uniform", "long"):
        I, J = pairs[f"{cls}_i"], pairs[f"{cls}_j"]
        classes[cls] = (I, J, I.tolist(), J.tolist())
    scalar_ans = {c: array("q") for c in classes}
    scalar_ns = {c: array("q") for c in classes}
    batch_ans = {c: [] for c in classes}
    batch_ns = {c: array("q") for c in classes}

    def one_round(keep: bool) -> None:
        for cls, (I, J, il, jl) in classes.items():
            ans, lat = scalar_ans[cls], scalar_ns[cls]
            for k in range(len(il)):
                s = clock()
                a = lce(il[k], jl[k])
                e = clock()
                if keep:
                    lat.append(e - s)
                    ans.append(a)
        for cls, (I, J, _, _) in classes.items():
            s = clock()
            got = lce_batch(ix, I, J)
            e = clock()
            if keep:
                batch_ns[cls].append(e - s)
                batch_ans[cls].append(got)

    for _ in range(WARMUP_ROUNDS):
        one_round(False)
    out["peak_mb"] = peak_mb()
    rounds = 0
    refs = array("q", [hostspeed.reference_ns()])
    deadline = clock() + int(job["seconds"] * 1e9)
    while clock() < deadline:
        one_round(True)
        refs.append(hostspeed.reference_ns())
        rounds += 1
    out["rounds"] = rounds
    record["reference_ns"] = np.frombuffer(refs, dtype=np.int64)

    if job["roundtrip"]:
        out["roundtrip_ok"] = lcex.dump_index(ix) == blob
    for cls in classes:
        q = len(classes[cls][0])
        record[f"scalar_{cls}"] = np.frombuffer(scalar_ans[cls], dtype=np.int64).reshape(rounds, q)
        record[f"scalar_{cls}_ns"] = np.frombuffer(scalar_ns[cls], dtype=np.int64)
        record[f"batch_{cls}"] = np.array(batch_ans[cls], dtype=np.int64).reshape(rounds, q)
        record[f"batch_{cls}_ns"] = np.frombuffer(batch_ns[cls], dtype=np.int64)
        if ix.packed is not None:
            I, J, il, jl = classes[cls]
            record[f"packed_{cls}"] = np.array(
                [ix.packed.lce(i, j) for i, j in zip(il, jl)], dtype=np.int64)
    np.savez(job["answers"], **record)
    return out


# -- traced serving process ---------------------------------------------------

def _per_call_ns(fn, args: list[tuple]) -> float:
    """Median over blocks of BLOCK calls of the mean time per call."""
    clock = time.perf_counter_ns
    per = []
    for _ in range(PASSES):
        for b in range(0, len(args) - BLOCK + 1, BLOCK):
            chunk = args[b:b + BLOCK]
            s = clock()
            for a in chunk:
                fn(*a)
            per.append((clock() - s) / BLOCK)
    return float(np.median(per))


def _per_lane_ns(fn, *arrays) -> float:
    clock = time.perf_counter_ns
    fn(*arrays)
    per = []
    for _ in range(4 * PASSES):
        s = clock()
        fn(*arrays)
        per.append((clock() - s) / len(arrays[-1]))
    return float(np.median(per))


def _measure(metrics: dict, name: str, thunk) -> None:
    """Record one metric; a structure a later change removed leaves it out."""
    try:
        metrics[name] = thunk()
    except (AttributeError, TypeError, KeyError) as exc:
        print(f"worker: metric {name} missing ({exc!r})", file=sys.stderr)


def serve_traced(job: dict) -> dict:
    with open(job["index"], "rb") as fh:
        blob = fh.read()
    pairs = dict(np.load(job["pairs"]))
    import lcex

    tracer = tracing.Tracer()
    tracer.install()
    clock = time.perf_counter_ns
    t0 = clock()
    with tracer.span("bench.load"):
        ix = lcex.load_index(blob)
    t1 = clock()
    with tracer.span("bench.first_use"):
        record = _first_use(lcex, ix, pairs)
    t2 = clock()
    tracer.uninstall()
    m: dict[str, float] = {
        "container.load_index_s": (t1 - t0) / 1e9,
        "lce.first_use_s": (t2 - t1) / 1e9,
    }
    out = {"load_s": (t2 - t0) / 1e9, "spans": tracer.spans(), "metrics": m}

    from lcex.blockcode import BlockCode
    from lcex.navtree import NavTree

    # Resident bytes, after first use so that lazily built mirrors count.
    _measure(m, "tst.resident_bytes", lambda: tracing.resident_bytes(ix.tree))
    _measure(m, "tst.lca_table_bytes", lambda: tracing.resident_bytes(ix.tree.tour_sparse))
    _measure(m, "navtree.resident_bytes", lambda: tracing.resident_bytes(ix.nav))
    _measure(m, "navtree.lift_table_bytes",
             lambda: tracing.resident_bytes(ix.nav.lift) + tracing.resident_bytes(ix.nav.lift_np))
    _measure(m, "blockcode.resident_bytes", lambda: tracing.resident_bytes(ix.bc))
    _measure(m, "blockcode.rmq_table_bytes", lambda: tracing.resident_bytes(ix.bc.rmq))
    m["packed.resident_bytes"] = tracing.resident_bytes(ix.packed)

    # Exact counts.
    _measure(m, "tst.nodes", lambda: ix.tree.node_count)
    _measure(m, "navtree.nodes", lambda: ix.nav.node_count)
    _measure(m, "diffcover.cover_size", lambda: len(ix.bc.cover.dc.members))
    _measure(m, "blockcode.code_len", lambda: ix.bc.code_len)
    _measure(m, "navtree.lift_levels", lambda: len(ix.nav.lift))

    classes = {c: (pairs[f"{c}_i"].tolist(), pairs[f"{c}_j"].tolist())
               for c in ("uniform", "long")}
    for cls, (il, jl) in classes.items():
        counter = tracing.CallCounter({"locate": (NavTree, "locate"),
                                       "long_lce": (BlockCode, "long_lce")})
        try:
            record[f"count_{cls}"] = np.array([ix.lce(i, j) for i, j in zip(il, jl)])
        finally:
            counter.close()
        q = len(il)
        m[f"navtree.locate_calls_per_query.{cls}"] = counter.counts["locate"] / q
        m[f"lce.block_path_share.{cls}"] = counter.counts["long_lce"] / q
        sub = [ix.lce_instrumented(i, j) for i, j in zip(il, jl)]
        record[f"instrumented_{cls}"] = np.array([a for a, _ in sub])
        m[f"lce.subcalls_per_query.{cls}"] = sum(c["total"] for _, c in sub) / q

    # Per-call medians of the query primitives, untraced.
    ui, uj = classes["uniform"]
    li, lj = classes["long"]
    nav, tree, bc = ix.nav, ix.tree, ix.bc
    _measure(m, "navtree.locate_ns", lambda: _per_call_ns(nav.locate, [(i,) for i in ui]))

    def leaf_pairs():
        got = [(nav.locate(i), nav.locate(j)) for i, j in zip(ui, uj)]
        return [(u, v) for u, v in got if u != v]
    _measure(m, "tst.lca_prefix_len_ns",
             lambda: _per_call_ns(tree.lca_prefix_len, leaf_pairs()))
    h = bc.cover.dc.h
    _measure(m, "diffcover.h_ns", lambda: _per_call_ns(h, list(zip(li, lj))))
    aligned = [(i + h(i, j), j + h(i, j)) for i, j in zip(li, lj)]
    _measure(m, "blockcode.long_lce_ns", lambda: _per_call_ns(bc.long_lce, aligned))
    _measure(m, "lce.short_lce_ns", lambda: _per_call_ns(ix.short_lce, list(zip(li, lj))))
    UI, UJ = pairs["uniform_i"], pairs["uniform_j"]
    _measure(m, "batch.short_lce_batch_ns",
             lambda: _per_lane_ns(lambda a, b: lcex.short_lce_batch(ix, a, b), UI, UJ))
    AI = np.array([a for a, _ in aligned], dtype=np.int64)
    AJ = np.array([b for _, b in aligned], dtype=np.int64)
    _measure(m, "blockcode.long_lce_batch_ns", lambda: _per_lane_ns(bc.long_lce_batch, AI, AJ))
    if ix.packed is not None:
        m["packed.packed_lce_ns"] = _per_call_ns(ix.packed.lce, list(zip(ui, uj)))
        record["packed_uniform"] = np.array([ix.packed.lce(i, j) for i, j in zip(ui, uj)])
    else:
        m["packed.packed_lce_ns"] = 0.0
    out["peak_mb"] = peak_mb()
    np.savez(job["answers"], **record)
    return out


MODES = {"build": build, "serve": serve, "serve_traced": serve_traced}


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    out = MODES[job["mode"]](job)
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

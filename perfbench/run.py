"""End-to-end benchmark of the encoding LCE index: build, load and query.

Usage (from the repository root):
    python3 perfbench/run.py --workload fib --seed 1 --seconds 15 --trace 0

Each run builds the index from the workload's text in fresh processes, then
serves it in fresh processes that receive the container and the query pairs
but never the text.  Traffic is a closed loop: one caller on one thread
sends the next query when the previous one has returned.  Every answer is
checked against the text here, apart from the program.

--trace 0 prints the end-to-end metrics.  --trace 1 builds and serves with
spans around the lcex public surface, next to untraced builds and loads
that give the tracing overhead, and prints the per-layer metrics.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads
from checker import TextChecker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The untraced run's child processes, in order.  setup_s and build_peak_mb
# are medians over the builds.  The serving processes share the run's
# seconds and their query samples are pooled; serve_peak_mb is their median.
# load_s is the median over them and the load-only processes, which repeat
# a load that takes 40 ms on two of the workloads.  The host's speed drifts
# by up to 2x over tens of seconds, and one process's memory layout moves
# its latencies, so the kinds alternate to spread every metric's samples
# over the whole run.
SCHEDULE = ("build", "serve", "load", "build", "serve", "load", "build", "serve", "load",
            "serve", "load", "serve", "load")
# Builds with and without spans, alternating, and untraced loads, per traced
# run: the tracing overhead is the difference of their medians.
TRACED_BUILDS = 3
# Every run, its children included, ends within this many seconds.
RUN_LIMIT_S = 170

BUILD_PHASES = {
    "suffixes.suffix_array_s": ["suffixes.suffix_array"],
    "suffixes.lcp_array_s": ["suffixes.lcp_array"],
    "suffixes.sparse_min_s": ["suffixes.SparseMin", "suffixes.log2_table"],
    "tst.build_tst_s": ["tst.build_tst", "tst.TruncatedSuffixTree"],
    "tst.mark_tgram_nodes_s": ["tst.mark_tgram_nodes"],
    "tst.compact_reference_s": ["tst.compact_reference"],
    "navtree.build_navtree_s": ["navtree.build_navtree", "navtree.NavTree"],
    "container.dump_index_s": ["container.dump_index"],
    "blockcode.rank_blocks_s": ["blockcode.rank_blocks", "blockcode.rank_blocks_by_sort"],
    "blockcode.build_blockcode_s": ["blockcode.build_blockcode", "blockcode.BlockCode"],
    "packed.build_packed_s": ["packed.build_packed", "packed.pack",
                              "packed.build_bit_blockcode", "packed.PackedText",
                              "packed.PackedLce"],
}


# Container sections in file order; the packed one is present only when built.
SECTIONS = ("params", "tst", "navtree", "blockcode", "stats", "packed")


class BenchError(Exception):
    pass


def child(work: Path, tag: str, job: dict, started: float) -> dict:
    """Run one worker process to completion and return its result."""
    job = dict(job, result=str(work / f"{tag}.out.json"))
    path = work / f"{tag}.job.json"
    path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 1:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                              cwd=ROOT, env=env, timeout=left,
                              stdout=sys.stderr, stderr=sys.stderr)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def container_sections(blob: bytes) -> dict[str, int] | None:
    """Payload bytes of each length-prefixed section after the 8-byte header,
    or None when the container no longer has that layout."""
    sizes = []
    pos = 8
    while pos + 8 <= len(blob):
        length = int.from_bytes(blob[pos:pos + 8], "little")
        sizes.append(length)
        pos += 8 + length
    if pos != len(blob) or len(sizes) > len(SECTIONS):
        return None
    return dict(zip(SECTIONS, sizes))


class Checks:
    """Counts the answers checked against the text and those that failed."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def answers(self, label: str, i, j, ans, also_bad=None) -> None:
        ans = np.asarray(ans)
        if ans.size == 0:
            return
        reps = ans.size // len(i)
        ok = self.checker.check(np.tile(i, reps), np.tile(j, reps), ans)
        if also_bad is not None:
            ok &= ~np.asarray(also_bad).ravel()
        bad = int((~ok).sum())
        self.attempted += ans.size
        self.failed += bad
        if bad:
            self.problems.append(f"{label}: {bad} of {ans.size} answers wrong")

    def require(self, label: str, cond: bool) -> None:
        if not cond:
            self.problems.append(label)


def check_serve(checks: Checks, pairs: dict, answers) -> None:
    checks.answers("first use", answers["first_i"], answers["first_j"], answers["first_ans"])
    for cls in ("uniform", "long"):
        i, j = pairs[f"{cls}_i"], pairs[f"{cls}_j"]
        for key in (f"scalar_{cls}", f"packed_{cls}", f"count_{cls}", f"instrumented_{cls}"):
            if key in answers:
                checks.answers(key, i, j, answers[key])
        if f"batch_{cls}" in answers:
            disagree = answers[f"batch_{cls}"] != answers[f"scalar_{cls}"]
            checks.answers(f"batch_{cls}", i, j, answers[f"batch_{cls}"], also_bad=disagree)


def untraced(work: Path, jobs: dict, pairs: dict, checks: Checks,
             seconds: int, started: float) -> tuple[dict, dict]:
    builds, serves, loads, blobs, refs = [], [], [], [], []
    raw, scaled, batch_qps = ({"uniform": [], "long": []} for _ in range(3))
    index = str(work / "index0.lcex")
    for step in SCHEDULE:
        if step == "build":
            path = work / f"index{len(builds)}.lcex"
            builds.append(child(work, f"build{len(builds)}",
                                dict(jobs["build"], index=str(path), trace=False), started))
            blobs.append(path.read_bytes())
            continue
        if step == "load":
            answers = work / "load.npz"
            loads.append(child(work, f"load{len(loads)}", dict(
                jobs["serve"], index=index, answers=str(answers), seconds=0), started))
            with np.load(answers) as got:
                check_serve(checks, pairs, got)
            continue
        k = len(serves)
        answers = work / f"answers{k}.npz"
        res = child(work, f"serve{k}", dict(jobs["serve"], index=index, answers=str(answers),
                                             seconds=seconds / SCHEDULE.count("serve"),
                                             roundtrip=k == 0), started)
        serves.append(res)
        checks.require("dump_index(load_index(b)) != b", res.get("roundtrip_ok", True))
        with np.load(answers) as got:
            check_serve(checks, pairs, got)
            ref = got["reference_ns"]
            refs.append(ref)
            # each round is scaled by the reference loop timed on both sides of it
            scale = hostspeed.REFERENCE_NS / ((ref[:-1] + ref[1:]) / 2)
            for cls in raw:
                ns = got[f"scalar_{cls}_ns"].reshape(len(scale), -1)
                raw[cls].append(ns)
                scaled[cls].append(ns * scale[:, None])
                batch_qps[cls].append(len(pairs[f"{cls}_i"]) * 1e9 / got[f"batch_{cls}_ns"])
    checks.require("builds of one text differ", all(b == blobs[0] for b in blobs))

    metrics = {
        "setup_s": (statistics.median(b["setup_s"] for b in builds), "s"),
        "build_peak_mb": (statistics.median(b["peak_mb"] for b in builds), "MB"),
        "index_bytes": (len(blobs[0]), "bytes"),
        "load_s": (statistics.median(r["load_s"] for r in serves + loads), "s"),
        "serve_peak_mb": (statistics.median(s["peak_mb"] for s in serves), "MB"),
        **latencies(scaled),
        "batch_qps": (float(np.median(np.concatenate(batch_qps["uniform"]))), "queries/s"),
        "batch_long_qps": (float(np.median(np.concatenate(batch_qps["long"]))), "queries/s"),
    }
    unscaled = {name: value for name, (value, _) in latencies(raw).items()}
    unscaled["reference_ns_median"] = float(np.median(np.concatenate(refs)))
    return metrics, unscaled


def latencies(samples: dict) -> dict:
    """p50 and p95 of the pooled per-call times of each query class."""
    out = {}
    for cls, prefix in (("uniform", "lce"), ("long", "lce_long")):
        pooled = np.concatenate(samples[cls], axis=None)
        for q in (50, 95):
            out[f"{prefix}_p{q}_ns"] = (float(np.percentile(pooled, q)), "ns")
    return out


def traced(work: Path, jobs: dict, pairs: dict, checks: Checks,
           trace_path: Path, started: float) -> dict:
    plain, spanned, blobs = [], [], set()
    for k in range(TRACED_BUILDS):
        for trace, runs in ((False, plain), (True, spanned)):
            path = work / f"index-{k}-{int(trace)}.lcex"
            runs.append(child(work, f"build{k}-{int(trace)}",
                              dict(jobs["build"], index=str(path), trace=trace), started))
            blobs.add(path.read_bytes())
    checks.require("traced build's container differs from the untraced one", len(blobs) == 1)
    blob = blobs.pop()
    serve = dict(jobs["serve"], index=str(work / "index-0-0.lcex"), roundtrip=False)
    loads = []
    for k in range(TRACED_BUILDS):
        loads.append(child(work, f"load{k}", dict(serve, answers=str(work / "load.npz"),
                                                  seconds=0), started))
        with np.load(work / "load.npz") as got:
            check_serve(checks, pairs, got)
    res = child(work, "serve_traced", dict(serve, mode="serve_traced",
                                           answers=str(work / "traced.npz")), started)
    with np.load(work / "traced.npz") as got:
        check_serve(checks, pairs, got)

    m = dict(res["metrics"])
    # phases come from the traced build of median length, so that they and
    # build.other_s add up to build.traced_s
    median_build = sorted(spanned, key=lambda b: b["setup_s"])[len(spanned) // 2]
    own = tracing.self_times(median_build["spans"])
    for metric, names in BUILD_PHASES.items():
        m[metric] = sum(own.get(nm, 0.0) for nm in names)
    m["build.traced_s"] = median_build["setup_s"]
    m["build.other_s"] = median_build["setup_s"] - sum(m[k] for k in BUILD_PHASES)
    m["trace.build_overhead_s"] = (median_build["setup_s"]
                                   - statistics.median(b["setup_s"] for b in plain))
    m["trace.load_overhead_s"] = res["load_s"] - statistics.median(r["load_s"] for r in loads)

    sections = container_sections(blob)
    if sections is None:
        print("run.py: container layout changed, container.*_bytes missing", file=sys.stderr)
    else:
        for name in ("tst", "navtree", "blockcode", "packed"):
            m[f"container.{name}_bytes"] = sections.get(name, 0)

    trace_path.write_text(json.dumps({"build": [b["spans"] for b in spanned],
                                      "serve": res["spans"]}))
    return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    if ".block_path_share." in name:
        return "share"
    if "_per_query." in name:
        return "calls/query"
    return "count"


def run(args) -> tuple[dict, dict | None]:
    started = time.monotonic()
    spec = workloads.SPECS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        raw = workloads.make_text(spec, args.seed)
        (work / "raw.bin").write_bytes(raw)
        pairs = workloads.query_sets(spec, raw, args.seed)
        np.savez(work / "pairs.npz", **pairs)
        checks = Checks(TextChecker(workloads.symbols(raw)))
        jobs = {
            "build": {"mode": "build", "raw": str(work / "raw.bin"), "t": spec.t,
                      "t_prime": spec.t_prime, "packed": spec.packed},
            "serve": {"mode": "serve", "pairs": str(work / "pairs.npz")},
        }
        unscaled = None
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = traced(work, jobs, pairs, checks, trace_path, started)
        else:
            metrics, unscaled = untraced(work, jobs, pairs, checks, args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, unscaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lcex" / "__init__.py").is_file():
        print(f"run.py: no lcex sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, unscaled = run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    # the result file also keeps the latencies before host-speed scaling
    saved = dict(result, unscaled=unscaled) if unscaled else result
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each end-to-end metric's
median and run-to-run spread, the figures quoted in README.md.

Usage (from the repository root):
    python3 perfbench/spread.py --workloads fib random4 thue-tradeoff --seeds 1-10

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to each
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["fib", "random4", "thue-tradeoff"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    report = {}
    for wl in args.workloads:
        runs, walls = [], []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(name), "values": vals}
        unscaled = {}
        for seed in seeds:
            saved = json.loads((HERE / "out" / f"result-{wl}-seed{seed}-trace{args.trace}.json").read_text())
            for name, value in saved.get("unscaled", {}).items():
                unscaled.setdefault(name, []).append(value)
        report[wl] = {"metrics": rows, "unscaled": unscaled, "wall_s": walls,
                      "failed_share": [r["failed"] / r["attempted"] for r in runs],
                      "correct": all(r["correct"] for r in runs)}
        print(f"== {wl}: {len(seeds)} runs, wall {statistics.median(walls):.1f} s median, "
              f"correct={report[wl]['correct']}, failed={sum(r['failed'] for r in runs)}")
        for name, row in rows.items():
            flag = ""
            if row["bound"] and name != "setup_s" and row["spread"] > row["bound"] / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {name:28s} median {row['median']:14.6g}  spread {row['spread']:7.2%}"
                  f"  bound {row['bound']}{flag}")
        for name, vals in unscaled.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  unscaled {name:19s} median {statistics.median(vals):14.6g}  "
                  f"spread {(q3 - q1) / statistics.median(vals):7.2%}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

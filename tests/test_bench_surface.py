"""The benchmark's traced serving process still finds every per-layer metric.

perfbench/worker.py leaves out a metric whose attribute is gone, and
perfbench/run.py leaves out the container.*_bytes metrics when the container
layout changes; both only say so on stderr.  This runs the traced serving
process on small versions of the three workloads and checks that every
per-layer metric of BENCHMARK.json is there and finite.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import lcex

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    workloads.Spec("random4", 3000, 16, 16, False),
    workloads.Spec("thue-tradeoff", 3000, 32, 8, True),
    workloads.Spec("fib", 5000, 64, 64, False),
]


def from_build_spans(name: str) -> bool:
    """Metrics run.traced derives from the traced build processes' spans."""
    return name in run.BUILD_PHASES or name.startswith(("build.", "trace."))


PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
             if not from_build_spans(m["name"])]


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
def test_traced_serve_reports_every_per_layer_metric(spec, tmp_path):
    raw = workloads.make_text(spec, 1)
    ix = lcex.build_index(lcex.load_text(raw), spec.t, spec.t_prime, packed=spec.packed)
    blob = lcex.dump_index(ix)
    (tmp_path / "index.lcex").write_bytes(blob)
    np.savez(tmp_path / "pairs.npz", **workloads.query_sets(spec, raw, 1))
    out = worker.serve_traced({"index": str(tmp_path / "index.lcex"),
                               "pairs": str(tmp_path / "pairs.npz"),
                               "answers": str(tmp_path / "answers.npz")})

    metrics = dict(out["metrics"])
    sections = run.container_sections(blob)
    assert sections is not None
    for name in ("tst", "navtree", "blockcode", "packed"):
        metrics[f"container.{name}_bytes"] = sections.get(name, 0)
    assert [name for name in PER_LAYER if name not in metrics] == []
    assert {name: metrics[name] for name in PER_LAYER if not math.isfinite(metrics[name])} == {}
    assert metrics["navtree.locate_calls_per_query.uniform"] > 0
    assert metrics["lce.block_path_share.long"] > 0

"""Self-checks of the benchmark: inputs, trace arithmetic, metric list, refusal outside a checkout."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from pipeline import count_kernel
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_byte_deterministic_per_seed(tmp_path, name):
    generate = WORKLOADS[name].generate
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        generate(d, seed)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    assert all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files)
    assert any((dirs[0] / f).read_bytes() != (dirs[2] / f).read_bytes() for f in files)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer("t")
    tracer.call("outer", lambda: tracer.call("inner", lambda: tracer.call("leaf", lambda: None)))
    outer, inner, leaf = tracer.spans
    assert (outer.parent, inner.parent, leaf.parent) == (-1, 0, 1)
    assert tracer.self_time("outer") == pytest.approx(outer.seconds - inner.seconds)
    assert tracer.self_time("inner") == pytest.approx(inner.seconds - leaf.seconds)


def test_wrapped_attribute_is_timed_and_counted():
    class Module:
        @staticmethod
        def work(x):
            return x + 1

    tracer = Tracer("t")
    tracer.wrap(Module, "work", "layer.work", lambda counts, args, result: counts.__setitem__("seen", result))
    assert Module.work(1) == 2
    assert [s.name for s in tracer.spans] == ["layer.work"] and tracer.counts["seen"] == 2


def test_kernel_counts_follow_category_fan_in():
    d, k = 4, 2
    ent_in = np.zeros((3, d))
    cat_offsets = np.array([0, 1, 4, 4])  # entity fan-in 1, 3, 0
    targets = np.array([0, 1, 2])
    args = (ent_in, None, None, targets, None, np.zeros((3, k), dtype=np.int64), cat_offsets)
    counts = Tracer("t").counts
    count_kernel(counts, args, 0.0)
    m = np.array([1, 3, 0])
    assert counts["kernels.pairs"] == 3 and counts["kernels.fan_in"] == 4
    assert counts["kernels.flops"] == (6 * d * (1 + m) * (1 + k)).sum()
    assert counts["kernels.bytes"] == (16 * d * (2 + m + k)).sum()


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYERS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eval-large", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()

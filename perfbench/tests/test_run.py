"""The command end to end in smoke mode, its output format against
BENCHMARK.json, the spans it writes, and its refusal to run without the
library sources."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_spec_names_the_workloads_and_metrics():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    proc = _run("--workload", "all", "--smoke", "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert len(results) == len(workloads.NAMES)
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert proc.stdout.splitlines()[-1].startswith("{")
    if trace == "1":
        assert results[2]["metrics"]["apps.factorizations_per_op"]["value"] == 2
        assert results[0]["metrics"]["kernels2.row_pivots_s"]["value"] == 0


def test_spans_link_to_their_parents():
    proc = _run("--workload", "piv-3000", "--smoke", "--seed", "6", "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(BENCH, "out", "spans-piv-3000-seed6.json")) as fh:
        doc = json.load(fh)
    spans = [dict(zip(doc["fields"], s)) for s in doc["spans"]]
    by_id = {s["id"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert {"op", "blocked.ltlt_blk_piv", "kernels2.skew_tridiag_gemv",
            "kernels2.apply_row_pivots", "kernels3.skew_tridiag_rankk"} <= names
    for s in spans:
        if s["name"] == "op":
            assert s["parent"] is None
            continue
        parent = by_id[s["parent"]]
        assert parent["op"] == s["op"]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        if s["name"].startswith("kernels"):
            assert parent["name"] == "blocked.ltlt_blk_piv"


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "factor-4096", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not _results(proc.stdout)


def test_inputs_follow_the_seed():
    def draw(seed):
        return workloads.skew_lower(workloads.generator(seed, "apps-1000", 0), 30)

    a, b, c = draw(4), draw(4), draw(5)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert not np.any(np.triu(a))

"""Smoke test of the benchmark: every workload at a tiny size, end to end.

    python3 -m pytest -q perfbench/smoke_check.py

The file name keeps it out of the repository's default test run: it starts
about twenty processes and takes about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS, check_outputs  # noqa: E402


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--all",
                           "--smoke", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(BENCH, "_work", "results.json")) as fh:
        return json.loads(proc.stdout.splitlines()[-1]), json.load(fh)


def test_every_workload_is_correct(smoke):
    verdict, results = smoke
    assert verdict["correct"]
    assert set(verdict["workloads"]) == set(WORKLOADS)
    for res in results["results"]:
        assert res["failed"] == 0, res["problems"]
    assert set(results["machine"]) >= {"cpu", "nproc", "python", "numpy", "scipy",
                                       "git_sha"}


def test_every_declared_metric_is_emitted(smoke):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    _, results = smoke
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for res in results["results"]:
        declared = bench["per_layer" if res["trace"] else "end_to_end"]
        metrics = res["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in declared)
        for m in declared:
            value, unit = metrics[m["name"]]
            assert unit == m["unit"] and math.isfinite(value)
            if not res["trace"]:
                assert value > 0


def test_span_parents_are_traced_spans(smoke):
    _, results = smoke
    for res in results["results"]:
        if res["trace"]:
            names = {s["name"] for s in res["spans"]}
            assert "cli.BuiltSystem.__init__" in names
            assert {s["parent"] for s in res["spans"]} <= names | {None}


def _portrait_out(tmp_path):
    src = os.path.join(BENCH, "_work", "verify_portrait", "0-run", "1-portrait", "out")
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return str(dst), dst / "portrait.csv"


def _portrait_args():
    return WORKLOADS["verify_portrait"].args(1, smoke=True)[1]


def test_portrait_check_accepts_the_real_output(smoke, tmp_path):
    out, _ = _portrait_out(tmp_path)
    assert check_outputs(_portrait_args(), out) == []


@pytest.mark.parametrize("damage", ["drop_row", "nan", "nudge"])
def test_portrait_check_catches_damage(smoke, tmp_path, damage):
    out, csv_path = _portrait_out(tmp_path)
    lines = csv_path.read_text().splitlines()
    if damage == "drop_row":
        lines = lines[:-1]
    elif damage == "nan":
        lines[-1] = ",".join(lines[-1].split(",")[:3] + ["nan"])
    else:
        # every stepped row's r moves by one ulp, so no sampled step matches
        for i, line in enumerate(lines[1:], start=1):
            o, s, th, r = line.split(",")
            if o != "0":
                lines[i] = ",".join([o, s, th, repr(math.nextafter(float(r), 2.0))])
    csv_path.write_text("\n".join(lines) + "\n")
    assert check_outputs(_portrait_args(), out)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_portrait",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Tests of the benchmark harness itself (collected by the tier-1 run)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from catalogue import BY_NAME, CONTRACT
from compare import verdict
from spans import Span, self_times
from stats import MIN_BEYOND, tail_percentile

BENCH = Path(__file__).resolve().parent


def test_smoke_run_prints_every_declared_metric_with_its_unit(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", "1",
         "--seconds", "0.5", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=BENCH.parent)
    assert completed.returncode == 0, completed.stderr[-3000:]
    printed = completed.stdout
    final = json.loads(printed.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    sections = printed.split("\n== ")[1:]
    assert [section.split(":")[0] for section in sections] == \
        [workload["name"] for workload in CONTRACT["workloads"]]
    for section in sections:
        workload = section.split(":")[0]
        lines = {line.split()[0]: line.split()
                 for line in section.splitlines()[2:] if line.strip()}
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert metric["name"] in lines, (workload, metric["name"])
            assert lines[metric["name"]][1] == metric["unit"]
        for metric in CONTRACT["per_layer"]:
            assert f"{workload}.{metric['name']}" in final["metrics"]
    runs = json.loads((tmp_path / "results.json").read_text())["runs"]
    for run in runs:
        for metric in CONTRACT["end_to_end"]:
            assert isinstance(run["metrics"][metric["name"]]["value"], float)
        assert Path(run["trace"]).is_file()
    assert (tmp_path / "run_table.csv").read_text().startswith("workload,")


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    assert tail_percentile([float(i) for i in range(1000)], 99) == 989.0
    assert tail_percentile([float(i) for i in range(999)], 99) is None
    assert tail_percentile([float(i) for i in range(100)], 90) == 89.0
    assert tail_percentile([float(i) for i in range(99)], 90) is None


def test_self_time_subtracts_only_direct_children():
    root = Span("root", "api", 0.0, 10.0)
    left = Span("left", "matching", 1.0, 4.0, parent=root)
    leaf = Span("leaf", "matching", 2.0, 3.0, parent=left)
    right = Span("right", "repair", 5.0, 6.0, parent=root)
    own = self_times([root, left, leaf, right])
    assert [own[id(span)] for span in (root, left, leaf, right)] == \
        [6.0, 2.0, 1.0, 1.0]
    assert sum(own.values()) == root.duration


def test_compare_verdicts():
    timing = BY_NAME["cost"]
    same = [(seed, 100.0 + seed) for seed in range(5)]
    assert verdict(timing, same, same)[0] == "same"
    slower = [(seed, value * 1.5) for seed, value in same]
    assert verdict(timing, same, slower)[0] == "worse"
    assert verdict(timing, slower, same)[0] == "better"
    noisy = [(0, 50.0), (1, 100.0), (2, 150.0), (3, 200.0)]
    assert verdict(timing, noisy, noisy)[0] == "unresolved"
    assert verdict(BY_NAME["restore_s"], same, slower)[0] == "info"
    count = BY_NAME["repairs_applied"]
    assert verdict(count, [(0, 779)], [(0, 779)])[0] == "same"
    assert verdict(count, [(0, 779)], [(0, 780)])[0] == "worse"


def test_compare_keeps_every_run_of_a_repeated_seed():
    timing = BY_NAME["cost"]
    # four runs of seed 0 a side: their spread is wider than the bound,
    # which one value per seed would have hidden
    repeated = [(0, 100.0), (0, 150.0), (0, 100.0), (0, 150.0)]
    assert verdict(timing, repeated, repeated)[0] == "unresolved"
    count = BY_NAME["repairs_applied"]
    assert verdict(count, [(0, 779), (0, 779)], [(0, 779)])[0] == "same"
    assert verdict(count, [(0, 779), (0, 780)], [(0, 779)])[0] == "unresolved"

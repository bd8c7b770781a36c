"""BENCHMARK.json against the metrics the benchmark code can produce."""

import json
import re
import shutil
import subprocess
import sys

import common
import serve_forest
import spans

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONFIG = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return [entry["name"] for entry in CONFIG[section]]


def test_metric_and_workload_names_use_only_allowed_characters():
    names = _names("end_to_end") + _names("per_layer") + _names("workloads")
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)


def test_every_layer_metric_the_spans_produce_is_declared():
    declared = set(_names("per_layer"))
    produced = set(spans.SELF_METRIC.values())
    for metrics in spans.SPAN_METRICS.values():
        produced.update(metrics)
    assert produced <= declared, produced - declared


def test_result_rejects_bad_metric_names():
    result = common.Result()
    for bad in ("fit s", "_hidden", "a/b", "x" * 65):
        try:
            result.metric(bad, 1.0)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} accepted")


def test_setup_time_has_the_largest_bound():
    bounds = {entry["name"]: entry["bound"] for entry in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_latency_limit_is_recorded_with_the_serving_workload():
    why = next(w["why"] for w in CONFIG["workloads"] if w["name"] == "serve_forest")
    assert f"p99 <= {serve_forest.LIMIT_MS:g} ms" in why


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""

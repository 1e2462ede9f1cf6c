"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import single_pass  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def statuses(summary: dict) -> dict[str, str]:
    return {t["task"]: t["status"] for t in summary["tasks"]}


@pytest.mark.parametrize("seed", [7, 20260])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_has_no_failure(workload, seed):
    summary = single_pass.run_pass(workload, seed, trace=False, full=False)
    bad = {t["task"]: t.get("error") for t in summary["tasks"] if t["status"] in ("wrong", "error")}
    assert not bad
    assert summary["threads"] == 1


def test_expected_caps_only():
    capped = {
        w: sorted(k for k, v in statuses(single_pass.run_pass(w, 3, False, full=False)).items()
                  if v == "capped")
        for w in ("poset-pipeline", "extension-search")
    }
    assert capped == {
        "poset-pipeline": ["canonical_form node_cap=100"],
        "extension-search": ["(1,2,4,8) assembly", "(1,2,4,8) levelwise", "(1,3,4,9) levelwise"],
    }


def test_census_reference_matches_the_library_on_short_words():
    lib = single_pass.import_library()
    rng = random.Random(5)
    for length in range(1, 10):
        for _ in range(3):
            word = workloads.random_word(rng, length)
            p = lib.poset_from_string(word)
            for n in range(2, min(p.height, 8) + 1):
                got = lib.enumerate_interval_classes(p, n).count
                assert got == workloads.distinct_factors(word, n), (word, n)


def test_wrong_reference_is_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "distinct_factors", lambda word, n: 99)
    summary = single_pass.run_pass("interval-census", 7, trace=False, full=False)
    assert "wrong" in statuses(summary).values()


def test_exact_counters_repeat():
    first, second = (
        single_pass.run_pass("interval-census", 5, trace=True, full=False)["layers"]
        for _ in range(2)
    )
    for name in ("search.nodes", "iso.canon.calls", "iso.canon.distinct_inputs",
                 "classify.intervals"):
        assert first[name] > 0
    assert {k: first[k] for k in tracing.EXACT} == {k: second[k] for k in tracing.EXACT}


def test_every_layer_has_spans_on_every_workload():
    for workload in workloads.WORKLOADS:
        layers = single_pass.run_pass(workload, 11, trace=True, full=False)["layers"]
        assert all(layers[f"{name}.calls"] > 0 for name in tracing.LAYERS), workload


def test_tracing_is_removed_after_a_traced_pass():
    lib = single_pass.import_library()
    before = {(m.__name__, a): getattr(m, a) for m, a in tracing.lookup_sites(
        [lib.classify, lib.search, lib.iso, lib.cli, lib.seqcheck])}
    single_pass.run_pass("interval-census", 1, trace=True, full=False)
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert after == before


def test_pace_timer_is_stopped_and_each_task_is_scaled_by_its_own_pace():
    summary = single_pass.run_pass("extension-search", 2, trace=False, full=False)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_IGN
    tasks = summary["tasks"]
    assert summary["raw"]["solve_s"] == pytest.approx(sum(t["seconds"] for t in tasks))
    assert summary["solve_s"] == pytest.approx(sum(t["seconds"] * t["pace_scale"] for t in tasks))
    # the timer sampled during tasks, beyond the set-up and per-task samples
    assert summary["pace_samples"] > single_pass.SETUP_PACE_SAMPLES + len(tasks)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "interval-census", "--seed", "4", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "poset-pipeline", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

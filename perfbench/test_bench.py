"""Tests of the benchmark itself: checker, generator and traced counters.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bench_inputs as inputs
import run
from bench_check import LpChecker, ReportChecker
from bench_speed import REFERENCE_S, HostSpeed, kernel_seconds

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _report(tmp_path, request):
    cli = run._import_cli()
    st = inputs.random_structure(random.Random(3), 10, 14)
    path = tmp_path / "doc.json"
    path.write_text(inputs.cutset_document(st))
    rc, out, err, _ = run.call_cli(cli, [str(path), *request.cli_args(), "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0, err
    return st, out


@pytest.mark.parametrize("plus, distribute", [(False, False), (True, True)])
def test_checker_accepts_real_reports(tmp_path, plus, distribute):
    request = inputs.Request(0, 123457, "0.05", plus, distribute)
    st, out = _report(tmp_path, request)
    with LpChecker() as lp:
        checker = ReportChecker(lp)
        assert checker.check(out, st, request) == []
        assert checker.check(out, st, request) == []


def _tamper_n_min(report):
    report["plan"]["n_min"] += 1


def _tamper_drop_cutset(report):
    report["structure"]["minimal_cutsets"].pop()


def _tamper_allocation(report):
    report["plan"]["n"][0] += 1


def _tamper_q_upper(report):
    report["bound"]["q_upper"] = "0.5"


def _tamper_shortest_pathset(report):
    report["paths"]["shortest_pathset"] = report["paths"]["shortest_pathset"][:1]


def _tamper_g(report):
    report["fractions"]["cutset_fraction"]["exact"] = "1/100"


@pytest.mark.parametrize("tamper", [
    _tamper_n_min, _tamper_drop_cutset, _tamper_allocation,
    _tamper_q_upper, _tamper_shortest_pathset, _tamper_g,
])
def test_checker_rejects_tampered_report(tmp_path, tamper):
    request = inputs.Request(0, 123457, "0.05", False, False)
    st, out = _report(tmp_path, request)
    report = json.loads(out)
    tamper(report)
    assert ReportChecker().check(json.dumps(report), st, request)


def test_checker_rejects_fractions_that_change_between_requests(tmp_path):
    request = inputs.Request(0, 123457, "0.05", False, False)
    st, out = _report(tmp_path, request)
    checker = ReportChecker()
    assert checker.check(out, st, request) == []
    report = json.loads(out)
    report["fractions"]["multiple_optima"] = not report["fractions"]["multiple_optima"]
    assert checker.check(json.dumps(report), st, request)


def test_lp_check_compares_g_with_the_float_optimum(tmp_path):
    request = inputs.Request(0, 123457, "0.05", False, False)
    st, out = _report(tmp_path, request)
    g = Fraction(json.loads(out)["fractions"]["cutset_fraction"]["exact"])
    with LpChecker() as lp:
        assert lp.problem(st, g) is None
        assert lp.problem(st, g * Fraction(101, 100))


class _WrongLp:
    def problem(self, structure, g):
        return "g is off"


def test_lp_problem_fails_every_request_of_the_structure(tmp_path):
    request = inputs.Request(0, 123457, "0.05", False, False)
    st, out = _report(tmp_path, request)
    checker = ReportChecker(_WrongLp())
    assert checker.check(out, st, request) == ["g is off"]
    assert checker.check(out, st, request) == ["g is off"]


def test_host_speed_scales_by_the_kernel_samples_near_a_request():
    speed = HostSpeed()
    speed.times = [0.0, 0.1, 0.2, 1.0, 5.0, 5.1, 6.0]
    r = REFERENCE_S
    speed.seconds = [r, 2 * r, 3 * r, 8 * r, r / 4, r / 4, 8 * r]
    assert speed.factor(0.15) == 0.5  # samples at 0.0 to 0.2 are within 0.25 s
    assert speed.factor(5.04, 5.06) == 4.0
    assert speed.factor(3.0) == 1 / 4.125  # no sample within 0.25 s: the neighbours at 1.0 and 5.0
    assert kernel_seconds() > 0


def test_checker_forgets_structures_the_workload_dropped(tmp_path):
    request = inputs.Request(0, 123457, "0.05", False, False)
    st, out = _report(tmp_path, request)
    checker = ReportChecker()
    assert checker.check(out, st, request) == []
    assert len(checker._seen) == 1
    del st
    gc.collect()
    assert len(checker._seen) == 0


def _digest(workload_cls, seed, workdir):
    workdir.mkdir()
    digest = inputs.InputDigest()
    workload_cls(seed, workdir, digest)
    return digest.hexdigest()


@pytest.mark.parametrize("workload_cls", list(run.WORKLOADS.values()))
def test_generator_is_deterministic(tmp_path, workload_cls):
    first = _digest(workload_cls, 5, tmp_path / "a")
    assert _digest(workload_cls, 5, tmp_path / "b") == first
    assert _digest(workload_cls, 6, tmp_path / "c") != first


def test_generated_families_are_minimal_and_covering():
    rng = random.Random(1)
    for _ in range(20):
        st = inputs.random_structure(rng, 10, 14)
        sets = [set(c) for c in st.cutsets]
        assert len(sets) == 14
        assert all(not a <= b for a in sets for b in sets if a is not b)
        assert set().union(*sets) == set(range(10))
        assert len(st.listed_cutsets) == 14 + inputs.REDUNDANT_CUTSETS


def _trace(tmp_path, name):
    result, _lines = run.run_workload(name, seed=1, seconds=1.0, trace=True, work_root=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_replan_hot_never_solves_and_always_hits(tmp_path):
    metrics = _trace(tmp_path, "replan_hot")
    assert metrics["simplex.solve_lp.calls"] == 0
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["cache.bytes_written"] == 0
    assert metrics["structure.minimal_pathsets.calls"] == 2


def test_cold_solve_always_misses_and_solves(tmp_path):
    metrics = _trace(tmp_path, "cold_solve")
    assert metrics["cache.hit_ratio"] == 0
    assert metrics["simplex.solve_lp.calls"] == 1
    assert metrics["cache.bytes_written"] > 0


def test_truth_table_hits_the_cache(tmp_path):
    metrics = _trace(tmp_path, "truth_table")
    assert metrics["simplex.solve_lp.calls"] == 0
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["documents.input_bytes"] > 200_000


def _run_script(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_every_end_to_end_metric_last():
    proc = _run_script(BENCH_DIR.parent, "--workload", "replan_hot", "--seed", "2",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_script(tmp_path, "--workload", "cold_solve", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

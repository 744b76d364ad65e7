"""End-to-end CLI behaviour: pipeline, formats, exit codes, cache."""

import json
import logging
import math
import subprocess
import sys
import time

import pytest

from cutplan import cli

ASYM_DOC = {
    "schema_version": 1,
    "components": ["C1", "C2", "C3", "C4", "C5"],
    "cutsets": [["C1", "C2"], ["C2", "C3"], ["C1", "C3", "C4"], ["C5"]],
    "metadata": {"name": "asymmetric five-component demo"},
}


def two_of_three_doc():
    table = []
    for mask in range(8):
        state = "".join("1" if mask >> k & 1 else "0" for k in range(3))
        table.append({"state": state, "failed": 1 if bin(mask).count("1") >= 2 else 0})
    return {
        "schema_version": 1,
        "components": ["C1", "C2", "C3"],
        "truth_table": table,
    }


def write_doc(tmp_path, payload, name="structure.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(tmp_path, doc_path, *extra):
    argv = [doc_path, "--cache-dir", str(tmp_path / "cache"), *extra]
    return cli.main(argv)


class TestGoldenRuns:
    def test_text_report(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        out = capsys.readouterr().out
        assert "guaranteed cutset fraction: 2/5 (0.4)" in out
        assert "smallest integer-exact total: 5" in out
        assert "usable total: 20000" in out
        assert "minimum tests over any cutset: 8000" in out
        assert "single-shortest-path strategy would guarantee only 6667" in out

    def test_json_report(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        fr = report["fractions"]
        assert [f["exact"] for f in fr["per_component"]] == ["1/5", "1/5", "1/5", "0", "2/5"]
        assert fr["cutset_fraction"]["exact"] == "2/5"
        assert fr["n_zero"] == 5
        assert report["plan"]["n"] == [4000, 4000, 4000, 0, 8000]
        assert report["plan"]["n_minus"] == 20000
        assert report["plan"]["n_plus"] == 20005
        assert report["plan"]["n_min"] == 8000
        assert report["paths"]["shortest_path_length"] == 3
        assert report["paths"]["path_strategy_n_min"] == 6667
        expected_q = math.log(20.0) / 8000.0
        assert math.isclose(float(report["bound"]["q_upper"]), expected_q, rel_tol=1e-11)
        assert report["structure"]["minimal_cutsets"] == [
            ["C1", "C2"],
            ["C1", "C3", "C4"],
            ["C2", "C3"],
            ["C5"],
        ]

    def test_truth_table_run(self, tmp_path, capsys):
        doc = write_doc(tmp_path, two_of_three_doc())
        assert run_cli(tmp_path, doc, "--tests", "9", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plan"]["n"] == [3, 3, 3]
        assert report["plan"]["n_min"] == 6

    def test_fractions_only_when_tests_omitted(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plan"] is None
        assert report["bound"] is None
        assert report["fractions"]["cutset_fraction"]["exact"] == "2/5"

    def test_plus_plan(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--plus", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plus_plan"]["n"] == [4001, 4001, 4001, 0, 8002]
        assert report["plus_plan"]["n_min"] == 8002

    def test_plus_plan_text_report(self, tmp_path, capsys):
        # Both plans render their counts, minimum and bound the same way.
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--plus") == 0
        out = capsys.readouterr().out
        plan, plus = out.split("\n\ninteger plan for 20003 requested tests:\n")[1].split("\n\n")[:2]
        assert plan.splitlines()[2:] == [
            *("  C%d  %d" % (j + 1, n) for j, n in enumerate((4000, 4000, 4000, 0, 8000))),
            "  minimum tests over any cutset: 8000",
            "  pfd upper bound at alpha 0.05: 0.000374466534194",
            "  single-shortest-path strategy would guarantee only 6667",
        ]
        assert plus.splitlines() == [
            "plan for the next integer-exact total (20005 tests):",
            *("  C%d  %d" % (j + 1, n) for j, n in enumerate((4001, 4001, 4001, 0, 8002))),
            "  minimum tests over any cutset: 8002",
            "  pfd upper bound at alpha 0.05: 0.000374372940959",
        ]

    def test_distribute_remainder(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        code = run_cli(
            tmp_path, doc, "--tests", "20003", "--distribute-remainder", "--format", "json"
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert sum(report["plan"]["n"]) == 20003
        assert report["plan"]["remainder_distributed"] is True
        assert report["plan"]["n_min"] >= 8000

    def test_audit_small_budget(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "21", "--audit", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        audit = report["audit"]
        assert audit["performed"] is True
        assert audit["n_total"] == 20
        assert audit["best_n_min"] == 8
        assert audit["matches_plan"] is True

    def test_audit_skipped_when_too_large(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--audit", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["audit"]["performed"] is False
        assert "cap" in report["audit"]["reason"]

    def test_text_report_is_deterministic(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        first = capsys.readouterr().out
        assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        assert capsys.readouterr().out == first

    def test_zero_column_warning(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "components": ["C1", "C2", "C3"],
            "cutsets": [["C1"], ["C2"]],
        }
        doc = write_doc(tmp_path, payload)
        assert run_cli(tmp_path, doc, "--tests", "10", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structure"]["irrelevant_components"] == ["C3"]
        assert any("C3" in w for w in report["warnings"])


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(tmp_path, str(tmp_path / "absent.json")) == 2
        assert "InputError" in capsys.readouterr().err

    def test_non_coherent_structure(self, tmp_path, capsys):
        payload = two_of_three_doc()
        for entry in payload["truth_table"]:
            if entry["state"] == "111":
                entry["failed"] = 0
        doc = write_doc(tmp_path, payload)
        assert run_cli(tmp_path, doc) == 2
        assert "NonCoherentStructure" in capsys.readouterr().err

    def test_invalid_alpha(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--alpha", "1.5") == 2
        assert "InvalidAlpha" in capsys.readouterr().err

    def test_budget_too_small(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "3") == 3
        err = capsys.readouterr().err
        assert "BudgetTooSmall" in err
        assert "5" in err

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps({"schema_version": 1, "components": ["A"], "cutsets": [[["A"]]]}).encode(),
            b"[" * 200000,
            b'{"schema_version": 1, "components": ["\xff"], "cutsets": [["\xff"]]}',
        ],
        ids=["unhashable-label", "deep-nesting", "not-utf8"],
    )
    def test_malformed_document_is_an_input_error(self, tmp_path, capsys, content):
        path = tmp_path / "structure.json"
        path.write_bytes(content)
        assert run_cli(tmp_path, str(path)) == 2
        assert capsys.readouterr().err.startswith("error: InputError: ")

    def test_too_many_pathsets_is_an_input_error(self, tmp_path, capsys):
        # 20 disjoint pairs have 2^20 minimal pathsets.
        payload = {
            "schema_version": 1,
            "components": ["C%d" % j for j in range(40)],
            "cutsets": [["C%d" % j, "C%d" % (j + 1)] for j in range(0, 40, 2)],
        }
        doc = write_doc(tmp_path, payload)
        start = time.perf_counter()
        assert run_cli(tmp_path, doc, "--tests", "100") == 2
        assert time.perf_counter() - start < 2
        assert "more than 50000 (PATHSET_LIMIT)" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_json_usage_error(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        for argv in (
            [doc, "--format", "json", "--tests", "abc"],
            [doc, "--tests=abc", "--format=json"],
            [doc, "--form", "json", "--tests", "abc"],
            [doc, "--format", "text", "--tests", "abc", "--fo=json"],
        ):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert json.loads(err) == {
                "error": {"type": "InputError", "message": "argument --tests: invalid int value: 'abc'"}
            }
        for argv in ([doc, "--tests", "abc"], [doc, "--format", "json", "--tests", "abc", "--format", "text"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("usage: cutplan")

    def test_json_error_format(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "3", "--format", "json") == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["type"] == "BudgetTooSmall"

    def test_divergent_cache_entry_fails_verification(self, tmp_path, capsys):
        from cutplan import CutsetMatrix, optimize_fractions
        from cutplan.cache import PlanCache
        from cutplan.documents import document_to_structure, parse_document
        from cutplan.structure import minimal_cutsets

        doc = write_doc(tmp_path, ASYM_DOC)
        matrix = minimal_cutsets(document_to_structure(parse_document(json.dumps(ASYM_DOC))))
        digest = matrix.canonical_digest()
        # A well-formed but wrong entry: fractions of a different structure.
        other = optimize_fractions(
            CutsetMatrix.from_index_sets(["A", "B", "C", "D", "E"], [(0,), (1,)])
        )
        PlanCache(tmp_path / "cache").store(digest, other)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--verify-cache") == 4
        assert "InternalInvariantError" in capsys.readouterr().err


class TestCacheBehaviour:
    def test_second_run_hits_cache_with_identical_output(self, tmp_path, capsys, caplog):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--format", "json") == 0
        first = capsys.readouterr().out
        with caplog.at_level(logging.INFO):
            assert run_cli(tmp_path, doc, "--tests", "20003", "--format", "json") == 0
        second = capsys.readouterr().out
        assert first == second
        assert "cache hit" in caplog.text

    def test_equivalent_documents_share_the_entry(self, tmp_path, caplog):
        as_sets = {
            "schema_version": 1,
            "components": ["C1", "C2", "C3"],
            "cutsets": [["C1", "C2"], ["C1", "C3"], ["C2", "C3"]],
        }
        doc_a = write_doc(tmp_path, as_sets, "a.json")
        doc_b = write_doc(tmp_path, two_of_three_doc(), "b.json")
        assert run_cli(tmp_path, doc_a, "--tests", "9") == 0
        with caplog.at_level(logging.INFO):
            assert run_cli(tmp_path, doc_b, "--tests", "9") == 0
        assert "cache hit" in caplog.text

    def test_no_cache_leaves_no_entries(self, tmp_path, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--no-cache") == 0
        assert not (tmp_path / "cache").exists()

    def test_corrupt_entry_recomputed(self, tmp_path, capsys, caplog):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--format", "json") == 0
        first = capsys.readouterr().out
        cache_dir = tmp_path / "cache"
        (entry,) = cache_dir.glob("*.json")
        entry.write_text("{broken", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert run_cli(tmp_path, doc, "--tests", "20003", "--format", "json") == 0
        assert "corrupt" in caplog.text
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("extra", [(), ("--tests", "7")])
    def test_entry_wrong_for_the_matrix_is_recomputed(self, tmp_path, capsys, caplog, extra):
        from cutplan import FractionPlan
        from cutplan.cache import PlanCache
        from cutplan.documents import document_to_structure, parse_document
        from cutplan.structure import minimal_cutsets

        payload = {"schema_version": 1, "components": ["A", "B"], "cutsets": [["A"]]}
        doc = write_doc(tmp_path, payload)
        assert run_cli(tmp_path, doc, *extra, "--no-cache") == 0
        expected = capsys.readouterr().out
        structure = document_to_structure(parse_document(json.dumps(payload)))
        digest = minimal_cutsets(structure).canonical_digest()
        # Self-consistent (sums to n_zero, no common divisor) but gives cutset {A} nothing.
        cache = PlanCache(tmp_path / "cache")
        path = cache.store(digest, FractionPlan(counts=(0, 1), n_zero=1, cutset_tests=1))
        with caplog.at_level(logging.WARNING):
            assert run_cli(tmp_path, doc, *extra) == 0
        assert capsys.readouterr().out == expected
        assert "ignoring corrupt cache entry" in caplog.text
        assert json.loads(path.read_text(encoding="utf-8"))["fractions"] == ["1", "0"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_entry_below_the_path_floor_is_recomputed(self, tmp_path, capsys, caplog, fmt):
        # It fits the matrix ({A} gets 1/3, {B,C} 2/3) but g = 1/3 is below
        # the shortest-path floor 1/2 that every optimum clears.
        payload = {"schema_version": 1, "components": ["A", "B", "C"], "cutsets": [["A"], ["B", "C"]]}
        doc = write_doc(tmp_path, payload)
        assert run_cli(tmp_path, doc, "--tests", "600", "--format", fmt, "--no-cache") == 0
        expected = capsys.readouterr().out
        assert run_cli(tmp_path, doc, "--tests", "600", "--format", fmt) == 0
        capsys.readouterr()
        (entry,) = (tmp_path / "cache").glob("*.json")
        good = entry.read_text(encoding="utf-8")
        probe = {**json.loads(good), "fractions": ["1/3"] * 3, "cutset_fraction": "1/3", "n_zero": 3}
        entry.write_text(json.dumps(probe), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert run_cli(tmp_path, doc, "--tests", "600", "--format", fmt) == 0
        assert capsys.readouterr().out == expected
        assert caplog.text.count("ignoring corrupt cache entry") == 1
        assert entry.read_text(encoding="utf-8") == good

    @pytest.mark.parametrize(
        "field, value",
        [("multiple_optima", "false"), ("multiple_optima", 0), ("n_zero", "5"), ("n_zero", 5.0)],
    )
    def test_entry_fields_are_not_coerced(self, tmp_path, capsys, caplog, field, value):
        # bool("false") is True: a coerced read reported alternative optima.
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--no-cache") == 0
        expected = capsys.readouterr().out
        assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        capsys.readouterr()
        (entry,) = (tmp_path / "cache").glob("*.json")
        good = entry.read_text(encoding="utf-8")
        entry.write_text(json.dumps({**json.loads(good), field: value}), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        assert capsys.readouterr().out == expected
        assert "ignoring corrupt cache entry" in caplog.text
        assert entry.read_text(encoding="utf-8") == good

    @pytest.mark.parametrize(
        "fractions, cutset_fraction",
        [([True, 0], 1.0), ([" 1 ", "0/7"], "1_0/1_0"), ("10", "1")],
    )
    def test_entry_fractions_are_not_coerced(self, tmp_path, capsys, caplog, fractions, cutset_fraction):
        # Each probe equals the stored plan (1, 0) of n_zero 1 once passed
        # through Fraction(), and a coerced read took it as a hit; the string
        # "10" was read character by character.
        payload = {"schema_version": 1, "components": ["A", "B"], "cutsets": [["A"]]}
        doc = write_doc(tmp_path, payload)
        assert run_cli(tmp_path, doc, "--tests", "7", "--no-cache") == 0
        expected = capsys.readouterr().out
        assert run_cli(tmp_path, doc, "--tests", "7") == 0
        capsys.readouterr()
        (entry,) = (tmp_path / "cache").glob("*.json")
        good = entry.read_text(encoding="utf-8")
        assert json.loads(good)["n_zero"] == 1
        probe = {**json.loads(good), "fractions": fractions, "cutset_fraction": cutset_fraction}
        entry.write_text(json.dumps(probe), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert run_cli(tmp_path, doc, "--tests", "7") == 0
        assert capsys.readouterr().out == expected
        assert "ignoring corrupt cache entry" in caplog.text
        assert entry.read_text(encoding="utf-8") == good

    def test_deeply_nested_entry_recomputed(self, tmp_path, capsys, caplog):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--no-cache") == 0
        expected = capsys.readouterr().out
        assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        capsys.readouterr()
        (entry,) = (tmp_path / "cache").glob("*.json")
        stored = entry.read_bytes()
        entry.write_text("[" * 200000, encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        assert capsys.readouterr().out == expected
        assert "ignoring corrupt cache entry" in caplog.text
        assert entry.read_bytes() == stored

    def test_env_var_cache_dir(self, tmp_path, monkeypatch, capsys):
        doc = write_doc(tmp_path, ASYM_DOC)
        target = tmp_path / "envcache"
        monkeypatch.setenv("CUTPLAN_CACHE_DIR", str(target))
        assert cli.main([doc, "--tests", "20003"]) == 0
        assert list(target.glob("*.json"))

    def test_verify_cache_passes_on_good_entry(self, tmp_path, capsys, caplog):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        with caplog.at_level(logging.INFO):
            assert run_cli(tmp_path, doc, "--tests", "20003", "--verify-cache") == 0
        assert "verified" in caplog.text

    def test_miss_logs_solver_counters_and_hit_does_not(self, tmp_path, capsys, caplog):
        doc = write_doc(tmp_path, ASYM_DOC)
        with caplog.at_level(logging.INFO):
            assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        assert "solved the 4x5 relaxation in" in caplog.text
        assert "pivots" in caplog.text and "bits" in caplog.text
        caplog.clear()
        with caplog.at_level(logging.INFO):
            assert run_cli(tmp_path, doc, "--tests", "20003") == 0
        assert "cache hit" in caplog.text
        assert "pivots" not in caplog.text

    def test_unwritable_cache_warns_and_still_plans(self, tmp_path, capsys, caplog):
        doc = write_doc(tmp_path, ASYM_DOC)
        assert run_cli(tmp_path, doc, "--tests", "20003", "--no-cache", "--format", "json") == 0
        expected = capsys.readouterr().out
        not_a_dir = tmp_path / "cache-file"
        not_a_dir.write_text("", encoding="utf-8")
        argv = [doc, "--cache-dir", str(not_a_dir), "--tests", "20003", "--format", "json"]
        with caplog.at_level(logging.WARNING):
            assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
        assert "could not cache" in caplog.text
        assert not_a_dir.read_text(encoding="utf-8") == ""


class TestProcessEntryPoint:
    def test_module_invocation(self, tmp_path):
        doc = write_doc(tmp_path, ASYM_DOC)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cutplan.cli",
                doc,
                "--tests",
                "20003",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["plan"]["n_min"] == 8000

    def test_json_mode_stderr_is_one_object_per_line(self, tmp_path):
        # A cache miss logs before the budget error; in JSON mode every
        # stderr line, log and error alike, must parse on its own.
        doc = write_doc(tmp_path, ASYM_DOC)
        argv = [doc, "--tests", "3", "--format", "json", "--cache-dir", str(tmp_path / "cache")]
        proc = subprocess.run(
            [sys.executable, "-m", "cutplan.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 3
        lines = [json.loads(line) for line in proc.stderr.splitlines()]
        assert len(lines) >= 2
        assert all(set(line) == {"log"} for line in lines[:-1])
        assert {"level", "message"} == set(lines[0]["log"])
        assert any("cached fraction plan" in line["log"]["message"] for line in lines[:-1])
        assert lines[-1]["error"]["type"] == "BudgetTooSmall"

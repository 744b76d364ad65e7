"""Fraction-plan cache: round trips, corruption handling, digest hygiene."""

import json
import logging
import threading
from fractions import Fraction

import pytest

from cutplan import optimize_fractions
from cutplan.cache import PlanCache

from conftest import asymmetric_matrix

F = Fraction


def solved():
    matrix = asymmetric_matrix()
    return matrix.canonical_digest(), optimize_fractions(matrix)


class TestCache:
    def test_store_then_lookup_is_identical(self, tmp_path):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        cache.store(digest, plan)
        assert cache.lookup(digest) == plan

    def test_miss_returns_none(self, tmp_path):
        assert PlanCache(tmp_path).lookup("0" * 64) is None

    def test_corrupt_json_warns_and_misses(self, tmp_path, caplog):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        path = cache.store(digest, plan)
        path.write_text("{broken", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert cache.lookup(digest) is None
        assert "corrupt" in caplog.text

    def test_digest_mismatch_is_corrupt(self, tmp_path, caplog):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        path = cache.store(digest, plan)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["digest"] = "f" * 64
        path.write_text(json.dumps(entry), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert cache.lookup(digest) is None

    def test_invariant_violations_are_corrupt(self, tmp_path, caplog):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        path = cache.store(digest, plan)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["n_zero"] = 7  # no longer the least common denominator
        path.write_text(json.dumps(entry), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert cache.lookup(digest) is None

    @pytest.mark.parametrize(
        "field, value",
        # Off the 1/n_zero grid; truncated to counts, the first would pass.
        [("fractions", ["1/5", "1/5", "1/5", "1/10", "2/5"]), ("cutset_fraction", "3/10")],
    )
    def test_fraction_off_the_n_zero_grid_is_corrupt(self, tmp_path, caplog, field, value):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        path = cache.store(digest, plan)
        entry = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**entry, field: value}), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert cache.lookup(digest) is None
        assert "not a multiple of 1/5" in caplog.text

    def test_entries_carry_exact_fraction_strings(self, tmp_path):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        entry = json.loads(cache.store(digest, plan).read_text(encoding="utf-8"))
        assert entry["fractions"] == ["1/5", "1/5", "1/5", "0", "2/5"]
        assert entry["cutset_fraction"] == "2/5"
        assert entry["n_zero"] == 5
        assert "solver" in entry

    def test_leftover_tmp_directory_does_not_block_stores(self, tmp_path):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        (tmp_path / ("%s.tmp" % digest)).mkdir()
        cache.store(digest, plan)
        assert cache.lookup(digest) == plan

    def test_failed_store_raises_and_leaves_no_temp_file(self, tmp_path):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        blocker = cache.entry_path(digest)
        blocker.mkdir()
        (blocker / "keep").write_text("", encoding="utf-8")
        with pytest.raises(OSError):
            cache.store(digest, plan)
        assert sorted(p.name for p in tmp_path.iterdir()) == [blocker.name]

    def test_concurrent_stores_of_one_digest_all_succeed(self, tmp_path):
        digest, plan = solved()
        cache = PlanCache(tmp_path)
        errors = []

        def writer():
            try:
                for _ in range(25):
                    cache.store(digest, plan)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cache.lookup(digest) == plan
        assert [p.name for p in tmp_path.iterdir()] == [cache.entry_path(digest).name]

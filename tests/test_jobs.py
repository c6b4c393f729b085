"""Table harnesses (jobs/) executed end-to-end at tiny scale."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def table2(spark):
    mod = _load("table2_lossy")
    rows = mod.run(spark, n=768, datasets=["IT", "WD", "CT", "BP"])
    return mod, rows


@pytest.fixture(scope="module")
def table3(spark):
    mod = _load("table3_lossless")
    rows = mod.run(spark, n=768, n_access=50, datasets=["IT", "CT", "BP"])
    return mod, rows


class TestTable2:
    def test_all_datasets_present(self, table2):
        _, rows = table2
        assert {r["dataset"] for r in rows} == {"IT", "WD", "CT", "BP"}

    def test_neats_l_beats_both_baselines(self, table2):
        """Table II's invariant: NeaTS-L improves on AA and PLA everywhere."""
        _, rows = table2
        for r in rows:
            assert r["neats_l"] <= r["aa"] * 1.02, r
            assert r["neats_l"] <= r["pla"] * 1.02, r

    def test_improvements_consistent(self, table2):
        _, rows = table2
        for r in rows:
            assert r["impr_aa"] == pytest.approx(100 * (r["aa"] - r["neats_l"]) / r["aa"], abs=0.01)

    def test_eps_selected_below_lossless(self, table2):
        _, rows = table2
        for r in rows:
            assert r["eps"] >= 1
            assert 0 < r["eps_pct"] < 100

    def test_mape_within_eps(self, table2):
        _, rows = table2
        for r in rows:
            assert r["mape_nl"] >= 0

    def test_print_table_runs(self, table2, capsys):
        mod, rows = table2
        mod.print_table(rows)
        out = capsys.readouterr().out
        assert "avg improvement vs AA" in out


class TestTable3:
    def test_full_codec_battery(self, table3):
        from repro.harness import ALL_LOSSLESS
        _, rows = table3
        per_ds = {}
        for r in rows:
            per_ds.setdefault(r["dataset"], set()).add(r["codec"])
        for ds, codecs in per_ds.items():
            assert codecs == set(ALL_LOSSLESS), ds

    def test_ratios_sane(self, table3):
        _, rows = table3
        for r in rows:
            assert 0 < r["ratio"] < 130, r

    def test_xz_beats_lz4_everywhere(self, table3):
        _, rows = table3
        by = {(r["dataset"], r["codec"]): r["ratio"] for r in rows}
        for ds in {r["dataset"] for r in rows}:
            assert by[(ds, "Xz")] < by[(ds, "Lz4")]

    def test_neats_random_access_beats_blockwise(self, table3):
        """The headline: NeaTS random access is orders of magnitude faster
        than block-decompression codecs."""
        _, rows = table3
        by = {(r["dataset"], r["codec"]): r["ra"] for r in rows}
        for ds in {r["dataset"] for r in rows}:
            assert by[(ds, "NeaTS")] > 10 * by[(ds, "Gorilla")]
            assert by[(ds, "NeaTS")] > 10 * by[(ds, "Chimp")]

    def test_print_tables_runs(self, table3, capsys):
        mod, rows = table3
        mod.print_tables(rows)
        out = capsys.readouterr().out
        assert "Compression ratio" in out and "Random access" in out


class TestRangeQueries:
    def test_range_job_runs(self):
        """Every range size 10 .. 2560 of every Fig. 4 codec, each batch's
        last scan checked against the input inside ``run``."""
        mod = _load("range_queries")
        mod.RANGE_DATASETS = ["CT"]
        rows = mod.run(n=3000, n_queries=5, max_k=9)
        assert {(r["range"], r["codec"]) for r in rows} == {
            (10 * 2 ** k, c) for k in range(9) for c in ("NeaTS", "DAC", "ALP", "Lz4")}
        assert all(r["qps"] > 0 for r in rows)

    def test_wrong_scan_raises(self, monkeypatch):
        """``run`` checks the answers it times."""
        mod = _load("range_queries")
        mod.RANGE_DATASETS = ["CT"]
        build = mod.build_artifacts

        class OffByOne:
            def __init__(self, art):
                self.art = art

            def scan(self, lo, hi):
                return self.art.scan(lo, hi) + 1

        def broken(ts):
            arts = build(ts)
            return {**arts, "DAC": OffByOne(arts["DAC"])}

        monkeypatch.setattr(mod, "build_artifacts", broken)
        with pytest.raises(AssertionError, match="DAC scan wrong on CT"):
            mod.run(n=600, n_queries=2, max_k=1)

    def test_neats_throughput_flat_across_ranges(self):
        """Fig. 4's transferable property in this substrate: NeaTS range
        throughput degrades only mildly as ranges grow 64x (random access +
        sequential decode), instead of collapsing like per-point access
        through block-decompression would."""
        mod = _load("range_queries")
        mod.RANGE_DATASETS = ["IT"]
        rows = mod.run(n=3000, n_queries=10, max_k=7)
        by = {(r["range"], r["codec"]): r["qps"] for r in rows}
        assert by[(640, "NeaTS")] > 0.2 * by[(10, "NeaTS")]
        # and NeaTS stays within the same order of magnitude as the C-coded
        # Lz4 block store even at the largest range
        assert by[(640, "NeaTS")] > 0.1 * by[(640, "Lz4")]


class TestSparkStore:
    def test_store_job_runs(self, spark):
        """The store demo end to end: ingest, write, a range aggregate and
        64 point lookups, each checked against the series inside ``run``."""
        out = _load("spark_store").run(spark, dataset="IT", n=8192, block=1024)
        assert out["dataset"] == "IT" and out["n"] == 8192
        assert 0 < out["ratio_pct"] < 100
        assert min(out["write_s"], out["range_query_s"], out["point_lookup_s"]) > 0


class TestFig2:
    def test_variants_job_runs(self):
        out = _load("fig2_variants").run(datasets=["IT", "CT"], sizes=(256,), blocks=2)
        by = {(r["dataset"], r["variant"]): r for r in out["rows"]}
        assert len(by) == 6 and all(r["mb_per_s"] > 0 and 0 < r["ratio_pct"] < 150 for r in by.values())
        assert {s["variant"]: s["speedup_vs_neats"] for s in out["summary"]}["neats"] == 1.0

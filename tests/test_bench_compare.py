"""The bench-trajectory regression gate: ``compare_bench`` policy
plus the ``repro bench --compare`` / ``--out`` CLI surface.

Policy under test (docs/observability.md): deterministic counters
must match *exactly* -- any drift is a correctness or work regression
by definition -- while wall-clock fields are noise-aware, gating only
at ``--wall-ratio`` and only above a 10ms floor.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.runner.bench import (
    DEFAULT_BENCH_PATH,
    MIN_GATED_WALL_S,
    compare_bench,
    load_bench,
    render_compare,
)


def sample_doc(**overrides):
    doc = {
        "version": 4,
        "machine": "sparc",
        "quick": True,
        "workload": {"kernels": ["daxpy"], "copies": 2,
                     "window": 16, "n_blocks": 2,
                     "n_instructions": 40},
        "builders": {
            "n2": {"comparisons": 100, "table_probes": 0,
                   "alias_checks": 10, "arcs_added": 30,
                   "arcs_merged": 5, "arcs_suppressed": 0,
                   "bitmap_ops": 0, "build_s": 0.5},
            "bitmap-backward": {"comparisons": 40, "table_probes": 20,
                                "alias_checks": 10, "arcs_added": 30,
                                "arcs_merged": 5, "arcs_suppressed": 2,
                                "bitmap_ops": 8, "build_s": 0.2,
                                "bitmap_words_touched": 64},
        },
        "heuristics": {"incremental": {"arcs_repaired": 4,
                                       "repair_s": 0.02}},
        "batch": {"baseline_s": 0.9, "cached_s": 0.6,
                  "parallel_s": None, "reduction_fraction": 0.33,
                  "schedules_identical": True,
                  "build_counters": {"comparisons": 140}},
        "timing_note": "min of 1",
    }
    doc.update(overrides)
    return doc


class TestPolicy:
    def test_identical_docs_pass(self):
        result = compare_bench(sample_doc(), sample_doc())
        assert result["ok"] is True
        assert result["counter_mismatches"] == []
        assert result["wall_regressions"] == []
        assert result["compared_counters"] > 0

    def test_counter_drift_fails_exactly(self):
        new = sample_doc()
        new["builders"]["n2"]["comparisons"] = 101  # off by one
        result = compare_bench(sample_doc(), new)
        assert result["ok"] is False
        (miss,) = result["counter_mismatches"]
        assert miss["field"] == "builders.n2.comparisons"
        assert (miss["old"], miss["new"]) == (100, 101)

    def test_wall_regression_gated_by_ratio(self):
        new = sample_doc()
        new["batch"]["baseline_s"] = 0.9 * 2.5
        assert compare_bench(sample_doc(), new,
                             wall_ratio=2.0)["ok"] is False
        assert compare_bench(sample_doc(), new,
                             wall_ratio=3.0)["ok"] is True

    def test_tiny_walls_never_gate(self):
        old, new = sample_doc(), sample_doc()
        old["heuristics"]["incremental"]["repair_s"] = \
            MIN_GATED_WALL_S / 10
        new["heuristics"]["incremental"]["repair_s"] = \
            MIN_GATED_WALL_S * 5  # 50x, but below the floor
        result = compare_bench(old, new)
        assert result["ok"] is True
        assert "heuristics.incremental.repair_s" \
            in result["skipped_walls"]

    def test_wall_improvement_passes(self):
        new = sample_doc()
        new["batch"]["baseline_s"] = 0.1
        assert compare_bench(sample_doc(), new)["ok"] is True

    def test_config_mismatch_is_typed_error(self):
        with pytest.raises(ReproError, match="machine"):
            compare_bench(sample_doc(),
                          sample_doc(machine="rs6000"))
        with pytest.raises(ReproError, match="quick"):
            compare_bench(sample_doc(), sample_doc(quick=False))

    def test_one_sided_fpppp_is_a_mismatch(self):
        # The fpppp section runs on every host, so a document missing
        # it lost counters: that is a regression, not host config.
        old = sample_doc(fpppp={"arcs": 999, "object_build_s": 0.4})
        result = compare_bench(old, sample_doc())
        assert result["ok"] is False
        assert {"field": "fpppp.arcs", "old": 999, "new": None} \
            in result["counter_mismatches"]

    def test_render_compare_mentions_verdict(self):
        ok = compare_bench(sample_doc(), sample_doc())
        text = render_compare(ok, "a.json", "b.json", 2.0)
        assert "OK" in text
        new = sample_doc()
        new["builders"]["n2"]["comparisons"] = 1
        bad = compare_bench(sample_doc(), new)
        text = render_compare(bad, "a.json", "b.json", 2.0)
        assert "REGRESSION" in text
        assert "builders.n2.comparisons" in text


class TestLoadBench:
    def test_load_rejects_garbage(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ReproError):
            load_bench(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ReproError):
            load_bench(str(bad))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(sample_doc()))
        assert load_bench(str(path))["machine"] == "sparc"


class TestCLI:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_compare_two_files_exit_codes(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", sample_doc())
        same = self.write(tmp_path, "same.json", sample_doc())
        assert main(["bench", "--compare", old, same]) == 0
        regressed = copy.deepcopy(sample_doc())
        regressed["builders"]["n2"]["comparisons"] *= 2
        new = self.write(tmp_path, "new.json", regressed)
        assert main(["bench", "--compare", old, new]) == 1

    def test_compare_config_mismatch_exits_2(self, tmp_path):
        old = self.write(tmp_path, "old.json", sample_doc())
        other = self.write(tmp_path, "other.json",
                           sample_doc(machine="rs6000"))
        assert main(["bench", "--compare", old, other]) == 2

    def test_too_many_compare_paths_rejected(self, tmp_path):
        paths = [self.write(tmp_path, f"d{i}.json", sample_doc())
                 for i in range(3)]
        assert main(["bench", "--compare", *paths]) == 2

    def test_default_out_is_versioned(self):
        assert DEFAULT_BENCH_PATH == "BENCH_v4.json"

    def test_run_write_then_self_compare(self, tmp_path):
        # The acceptance loop: a quick run gates cleanly against its
        # own output (exit 0), via --out and single-path --compare.
        out_path = str(tmp_path / "fresh.json")
        assert main(["bench", "--quick", "--jobs", "1",
                     "--machine", "generic",
                     "--out", out_path]) == 0
        assert main(["bench", "--quick", "--jobs", "1",
                     "--machine", "generic",
                     "--out", str(tmp_path / "fresh2.json"),
                     "--compare", out_path]) == 0

"""Documentation integrity tests."""

import pathlib
import re
import subprocess
import sys

DOCS = pathlib.Path(__file__).parent.parent / "docs"
ROOT = pathlib.Path(__file__).parent.parent


class TestApiReference:
    def test_generator_runs(self, tmp_path, monkeypatch):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "gen_api", DOCS / "gen_api.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        monkeypatch.setattr(gen, "OUT", tmp_path / "api.md")
        gen.main()
        text = (tmp_path / "api.md").read_text()
        for key in ("schedule_forward", "TableForwardBuilder",
                    "backward_pass", "may_alias", "Heuristic",
                    "branch_and_bound_schedule"):
            assert key in text, key

    def test_committed_api_reference_exists(self):
        text = (DOCS / "api.md").read_text()
        assert "API reference" in text
        assert "repro.dag.builders.table_backward" in text

    def test_every_module_in_generator_list_imports(self):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "gen_api", DOCS / "gen_api.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        import importlib as il
        for module_name in gen.MODULES:
            assert il.import_module(module_name) is not None


class TestCrossReferences:
    def test_paper_mapping_mentions_every_builder(self):
        text = (DOCS / "paper_mapping.md").read_text()
        for name in ("CompareAllBuilder", "LandskovBuilder",
                     "TableForwardBuilder", "TableBackwardBuilder",
                     "BitmapBackwardBuilder"):
            assert name in text

    def test_readme_bench_table_matches_files(self):
        readme = (ROOT / "README.md").read_text()
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in readme, bench.name

    def test_experiments_covers_every_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for anchor in ("Table 1", "Table 2", "Table 3", "Table 4",
                       "Table 5", "Figure 1", "Conclusion 4",
                       "Conclusion 6", "Future work 1", "Future work 3"):
            assert anchor in text, anchor

    def test_design_lists_every_experiment_bench(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench in ("bench_table3_structure", "bench_table4_n2",
                      "bench_table5_table_building",
                      "bench_figure1_transitive", "bench_scaling_sweep",
                      "bench_heuristic_pass", "bench_direction_pairing",
                      "bench_branch_and_bound"):
            assert bench in text, bench

    def test_tutorial_code_mentions_current_api(self):
        text = (DOCS / "tutorial.md").read_text()
        import repro
        for name in re.findall(r"from repro import ([\w, ]+)", text):
            for symbol in [s.strip() for s in name.split(",")]:
                assert hasattr(repro, symbol), symbol


class TestMetricCatalog:
    def test_every_daemon_family_has_a_row(self, tmp_path):
        from repro.obs import MetricsRegistry, parse_exposition
        from repro.serve.client import Client
        from repro.serve.server import BackgroundServer, ServeConfig
        config = ServeConfig(address=f"unix:{tmp_path}/s.sock",
                             wal_dir=str(tmp_path / "wal"))
        background = BackgroundServer(config,
                                      metrics=MetricsRegistry()).start()
        try:
            with Client(background.address) as conn:
                reply = conn.exchange({
                    "op": "schedule", "id": "r", "verify": True,
                    "workload": {"kernel": "daxpy", "copies": 2}})
            assert reply.status == "ok"
            exposition = background.server.exposition_text()
        finally:
            background.drain()
        families, _ = parse_exposition(exposition)
        text = (DOCS / "observability.md").read_text()
        catalog = text.split("### Metric catalog", 1)[1]
        catalog = catalog.split("\n## ", 1)[0]
        rows = set(re.findall(r"`(repro_\w+)`", "\n".join(
            line for line in catalog.splitlines()
            if line.startswith("|"))))
        assert sorted(set(families) - rows) == []

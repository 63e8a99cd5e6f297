"""Tests for the paper-vs-measured shape comparison helpers."""

import pytest

from repro.analysis.compare import (
    comparison_rows,
    log_ratio_spread,
    rank_correlation,
)


class TestRankCorrelation:
    def test_identical_ordering(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) \
            == pytest.approx(1.0)

    def test_reversed_ordering(self):
        assert rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) \
            == pytest.approx(-1.0)

    def test_monotone_transform_invariant(self):
        a = [1, 5, 2, 9, 3]
        b = [x ** 3 for x in a]
        assert rank_correlation(a, b) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_correlation([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            rank_correlation([1, 2], [2, 1])


class TestLogRatioSpread:
    def test_constant_factor_is_zero(self):
        assert log_ratio_spread([2, 4, 6], [1, 2, 3]) \
            == pytest.approx(0.0)

    def test_varying_factor_positive(self):
        assert log_ratio_spread([1, 20, 3], [1, 2, 3]) > 0.3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_ratio_spread([0, 1], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            log_ratio_spread([1], [1, 2])


class TestComparisonRows:
    def test_rows_in_paper_order(self):
        rows = comparison_rows({"a": 2.0, "b": 3.0}, {"b": 1.0, "a": 1.0})
        assert [r["item"] for r in rows] == ["b", "a"]
        assert rows[0]["ratio"] == 3.0

    def test_missing_measured_items_skipped(self):
        rows = comparison_rows({"a": 2.0}, {"a": 1.0, "b": 5.0})
        assert len(rows) == 1

    def test_zero_paper_value(self):
        rows = comparison_rows({"a": 2.0}, {"a": 0.0})
        assert rows[0]["ratio"] == float("inf")


class TestPaperTablesShape:
    """The actual shape checks against the embedded paper columns,
    using the library's own measurements (small scale for speed)."""

    def test_table5_arc_density_ordering_matches_paper(self):
        from repro.dag.builders import TableForwardBuilder
        from repro.machine import sparcstation2_like
        from repro.runner.batch import run_batch
        from repro.workloads import generate_blocks, scaled_profile

        machine = sparcstation2_like()
        paper_arcs_avg = {"grep": 1.23, "linpack": 8.88, "lloops": 15.29,
                          "tomcatv": 26.14}
        measured = {}
        for name in paper_arcs_avg:
            blocks = generate_blocks(scaled_profile(name, 0.2))
            r = run_batch(blocks, machine, chain_factories=[
                ("table-forward", lambda: TableForwardBuilder(machine))])
            measured[name] = r.dag_stats.avg_arcs_per_block
        names = list(paper_arcs_avg)
        rho = rank_correlation([measured[n] for n in names],
                               [paper_arcs_avg[n] for n in names])
        assert rho == pytest.approx(1.0)
        spread = log_ratio_spread([measured[n] for n in names],
                                  [paper_arcs_avg[n] for n in names])
        assert spread < 0.35

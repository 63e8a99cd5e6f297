"""Tests for the metrics registry: types, labels, snapshots, merging."""

import json
import sys
import threading

import pytest

from repro.obs import MetricsRegistry, read_metrics, write_metrics
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    record_block_structure,
    record_build,
    record_cache,
    record_incremental_repair,
    record_outcome,
    record_verify_check,
)


class TestCounter:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "h", labels=("builder",))
        c.inc(2, builder="n2")
        c.inc(builder="n2")
        c.inc(5, builder="landskov")
        assert reg.value("hits", builder="n2") == 3
        assert reg.value("hits", builder="landskov") == 5

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "h", labels=("builder",))
        with pytest.raises(ValueError):
            c.inc(1, wrong="x")
        with pytest.raises(ValueError):
            c.inc(1)


class TestGauge:
    def test_max_aggregation(self):
        reg = MetricsRegistry()
        g = reg.gauge("peak", "p")
        g.set(3)
        g.set(7)
        g.set(5)
        assert reg.value("peak") == 7

    def test_last_aggregation(self):
        reg = MetricsRegistry()
        g = reg.gauge("state", "s", volatile=True, agg="last")
        g.set(3)
        g.set(1)
        assert reg.value("state") == 1

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().gauge("g", "g", agg="sum")

    def test_stable_last_gauge_rejected(self):
        # agg="last" is merge-order dependent, so a stable (snapshot-
        # diffed) gauge may not use it: --jobs 4 could then legally
        # diverge from --jobs 1.
        with pytest.raises(ValueError, match="volatile"):
            MetricsRegistry().gauge("g", "g", agg="last")


class TestHistogram:
    def test_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", "s", buckets=(1, 4, 16))
        for value in (1, 2, 5, 100):
            h.observe(value)
        snap = h.snapshot()["values"][""]
        assert snap["count"] == 4
        assert snap["sum"] == 108
        assert snap["buckets"] == {"1": 1, "4": 2, "16": 3, "+Inf": 4}

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", "h", buckets=(4, 1))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("c", "help", labels=("x",))
        b = reg.counter("c", "ignored", labels=("x",))
        assert a is b

    def test_conflicting_redefinition_rejected(self):
        reg = MetricsRegistry()
        reg.counter("c", "h")
        with pytest.raises(ValueError):
            reg.gauge("c", "h")
        with pytest.raises(ValueError):
            reg.counter("c", "h", labels=("x",))

    def test_snapshot_sections_and_determinism(self):
        def build():
            reg = MetricsRegistry()
            # insertion order deliberately scrambled
            reg.counter("z_stable", "z").inc(1)
            reg.counter("a_volatile", "a", volatile=True).inc(2)
            reg.counter("a_stable", "a").inc(3)
            return reg

        one, two = build().snapshot(), build().snapshot()
        assert one == two
        assert one["schema_version"] == METRICS_SCHEMA_VERSION
        assert list(one["stable"]) == ["a_stable", "z_stable"]
        assert list(one["volatile"]) == ["a_volatile"]

    def test_dump_merge_equals_direct(self):
        def record(reg, amount):
            reg.counter("work", "w", labels=("b",)).inc(amount, b="x")
            reg.gauge("peak", "p").set(amount)
            reg.histogram("sizes", "s", buckets=(4, 16)).observe(amount)

        direct = MetricsRegistry()
        record(direct, 3)
        record(direct, 10)

        parent = MetricsRegistry()
        for amount in (3, 10):
            worker = MetricsRegistry()
            record(worker, amount)
            parent.merge(worker.dump())
        assert parent.snapshot() == direct.snapshot()

    def test_merge_is_commutative_for_counters_and_max_gauges(self):
        dumps = []
        for amount in (3, 10):
            reg = MetricsRegistry()
            reg.counter("c", "c").inc(amount)
            reg.gauge("g", "g").set(amount)
            dumps.append(reg.dump())
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(dumps[0]); ab.merge(dumps[1])
        ba.merge(dumps[1]); ba.merge(dumps[0])
        assert ab.snapshot() == ba.snapshot()

    def test_dump_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", "c", labels=("x",), volatile=True).inc(4, x="a")
        reg.histogram("h", "h").observe(2)
        wire = json.loads(json.dumps(reg.dump()))
        other = MetricsRegistry()
        other.merge(wire)
        assert other.snapshot() == reg.snapshot()

    def test_write_read_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", "c").inc(7)
        path = tmp_path / "metrics.json"
        write_metrics(reg, str(path))
        assert read_metrics(str(path)) == reg.snapshot()


class TestReadMetrics:
    def test_read_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"depth": 2, "shed": {}, "p50": None}
        reg.gauge("depth", "d", read=lambda: state["depth"])
        reg.counter("shed", "s", labels=("reason",),
                    read=lambda: {(r,): n
                                  for r, n in state["shed"].items()})
        reg.gauge("p50", "p", read=lambda: state["p50"])
        state.update(depth=0, shed={"error": 3}, p50=0.5)
        volatile = reg.snapshot()["volatile"]
        assert volatile["depth"]["values"] == {"": 0}
        assert volatile["shed"]["values"] == {"reason=error": 3}
        assert volatile["p50"]["values"] == {"": 0.5}
        state["p50"] = None  # no sample
        assert reg.snapshot()["volatile"]["p50"]["values"] == {}

    def test_definition_rules(self):
        reg = MetricsRegistry()
        reg.gauge("g", "g", read=lambda: 1)
        assert "g" in reg.snapshot()["volatile"]  # live state
        with pytest.raises(ValueError):
            reg.gauge("g", "g", volatile=True)  # a recorded twin
        # the newest owner's read wins
        reg.gauge("g", "g", read=lambda: 2)
        assert reg.snapshot()["volatile"]["g"]["values"] == {"": 2}

    def test_reads_run_outside_the_lock(self):
        # An owner may record here while holding its own lock, so a
        # read taken under the registry lock could deadlock with it.
        reg = MetricsRegistry()
        counter = reg.counter("c", "c")

        def read():
            writer = threading.Thread(target=counter.inc)
            writer.start()
            writer.join(10)
            return int(not writer.is_alive())
        reg.gauge("writer_finished", "w", read=read)
        snap = reg.snapshot()
        assert snap["volatile"]["writer_finished"]["values"] == {"": 1}
        assert reg.value("c") == 1


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()
        counter = reg.counter("c", "c")
        n = 200_000

        def work():
            for _ in range(n):
                counter.inc()
        threads = [threading.Thread(target=work) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert reg.value("c") == 2 * n


class _Stats:
    comparisons = 10
    table_probes = 20
    alias_checks = 3
    arcs_added = 5
    arcs_merged = 1
    arcs_suppressed = 2
    bitmap_ops = 4


class _Attempt:
    def __init__(self, builder, stage, work):
        self.builder, self.stage, self.work = builder, stage, work


class _Outcome:
    makespan = 9
    original_makespan = 14
    degraded = False
    attempts = [_Attempt("n2", "timeout", 100),
                _Attempt("table-forward", "ok", 30)]


class TestCatalogHelpers:
    def test_all_helpers_noop_without_registry(self):
        record_build(None, "n2", _Stats())
        record_block_structure(None, 5, 2)
        record_outcome(None, _Outcome())
        record_cache(None, 1, 2)
        record_verify_check(None, "timing", True)
        record_incremental_repair(None, 3, 10)

    def test_record_build(self):
        reg = MetricsRegistry()
        record_build(reg, "n2", _Stats(), words_touched=8)
        assert reg.value("repro_build_blocks_total", builder="n2") == 1
        assert reg.value("repro_build_comparisons_total",
                         builder="n2") == 10
        assert reg.value("repro_bitmap_words_touched_total",
                         builder="n2") == 8
        assert reg.value("repro_block_arcs_max") == 5

    def test_record_outcome_fallback_accounting(self):
        reg = MetricsRegistry()
        record_outcome(reg, _Outcome())
        assert reg.value("repro_makespan_cycles_total") == 9
        assert reg.value("repro_original_makespan_cycles_total") == 14
        assert reg.value("repro_fallback_attempts_total",
                         builder="n2", stage="timeout") == 1
        assert reg.value("repro_fallback_attempts_total",
                         builder="table-forward", stage="ok") == 1
        # wasted work counts the rejected attempt only
        assert reg.value("repro_fallback_wasted_work_total") == 100
        assert reg.value("repro_watchdog_work_spent_total") == 130
        assert "repro_blocks_degraded_total" not in reg

    def test_record_cache_is_volatile(self):
        reg = MetricsRegistry()
        record_cache(reg, 3, 2, entries=4, recipes=9)
        snap = reg.snapshot()
        assert "repro_cache_hits_total" in snap["volatile"]
        assert snap["stable"] == {}

    def test_record_verify_check_result_label(self):
        reg = MetricsRegistry()
        record_verify_check(reg, "timing", True)
        record_verify_check(reg, "timing", False)
        assert reg.value("repro_verify_checks_total",
                         check="timing", result="pass") == 1
        assert reg.value("repro_verify_checks_total",
                         check="timing", result="fail") == 1

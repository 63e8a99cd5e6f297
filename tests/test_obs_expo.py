"""Prometheus exposition rendering and the sliding-window aggregator.

The exposition renderer is the wire half of the telemetry plane: it
turns a :meth:`MetricsRegistry.snapshot` into Prometheus text format
0.0.4, and ``parse_exposition`` inverts it far enough for the CI
smoke to assert on scraped series.  ``RollingWindow`` supplies the
time-windowed aggregates (p50/p99, reject/shed rates) that the
cumulative registry cannot express.
"""

import math

from repro.obs import MetricsRegistry
from repro.obs.expo import (
    EXPOSITION_CONTENT_TYPE,
    RollingWindow,
    parse_exposition,
    render_exposition,
)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def sample_registry():
    reg = MetricsRegistry()
    reg.counter("repro_blocks_total", "Blocks.").inc(3)
    reg.counter("repro_requests_total", "Requests.",
                labels=("tenant", "status")).inc(
        2, tenant="t0", status="ok")
    reg.gauge("repro_block_size_max", "Biggest block.").set(17)
    reg.histogram("repro_sizes", "Sizes.", buckets=(1, 4, 16)) \
        .observe(3)
    return reg


class TestRender:
    def test_help_type_and_value_lines(self):
        text = render_exposition(sample_registry().snapshot())
        assert "# HELP repro_blocks_total Blocks.\n" in text
        assert "# TYPE repro_blocks_total counter\n" in text
        assert "\nrepro_blocks_total 3\n" in text
        assert text.endswith("\n")

    def test_labels_sorted_and_quoted(self):
        text = render_exposition(sample_registry().snapshot())
        assert 'repro_requests_total{status="ok",tenant="t0"} 2' \
            in text

    def test_histogram_expansion(self):
        text = render_exposition(sample_registry().snapshot())
        # cumulative buckets, +Inf, _sum, _count
        assert 'repro_sizes_bucket{le="1"} 0' in text
        assert 'repro_sizes_bucket{le="4"} 1' in text
        assert 'repro_sizes_bucket{le="16"} 1' in text
        assert 'repro_sizes_bucket{le="+Inf"} 1' in text
        assert "repro_sizes_sum 3" in text
        assert "repro_sizes_count 1" in text

    def test_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", 'a "quoted" \\ back\nslash').inc(1)
        reg.counter("lv", "l", labels=("p",)).inc(
            1, p='x"y\\z\nw')
        text = render_exposition(reg.snapshot())
        assert "# HELP c a \"quoted\" \\\\ back\\nslash" in text
        assert 'lv{p="x\\"y\\\\z\\nw"} 1' in text

    def test_deterministic_and_sorted(self):
        a = render_exposition(sample_registry().snapshot())
        b = render_exposition(sample_registry().snapshot())
        assert a == b
        names = [line.split()[2] for line in a.splitlines()
                 if line.startswith("# TYPE")]
        assert names == sorted(names)

    def test_content_type_pinned(self):
        assert EXPOSITION_CONTENT_TYPE \
            == "text/plain; version=0.0.4; charset=utf-8"


class TestParse:
    def test_round_trip(self):
        text = render_exposition(sample_registry().snapshot())
        families, samples = parse_exposition(text)
        assert families["repro_blocks_total"] == "counter"
        assert families["repro_sizes"] == "histogram"
        assert samples["repro_blocks_total"] == 3
        assert samples[
            'repro_requests_total{status="ok",tenant="t0"}'] == 2
        assert samples['repro_sizes_bucket{le="+Inf"}'] == 1

    def test_non_finite_values(self):
        reg = MetricsRegistry()
        reg.gauge("g", "g").set(math.inf)
        text = render_exposition(reg.snapshot())
        assert "g +Inf" in text
        _, samples = parse_exposition(text)
        assert samples["g"] == math.inf


class TestRollingWindow:
    def test_counts_and_quantiles(self):
        clock = FakeClock()
        w = RollingWindow(window_s=60.0, n_buckets=12, clock=clock)
        for _ in range(98):
            w.observe_request("ok", 0.004)
        w.observe_request("ok", 0.9)
        w.observe_request("error", 2.0)
        snap = w.snapshot()
        assert snap["requests"] == 100
        assert snap["ok"] == 99
        assert snap["errors"] == 1
        assert snap["p50_s"] == 0.005   # smallest bound >= median
        assert snap["p99_s"] >= 0.9

    def test_expiry(self):
        clock = FakeClock()
        w = RollingWindow(window_s=60.0, n_buckets=12, clock=clock)
        w.observe_request("ok", 0.01)
        w.observe_shed(5)
        w.observe_rejection()
        assert w.snapshot()["requests"] == 1
        clock.advance(61.0)
        snap = w.snapshot()
        assert snap["requests"] == 0
        assert snap["shed_blocks"] == 0
        assert snap["rejections"] == 0
        assert snap["p50_s"] is None

    def test_partial_expiry_keeps_recent(self):
        clock = FakeClock()
        w = RollingWindow(window_s=60.0, n_buckets=12, clock=clock)
        w.observe_request("ok", 0.01)
        clock.advance(30.0)
        w.observe_request("ok", 0.01)
        clock.advance(35.0)   # first slot aged out, second alive
        assert w.snapshot()["requests"] == 1

    def test_queue_depth_is_windowed_max(self):
        clock = FakeClock()
        w = RollingWindow(window_s=60.0, n_buckets=12, clock=clock)
        w.observe_queue_depth(3)
        w.observe_queue_depth(9)
        w.observe_queue_depth(4)
        assert w.snapshot()["queue_depth_max"] == 9
        clock.advance(61.0)
        assert w.snapshot()["queue_depth_max"] == 0

    def test_exposition_series(self):
        clock = FakeClock()
        w = RollingWindow(clock=clock)
        reg = MetricsRegistry()
        w.register(reg)
        # an empty window's quantiles have no sample, so no family
        families, _ = parse_exposition(render_exposition(reg.snapshot()))
        assert "repro_window_request_p50_seconds" not in families
        assert families["repro_window_requests"] == "gauge"
        w.observe_request("ok", 0.02)
        text = render_exposition(reg.snapshot())
        families, samples = parse_exposition(text)
        assert families == {name: "gauge" for name, _, _ in w.GAUGES}
        assert samples == {
            "repro_window_seconds": 60.0,
            "repro_window_requests": 1,
            "repro_window_errors": 0,
            "repro_window_rejections": 0,
            "repro_window_shed_blocks": 0,
            "repro_window_queue_depth_max": 0,
            "repro_window_request_rate_rps": 0.0167,
            "repro_window_request_p50_seconds": 0.025,
            "repro_window_request_p99_seconds": 0.025,
        }
        assert "# HELP repro_window_requests Requests terminated " \
            "inside the window.\n" in text

"""Tests for the overload sentinel: pressure scoring, the
degradation ladder's hysteresis (no flapping, dwell enforcement,
byte-reproducible sequences under an injectable clock), the monitor's
lag measurement, admission's priority-aware shed gates, the honest
retry hint, the short-horizon telemetry window, and the resilient
``repro top`` loop."""

import io
import json

import pytest

from repro.errors import ReproError, RequestRejected
from repro.obs.expo import RollingWindow
from repro.obs.metrics import MetricsRegistry
from repro.serve import top as top_mod
from repro.serve.admission import (AdmissionController,
                                   FALLBACK_RETRY_AFTER_S)
from repro.serve.overload import (DEFAULT_ENTER, DEFAULT_EXIT,
                                  L_BROWNOUT, L_EMERGENCY, L_NORMAL,
                                  L_PRIORITIZED_SHED,
                                  L_SHED_OPTIONAL, LEVEL_NAMES,
                                  DegradationLadder, OverloadConfig,
                                  OverloadMonitor, OverloadSignals,
                                  Transition, is_priority_tenant,
                                  pressure_score, process_rss_mb)
from repro.serve.server import ReproServer, ServeConfig


class FakeClock:
    """Deterministic monotonic clock: advances ``step`` per call."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now

    def advance(self, seconds):
        self.now += seconds


def occ(score, capacity=1000):
    """Signals whose pressure score is exactly ``score`` (<= 1.0),
    driven by the occupancy signal alone."""
    return OverloadSignals(occupancy=int(round(score * capacity)),
                           capacity=capacity)


def lag(score, budget=0.25):
    """Signals whose score is ``score`` via loop lag (works > 1.0)."""
    return OverloadSignals(capacity=1000, loop_lag_s=score * budget)


class TestPressureScore:

    def config(self, **kwargs):
        return OverloadConfig(**kwargs)

    def test_occupancy_normalised_against_capacity(self):
        score, dominant = pressure_score(
            OverloadSignals(occupancy=3, capacity=4), self.config())
        assert score == pytest.approx(0.75)
        assert dominant == "occupancy"

    def test_queue_depth_latch_capped_at_point_nine(self):
        # The latched saturation marker alone reaches brownout
        # (0.9 >= enter[2]) but can never clear enter[3]: L3+ takes
        # a live signal.
        score, dominant = pressure_score(
            OverloadSignals(queue_depth=4, capacity=4), self.config())
        assert score == pytest.approx(0.9)
        assert dominant == "queue-depth"
        assert score >= DEFAULT_ENTER[L_BROWNOUT]
        assert score < DEFAULT_ENTER[L_PRIORITIZED_SHED]

    def test_rss_ignored_without_budget(self):
        score, dominant = pressure_score(
            OverloadSignals(capacity=8, rss_mb=10_000.0),
            self.config(rss_budget_mb=None))
        assert dominant != "rss"
        assert score == 0.0

    def test_rss_scored_against_budget(self):
        score, dominant = pressure_score(
            OverloadSignals(capacity=8, rss_mb=300.0),
            self.config(rss_budget_mb=200.0))
        assert dominant == "rss"
        assert score == pytest.approx(1.5)

    def test_p99_and_backlog_signals(self):
        score, dominant = pressure_score(
            OverloadSignals(capacity=8, p99_s=4.0),
            self.config(p99_budget_s=2.0))
        assert (score, dominant) == (pytest.approx(2.0), "p99")
        score, dominant = pressure_score(
            OverloadSignals(capacity=8, wal_backlog=96),
            self.config(backlog_budget=64))
        assert (score, dominant) == (pytest.approx(1.5), "wal-backlog")

    def test_dominant_ties_break_alphabetically(self):
        # occupancy 1.0 and loop-lag 1.0: "loop-lag" < "occupancy".
        score, dominant = pressure_score(
            OverloadSignals(occupancy=4, capacity=4,
                            loop_lag_s=0.25), self.config())
        assert score == pytest.approx(1.0)
        assert dominant == "loop-lag"

    def test_zero_capacity_does_not_divide_by_zero(self):
        score, _ = pressure_score(
            OverloadSignals(occupancy=2, capacity=0), self.config())
        assert score == pytest.approx(2.0)


class TestOverloadConfig:

    def test_defaults_validate(self):
        cfg = OverloadConfig()
        assert cfg.enter == DEFAULT_ENTER
        assert cfg.exit == DEFAULT_EXIT

    def test_wrong_arity_rejected(self):
        with pytest.raises(ReproError, match="levels"):
            OverloadConfig(enter=(0.0, 0.5, 1.0))

    def test_non_increasing_enter_rejected(self):
        with pytest.raises(ReproError, match="strictly"):
            OverloadConfig(enter=(0.0, 0.7, 0.7, 1.0, 1.3))

    def test_exit_above_enter_rejected(self):
        bad = list(DEFAULT_EXIT)
        bad[2] = 0.95  # above enter[2]=0.85: no hysteresis band
        with pytest.raises(ReproError, match="hysteresis"):
            OverloadConfig(exit=tuple(bad))

    def test_bad_interval_rejected(self):
        with pytest.raises(ReproError, match="interval"):
            OverloadConfig(interval_s=0.0)
        with pytest.raises(ReproError, match="dwell_up"):
            OverloadConfig(dwell_up_s=-1.0)


class TestDegradationLadder:

    def ladder(self, clock, **kwargs):
        kwargs.setdefault("dwell_s", (0.0, 1.0, 1.0, 1.5, 2.0))
        kwargs.setdefault("dwell_up_s", 0.25)
        return DegradationLadder(OverloadConfig(**kwargs), clock=clock)

    def test_starts_normal(self):
        ladder = self.ladder(FakeClock())
        assert ladder.level == L_NORMAL
        assert ladder.level_name == "normal"
        assert ladder.observe(occ(0.1)) is None

    def test_ascent_jumps_to_highest_qualifying_level(self):
        clock = FakeClock()
        ladder = self.ladder(clock)
        clock.advance(1.0)  # past dwell_up
        event = ladder.observe(lag(1.4))
        assert event is not None
        assert (event.from_level, event.to_level) == (0, L_EMERGENCY)
        assert event.direction == "ascend"
        assert ladder.max_level == L_EMERGENCY

    def test_descent_steps_one_level_at_a_time(self):
        clock = FakeClock()
        ladder = self.ladder(clock)
        clock.advance(1.0)
        ladder.observe(lag(1.4))  # -> L4
        for expected in (3, 2, 1, 0):
            clock.advance(5.0)  # past every dwell
            event = ladder.observe(occ(0.0))
            assert event is not None and event.to_level == expected
            assert event.direction == "descend"
        assert ladder.level == L_NORMAL
        assert ladder.ascents_total == 1
        assert ladder.descents_total == 4

    def test_dwell_enforced_at_every_boundary(self):
        # At each level L >= 1, a score at the exit threshold must
        # not descend until dwell_s[L] has elapsed -- and must
        # descend on the first observation after.
        clock = FakeClock()
        dwell = (0.0, 1.0, 1.0, 1.5, 2.0)
        ladder = self.ladder(clock, dwell_s=dwell)
        clock.advance(1.0)
        ladder.observe(lag(1.4))  # straight to L4
        for level in (4, 3, 2, 1):
            calm = occ(0.0)
            clock.advance(dwell[level] - 0.05)
            assert ladder.observe(calm) is None, \
                f"descended from L{level} before its dwell"
            assert ladder.level == level
            clock.advance(0.1)
            event = ladder.observe(calm)
            assert event is not None
            assert event.to_level == level - 1

    def test_dwell_up_spaces_consecutive_ascents(self):
        clock = FakeClock()
        ladder = self.ladder(clock, dwell_up_s=0.25)
        clock.advance(1.0)
        ladder.observe(occ(0.75))  # -> L1
        # Immediately qualifying for L2: blocked by dwell_up.
        assert ladder.observe(occ(0.90)) is None
        assert ladder.level == L_SHED_OPTIONAL
        clock.advance(0.3)
        event = ladder.observe(occ(0.90))
        assert event is not None and event.to_level == L_BROWNOUT

    def test_no_flap_inside_hysteresis_band(self):
        # Oscillating between exit[1] and enter[1] (exclusive) must
        # produce zero transitions once at L1, no matter how long.
        clock = FakeClock()
        ladder = self.ladder(clock)
        clock.advance(1.0)
        ladder.observe(occ(0.75))  # -> L1
        assert ladder.level == L_SHED_OPTIONAL
        for i in range(200):
            clock.advance(0.5)
            inside = 0.60 if i % 2 else 0.69  # (0.55, 0.70) band
            assert ladder.observe(occ(inside)) is None
        assert ladder.level == L_SHED_OPTIONAL
        assert ladder.transitions_total == 1

    def test_transition_sequence_is_reproducible(self):
        # Same signal trace + same clock schedule -> byte-identical
        # transition records, run twice.
        trace = ([occ(0.0)] * 3 + [occ(0.95)] * 8 + [occ(0.72)] * 8
                 + [occ(0.0)] * 40)

        def run():
            clock = FakeClock()
            ladder = self.ladder(clock)
            events = []
            for signals in trace:
                clock.advance(0.5)
                event = ladder.observe(signals)
                if event is not None:
                    events.append(event.to_dict())
            return json.dumps(events, sort_keys=True)

        first, second = run(), run()
        assert first == second
        levels = [e["to_level"] for e in json.loads(first)]
        assert levels[0] == L_BROWNOUT  # the storm ascends first
        assert levels[-1] == L_NORMAL  # and calm walks it back down
        assert ladder_is_monotone_descent(json.loads(first)[1:])

    def test_transition_to_dict_shape(self):
        event = Transition(at_s=1.5, from_level=0, to_level=2,
                           score=0.91, dominant="queue-depth")
        doc = event.to_dict()
        assert doc["from"] == "normal" and doc["to"] == "brownout"
        assert doc["direction"] == "ascend"
        descent = Transition(at_s=2.0, from_level=2, to_level=1,
                             score=0.1, dominant="occupancy")
        assert descent.direction == "descend"

    def test_snapshot_and_callback(self):
        seen = []
        clock = FakeClock()
        ladder = DegradationLadder(OverloadConfig(),
                                   clock=clock,
                                   on_transition=seen.append)
        clock.advance(1.0)
        ladder.observe(lag(1.4))
        assert [t.to_level for t in seen] == [L_EMERGENCY]
        doc = ladder.snapshot()
        assert doc["enabled"] is True
        assert doc["level_name"] == "emergency"
        assert doc["max_level"] == L_EMERGENCY
        assert doc["transitions_total"] == 1
        assert len(doc["recent_transitions"]) == 1
        assert doc["recent_transitions"][0]["dominant"] == "loop-lag"

    def test_recent_transitions_are_capped(self):
        clock = FakeClock()
        ladder = self.ladder(clock, dwell_s=(0.0,) * 5, dwell_up_s=0.0)
        for _ in range(40):
            clock.advance(1.0)
            ladder.observe(occ(0.75))  # ascend to L1
            clock.advance(1.0)
            ladder.observe(occ(0.0))  # descend to L0
        assert ladder.transitions_total == 80
        assert len(ladder.recent) == 16


def ladder_is_monotone_descent(events):
    return all(e["direction"] == "descend" for e in events) and \
        [e["to_level"] for e in events] == \
        list(range(events[0]["to_level"],
                   events[0]["to_level"] - len(events), -1))


class TestOverloadMonitor:

    def test_measures_loop_lag_from_overshoot(self):
        clock = FakeClock()
        monitor = OverloadMonitor(
            DegradationLadder(OverloadConfig(), clock=clock),
            sample=OverloadSignals, interval_s=0.25, clock=clock,
            rss=None)
        monitor.tick()  # first tick: no due time yet
        assert monitor.last_signals.loop_lag_s == 0.0
        clock.advance(0.75)  # due at +0.25, fired 0.5s late
        monitor.tick()
        assert monitor.last_signals.loop_lag_s == pytest.approx(0.5)
        assert monitor.ticks == 2

    def test_fills_rss_and_reports_snapshot(self):
        clock = FakeClock()
        monitor = OverloadMonitor(
            DegradationLadder(
                OverloadConfig(rss_budget_mb=100.0), clock=clock),
            sample=OverloadSignals, interval_s=0.25, clock=clock,
            rss=lambda: 150.0)
        clock.advance(1.0)
        event = monitor.tick()
        assert event is not None  # rss 1.5 -> emergency
        doc = monitor.snapshot()
        assert doc["signals"]["rss_mb"] == pytest.approx(150.0)
        assert doc["ticks"] == 1
        assert doc["interval_s"] == 0.25

    def test_process_rss_mb_reads_something_positive(self):
        rss = process_rss_mb()
        assert rss is not None and rss > 1.0


class TestPriorityClassification:

    def test_explicit_registration(self):
        assert is_priority_tenant("gold", frozenset({"gold"}))
        assert not is_priority_tenant("lead", frozenset({"gold"}))

    def test_name_convention(self):
        assert is_priority_tenant("priority-7")
        assert is_priority_tenant("priority")
        assert not is_priority_tenant("besteffort-1")


class TestAdmissionOverloadGates:

    def controller(self, level, **kwargs):
        kwargs.setdefault("clock", FakeClock())
        kwargs.setdefault("overload_level", lambda: level)
        return AdmissionController(**kwargs)

    def test_emergency_rejects_everyone(self):
        metrics = MetricsRegistry()
        ctrl = self.controller(
            L_EMERGENCY, metrics=metrics,
            priority_tenants=frozenset({"gold"}))
        for tenant in ("gold", "priority-1", "anon"):
            with pytest.raises(RequestRejected) as err:
                ctrl.admit(tenant, 1)
            assert err.value.reason == "overload"
            assert err.value.retry_after_s >= FALLBACK_RETRY_AFTER_S
        values = metrics.snapshot()["volatile"][
            "repro_overload_rejections_total"]["values"]
        assert values == {"tenant_class=priority": 2,
                          "tenant_class=best-effort": 1}

    def test_prioritized_shed_keeps_priority_flowing(self):
        ctrl = self.controller(L_PRIORITIZED_SHED,
                               priority_tenants=frozenset({"gold"}))
        ticket = ctrl.admit("gold", 1)  # explicit registration
        ticket.release()
        ticket = ctrl.admit("priority-app", 1)  # name convention
        ticket.release()
        with pytest.raises(RequestRejected) as err:
            ctrl.admit("anon", 1)
        assert err.value.reason == "overload"
        assert "prioritized shed" in str(err.value)

    def test_brownout_admits_everyone(self):
        ctrl = self.controller(L_BROWNOUT)
        ctrl.admit("anon", 1).release()

    def test_retry_hint_derived_from_completion_rate(self):
        ctrl = self.controller(L_EMERGENCY,
                               completion_rate=lambda: 2.0)
        with pytest.raises(RequestRejected) as err:
            ctrl.admit("anon", 1)
        assert err.value.retry_after_s == pytest.approx(0.5)

    def test_retry_hint_falls_back_on_empty_window(self):
        for rate in (None, 0.0):
            ctrl = self.controller(
                L_EMERGENCY,
                completion_rate=(lambda r=rate: r))
            with pytest.raises(RequestRejected) as err:
                ctrl.admit("anon", 1)
            assert err.value.retry_after_s == FALLBACK_RETRY_AFTER_S

    def test_retry_hint_clamped_to_thirty_seconds(self):
        ctrl = self.controller(L_EMERGENCY,
                               completion_rate=lambda: 1e-9)
        with pytest.raises(RequestRejected) as err:
            ctrl.admit("anon", 1)
        assert err.value.retry_after_s == pytest.approx(30.0)

    def test_priority_class_accessor(self):
        ctrl = self.controller(0, priority_tenants=frozenset({"g"}))
        assert ctrl.priority_class("g") == "priority"
        assert ctrl.priority_class("priority-x") == "priority"
        assert ctrl.priority_class("other") == "best-effort"

    def test_snapshot_carries_overload_level(self):
        ctrl = self.controller(L_BROWNOUT)
        assert ctrl.snapshot()["overload_level"] == L_BROWNOUT

    def test_queue_depth_gauge_tracks_occupancy_not_high_water(
            self, tmp_path):
        # Regression: the gauge fed the monotone high-water mark,
        # freezing the telemetry window's queue depth at its
        # all-time peak after any burst.  The daemon reads it from
        # admission at scrape time.
        server = ReproServer(ServeConfig(
            address=f"unix:{tmp_path}/s.sock", workers=4))
        ctrl = server.admission

        def gauge():
            return server.metrics.snapshot()["volatile"][
                "repro_queue_depth_max"]["values"][""]

        a, b = ctrl.admit("t", 1), ctrl.admit("t", 1)
        assert gauge() == 2
        a.release()
        assert gauge() == 1  # would be 2 with the high-water bug
        b.release()
        assert gauge() == 0


class TestRollingWindowRecent:

    def test_recent_decays_faster_than_full_window(self):
        clock = FakeClock()
        window = RollingWindow(window_s=60.0, n_buckets=12,
                               clock=clock)
        window.observe_queue_depth(8)
        window.observe_request("completed", 4.0)
        clock.advance(21.0)  # four buckets later
        recent = window.recent(10.0)
        assert recent["horizon_s"] == pytest.approx(10.0)
        assert recent["queue_depth_max"] == 0
        assert recent["p99_s"] is None
        # The dashboard window still remembers the burst.
        assert window.snapshot()["queue_depth_max"] == 8

    def test_recent_sees_fresh_saturation(self):
        clock = FakeClock()
        window = RollingWindow(window_s=60.0, n_buckets=12,
                               clock=clock)
        clock.advance(1.0)
        window.observe_queue_depth(5)
        recent = window.recent(10.0)
        assert recent["queue_depth_max"] == 5

    def test_horizon_clamped_to_at_least_one_bucket(self):
        window = RollingWindow(window_s=60.0, n_buckets=12,
                               clock=FakeClock())
        assert window.recent(0.0)["horizon_s"] == pytest.approx(5.0)


class TestTopResilience:

    def frames(self, level=None):
        health = {"uptime_s": 3.0, "workers": 2, "occupancy": 0,
                  "wal": {"enabled": False}}
        if level is not None:
            health["overload"] = {"level": level,
                                  "level_name": LEVEL_NAMES[level],
                                  "score": 0.91,
                                  "dominant": "queue-depth"}
        return {"health": health, "stats": {"server": {}},
                "metrics": {"window": {}}}

    def test_panel_shows_overload_line(self):
        panel = top_mod.render_top(self.frames(level=2), "addr")
        assert "overload: L2 brownout, score 0.91" in panel
        assert "(dominant queue-depth)" in panel

    def test_panel_omits_overload_line_when_disabled(self):
        assert "overload:" not in top_mod.render_top(self.frames())

    def test_render_unreachable(self):
        panel = top_mod.render_unreachable("unix:/tmp/x.sock",
                                           "boom", misses=3)
        assert "unreachable, retrying (x3)" in panel
        assert "boom" in panel

    def test_once_propagates_poll_errors(self, monkeypatch):
        def explode(address, *a, **k):
            raise ReproError("daemon down")
        monkeypatch.setattr(top_mod, "poll_ops", explode)
        with pytest.raises(ReproError, match="daemon down"):
            top_mod.run_top("unix:/nope.sock", once=True,
                            out=io.StringIO())

    def test_interactive_survives_unreachable_daemon(self,
                                                     monkeypatch):
        # First two polls fail, the third succeeds, then stop: the
        # loop must render the retry panel (with a running miss
        # count) instead of crashing.
        calls = {"n": 0}

        def flaky(address, *a, **k):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ReproError("connection refused")
            return self.frames(level=1)

        def stop_after_three(_interval):
            if calls["n"] >= 3:
                raise KeyboardInterrupt

        out = io.StringIO()
        monkeypatch.setattr(top_mod, "poll_ops", flaky)
        top_mod.run_top("unix:/flaky.sock", interval_s=0.0,
                        out=out, sleep=stop_after_three)
        text = out.getvalue()
        assert "unreachable, retrying (x1)" in text
        assert "unreachable, retrying (x2)" in text
        assert "shed-optional" in text  # recovered panel rendered

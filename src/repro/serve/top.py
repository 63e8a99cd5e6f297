"""``repro top``: a live terminal dashboard over a running daemon.

Polls a :mod:`repro.serve` daemon's ``health``/``stats``/``metrics``
ops over the NDJSON socket and renders one compact text panel per
tick: occupancy and drain state, the sliding-window p50/p99 latency
and shed/reject rates from the server's
:class:`~repro.obs.expo.RollingWindow`, global block accounting, and
the per-thread warm-cache detail.  ``--once`` prints a single panel
and exits (what the CI smoke and the tests drive); interactive mode
redraws until interrupted.

The renderer is a pure function of the three frames, so the panel is
deterministic for a given server state and trivially testable.
"""

from __future__ import annotations

import time

from repro.errors import ReproError
from repro.serve.client import Client


def poll_ops(address: str, ops: tuple[str, ...] = ("health", "stats",
                                                   "metrics"),
             timeout_s: float = 10.0) -> dict:
    """One round trip: send each op, return ``{op: frame}``.

    Raises:
        ReproError: when the daemon is unreachable or answers with
            something that is not a frame per op.
    """
    with Client(address, timeout_s) as conn:
        return {op: conn.op(op) for op in ops}


def _rate_line(window: dict) -> str:
    p50 = window.get("p50_s")
    p99 = window.get("p99_s")
    fmt = (lambda v: f"{v * 1000:.0f}ms" if v is not None else "-")
    return (f"window {window.get('window_s', 0):.0f}s: "
            f"{window.get('requests', 0)} req "
            f"({window.get('request_rate_rps', 0):.2f}/s), "
            f"p50 {fmt(p50)}, p99 {fmt(p99)}, "
            f"rejects {window.get('rejections', 0)}, "
            f"shed {window.get('shed_blocks', 0)} blocks, "
            f"queue<= {window.get('queue_depth_max', 0)}")


def render_top(frames: dict, address: str = "") -> str:
    """Render one dashboard panel from polled frames (pure)."""
    health = frames.get("health", {})
    stats = frames.get("stats", {})
    metrics = frames.get("metrics", {})
    server = stats.get("server", {})
    wal = health.get("wal", {})
    lines = [
        f"repro top — {address or 'daemon'}   "
        f"uptime {health.get('uptime_s', 0):.0f}s   "
        f"{'DRAINING' if health.get('draining') else 'serving'}   "
        f"workers {health.get('workers', '?')}   "
        f"occupancy {health.get('occupancy', '?')}",
        _rate_line(metrics.get("window", {})),
        f"totals: {server.get('requests_admitted', 0)} admitted, "
        f"{server.get('requests_completed', 0)} ok, "
        f"{server.get('requests_errored', 0)} errored, "
        f"{server.get('requests_deduped', 0)} deduped; "
        f"blocks {server.get('blocks_scheduled', 0)} scheduled / "
        f"{server.get('blocks_degraded', 0)} degraded / "
        f"{server.get('blocks_quarantined', 0)} quarantined / "
        f"{server.get('blocks_shed', 0)} shed "
        f"({'accounted' if server.get('accounted', True) else 'UNACCOUNTED'})",
        f"wal: {'on' if wal.get('enabled') else 'off'}, "
        f"{wal.get('finished_keys', 0)} finished keys, "
        f"{wal.get('inflight_keys', 0)} in flight, "
        f"{wal.get('replayed', 0)} replayed",
    ]
    overload = health.get("overload")
    if overload:
        lines.append(
            f"overload: L{overload.get('level', 0)} "
            f"{overload.get('level_name', 'normal')}, "
            f"score {overload.get('score', 0):.2f} "
            f"(dominant {overload.get('dominant', '-')})")
    threads = health.get("cache_threads", [])
    if threads:
        lines.append("warm caches:")
        for row in threads:
            lines.append(
                f"  {row.get('thread', '?')} [{row.get('machine', '?')}] "
                f"hits {row.get('hits', 0)} "
                f"(bundle {row.get('bundle_hits', 0)}), "
                f"misses {row.get('misses', 0)}, "
                f"entries {row.get('entries', 0)}/"
                f"{row.get('max_entries', 0)}")
    if health.get("breaker"):
        states = ", ".join(f"{b}={s}" for b, s in
                           sorted(health["breaker"].items()))
        lines.append(f"breaker: {states}")
    return "\n".join(lines)


def render_unreachable(address: str, error: str,
                       misses: int = 1) -> str:
    """The panel shown while the daemon cannot be polled."""
    return (f"repro top — {address or 'daemon'}   "
            f"unreachable, retrying (x{misses})\n"
            f"  {error}")


def run_top(address: str, interval_s: float = 2.0, once: bool = False,
            out=None, sleep=time.sleep) -> None:
    """Poll-and-render loop (``once`` prints a single panel).

    Interactive mode clears the screen with ANSI home+clear between
    redraws and stops cleanly on Ctrl-C.  A poll that fails mid-
    session -- a ``--supervised`` daemon mid-restart, a drain race --
    renders an "unreachable, retrying" panel and keeps polling
    instead of crashing the dashboard; ``--once`` still propagates
    the error (a scripted probe wants the non-zero exit).

    Raises:
        ReproError: only with ``once`` -- interactive mode retries.
    """
    import sys
    out = out or sys.stdout
    misses = 0
    while True:
        if once:
            panel = render_top(poll_ops(address), address)
            out.write(panel + "\n")
            return
        try:
            panel = render_top(poll_ops(address), address)
            misses = 0
        except ReproError as exc:
            misses += 1
            panel = render_unreachable(address, str(exc), misses)
        out.write("\x1b[H\x1b[2J" + panel + "\n")
        out.flush()
        try:
            sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return

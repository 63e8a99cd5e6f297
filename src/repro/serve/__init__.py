"""Scheduling-as-a-service: the hardened ``repro serve`` daemon.

Everything before this package is one-shot CLI; this is the serving
layer the ROADMAP's "millions of users" claim needs, built so the
robustness machinery (supervised pool, fallback chains, budgets,
journal semantics, chaos) earns its keep under live traffic:

* :mod:`repro.serve.protocol` -- the newline-delimited JSON wire
  protocol (requests, streamed per-block results, typed rejections).
* :mod:`repro.serve.admission` -- per-tenant token-bucket rate
  limiting, per-tenant work budgets (reusing
  :class:`~repro.runner.watchdog.Budget`), and bounded-queue
  backpressure with explicit 429-style load shedding.
* :mod:`repro.serve.engine` -- per-request execution: deadline
  propagation down to :func:`~repro.runner.fallback.\
schedule_block_resilient` wall-clock budgets and shed accounting
  (scheduled + degraded + shed + quarantined = total).
* :mod:`repro.serve.server` -- the asyncio daemon: unix-socket or
  localhost-TCP listener, one warm
  :class:`~repro.dag.builders.cache.PairwiseCache` per (executor
  thread, machine), health/readiness endpoints wired to pool and
  breaker state, and graceful drain on SIGTERM (stop admitting,
  finish or shed in-flight blocks, exit 0).
* :mod:`repro.serve.client` -- the client side of the protocol, which
  every harness below and ``repro top`` use: one request's exchange
  to its terminal frame, one-op round trips, the settle poll, and a
  blocking connection.
* :mod:`repro.serve.loadtest` -- the seeded ``repro loadtest`` client:
  p50/p99 latency, throughput, shed rate, and error-budget report
  through the obs metrics registry.
* :mod:`repro.serve.chaosserve` -- ``repro chaos --serve``: worker
  crashes, client disconnects, and deadline storms against a live
  server, asserting zero lost and zero double-scheduled blocks; with
  ``--kill-daemon``, seeded SIGKILLs of the daemon itself under a
  real supervisor, audited from the WAL.
* :mod:`repro.serve.wal` -- the request write-ahead log: fsync before
  acknowledge, idempotency-keyed dedup, crash recovery that re-runs
  acknowledged-but-unfinished requests without re-scheduling their
  recorded blocks.
* :mod:`repro.serve.supervise` -- ``repro serve --supervised``: a
  restart-with-backoff parent that detects crash loops and preserves
  the WAL directory across daemon generations.
"""

from repro.serve.admission import (
    AdmissionController,
    TenantState,
    TokenBucket,
)
from repro.serve.chaosserve import (
    KillDaemonConfig,
    KillDaemonReport,
    ServeChaosConfig,
    ServeChaosReport,
    render_kill_daemon_report,
    render_serve_chaos_report,
    run_kill_daemon_chaos,
    run_serve_chaos,
)
from repro.serve.engine import run_request
from repro.serve.loadtest import (
    LoadtestConfig,
    LoadtestReport,
    generate_mix,
    generate_retry_mix,
    render_loadtest_report,
    run_loadtest,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    REJECT_REASONS,
    ScheduleRequest,
    parse_address,
)
from repro.serve.server import BackgroundServer, ReproServer, ServeConfig
from repro.serve.supervise import (
    DaemonSupervisor,
    SupervisorPolicy,
    spawn_serve_child,
)
from repro.serve.wal import WalRecovery, WriteAheadLog

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "DaemonSupervisor",
    "generate_mix",
    "generate_retry_mix",
    "KillDaemonConfig",
    "KillDaemonReport",
    "LoadtestConfig",
    "LoadtestReport",
    "parse_address",
    "PROTOCOL_VERSION",
    "REJECT_REASONS",
    "render_kill_daemon_report",
    "render_loadtest_report",
    "render_serve_chaos_report",
    "ReproServer",
    "run_kill_daemon_chaos",
    "run_loadtest",
    "run_request",
    "run_serve_chaos",
    "ScheduleRequest",
    "ServeChaosConfig",
    "ServeChaosReport",
    "ServeConfig",
    "spawn_serve_child",
    "SupervisorPolicy",
    "TenantState",
    "TokenBucket",
    "WalRecovery",
    "WriteAheadLog",
]

"""Resilient batch execution for the scheduling pipeline.

The section 6 attempt in :mod:`repro.pipeline` raises on the first
failing stage.  This package is the layer that survives it: per-block watchdog budgets (:mod:`repro.runner.watchdog`),
builder fallback chains (:mod:`repro.runner.fallback`),
checkpoint/resume journals (:mod:`repro.runner.journal`), whole-run
aggregation with optional dependence caching and block-parallel
execution (:mod:`repro.runner.batch`), the crash-isolated supervised
worker pool with retry/backoff, quarantine, and per-builder circuit
breakers (:mod:`repro.runner.supervisor`), the seeded fault-injection
chaos harness that proves the pool's guarantees
(:mod:`repro.runner.chaos`), the reproducible performance benchmark
(:mod:`repro.runner.bench`), and the differential fuzz harness that
hunts for builder disagreements (:mod:`repro.runner.fuzz`).
"""

from repro.runner.batch import BatchResult, run_batch
from repro.runner.bench import run_bench, write_bench
from repro.runner.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.runner.fallback import (
    BUILDER_CLASSES,
    DEFAULT_CHAIN,
    Attempt,
    BlockOutcome,
    resolve_chain,
    schedule_block_resilient,
)
from repro.runner.fuzz import (
    FuzzFailure,
    FuzzResult,
    check_block,
    fuzz,
    layered_block,
    minimize_block,
    mutate_kernel,
    random_arc_block,
)
from repro.runner.journal import RunJournal, run_fingerprint
from repro.runner.supervisor import (
    CircuitBreaker,
    RetryPolicy,
    SupervisedPool,
    SupervisorStats,
)
from repro.runner.watchdog import Budget, BudgetedStats, run_with_watchdog

__all__ = [
    "Attempt",
    "BatchResult",
    "BlockOutcome",
    "Budget",
    "BudgetedStats",
    "BUILDER_CLASSES",
    "ChaosConfig",
    "ChaosReport",
    "check_block",
    "CircuitBreaker",
    "DEFAULT_CHAIN",
    "fuzz",
    "FuzzFailure",
    "FuzzResult",
    "layered_block",
    "minimize_block",
    "mutate_kernel",
    "random_arc_block",
    "resolve_chain",
    "RetryPolicy",
    "run_batch",
    "run_bench",
    "run_chaos",
    "run_fingerprint",
    "run_with_watchdog",
    "RunJournal",
    "schedule_block_resilient",
    "SupervisedPool",
    "SupervisorStats",
    "write_bench",
]

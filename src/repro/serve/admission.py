"""Admission control: token buckets, tenant budgets, bounded queues.

The daemon's first line of defence.  Every ``schedule`` request passes
through :class:`AdmissionController.admit` *before* any work is
queued; the controller either charges the request to its tenant and
returns a ticket, or raises :class:`~repro.errors.RequestRejected`
with a typed reason from :data:`repro.serve.protocol.REJECT_REASONS`
(and, where it makes sense, a ``retry_after_s`` hint).  Nothing is
ever silently dropped: a request that cannot run is a *response*, not
an absence.

Three independent limits compose:

* **rate** -- a per-tenant :class:`TokenBucket` smooths bursts; when
  empty, the rejection carries the exact time until the next token.
* **work budget** -- a per-tenant cumulative block allowance (reusing
  the :class:`~repro.runner.watchdog.Budget` dataclass the watchdog
  already uses for per-block work ceilings), so one tenant cannot
  monopolise a shared daemon even at a polite request rate.
* **occupancy** -- a global bounded queue (``max_active`` running +
  ``max_queued`` waiting); when full the daemon sheds load instead of
  accepting unbounded latency.

Everything here is synchronous and lock-guarded so both the asyncio
connection handlers and the engine's completion callbacks (worker
threads) can call it safely.  Time is injectable for deterministic
tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import RequestRejected
from repro.obs.metrics import (
    MetricsRegistry,
    record_overload_rejection,
    record_rejection,
)
from repro.runner.watchdog import Budget
from repro.serve.overload import (
    L_EMERGENCY,
    L_PRIORITIZED_SHED,
    is_priority_tenant,
)
from repro.serve.protocol import (
    REJECT_BUDGET,
    REJECT_DRAINING,
    REJECT_OVERLOAD,
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMITED,
    REJECT_TOO_LARGE,
)

#: retry hint used when the telemetry window has no completions yet
FALLBACK_RETRY_AFTER_S = 0.05


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, burst of ``capacity``.

    ``try_acquire`` is all-or-nothing and never blocks; on failure it
    returns the seconds until a token will be available so rejections
    can carry an honest ``retry_after_s``.
    """

    def __init__(self, rate: float, capacity: float,
                 clock=time.monotonic) -> None:
        if rate <= 0 or capacity <= 0:
            raise ValueError(
                f"token bucket needs positive rate/capacity, got "
                f"rate={rate} capacity={capacity}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.capacity,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> float | None:
        """Take ``tokens`` now, or report how long until they exist.

        Returns:
            None on success; otherwise the seconds until the bucket
            will hold ``tokens`` (the ``retry_after_s`` hint).
        """
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return None
        return (tokens - self._tokens) / self.rate

    @property
    def available(self) -> float:
        """Current token count (refilled to now)."""
        self._refill()
        return self._tokens


@dataclass
class TenantState:
    """Per-tenant admission state: rate bucket plus work budget.

    Attributes:
        name: the tenant id requests carry.
        bucket: the tenant's request-rate token bucket.
        budget: cumulative work allowance -- ``budget.max_work`` caps
            the total *blocks* this tenant may submit over the
            daemon's lifetime (None = unlimited).  The same dataclass
            the per-block watchdog uses, at tenant scope.
        blocks_charged: blocks admitted against the budget so far.
        requests_admitted / requests_rejected: accounting counters.
    """

    name: str
    bucket: TokenBucket
    budget: Budget = field(default_factory=Budget)
    blocks_charged: int = 0
    requests_admitted: int = 0
    requests_rejected: int = 0

    def budget_remaining(self) -> int | None:
        """Blocks left in the work budget (None = unlimited)."""
        if self.budget.max_work is None:
            return None
        return max(0, int(self.budget.max_work) - self.blocks_charged)


@dataclass
class AdmissionTicket:
    """Proof a request was admitted; releases occupancy exactly once.

    Handed to the engine; ``release()`` is idempotent so the normal
    completion path and the error/disconnect cleanup path can both
    call it without double-freeing a slot.
    """

    controller: "AdmissionController"
    tenant: str
    n_blocks: int
    released: bool = False

    def release(self) -> None:
        self.controller._release(self)


class AdmissionController:
    """Admit-or-reject gate shared by every connection handler.

    Args:
        max_active: requests allowed to be running at once.
        max_queued: additional requests allowed to wait; total
            occupancy is bounded by ``max_active + max_queued``.
        tenant_rate: token-bucket refill rate, requests/second.
        tenant_burst: token-bucket capacity (burst size).
        tenant_max_blocks: per-tenant cumulative block budget
            (None = unlimited).
        max_request_blocks: largest single request, in blocks.
        metrics: optional registry; rejections are recorded as they
            happen.
        clock: injectable monotonic clock (tests).
        priority_tenants: tenant names in the ``priority`` class --
            kept flowing at degradation level L3 while best-effort
            tenants are shed (names starting with ``"priority"`` are
            priority regardless; see
            :func:`repro.serve.overload.is_priority_tenant`).
        overload_level: callable returning the degradation ladder's
            active level (None = no ladder; everything admits as L0).
        completion_rate: callable returning the telemetry window's
            observed request completions/second; rejections derive
            their ``retry_after_s`` hints from it (None or an empty
            window falls back to
            :data:`FALLBACK_RETRY_AFTER_S`).
    """

    def __init__(self,
                 max_active: int = 4,
                 max_queued: int = 16,
                 tenant_rate: float = 20.0,
                 tenant_burst: float = 40.0,
                 tenant_max_blocks: int | None = None,
                 max_request_blocks: int = 10_000,
                 metrics: MetricsRegistry | None = None,
                 clock=time.monotonic,
                 priority_tenants: frozenset[str] = frozenset(),
                 overload_level=None,
                 completion_rate=None) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        self.max_active = max_active
        self.max_queued = max_queued
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.tenant_max_blocks = tenant_max_blocks
        self.max_request_blocks = max_request_blocks
        self.metrics = metrics
        self._clock = clock
        self.priority_tenants = frozenset(priority_tenants)
        self._overload_level = overload_level
        self._completion_rate = completion_rate
        self._lock = threading.Lock()
        self._occupancy = 0
        self._occupancy_high_water = 0
        self._draining = False
        self.tenants: dict[str, TenantState] = {}
        self.admitted_total = 0
        self.rejected_total = 0
        self.rejections_by_reason: dict[str, int] = {}

    # -- internals ----------------------------------------------------------

    def _tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(
                name=name,
                bucket=TokenBucket(self.tenant_rate, self.tenant_burst,
                                   clock=self._clock),
                budget=Budget(max_work=self.tenant_max_blocks))
            self.tenants[name] = state
        return state

    def _reject(self, state: TenantState | None, tenant: str,
                reason: str, retry_after_s: float | None = None,
                detail: str | None = None) -> RequestRejected:
        self.rejected_total += 1
        self.rejections_by_reason[reason] = \
            self.rejections_by_reason.get(reason, 0) + 1
        if state is not None:
            state.requests_rejected += 1
        record_rejection(self.metrics, tenant, reason)
        message = f"request rejected: {reason}"
        if detail:
            message += f" ({detail})"
        return RequestRejected(message, reason=reason,
                               retry_after_s=retry_after_s,
                               tenant=tenant)

    def _release(self, ticket: AdmissionTicket) -> None:
        with self._lock:
            if ticket.released:
                return
            ticket.released = True
            self._occupancy = max(0, self._occupancy - 1)

    def _level(self) -> int:
        return self._overload_level() \
            if self._overload_level is not None else 0

    def _retry_hint(self) -> float:
        """An honest ``retry_after_s``: time for one slot to free.

        Derived from the telemetry window's observed completion rate
        (one completion frees one slot, so the expected wait is its
        reciprocal), clamped to [fallback, 30s]; the fixed fallback
        covers the empty window at boot.
        """
        rate = None
        if self._completion_rate is not None:
            rate = self._completion_rate()
        if not rate or rate <= 0:
            return FALLBACK_RETRY_AFTER_S
        return round(min(30.0, max(FALLBACK_RETRY_AFTER_S,
                                   1.0 / rate)), 4)

    # -- public surface -----------------------------------------------------

    def priority_class(self, tenant: str) -> str:
        """``"priority"`` or ``"best-effort"`` for one tenant."""
        return "priority" \
            if is_priority_tenant(tenant, self.priority_tenants) \
            else "best-effort"

    def start_drain(self) -> None:
        """Stop admitting; subsequent admits reject with ``draining``."""
        with self._lock:
            self._draining = True

    def note_rejection(self, tenant: str, reason: str) -> None:
        """Fold a rejection detected outside :meth:`admit` into the
        stats.

        The pre-expansion size gate rejects an oversized workload
        before a block count even exists; this keeps that rejection
        visible in the same counters and metrics as ``admit``'s own.
        """
        with self._lock:
            self._reject(self._tenant(tenant), tenant, reason)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def occupancy(self) -> int:
        """Requests currently holding a slot (active + queued)."""
        with self._lock:
            return self._occupancy

    def would_admit(self) -> tuple[bool, str | None]:
        """Readiness probe: could a minimal request be admitted now?

        Checks drain state and occupancy only (not tenant limits,
        which depend on who asks).  Returns ``(ok, reason)``.
        """
        with self._lock:
            if self._draining:
                return (False, REJECT_DRAINING)
            if self._level() >= L_EMERGENCY:
                return (False, REJECT_OVERLOAD)
            if self._occupancy >= self.max_active + self.max_queued:
                return (False, REJECT_QUEUE_FULL)
            return (True, None)

    def admit(self, tenant: str, n_blocks: int) -> AdmissionTicket:
        """Charge a request to its tenant or raise a typed rejection.

        Checks run cheapest-first and nothing is charged unless every
        check passes, so a rejected request leaves no residue.

        Raises:
            RequestRejected: with ``reason`` in
                :data:`~repro.serve.protocol.REJECT_REASONS`.
        """
        with self._lock:
            state = self._tenant(tenant)
            if self._draining:
                raise self._reject(state, tenant, REJECT_DRAINING,
                                   detail="server is shutting down")
            level = self._level()
            if level >= L_EMERGENCY:
                # L4: admit nothing; in-flight requests finish.
                record_overload_rejection(
                    self.metrics, self.priority_class(tenant))
                raise self._reject(
                    state, tenant, REJECT_OVERLOAD,
                    retry_after_s=self._retry_hint(),
                    detail="emergency degradation: admitting nothing")
            if level >= L_PRIORITIZED_SHED \
                    and self.priority_class(tenant) != "priority":
                # L3: shed best-effort tenants, keep priority flowing.
                record_overload_rejection(self.metrics, "best-effort")
                raise self._reject(
                    state, tenant, REJECT_OVERLOAD,
                    retry_after_s=self._retry_hint(),
                    detail="prioritized shed: best-effort tenants "
                           "are deferred")
            if n_blocks > self.max_request_blocks:
                raise self._reject(
                    state, tenant, REJECT_TOO_LARGE,
                    detail=f"{n_blocks} blocks > cap "
                           f"{self.max_request_blocks}")
            if self._occupancy >= self.max_active + self.max_queued:
                raise self._reject(
                    state, tenant, REJECT_QUEUE_FULL,
                    retry_after_s=self._retry_hint(),
                    detail=f"{self._occupancy} requests in flight")
            remaining = state.budget_remaining()
            if remaining is not None and n_blocks > remaining:
                raise self._reject(
                    state, tenant, REJECT_BUDGET,
                    detail=f"{remaining} of "
                           f"{state.budget.max_work} blocks left")
            wait = state.bucket.try_acquire()
            if wait is not None:
                raise self._reject(state, tenant, REJECT_RATE_LIMITED,
                                   retry_after_s=wait)
            state.blocks_charged += n_blocks
            state.requests_admitted += 1
            self.admitted_total += 1
            self._occupancy += 1
            self._occupancy_high_water = max(self._occupancy_high_water,
                                             self._occupancy)
            return AdmissionTicket(controller=self, tenant=tenant,
                                   n_blocks=n_blocks)

    def export_state(self) -> dict:
        """Durable warm state for a drain/periodic snapshot.

        Captures what must survive a daemon restart for fairness to
        stay honest: per-tenant cumulative budgets and counters, plus
        the global admit/reject tallies.  Occupancy and drain state
        are deliberately excluded -- they describe the dying process,
        not the tenant relationship.
        """
        with self._lock:
            return {
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "rejections_by_reason": dict(self.rejections_by_reason),
                "tenants": {
                    name: {
                        "blocks_charged": s.blocks_charged,
                        "requests_admitted": s.requests_admitted,
                        "requests_rejected": s.requests_rejected,
                        "tokens": round(s.bucket.available, 6),
                    }
                    for name, s in sorted(self.tenants.items())
                },
            }

    def restore_state(self, payload: dict) -> None:
        """Re-hydrate :meth:`export_state` output after a restart.

        Token counts are clamped to the configured burst capacity, so
        a snapshot from a differently-configured daemon cannot grant
        more burst than this one allows.
        """
        with self._lock:
            self.admitted_total = int(payload.get("admitted_total", 0))
            self.rejected_total = int(payload.get("rejected_total", 0))
            self.rejections_by_reason = {
                str(k): int(v)
                for k, v in payload.get("rejections_by_reason",
                                        {}).items()}
            for name, saved in payload.get("tenants", {}).items():
                state = self._tenant(str(name))
                state.blocks_charged = int(
                    saved.get("blocks_charged", 0))
                state.requests_admitted = int(
                    saved.get("requests_admitted", 0))
                state.requests_rejected = int(
                    saved.get("requests_rejected", 0))
                tokens = saved.get("tokens")
                if isinstance(tokens, (int, float)):
                    state.bucket._refill()
                    state.bucket._tokens = max(
                        0.0, min(float(tokens), state.bucket.capacity))

    def snapshot(self) -> dict:
        """Admission state for the ``stats``/``health`` endpoints."""
        with self._lock:
            return {
                "occupancy": self._occupancy,
                "occupancy_high_water": self._occupancy_high_water,
                "max_active": self.max_active,
                "max_queued": self.max_queued,
                "draining": self._draining,
                "overload_level": self._level(),
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "rejections_by_reason": dict(sorted(
                    self.rejections_by_reason.items())),
                "tenants": {
                    name: {
                        "class": self.priority_class(name),
                        "requests_admitted": s.requests_admitted,
                        "requests_rejected": s.requests_rejected,
                        "blocks_charged": s.blocks_charged,
                        "budget_remaining": s.budget_remaining(),
                        "tokens_available": round(s.bucket.available, 3),
                    }
                    for name, s in sorted(self.tenants.items())
                },
            }

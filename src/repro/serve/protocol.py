"""The ``repro serve`` wire protocol: newline-delimited JSON.

One connection carries any number of requests; every message is one
JSON object on one line (UTF-8, ``\\n``-terminated).  Responses are
*streamed*: a ``schedule`` request is answered by an ``accepted``
frame, then one ``block`` (or ``shed``) frame per basic block as it
completes, then a terminal ``done`` frame -- or by a single typed
``rejected``/``error`` frame.  Every frame echoes the request's
client-chosen ``id`` so requests may be pipelined on one connection.

Client -> server operations (``op``):

* ``schedule`` -- schedule a program; see :class:`ScheduleRequest`.
* ``health`` -- liveness + pool/breaker/cache state (always answers),
  including per-thread warm-cache detail.
* ``ready`` -- readiness: would a schedule request be admitted now?
* ``stats`` -- the server's global block/request accounting (used by
  the chaos harness to prove zero lost / double-scheduled blocks).
* ``metrics`` -- the full metrics registry as Prometheus text
  exposition plus the sliding-window aggregates (``repro top`` polls
  this; ``--telemetry`` serves the same text over loopback HTTP).

Server -> client frame ``type``\\ s: ``accepted``, ``block``, ``shed``,
``done``, ``rejected``, ``error``, ``health``, ``ready``, ``stats``,
``metrics``.

**Request tracing** -- a client may stamp a ``trace`` id on a
schedule request (the loadtest mints one per request).  The id rides
every response frame for that request (``accepted``/``block``/
``shed``/``done``/``rejected``/``error``), is stamped into each block
record (and therefore the WAL and journal), and labels the server-side
spans -- one id joins a client-observed latency outlier to its
per-attempt spans and WAL lifecycle.  Dedup replays echo the
*original* request's trace id, which is the id the recorded blocks
carry.  Untraced requests produce byte-identical frames to older
clients: the field is simply absent.

Design rules the robustness story depends on:

* **never silent** -- a request that cannot run is answered with a
  typed ``rejected`` (admission) or ``error`` (malformed/failed)
  frame, never dropped;
* **always accounted** -- an admitted request's ``done`` summary
  satisfies ``scheduled + degraded + shed + quarantined == n_blocks``
  even when the deadline expired or the client vanished mid-stream;
* **bounded** -- one request line is capped at
  :data:`MAX_LINE_BYTES`; oversized requests are a typed rejection
  (``request-too-large``), not a buffer blow-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ProtocolError

#: protocol schema version, echoed in every ``accepted`` frame
PROTOCOL_VERSION = 1

#: hard cap on one request line, bytes (backpressure, not a buffer
#: blow-up: an oversized line is a typed rejection)
MAX_LINE_BYTES = 4 * 1024 * 1024

#: typed admission-rejection reason codes (the 429 family)
REJECT_QUEUE_FULL = "queue-full"
REJECT_RATE_LIMITED = "rate-limited"
REJECT_BUDGET = "tenant-budget-exhausted"
REJECT_DRAINING = "draining"
REJECT_TOO_LARGE = "request-too-large"
REJECT_DUPLICATE = "duplicate-in-flight"
REJECT_OVERLOAD = "overload"
REJECT_REASONS = (REJECT_QUEUE_FULL, REJECT_RATE_LIMITED,
                  REJECT_BUDGET, REJECT_DRAINING, REJECT_TOO_LARGE,
                  REJECT_DUPLICATE, REJECT_OVERLOAD)

#: longest accepted idempotency key, characters
MAX_KEY_CHARS = 128

#: longest accepted client trace id, characters
MAX_TRACE_CHARS = 128

#: shed reason codes (per-block, on admitted requests)
SHED_DEADLINE = "deadline"
SHED_DISCONNECT = "disconnect"
SHED_DRAIN = "drain"

#: hostnames a TCP *bind* may use -- the daemon has no authentication
#: story, so listening on anything routable is refused outright
LOOPBACK_HOSTS = frozenset({"localhost", "127.0.0.1", "::1"})


def _is_loopback(host: str) -> bool:
    return host in LOOPBACK_HOSTS or host.startswith("127.")


def encode(message: dict) -> bytes:
    """One wire frame: compact JSON plus the line terminator."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one wire line into a message dict.

    Raises:
        ProtocolError: when the line is not a JSON object.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request line is not UTF-8: {exc}")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request line is not JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def parse_address(spec: str, bind: bool = False) -> tuple:
    """Parse a listen/connect address.

    Accepted forms: ``unix:/path/to.sock``, a bare path containing
    ``/`` (unix socket), ``HOST:PORT``, or a bare ``PORT`` (localhost
    TCP).  TCP binds are loopback-only by design -- this daemon has no
    authentication story and must not be exposed -- and the server
    parses with ``bind=True``, which *enforces* that: a non-loopback
    host is a typed error, not a silently honoured footgun.  Client
    connects (``bind=False``) may name any host.

    Returns:
        ``("unix", path)`` or ``("tcp", host, port)``.

    Raises:
        ProtocolError: for an unparseable spec, or a ``bind`` to a
            non-loopback TCP host.
    """
    if spec.startswith("unix:"):
        return ("unix", spec[len("unix:"):])
    if "/" in spec:
        return ("unix", spec)
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        host = host or "127.0.0.1"
        if bind and not _is_loopback(host):
            raise ProtocolError(
                f"refusing to bind non-loopback TCP host {host!r}: "
                f"the serve daemon is unauthenticated and loopback-"
                f"only (use a unix socket or {sorted(LOOPBACK_HOSTS)})")
        try:
            return ("tcp", host, int(port))
        except ValueError:
            raise ProtocolError(f"bad TCP address {spec!r}")
    try:
        return ("tcp", "127.0.0.1", int(spec))
    except ValueError:
        raise ProtocolError(
            f"cannot parse address {spec!r} (want unix:/path, "
            f"/path, HOST:PORT, or PORT)")


@dataclass(frozen=True)
class ScheduleRequest:
    """One validated ``schedule`` operation.

    Exactly one of ``asm`` / ``workload`` carries the program:
    ``asm`` is assembly text, ``workload`` is a generator spec
    ``{"kernel": name, "copies": n}`` expanded server-side (so load
    generators need not ship megabytes of identical text).

    Attributes:
        id: client-chosen request id, echoed on every frame.
        tenant: admission-control tenant the request is charged to.
        asm: assembly source text, or None.
        workload: workload spec dict, or None.
        machine: machine-model name (server validates).
        window: maximum block size (instruction-window split).
        deadline_s: end-to-end deadline budget in seconds; propagated
            down to per-block wall-clock watchdog budgets and enforced
            between blocks (expiry sheds the remainder, typed).
        verify: independently verify every accepted schedule.
        lenient: skip unparseable source lines instead of failing the
            request.
        chain: builder fallback chain override (names), or None for
            the server default.
        key: client-supplied idempotency key, or None for a
            server-generated one.  A key is the unit of WAL dedup:
            resending a finished key streams the recorded result
            instead of recomputing; resending an in-flight key is a
            typed ``duplicate-in-flight`` rejection.
        trace: client-minted trace id, or None.  Echoed on every
            response frame, stamped into block records (and thus the
            WAL/journal), and attached to server-side spans.
    """

    id: str
    tenant: str = "default"
    asm: str | None = None
    workload: dict | None = field(default=None, hash=False)
    machine: str = "generic"
    window: int | None = None
    deadline_s: float | None = None
    verify: bool = False
    lenient: bool = False
    chain: tuple[str, ...] | None = None
    key: str | None = None
    trace: str | None = None

    @staticmethod
    def from_message(message: dict) -> "ScheduleRequest":
        """Validate a decoded ``schedule`` message.

        Raises:
            ProtocolError: for missing/conflicting/ill-typed fields.
        """
        rid = message.get("id")
        if not isinstance(rid, str) or not rid:
            raise ProtocolError(
                "schedule request needs a non-empty string 'id'")
        asm = message.get("asm")
        workload = message.get("workload")
        if (asm is None) == (workload is None):
            raise ProtocolError(
                f"request {rid!r} must carry exactly one of "
                f"'asm' or 'workload'")
        if asm is not None and not isinstance(asm, str):
            raise ProtocolError(f"request {rid!r}: 'asm' must be text")
        if workload is not None:
            if not isinstance(workload, dict) \
                    or not isinstance(workload.get("kernel"), str):
                raise ProtocolError(
                    f"request {rid!r}: 'workload' must be an object "
                    f"with a 'kernel' name")
        tenant = message.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(
                f"request {rid!r}: 'tenant' must be a non-empty "
                f"string")
        deadline = message.get("deadline_s")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or deadline <= 0:
                raise ProtocolError(
                    f"request {rid!r}: 'deadline_s' must be a "
                    f"positive number")
        window = message.get("window")
        if window is not None and (not isinstance(window, int)
                                   or window < 1):
            raise ProtocolError(
                f"request {rid!r}: 'window' must be a positive "
                f"integer")
        chain = message.get("chain")
        if chain is not None:
            if not isinstance(chain, list) \
                    or not all(isinstance(n, str) for n in chain):
                raise ProtocolError(
                    f"request {rid!r}: 'chain' must be a list of "
                    f"builder names")
            chain = tuple(chain)
        key = message.get("key")
        if key is not None:
            if not isinstance(key, str) or not key \
                    or len(key) > MAX_KEY_CHARS:
                raise ProtocolError(
                    f"request {rid!r}: 'key' must be a non-empty "
                    f"string of at most {MAX_KEY_CHARS} characters")
        trace = message.get("trace")
        if trace is not None:
            if not isinstance(trace, str) or not trace \
                    or len(trace) > MAX_TRACE_CHARS:
                raise ProtocolError(
                    f"request {rid!r}: 'trace' must be a non-empty "
                    f"string of at most {MAX_TRACE_CHARS} characters")
        return ScheduleRequest(
            id=rid, tenant=tenant, asm=asm, workload=workload,
            machine=str(message.get("machine", "generic")),
            window=window,
            deadline_s=float(deadline) if deadline is not None else None,
            verify=bool(message.get("verify", False)),
            lenient=bool(message.get("lenient", False)),
            chain=chain, key=key, trace=trace)


# -- response frame constructors --------------------------------------------
#
# Every constructor takes an optional ``trace`` -- the request's
# client-minted trace id.  ``None`` keeps the frame byte-identical to
# the untraced wire format; a string is echoed verbatim.


def accepted_frame(rid: str, queue_depth: int, key: str | None = None,
                   trace: str | None = None) -> dict:
    """The request passed admission and is queued/executing.

    ``key`` echoes the idempotency key the WAL recorded (the client's
    own, or the server-assigned one) -- by the time this frame is on
    the wire, the acceptance is already fsynced.
    """
    frame = {"type": "accepted", "id": rid,
             "protocol": PROTOCOL_VERSION, "queue_depth": queue_depth}
    if key is not None:
        frame["key"] = key
    if trace is not None:
        frame["trace"] = trace
    return frame


def block_frame(rid: str, record: dict,
                trace: str | None = None) -> dict:
    """One completed block outcome (journal-record shape)."""
    frame = {"type": "block", "id": rid, "block": record}
    if trace is not None:
        frame["trace"] = trace
    return frame


def shed_frame(rid: str, index: int, reason: str,
               trace: str | None = None) -> dict:
    """One block the request will NOT schedule, and why."""
    frame = {"type": "shed", "id": rid, "index": index,
             "reason": reason}
    if trace is not None:
        frame["trace"] = trace
    return frame


def done_frame(rid: str, summary: dict, deduped: bool = False,
               trace: str | None = None) -> dict:
    """Terminal success frame with the request accounting.

    ``deduped`` marks a response replayed from the WAL for a
    previously finished idempotency key -- nothing was recomputed, and
    ``trace`` is the *original* request's id (the one the recorded
    blocks carry), not a resend's.
    """
    frame = {"type": "done", "id": rid, "summary": summary}
    if deduped:
        frame["deduped"] = True
    if trace is not None:
        frame["trace"] = trace
    return frame


def rejected_frame(rid: str | None, reason: str,
                   retry_after_s: float | None = None,
                   detail: str | None = None,
                   trace: str | None = None) -> dict:
    """Typed admission rejection (the 429 family)."""
    frame = {"type": "rejected", "id": rid, "code": 429,
             "reason": reason}
    if retry_after_s is not None:
        frame["retry_after_s"] = round(retry_after_s, 4)
    if detail:
        frame["detail"] = detail
    if trace is not None:
        frame["trace"] = trace
    return frame


def error_frame(rid: str | None, error: str, message: str,
                code: int = 400, trace: str | None = None) -> dict:
    """Typed request failure (malformed input, parse error, ...)."""
    frame = {"type": "error", "id": rid, "code": code, "error": error,
             "message": message}
    if trace is not None:
        frame["trace"] = trace
    return frame

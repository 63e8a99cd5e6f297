"""The client side of the ``repro serve`` wire protocol.

Every client of the daemon -- ``repro loadtest``, the ``chaos
--serve`` harnesses, ``repro top`` and the serve tests -- talks to it
through this module, so the NDJSON conversation is written once:

* :func:`connect` / :func:`close` open and close an asyncio stream
  pair; an unreachable daemon is a typed
  :class:`~repro.errors.ServeError`.
* :func:`exchange` sends one request and reads the frames carrying its
  ``id`` until a terminal frame, EOF or the timeout, returning a
  :class:`Reply`; :func:`request` does the same on a fresh
  connection.
* :func:`op` is one ``health``/``ready``/``stats``/``metrics`` round
  trip on a fresh connection; :func:`settle` polls ``stats`` until the
  daemon is idle and every admitted block has a verdict.
* :class:`Client` is the blocking connection ``repro top`` and the
  tests use.

A reply's ``status`` is ``ok`` (a ``done`` frame), ``rejected``,
``error``, ``disconnected`` (EOF or a reset before a terminal frame,
or the caller hung up on purpose) or ``client-timeout``.  Frames are
classified by :meth:`Reply.feed`, which the async and the blocking
readers share.  The module imports nothing beyond the standard library
and :mod:`repro.serve.protocol`: every daemon cold start imports it
with the package.
"""

from __future__ import annotations

import asyncio
import socket
import time
from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.protocol import parse_address

#: ``stats`` polls :func:`settle` makes before giving up, and the pause
#: between them (30 s in all)
SETTLE_POLLS = 600
SETTLE_INTERVAL_S = 0.05


@dataclass
class Reply:
    """One request's stream, as the client saw it.

    Attributes:
        id: the request id whose frames were read.
        trace: the request's trace id, or None; every frame of a
            traced request must echo it.
        status: ``ok``, ``rejected``, ``error``, ``disconnected`` or
            ``client-timeout``.
        frame: the terminal frame (None without one).
        frames: every frame that carried ``id``, in arrival order.
        accepted: an ``accepted`` frame arrived.
        blocks: ``block`` frames read.
        shed: ``shed`` frames read, by reason.
        traced / mismatched: frames that echoed ``trace`` / did not.
        latency_s: send to terminal frame (or to giving up).
    """

    id: str
    trace: str | None = None
    status: str = "client-timeout"
    frame: dict | None = None
    frames: list[dict] = field(default_factory=list)
    accepted: bool = False
    blocks: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    traced: int = 0
    mismatched: int = 0
    latency_s: float = 0.0

    @property
    def reason(self) -> str | None:
        """A rejection's typed reason."""
        if self.status != "rejected":
            return None
        return self.frame.get("reason") or "unknown"

    @property
    def retry_after_s(self) -> float | None:
        """A rejection's retry hint, seconds."""
        return self.frame.get("retry_after_s") if self.frame else None

    @property
    def deduped(self) -> bool:
        """The ``done`` frame was replayed from the result store."""
        return self.status == "ok" and bool(self.frame.get("deduped"))

    @property
    def deadline_met(self) -> bool | None:
        """The ``done`` summary's deadline verdict."""
        if self.status != "ok":
            return None
        return self.frame["summary"].get("deadline_met")

    def feed(self, line: bytes) -> bool:
        """Fold one wire line in; True once the stream is over.

        An empty line is EOF (``disconnected``).  Frames for other
        request ids are skipped.
        """
        if not line:
            self.status = "disconnected"
            return True
        frame = protocol.decode(line)
        if frame.get("id") != self.id:
            return False
        self.frames.append(frame)
        if self.trace is not None:
            if frame.get("trace") == self.trace:
                self.traced += 1
            else:
                self.mismatched += 1
        kind = frame.get("type")
        if kind == "accepted":
            self.accepted = True
        elif kind == "block":
            self.blocks += 1
        elif kind == "shed":
            reason = frame.get("reason")
            self.shed[reason] = self.shed.get(reason, 0) + 1
        elif kind in ("done", "rejected", "error"):
            self.status = "ok" if kind == "done" else kind
            self.frame = frame
            return True
        return False


def _unreachable(address: str, exc: BaseException) -> ServeError:
    return ServeError(f"cannot connect to the daemon at {address!r}: "
                      f"{exc}")


async def connect(address: str):
    """Open an asyncio ``(reader, writer)`` pair to the daemon.

    Raises:
        ServeError: when nothing accepts at ``address``.
    """
    kind = parse_address(address)
    try:
        if kind[0] == "unix":
            return await asyncio.open_unix_connection(
                kind[1], limit=protocol.MAX_LINE_BYTES)
        return await asyncio.open_connection(
            kind[1], kind[2], limit=protocol.MAX_LINE_BYTES)
    except OSError as exc:
        raise _unreachable(address, exc)


async def close(writer) -> None:
    """Close a connection, ignoring a peer that is already gone."""
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def exchange(reader, writer, message: dict, timeout_s: float,
                   hang_up: bool = False) -> Reply:
    """Send ``message`` and read its frames until the stream ends.

    Args:
        reader / writer: an open connection (see :func:`connect`).
        message: a request carrying an ``id``.
        timeout_s: cap on the whole exchange; running out is status
            ``client-timeout``.
        hang_up: stop at the first block or shed frame and report
            ``disconnected`` -- the caller is about to close the
            connection mid-stream.
    """
    reply = Reply(message["id"], message.get("trace"))
    loop = asyncio.get_running_loop()
    t0 = time.perf_counter()
    deadline = loop.time() + timeout_s
    try:
        writer.write(protocol.encode(message))
        await writer.drain()
        while not reply.feed(await asyncio.wait_for(
                reader.readline(), timeout=deadline - loop.time())):
            if hang_up and (reply.blocks or reply.shed):
                reply.status = "disconnected"
                break
    except asyncio.TimeoutError:
        reply.status = "client-timeout"
    except OSError:
        reply.status = "disconnected"
    reply.latency_s = time.perf_counter() - t0
    return reply


async def request(address: str, message: dict, timeout_s: float,
                  hang_up: bool = False) -> Reply:
    """:func:`exchange` on a fresh connection, closed afterwards.

    Raises:
        ServeError: when nothing accepts at ``address``.
    """
    reader, writer = await connect(address)
    try:
        return await exchange(reader, writer, message, timeout_s,
                              hang_up)
    finally:
        await close(writer)


async def op(address: str, name: str, timeout_s: float = 30.0) -> dict:
    """One ``name`` op round trip on a fresh connection.

    Raises:
        ServeError: when the daemon is unreachable, hangs up or does
            not answer within ``timeout_s``.
    """
    reader, writer = await connect(address)
    try:
        writer.write(protocol.encode({"op": name}))
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(),
                                      timeout=timeout_s)
    except asyncio.TimeoutError:
        raise ServeError(f"daemon at {address!r} did not answer "
                         f"{name!r} within {timeout_s:g} s")
    except OSError:
        line = b""  # a reset is a hang-up
    finally:
        await close(writer)
    if not line:
        raise ServeError(f"daemon at {address!r} hung up on {name!r}")
    return protocol.decode(line)


async def settle(address: str) -> dict:
    """Poll ``stats`` until the daemon is idle and fully accounted.

    Requests abandoned by hung-up clients finish shedding server-side
    after the client is gone; this waits for that (``occupancy`` 0 and
    ``accounted``) and returns the stats frame, or the last one read
    once :data:`SETTLE_POLLS` run out.
    """
    for _ in range(SETTLE_POLLS):
        stats = await op(address, "stats")
        if stats["admission"]["occupancy"] == 0 \
                and stats["server"]["accounted"]:
            return stats
        await asyncio.sleep(SETTLE_INTERVAL_S)
    return await op(address, "stats")


class Client:
    """A blocking daemon connection (``repro top`` and the tests).

    Raises:
        ServeError: from the constructor when nothing accepts at
            ``address``; the socket is closed before it propagates.
    """

    def __init__(self, address: str,
                 timeout_s: float | None = None) -> None:
        self.address = address
        kind = parse_address(address)
        try:
            if kind[0] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(timeout_s)
                    sock.connect(kind[1])
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection((kind[1], kind[2]),
                                                timeout=timeout_s)
        except OSError as exc:
            raise _unreachable(address, exc)
        self._sock = sock
        self._file = sock.makefile("rwb")

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def send(self, message: dict | bytes) -> None:
        """Send one message (bytes go out verbatim).

        Raises:
            ServeError: when the daemon is gone.
        """
        if isinstance(message, dict):
            message = protocol.encode(message)
        try:
            self._file.write(message)
            self._file.flush()
        except OSError as exc:
            raise ServeError(f"sending to the daemon at "
                             f"{self.address!r} failed: {exc}")

    def recv(self) -> dict:
        """The next frame, whichever request it belongs to.

        Raises:
            ServeError: on EOF, a reset or the socket timeout.
        """
        try:
            line = self._file.readline()
        except OSError as exc:
            raise ServeError(f"reading from the daemon at "
                             f"{self.address!r} failed: {exc}")
        if not line:
            raise ServeError(f"daemon at {self.address!r} hung up")
        return protocol.decode(line)

    def reply(self, rid: str, trace: str | None = None) -> Reply:
        """Read request ``rid``'s frames until its stream ends."""
        reply = Reply(rid, trace)
        t0 = time.perf_counter()
        try:
            while not reply.feed(self._file.readline()):
                pass
        except TimeoutError:
            reply.status = "client-timeout"
        except OSError:
            reply.status = "disconnected"
        reply.latency_s = time.perf_counter() - t0
        return reply

    def exchange(self, message: dict) -> Reply:
        """Send a request and read its reply."""
        self.send(message)
        return self.reply(message["id"], message.get("trace"))

    def op(self, name: str) -> dict:
        """One ``name`` op round trip on this connection."""
        self.send({"op": name})
        return self.recv()

    def close(self) -> None:
        """Close the connection, dropping bytes a gone daemon never took.

        A failed :meth:`send` leaves its bytes buffered; flushing them
        again on close would raise a second, untyped error over the
        :class:`~repro.errors.ServeError` already on its way out.
        """
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            self._sock.close()

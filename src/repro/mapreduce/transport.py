"""Length-prefixed message framing for the worker pool and the service.

The worker pool (behind the distributed backend and the serve daemon)
moves whole Python objects — schedulable task units and their results
— between the driver and its worker processes over localhost TCP
sockets; the serve daemon's client protocol rides on the same framing.  This module is the wire layer both sides
share: a message is one pickle, framed by an 8-byte big-endian length
prefix, so the stream needs no delimiters and arbitrarily large task
payloads (a reduce bucket, a matching job with its BDM) travel intact.

The layer is deliberately dumb.  It knows nothing about tasks,
heartbeats or retries — those are protocol conventions of
:mod:`repro.engine.pool` (driver side) and :mod:`repro.worker`
(worker side).  What it does guarantee:

* **Framing** — :meth:`Connection.send` is atomic per message (one
  serialize, one locked ``sendall``), and :meth:`Connection.recv`
  returns exactly one message or raises.  Interleaved writers (the
  worker's main loop and its heartbeat thread) therefore never corrupt
  the stream.
* **Failure taxonomy** — transport problems (peer gone, stream cut
  mid-frame) surface as :class:`ConnectionClosed` /
  :class:`TransportError`, while *serialization* problems (an
  unpicklable job) propagate as the underlying pickling error, raised
  before any byte hits the socket.  The driver relies on this split to
  tell "worker died, requeue the task" from "this job can never be
  shipped, fail now".

Pickle over a socket is only safe between mutually-trusting processes;
the driver binds to ``127.0.0.1`` and workers authenticate first —
with a random per-cluster token handed down through the environment
(never argv, which other local users could read from ``/proc``) and
sent as a **raw fixed-length byte preamble**, compared by the driver
*before* the first pickled message is read (:meth:`Connection.
recv_raw`).  An unauthenticated peer therefore never gets a pickle
deserialized.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any

#: Environment variable carrying the per-cluster authentication token
#: from driver to spawned workers (the environment, unlike argv, is not
#: readable by other local users).
ENV_TOKEN = "REPRO_WORKER_TOKEN"

#: Frame header: unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct(">Q")

#: Refuse absurd frames (corrupt header / wrong protocol speaker) before
#: reading any of them: the length prefix is the peer's word.  2 GiB is
#: three orders of magnitude above the largest frame any workload ships.
MAX_FRAME_BYTES = 1 << 31


class TransportError(ConnectionError):
    """A message could not be moved across the wire."""


class ConnectionClosed(TransportError):
    """The peer closed the connection (cleanly or mid-frame)."""


class RemoteTaskError(RuntimeError):
    """A task raised in a worker and its exception could not be pickled
    back; carries the remote ``repr`` and traceback text instead."""


def encode_message(message: Any) -> bytes:
    """One message as a framed byte string (header + pickle).

    Serialization errors (an unpicklable payload) propagate as raised
    by :mod:`pickle` — callers that must distinguish "cannot serialize"
    from "cannot deliver" encode first, then send the bytes.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


class Connection:
    """One bidirectional message stream over a connected socket.

    Sending is thread-safe (a lock serializes whole frames); receiving
    is meant for a single reader thread, which is how both the worker
    main loop and the driver's per-worker receiver threads use it.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    # -- sending -------------------------------------------------------------

    def send_bytes(self, frame: bytes) -> None:
        """Ship one pre-encoded frame (see :func:`encode_message`)."""
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            raise ConnectionClosed(f"peer unreachable: {exc}") from exc

    def send(self, message: Any) -> None:
        """Encode and ship one message.

        Pickling errors raise *before* any byte is written, so a failed
        ``send`` never leaves a half frame on the stream.
        """
        self.send_bytes(encode_message(message))

    # -- receiving -----------------------------------------------------------

    def recv(self, timeout: float | None = None) -> Any:
        """Block for the next whole message.

        Raises :class:`ConnectionClosed` on EOF (including EOF inside a
        frame) and :class:`TransportError` on a corrupt header or a
        ``timeout`` (seconds) elapsing; ``None`` waits forever.
        """
        try:
            self._sock.settimeout(timeout)
            header = self._recv_exact(_HEADER.size)
            (length,) = _HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise TransportError(f"frame of {length} bytes refused")
            return pickle.loads(self._recv_exact(length))
        except socket.timeout as exc:
            raise TransportError(f"no message within {timeout}s") from exc
        except TransportError:
            raise  # a ConnectionError too: keep it from the OSError clause
        except OSError as exc:
            raise ConnectionClosed(f"connection lost: {exc}") from exc
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:
                pass

    def recv_raw(self, count: int, timeout: float | None = None) -> bytes:
        """Read exactly ``count`` raw bytes — no framing, no pickle.

        This is the authentication primitive: the driver reads a
        worker's fixed-length token preamble with it and compares
        *bytes* before the first :meth:`recv`, so no attacker-supplied
        pickle is ever deserialized on an unauthenticated connection.
        """
        try:
            self._sock.settimeout(timeout)
            return self._recv_exact(count)
        except socket.timeout as exc:
            raise TransportError(f"no data within {timeout}s") from exc
        except OSError as exc:
            raise ConnectionClosed(f"connection lost: {exc}") from exc
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:
                pass

    def _recv_exact(self, count: int) -> bytes:
        chunks: list[bytes] = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise ConnectionClosed(
                    f"peer closed with {remaining} of {count} bytes unread"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Tear the stream down (idempotent); pending ``recv`` unblocks."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __repr__(self) -> str:
        return f"Connection(closed={self._closed})"


class Listener:
    """An accept socket for the pickled-message protocol.

    The worker pool uses the defaults (loopback only, ephemeral
    port); the serve daemon passes an explicit ``port`` (and possibly
    a non-loopback ``host``) so clients can find it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        #: ``(host, port)`` peers are told to connect to.
        self.address: tuple[str, int] = self._sock.getsockname()[:2]

    def accept(self, timeout: float | None = None) -> Connection:
        """Wait for one worker connection."""
        try:
            self._sock.settimeout(timeout)
            sock, _ = self._sock.accept()
        except socket.timeout as exc:
            raise TransportError(
                f"no worker connected within {timeout}s"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Connection(sock)

    def close(self) -> None:
        """Stop listening; a thread blocked in :meth:`accept` unblocks
        with :class:`OSError`."""
        # close() alone does not wake a thread inside accept() on
        # Linux; shutdown() does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __repr__(self) -> str:
        return f"Listener(address={self.address})"


def connect(host: str, port: int, timeout: float = 30.0) -> Connection:
    """A worker's client end of the stream."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot reach driver at {host}:{port}: {exc}") from exc
    try:
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        sock.close()
        raise
    return Connection(sock)


def shippable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a
    :class:`RemoteTaskError` carrying its repr and traceback text.

    Workers use this to report task failures: the driver re-raises the
    original exception type whenever possible (so failure-propagation
    semantics match the in-process backends) and a descriptive
    :class:`RemoteTaskError` otherwise.
    """
    import traceback

    try:
        candidate = pickle.loads(pickle.dumps(exc))
    # A round-trip probe: user __reduce__/__setstate__ hooks can raise
    # anything, and every failure means the same thing — not shippable.
    except Exception:  # repro-lint: disable=silent-except -- probe by design
        candidate = None
    if type(candidate) is type(exc):
        return exc
    detail = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return RemoteTaskError(f"task failed remotely: {exc!r}\n{detail}")

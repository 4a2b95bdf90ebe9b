"""The info endpoint, imported only by :func:`grespipe.infoprovider.serve_info`.  It accepts and reads its own
connections, so serving loads no ``socketserver``, ``http.server``, ``http.client``, ``email`` or ``ssl``."""

from __future__ import annotations

import contextlib
import os
import select
import socket
import sys
import threading
import time
from collections.abc import Callable
from http import HTTPStatus

from . import infoprovider
from ._wire import MAX_LINE_BYTES, DeadlineSocket, head_ended, http_major
from .lrms import ClusterSnapshot

# Connections served at once, more wait in the listen backlog: the 3 exchanges that
# the busiest traffic measured (poll-10k's 2 callers) holds at once, and one spare.
WORKERS = 4


class InfoServer(contextlib.AbstractContextManager):
    """HTTP info endpoint answering ``GET /info`` with the rendered document and ``GET /healthz`` with ``ok``, in
    HTTP/1.0, from :data:`WORKERS` threads, running once constructed.  A worker reads each request head a line at a
    time and sends the answer, which :meth:`_answer` decides from the lines read so far and a time, with no I/O.

    The served document is an immutable bytes snapshot swapped atomically by
    a single refresher thread, so concurrent readers never observe a torn mix
    of two snapshots and handlers never block on collection.
    """

    def __init__(self, record_source: Callable[[], ClusterSnapshot], config: infoprovider.SiteConfig):
        self._collect = record_source
        self._config = config
        self._gres = None  # the gres the served document was rendered from
        self._refresh()  # before binding, so a failure leaves nothing open
        try:
            # SO_REUSEADDR, so a restart binds while served connections sit in TIME_WAIT; the
            # kernel caps the backlog, so a burst of connects waits rather than retries.
            self.socket = socket.create_server(infoprovider.split_bind(config.bind), backlog=socket.SOMAXCONN)
        except OSError as exc:  # its text ends with the address again, so the message is built from its errno
            reason = f"[Errno {exc.errno}] {os.strerror(exc.errno)}" if exc.errno and exc.errno > 0 else exc
            raise infoprovider.BindFailure(f"cannot bind {config.bind}: {reason}") from exc
        self.server_address = self.socket.getsockname()
        self.socket.setblocking(False)  # every worker wakes for a connection; the losers' accept() fails
        self._wake, self._waker = socket.socketpair()  # stop() closes _waker, so _wake reads as ended for every thread
        runs = [self._refresh_loop] + [self._serve_loop] * WORKERS
        self._threads = [threading.Thread(target=run, daemon=True) for run in runs]
        for thread in self._threads:
            thread.start()

    def _serve_loop(self) -> None:
        while self._wake not in select.select([self.socket, self._wake], [], [])[0]:
            try:
                conn = self.socket.accept()[0]
                deadline = time.monotonic() + infoprovider.HANDLER_TIMEOUT_SECONDS  # read at accept, not at import
                with DeadlineSocket(deadline, fileno=conn.detach()) as sock:
                    self._exchange(sock)
                    sock.shutdown(socket.SHUT_WR)
            except OSError:  # quiet on an accept() lost or failed, and on a reset, a hang-up or the deadline
                pass
            except Exception:  # a fault of the server's own: reported, and the worker serves on
                sys.excepthook(*sys.exc_info())

    def _exchange(self, sock: DeadlineSocket) -> None:
        with sock.makefile("rb") as stream:
            lines = [stream.readline(MAX_LINE_BYTES + 1)]
            if lines[0] in (b"\r\n", b"\n"):  # one empty line before the request is skipped (RFC 9112 section 2.2)
                lines = [stream.readline(MAX_LINE_BYTES + 1)]
            if not lines[0]:  # the client closed without a request: no answer
                return
            while (answer := self._answer(lines, time.time())) is None:
                lines.append(stream.readline(MAX_LINE_BYTES + 1))
        head, body = answer
        sock.sendall(head)
        sock.sendall(body)  # the served bytes themselves, not a copy

    def _answer(self, lines: list[bytes], now: float) -> tuple[bytes, bytes] | None:
        """The response head, dated ``now``, and body for a request head whose ``lines`` were read so far, each by
        ``readline(MAX_LINE_BYTES + 1)``; ``None`` while the header lines after a good request line go on."""
        words = lines[0].split()
        major = http_major(words[2]) if len(words) == 3 else None
        path = words[1].split(b"?", 1)[0] if major == 1 else b""
        path = b"/" + path.lstrip(b"/") if path.startswith(b"//") else path  # as http.server reads //info
        status, content_type, body = HTTPStatus.OK, "text/plain", b"ok"  # the answer to /healthz
        if len(lines[0]) > MAX_LINE_BYTES:
            status = HTTPStatus.REQUEST_URI_TOO_LONG
        elif major != 1:  # any HTTP/1.x is served (RFC 9110 section 2.5), another major version refused
            status = HTTPStatus.BAD_REQUEST if major is None else HTTPStatus.HTTP_VERSION_NOT_SUPPORTED
        elif not (ended := head_ended(lines)):
            if ended is False:
                return None
            status = HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE  # a line too long, or too many
        elif words[0] != b"GET":
            status = HTTPStatus.NOT_IMPLEMENTED
        elif path == b"/info":
            content_type, body = "application/xml", self.document
        elif path != b"/healthz":
            status = HTTPStatus.NOT_FOUND
        body = body if status == HTTPStatus.OK else status.phrase.encode("ascii")  # an error's body is its phrase
        day, month, mday, clock, year = time.asctime(time.gmtime(now)).split()  # English names in any locale
        date = f"{day}, {mday.zfill(2)} {month} {year} {clock} GMT"  # IMF-fixdate, RFC 9110 section 5.6.7
        head = f"HTTP/1.0 {status.value} {status.phrase}\r\nDate: {date}\r\nContent-Type: {content_type}\r\n"
        return f"{head}Content-Length: {len(body)}\r\n\r\n".encode("ascii"), body

    def _refresh(self) -> None:
        """Collect a snapshot; build and render it only when its gres differ
        from the served document's, the one input that can change."""
        snapshot = self._collect()
        if snapshot.gres == self._gres:
            return
        record = infoprovider.build_computing_service(snapshot, self._config)
        self.document = infoprovider.render_glue2_xml(record).encode("utf-8")
        self._gres = snapshot.gres

    def _refresh_loop(self) -> None:
        while not select.select([self._wake], [], [], self._config.refresh_interval_seconds)[0]:
            try:
                self._refresh()
            except Exception as exc:
                import logging

                log = logging.getLogger("grespipe.infoprovider")
                log.warning("event=refresh outcome=error error=%r", exc, exc_info=True)
                # keep serving the previous document

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        self._waker.close()
        for thread in self._threads:
            thread.join()
        self.socket.close()
        self._wake.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""The info endpoint, imported only by :func:`grespipe.infoprovider.serve_info`.  It accepts and reads its own
connections, so serving loads no ``socketserver``, ``http.server``, ``http.client``, ``email`` or ``ssl``."""

from __future__ import annotations

import contextlib
import select
import socket
import sys
import threading
import time
from http import HTTPStatus
from typing import BinaryIO, Callable

from . import infoprovider
from ._wire import MAX_LINE_BYTES, DeadlineSocket, header_lines
from .lrms import ClusterSnapshot

# Connections served at once, more wait in the listen backlog: the 3 exchanges that
# the busiest traffic measured (poll-10k's 2 callers) holds at once, and one spare.
WORKERS = 4


def _error(status: HTTPStatus) -> tuple[HTTPStatus, str, bytes]:
    return status, "text/plain", status.phrase.encode("ascii")


class InfoServer(contextlib.AbstractContextManager):
    """HTTP info endpoint answering ``GET /info`` with the rendered document and ``GET /healthz``
    with ``ok``, in HTTP/1.0, from :data:`WORKERS` threads, running once constructed.

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
        except OSError as exc:
            raise infoprovider.BindFailure(f"cannot bind {config.bind}: {exc}") from exc
        self.server_address = self.socket.getsockname()
        self._stop = threading.Event()
        self.socket.setblocking(False)  # every worker wakes for a connection; the losers' accept() fails
        self._wake, self._waker = socket.socketpair()  # stop() closes _waker, so _wake reads as ended for all
        runs = [self._refresh_loop] + [self._serve_loop] * WORKERS
        self._threads = [threading.Thread(target=run, daemon=True) for run in runs]
        for thread in self._threads:
            thread.start()

    def _serve_loop(self) -> None:
        while self._wake not in select.select([self.socket, self._wake], [], [])[0]:
            try:
                conn = self.socket.accept()[0]
                deadline = time.monotonic() + infoprovider.HANDLER_TIMEOUT_SECONDS  # read at accept, not at import
                with DeadlineSocket.adopt(conn, deadline) as sock:
                    self._exchange(sock)
                    sock.shutdown(socket.SHUT_WR)
            except OSError:  # quiet on an accept() lost or failed, and on a reset, a hang-up or the deadline
                pass
            except Exception:  # a fault of the server's own: reported, and the worker serves on
                sys.excepthook(*sys.exc_info())

    def _exchange(self, sock: DeadlineSocket) -> None:
        with sock.makefile("rb") as stream:
            request_line = stream.readline(MAX_LINE_BYTES + 1)
            if not request_line:  # the client closed without a request: no answer
                return
            status, content_type, body = self._answer(request_line, stream)
        day, month, mday, clock, year = time.asctime(time.gmtime()).split()  # English names in any locale
        date = f"{day}, {mday.zfill(2)} {month} {year} {clock} GMT"  # IMF-fixdate, RFC 9110 section 5.6.7
        head = f"HTTP/1.0 {status.value} {status.phrase}\r\nDate: {date}\r\nContent-Type: {content_type}\r\n"
        sock.sendall(f"{head}Content-Length: {len(body)}\r\n\r\n".encode("ascii"))
        sock.sendall(body)  # the served bytes themselves, not a copy

    def _answer(self, request_line: bytes, stream: BinaryIO) -> tuple[HTTPStatus, str, bytes]:
        if len(request_line) > MAX_LINE_BYTES:
            return _error(HTTPStatus.REQUEST_URI_TOO_LONG)
        words = request_line.split()
        if len(words) != 3 or words[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
            return _error(HTTPStatus.BAD_REQUEST)
        if header_lines(stream) is None:  # a line too long, or too many
            return _error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE)
        if words[0] != b"GET":
            return _error(HTTPStatus.NOT_IMPLEMENTED)
        path = words[1].split(b"?", 1)[0]
        path = b"/" + path.lstrip(b"/") if path.startswith(b"//") else path  # as http.server reads //info
        if path == b"/info":
            return HTTPStatus.OK, "application/xml", self.document
        if path == b"/healthz":
            return HTTPStatus.OK, "text/plain", b"ok"
        return _error(HTTPStatus.NOT_FOUND)

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
        while not self._stop.wait(self._config.refresh_interval_seconds):
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
        self._stop.set()
        self._waker.close()
        for thread in self._threads:
            thread.join()
        self.socket.close()
        self._wake.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""The info endpoint server.  Only :func:`grespipe.infoprovider.serve_info` imports this module, which reads
its own requests rather than load ``http.server`` and, through it, ``http.client``, ``email`` and ``ssl``."""

from __future__ import annotations

import select
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import Callable

from . import infoprovider
from ._wire import END_OF_HEAD, MAX_HEADERS, MAX_LINE_BYTES, DeadlineSocket
from .lrms import ClusterSnapshot

# Connections served at once, more wait in the listen backlog: the 3 exchanges that
# the busiest traffic measured (poll-10k's 2 callers) holds at once, and one spare.
WORKERS = 4


class InfoRequestHandler(socketserver.StreamRequestHandler):
    """Answers ``GET /info`` with the current document and ``GET /healthz`` with ``ok``, in HTTP/1.0, then closes."""

    server: InfoServer

    def handle(self) -> None:
        request_line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if not request_line:  # the client closed without a request: no answer
            return
        status, content_type, body = self._answer(request_line)
        day, month, mday, clock, year = time.asctime(time.gmtime()).split()  # English names in any locale
        date = f"{day}, {mday.zfill(2)} {month} {year} {clock} GMT"  # IMF-fixdate, RFC 9110 section 5.6.7
        head = f"HTTP/1.0 {status.value} {status.phrase}\r\nDate: {date}\r\nContent-Type: {content_type}\r\n"
        self.wfile.write(f"{head}Content-Length: {len(body)}\r\n\r\n".encode("ascii"))
        self.wfile.write(body)  # the served bytes themselves, not a copy

    def _answer(self, request_line: bytes) -> tuple[HTTPStatus, str, bytes]:
        if len(request_line) > MAX_LINE_BYTES:
            return _error(HTTPStatus.REQUEST_URI_TOO_LONG)
        words = request_line.split()
        if len(words) != 3 or words[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
            return _error(HTTPStatus.BAD_REQUEST)
        for _ in range(MAX_HEADERS):  # header lines are read and discarded up to the blank line
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if line in END_OF_HEAD or len(line) > MAX_LINE_BYTES:
                break
        if line not in END_OF_HEAD:  # a line too long, or too many
            return _error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE)
        if words[0] != b"GET":
            return _error(HTTPStatus.NOT_IMPLEMENTED)
        path = words[1].split(b"?", 1)[0]
        path = b"/" + path.lstrip(b"/") if path.startswith(b"//") else path  # as http.server reads //info
        if path == b"/info":
            return HTTPStatus.OK, "application/xml", self.server.document
        if path == b"/healthz":
            return HTTPStatus.OK, "text/plain", b"ok"
        return _error(HTTPStatus.NOT_FOUND)


def _error(status: HTTPStatus) -> tuple[HTTPStatus, str, bytes]:
    return status, "text/plain", status.phrase.encode("ascii")


class InfoServer(socketserver.TCPServer):
    """HTTP info endpoint serving the rendered document on ``GET /info`` from
    :data:`WORKERS` threads, running once constructed.

    The served document is an immutable bytes snapshot swapped atomically by
    a single refresher thread, so concurrent readers never observe a torn mix
    of two snapshots and handlers never block on collection.
    """

    allow_reuse_address = True  # a restart binds while served connections sit in TIME_WAIT
    request_queue_size = socket.SOMAXCONN  # the kernel caps it; a burst of connects waits, not retries

    def __init__(self, record_source: Callable[[], ClusterSnapshot], config: infoprovider.SiteConfig):
        self._collect = record_source
        self._config = config
        self._gres = None  # the gres the served document was rendered from
        self._refresh()  # before binding, so a failure leaves nothing open
        try:
            super().__init__(infoprovider.split_bind(config.bind), InfoRequestHandler)
        except OSError as exc:
            raise infoprovider.BindFailure(f"cannot bind {config.bind}: {exc}") from exc
        self._stop = threading.Event()
        self.socket.setblocking(False)  # every worker wakes for a connection; the losers' accept() fails
        self._wake, self._waker = socket.socketpair()  # stop() closes _waker, so _wake reads as ended for all
        runs = [self._refresh_loop] + [self._serve_loop] * WORKERS
        self._threads = [threading.Thread(target=run, daemon=True) for run in runs]
        for thread in self._threads:
            thread.start()

    def get_request(self) -> tuple[DeadlineSocket, object]:
        conn, address = super().get_request()
        deadline = time.monotonic() + infoprovider.HANDLER_TIMEOUT_SECONDS  # read at accept, not at import
        return DeadlineSocket.adopt(conn, deadline), address

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], OSError):  # quiet on a reset, a hang-up or the deadline
            super().handle_error(request, client_address)

    def _serve_loop(self) -> None:
        while self._wake not in select.select([self, self._wake], [], [])[0]:
            self._handle_request_noblock()

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
        self.server_close()
        self._wake.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()

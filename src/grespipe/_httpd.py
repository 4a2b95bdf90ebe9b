"""The info endpoint server.  Only :func:`grespipe.infoprovider.serve_info`
imports this module, so a command that just renders does not load ``http.server``."""

from __future__ import annotations

import select
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable

from . import infoprovider
from .lrms import ClusterSnapshot

# Connections served at once, more wait in the listen backlog: the 3 exchanges that
# the busiest traffic measured (poll-10k's 2 callers) holds at once, and one spare.
WORKERS = 4


class _DeadlineSocket(socket.socket):
    """An accepted connection whose reads and writes end by one ``deadline``, so a drip cannot hold a worker."""

    def _by_deadline(self, call, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("exchange deadline passed")
        self.settimeout(left)  # sendall's timeout, too, bounds the whole call
        return call(*args)

    def recv_into(self, *args) -> int:
        return self._by_deadline(super().recv_into, *args)

    def sendall(self, *args) -> None:
        return self._by_deadline(super().sendall, *args)


class InfoRequestHandler(BaseHTTPRequestHandler):
    """``GET /info`` answers the server's current document; ``GET /healthz`` answers ``ok``."""

    server: InfoServer

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/info":
            self._send(200, "application/xml", self.server.document)
        elif path == "/healthz":
            self._send(200, "text/plain", b"ok")
        else:
            self.send_error(404)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # keep the endpoint quiet
        pass


class InfoServer(HTTPServer):
    """HTTP info endpoint serving the rendered document on ``GET /info`` from
    :data:`WORKERS` threads, running once constructed.

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

    def get_request(self) -> tuple[_DeadlineSocket, object]:
        conn, address = super().get_request()
        conn = _DeadlineSocket(fileno=conn.detach())
        conn.deadline = time.monotonic() + infoprovider.HANDLER_TIMEOUT_SECONDS  # read at accept, not at import
        return conn, address

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

"""The info endpoint server.  Only :func:`grespipe.infoprovider.serve_info`
imports this module, so a command that just renders does not load ``http.server``."""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from . import infoprovider
from .lrms import ClusterSnapshot


class InfoRequestHandler(BaseHTTPRequestHandler):
    """``GET /info`` answers the server's current document; ``GET /healthz`` answers ``ok``."""

    server: InfoServer

    def setup(self) -> None:
        self.timeout = infoprovider.HANDLER_TIMEOUT_SECONDS  # read per connection, not at import
        super().setup()

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


class InfoServer(ThreadingHTTPServer):
    """HTTP info endpoint serving the rendered document on ``GET /info``,
    running once constructed.

    The served document is an immutable bytes snapshot swapped atomically by
    a single refresher thread, so concurrent readers never observe a torn mix
    of two snapshots and handlers never block on collection.
    """

    daemon_threads = True

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
        # Not ``_threads``: ThreadingMixIn owns that name.
        self._loops = [threading.Thread(target=run, daemon=True) for run in (self.serve_forever, self._refresh_loop)]
        for thread in self._loops:
            thread.start()

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
        self.shutdown()
        self.server_close()
        for thread in self._loops:
            thread.join(timeout=5)

    def __exit__(self, *exc_info) -> None:
        self.stop()

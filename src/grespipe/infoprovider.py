"""Computing-service records, GLUE2-style XML rendering, and the info endpoint.

The published document is a minimal skeleton with a fixed element spine

    InfoRoot > Domains > AdminDomain > Services > ComputingService
        > ComputingManager > GeneralResources > Resource*

and an ``id`` attribute on the domain, service and manager elements, so it
is rendered from a fixed line template.  The ``GeneralResources`` element
is emitted even when empty.  The endpoint takes its snapshots from any
zero-argument callable returning a :class:`ClusterSnapshot`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Mapping, Union

from xml.sax.saxutils import escape, quoteattr

from ._text import key_values
from .lrms import ClusterSnapshot

__all__ = [
    "BadConfig",
    "BindFailure",
    "SiteConfig",
    "ComputingManagerRecord",
    "ComputingServiceRecord",
    "build_computing_service",
    "render_glue2_xml",
    "InfoServer",
    "serve_info",
    "split_bind",
]

_REQUIRED_KEYS = ("admin_domain", "service_id", "manager_name")
_ALL_KEYS = _REQUIRED_KEYS + ("bind", "refresh_interval_seconds")


class BadConfig(Exception):
    """A site configuration is missing required keys or malformed."""


class BindFailure(Exception):
    """The info endpoint address cannot be bound."""


def split_bind(bind: str) -> tuple[str, int]:
    """Split a ``host:port`` string; raises :class:`BadConfig` on bad input."""
    host, sep, port_text = bind.rpartition(":")
    if not sep or not host:
        raise BadConfig(f"bind must be host:port, got {bind!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise BadConfig(f"bad port in bind {bind!r}") from exc
    return host, port


@dataclass(frozen=True)
class SiteConfig:
    """Site identity plus endpoint settings for the info service."""

    admin_domain: str
    service_id: str
    manager_name: str
    bind: str = "127.0.0.1:8070"
    refresh_interval_seconds: float = 30.0

    def __post_init__(self) -> None:
        for key in _REQUIRED_KEYS:
            if not getattr(self, key):
                raise BadConfig(f"missing required config key: {key}")
        if self.refresh_interval_seconds <= 0:
            raise BadConfig("refresh_interval_seconds must be positive")
        split_bind(self.bind)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "SiteConfig":
        unknown = set(mapping) - set(_ALL_KEYS)
        if unknown:
            raise BadConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
        missing = [key for key in _REQUIRED_KEYS if not mapping.get(key)]
        if missing:
            raise BadConfig(f"missing required config keys: {', '.join(missing)}")
        kwargs: dict = {key: mapping[key] for key in _REQUIRED_KEYS}
        if "bind" in mapping:
            kwargs["bind"] = mapping["bind"]
        if "refresh_interval_seconds" in mapping:
            try:
                kwargs["refresh_interval_seconds"] = float(mapping["refresh_interval_seconds"])
            except ValueError as exc:
                raise BadConfig("refresh_interval_seconds must be a number") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "SiteConfig":
        """Load ``key = value`` lines; ``#`` comments and blanks are ignored."""
        lines = key_values(Path(path), BadConfig)
        return cls.from_mapping({key: value for _where, key, value in lines})


@dataclass(frozen=True)
class ComputingManagerRecord:
    """Computing-manager attributes: LRMS flavour plus its resource strings.

    Construction is permissive so the client can represent whatever a foreign
    document says; :meth:`validate` enforces the publishing-side contract.
    """

    manager_name: str
    general_resources: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "general_resources", tuple(self.general_resources))

    def validate(self) -> None:
        if not self.manager_name:
            raise ValueError("manager_name must be non-empty")
        for resource in self.general_resources:
            if not resource:
                raise ValueError("general_resources must not contain empty strings")
            if any(ord(ch) < 0x20 for ch in resource):
                raise ValueError(
                    f"resource string contains control characters: {resource!r}"
                )


@dataclass(frozen=True)
class ComputingServiceRecord:
    admin_domain: str
    service_id: str
    manager: ComputingManagerRecord

    def validate(self) -> None:
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        self.manager.validate()


def build_computing_service(
    snapshot: ClusterSnapshot,
    site_config: Union[SiteConfig, Mapping[str, str]],
) -> ComputingServiceRecord:
    """Assemble the service record for a snapshot.

    The manager's ``general_resources`` are the snapshot's GRES strings, same
    order, same content.  ``site_config`` may be a :class:`SiteConfig` or a
    plain mapping (validated via :meth:`SiteConfig.from_mapping`, raising
    :class:`BadConfig` on missing keys).
    """
    if not isinstance(site_config, SiteConfig):
        site_config = SiteConfig.from_mapping(site_config)
    record = ComputingServiceRecord(
        admin_domain=site_config.admin_domain,
        service_id=site_config.service_id,
        manager=ComputingManagerRecord(site_config.manager_name, snapshot.gres),
    )
    record.validate()
    return record


def render_glue2_xml(record: ComputingServiceRecord) -> str:
    """Render the service record as the GLUE2-style skeleton document.

    One ``Resource`` element per resource string, document order preserved;
    an empty ``GeneralResources`` element is still emitted when there are no
    resources.  Text content is XML-escaped.
    """
    record.validate()
    resources = record.manager.general_resources
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<InfoRoot>",
        "  <Domains>",
        f"    <AdminDomain id={quoteattr(record.admin_domain)}>",
        "      <Services>",
        f"        <ComputingService id={quoteattr(record.service_id)}>",
        f"          <ComputingManager id={quoteattr(record.manager.manager_name)}>",
    ]
    if resources:
        lines.append("            <GeneralResources>")
        lines.extend(f"              <Resource>{escape(resource)}</Resource>" for resource in resources)
        lines.append("            </GeneralResources>")
    else:
        lines.append("            <GeneralResources/>")
    lines += [
        "          </ComputingManager>",
        "        </ComputingService>",
        "      </Services>",
        "    </AdminDomain>",
        "  </Domains>",
        "</InfoRoot>",
        "",
    ]
    return "\n".join(lines)


class _InfoRequestHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/info":
            body = self.server.info_document  # type: ignore[attr-defined]
            self._send(200, "application/xml", body)
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


class InfoServer:
    """HTTP info endpoint serving the rendered document on ``GET /info``.

    The served document is an immutable bytes snapshot swapped atomically by
    a single refresher thread, so concurrent readers never observe a torn mix
    of two snapshots and handlers never block on collection.
    """

    def __init__(self, record_source: Callable[[], ClusterSnapshot], config: SiteConfig):
        self._collect = record_source
        self._config = config
        self._httpd: ThreadingHTTPServer | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    def _build_document(self) -> bytes:
        record = build_computing_service(self._collect(), self._config)
        return render_glue2_xml(record).encode("utf-8")

    def start(self) -> "InfoServer":
        host, port = split_bind(self._config.bind)
        try:
            httpd = ThreadingHTTPServer((host, port), _InfoRequestHandler)
        except OSError as exc:
            raise BindFailure(f"cannot bind {self._config.bind}: {exc}") from exc
        httpd.daemon_threads = True
        try:
            httpd.info_document = self._build_document()  # type: ignore[attr-defined]
        except Exception:
            httpd.server_close()
            raise
        self._httpd = httpd
        serve = threading.Thread(target=httpd.serve_forever, daemon=True)
        refresh = threading.Thread(target=self._refresh_loop, daemon=True)
        self._threads = [serve, refresh]
        serve.start()
        refresh.start()
        return self

    def _refresh_loop(self) -> None:
        while not self._stop.wait(self._config.refresh_interval_seconds):
            try:
                document = self._build_document()
            except Exception:
                continue  # keep serving the previous document
            if self._httpd is not None:
                self._httpd.info_document = document  # type: ignore[attr-defined]

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise RuntimeError("server not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []

    def __enter__(self) -> "InfoServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_info(record_source: Callable[[], ClusterSnapshot], endpoint_config: SiteConfig) -> InfoServer:
    """Start the info endpoint and return the running server handle.

    Raises :class:`BindFailure` when the configured address cannot be bound.
    """
    return InfoServer(record_source, endpoint_config).start()

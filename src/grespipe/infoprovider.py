"""Computing-service records, GLUE2-style XML rendering, and the info endpoint.

The published document is a minimal skeleton with a fixed element spine

    InfoRoot > Domains > AdminDomain > Services > ComputingService
        > ComputingManager > GeneralResources > Resource*

and an ``id`` attribute on the domain, service and manager elements, so it
is rendered from a fixed line template.  The ``GeneralResources`` element
is emitted even when empty.  The endpoint takes its snapshots from any
zero-argument callable returning a :class:`ClusterSnapshot`.

The endpoint itself lives in ``grespipe._httpd``, which only
:func:`serve_info` imports; it reads its own requests, so not even a
server loads ``http.server``, ``email`` or ``ssl``.  A failed refresh is logged at
WARNING on the ``grespipe.infoprovider`` logger; ``logging`` is imported
by the first failure.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from ._record import Record, set_field
from ._text import ascii_int
from .lrms import ClusterSnapshot

__all__ = [
    "BadConfig",
    "BindFailure",
    "SiteConfig",
    "ComputingManagerRecord",
    "ComputingServiceRecord",
    "build_computing_service",
    "render_glue2_xml",
    "serve_info",
    "split_bind",
]

DEFAULT_BIND = "127.0.0.1:8070"
_CONTROL_CHARS = tuple(map(chr, range(0x20)))
# A connection is dropped once its whole exchange, request and response,
# has taken this long, so a slow or idle client cannot hold a server worker.
HANDLER_TIMEOUT_SECONDS = 10.0


class BadConfig(Exception):
    """A site configuration is missing required keys or malformed."""


class BindFailure(Exception):
    """The info endpoint address cannot be bound."""


def split_bind(bind: str) -> tuple[str, int]:
    """Split ``host:port``; raises :class:`BadConfig` on bad input or a port not ASCII digits in 0-65535."""
    host, sep, port_text = bind.rpartition(":")
    if not sep or not host:
        raise BadConfig(f"bind must be host:port, got {bind!r}")
    port = ascii_int(port_text)
    if port is None or port > 65535:
        raise BadConfig(f"bad port in bind {bind!r}")
    return host, port


def __getattr__(name: str):
    # SiteConfig, the one dataclass, is defined on first use, so that only the
    # commands that read a site config load ``dataclasses``.
    if name == "SiteConfig":
        from ._siteconfig import SiteConfig

        return SiteConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ComputingManagerRecord(Record):
    """Computing-manager attributes: LRMS flavour plus its resource strings.

    Construction is permissive so the client can represent whatever a foreign
    document says; :meth:`validate` enforces the publishing-side contract.
    """

    __slots__ = __match_args__ = ("manager_name", "general_resources")

    def __init__(self, manager_name: str, general_resources: tuple[str, ...] = ()):
        set_field(self, "manager_name", manager_name)
        set_field(self, "general_resources", general_resources)

    def validate(self) -> None:
        if not self.manager_name:
            raise ValueError("manager_name must be non-empty")
        resources = self.general_resources
        if "" in resources:
            raise ValueError("general_resources must not contain empty strings")
        joined = "".join(resources)
        # One memchr-speed ``in`` scan per code point beats a regex class over the whole text.
        if any(char in joined for char in _CONTROL_CHARS):
            resource = next(r for r in resources if any(char in r for char in _CONTROL_CHARS))
            raise ValueError(f"resource string contains control characters: {resource!r}")


class ComputingServiceRecord(Record):
    __slots__ = __match_args__ = ("admin_domain", "service_id", "manager")

    def __init__(self, admin_domain: str, service_id: str, manager: ComputingManagerRecord):
        set_field(self, "admin_domain", admin_domain)
        set_field(self, "service_id", service_id)
        set_field(self, "manager", manager)

    def validate(self) -> None:
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        self.manager.validate()


def build_computing_service(
    snapshot: ClusterSnapshot,
    site_config: SiteConfig | Mapping[str, str],
) -> ComputingServiceRecord:
    """Assemble the service record for a snapshot.

    The manager's ``general_resources`` are the snapshot's GRES strings, same
    order, same content.  ``site_config`` may be a :class:`SiteConfig` or a
    plain mapping (validated via :meth:`SiteConfig.from_mapping`, raising
    :class:`BadConfig` on missing keys).
    """
    from ._siteconfig import SiteConfig

    if not isinstance(site_config, SiteConfig):
        site_config = SiteConfig.from_mapping(site_config)
    record = ComputingServiceRecord(
        admin_domain=site_config.admin_domain,
        service_id=site_config.service_id,
        manager=ComputingManagerRecord(site_config.manager_name, snapshot.gres),
    )
    record.validate()
    return record


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>``, exactly as ``xml.sax.saxutils.escape``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """Quote an attribute value exactly as ``xml.sax.saxutils.quoteattr``:
    newline, CR and tab become character references, and the value is
    wrapped in whichever quote it lacks (``"`` with ``&quot;`` if both)."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def render_glue2_xml(record: ComputingServiceRecord) -> str:
    """Render the service record as the GLUE2-style skeleton document.

    One ``Resource`` element per resource string, document order preserved;
    an empty ``GeneralResources`` element is still emitted when there are no
    resources.  Text content is XML-escaped.
    """
    record.validate()
    resources = record.manager.general_resources
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        "<InfoRoot>\n"
        "  <Domains>\n"
        f"    <AdminDomain id={_quoteattr(record.admin_domain)}>\n"
        "      <Services>\n"
        f"        <ComputingService id={_quoteattr(record.service_id)}>\n"
        f"          <ComputingManager id={_quoteattr(record.manager.manager_name)}>\n"
    )
    tail = (
        "          </ComputingManager>\n"
        "        </ComputingService>\n"
        "      </Services>\n"
        "    </AdminDomain>\n"
        "  </Domains>\n"
        "</InfoRoot>\n"
    )
    if not resources:
        return f"{head}            <GeneralResources/>\n{tail}"
    # Validation rules out a newline inside a resource, so one pass escapes them
    # all; splitting, not replacing, keeps the document the only large string.
    parts = _escape("\n".join(resources)).split("\n")
    parts[0] = f"{head}            <GeneralResources>\n              <Resource>{parts[0]}"
    parts[-1] += f"</Resource>\n            </GeneralResources>\n{tail}"
    return "</Resource>\n              <Resource>".join(parts)


def serve_info(record_source: Callable[[], ClusterSnapshot], endpoint_config: SiteConfig):
    """Start the info endpoint and return the running server handle.

    The handle's ``url`` is ``http://host:port`` with the bound port, and
    ``stop()`` shuts the endpoint down and closes its socket; used as a
    context manager, it stops on exit.  Raises :class:`BindFailure` when
    the configured address cannot be bound.
    """
    from ._httpd import InfoServer

    return InfoServer(record_source, endpoint_config)

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

from _thread import TIMEOUT_MAX  # threading's, without loading threading in every command
from collections.abc import Callable, Mapping
from pathlib import Path

from ._record import Record, set_field
from ._text import ascii_int, key_values
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
# XML 1.0 cannot carry these, not even as references: a published string holding one is refused.  An id
# may hold tab, LF and CR, which _quoteattr writes as references; a resource may hold no C0 control.
_NONCHARACTERS = ("\ufffe", "\uffff")
_NOT_IN_IDS = tuple(char for char in _CONTROL_CHARS if char not in "\t\n\r") + _NONCHARACTERS
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


_REQUIRED_KEYS = ("admin_domain", "service_id", "manager_name")


class SiteConfig(Record):
    """Site identity plus endpoint settings for the info service."""

    __slots__ = __match_args__ = _REQUIRED_KEYS + ("bind", "refresh_interval_seconds")

    def __init__(
        self, admin_domain: str, service_id: str, manager_name: str, bind: str = DEFAULT_BIND,
        refresh_interval_seconds: float = 30.0,
    ):
        set_field(self, "admin_domain", admin_domain)
        set_field(self, "service_id", service_id)
        set_field(self, "manager_name", manager_name)
        set_field(self, "bind", bind)
        set_field(self, "refresh_interval_seconds", refresh_interval_seconds)
        missing = [key for key in _REQUIRED_KEYS if not getattr(self, key)]
        if missing:
            raise BadConfig(f"missing required config keys: {', '.join(missing)}")
        # nan would make the refresher spin; above TIMEOUT_MAX its select raises.
        if not 0 < self.refresh_interval_seconds <= TIMEOUT_MAX:
            raise BadConfig(f"refresh_interval_seconds must be in (0, {TIMEOUT_MAX:g}]")
        split_bind(self.bind)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> SiteConfig:
        unknown = set(mapping) - set(cls.__match_args__)
        if unknown:
            raise BadConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
        kwargs: dict = {key: mapping.get(key, "") for key in _REQUIRED_KEYS}
        if "bind" in mapping:
            kwargs["bind"] = mapping["bind"]
        if "refresh_interval_seconds" in mapping:
            try:
                kwargs["refresh_interval_seconds"] = float(mapping["refresh_interval_seconds"])
            except ValueError as exc:
                raise BadConfig("refresh_interval_seconds must be a number") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> SiteConfig:
        """Load the ``key = value`` lines :func:`~grespipe._text.key_values` reads, keyed by field name."""
        return cls.from_mapping(dict(key_values(Path(path), BadConfig, cls.__match_args__)))


def _check_id(name: str, value: str) -> None:
    if any(char in value for char in _NOT_IN_IDS):
        raise ValueError(f"{name} holds a character XML 1.0 cannot carry: {value!r}")


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
        _check_id("manager_name", self.manager_name)
        resources = self.general_resources
        if "" in resources:
            raise ValueError("general_resources must not contain empty strings")
        joined = "".join(resources)
        # One memchr-speed ``in`` scan per code point beats a regex class over the whole text.
        for chars, what in ((_CONTROL_CHARS, "control characters"), (_NONCHARACTERS, "U+FFFE or U+FFFF")):
            if any(char in joined for char in chars):
                resource = next(r for r in resources if any(char in r for char in chars))
                raise ValueError(f"resource string contains {what}: {resource!r}")


class ComputingServiceRecord(Record):
    __slots__ = __match_args__ = ("admin_domain", "service_id", "manager")

    def __init__(self, admin_domain: str, service_id: str, manager: ComputingManagerRecord):
        set_field(self, "admin_domain", admin_domain)
        set_field(self, "service_id", service_id)
        set_field(self, "manager", manager)

    def validate(self) -> None:
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        _check_id("admin_domain", self.admin_domain)
        _check_id("service_id", self.service_id)
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

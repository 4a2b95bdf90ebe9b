"""Client side of the pipeline: fetch the info document, parse it back into
computing-manager records, and format them the way ``arcinfo`` prints them.

``http.client`` and ``xml.etree`` are imported by the functions that use them,
so a command that neither fetches nor parses does not load them.
"""

from __future__ import annotations

from ._text import read_bounded
from .infoprovider import ComputingManagerRecord, ComputingServiceRecord

__all__ = [
    "ClientError",
    "MalformedXml",
    "NoServices",
    "FetchError",
    "Unreachable",
    "BadStatus",
    "BadContentType",
    "DocumentTooLarge",
    "parse_execution_targets",
    "format_arcinfo",
    "fetch_info",
]

_XML_MIME_TYPES = ("application/xml", "text/xml")


class ClientError(Exception):
    """Base class for client-side failures."""


class MalformedXml(ClientError):
    """The document is not well-formed XML."""


class NoServices(ClientError):
    """The document contains no ComputingService element."""


class FetchError(ClientError):
    """Base class for transport failures."""


class Unreachable(FetchError):
    """The endpoint could not be contacted, or did not answer in HTTP."""


class BadStatus(FetchError):
    """The endpoint answered with a non-200 status."""

    def __init__(self, status: int):
        super().__init__(f"unexpected HTTP status {status}")
        self.status = status


class BadContentType(FetchError):
    """The endpoint answered with a non-XML content type."""


class DocumentTooLarge(FetchError):
    """The endpoint answered with a body above :data:`grespipe._text.MAX_DOCUMENT_BYTES`."""


def parse_execution_targets(xml_text: str) -> list[ComputingServiceRecord]:
    """Parse an info document into computing-service records.

    The walk is lenient: spine elements are found at any depth and unknown
    elements are ignored.  Every ComputingService yields one record per
    ComputingManager whose nearest enclosing service it is, in document
    order, or a single record with an empty manager when it has none; its
    admin domain is the ``id`` of its nearest enclosing AdminDomain.  Each
    Resource element appears in at most one record: under the manager of
    its outermost enclosing GeneralResources, in document order, so an
    absent or empty GeneralResources yields an empty list.  Spine elements
    inside a GeneralResources are not looked for; a manager outside every
    service, and a GeneralResources outside every such manager, is ignored.
    Each element is visited at most once, so the time is linear in the
    document's size.

    Raises :class:`MalformedXml` for non-well-formed input and
    :class:`NoServices` when no ComputingService element exists.
    """
    from xml.etree import ElementTree

    try:
        root = ElementTree.fromstring(xml_text)
    except ElementTree.ParseError as exc:
        raise MalformedXml(str(exc)) from exc
    services = []  # (admin domain, service id, [(manager id, [resource, ...]), ...])
    # Pre-order walk; a frame's context is (admin domain, the enclosing
    # service's manager list, the enclosing manager's resource list).
    stack = [(root, ("", None, None))]
    while stack:
        element, context = stack.pop()
        domain, managers, resources = context
        tag = element.tag
        if tag == "GeneralResources":
            if resources is not None:  # the block's iter() gathers every Resource below it
                resources += [resource.text or "" for resource in element.iter("Resource")]
            continue
        if tag == "AdminDomain":
            context = (element.get("id", ""), managers, resources)
        elif tag == "ComputingService":
            managers = []
            services.append((domain, element.get("id", ""), managers))
            context = (domain, managers, resources)
        elif tag == "ComputingManager" and managers is not None:
            resources = []
            managers.append((element.get("id", ""), resources))
            context = (domain, managers, resources)
        # Children go on in reverse, so they come off in document order.
        stack.extend(zip(reversed(element), [context] * len(element)))
    if not services:
        raise NoServices("document contains no ComputingService element")
    return [
        ComputingServiceRecord(domain, service_id, ComputingManagerRecord(manager_id, tuple(resources)))
        for domain, service_id, managers in services
        for manager_id, resources in managers or [("", ())]
    ]


def format_arcinfo(records: list[ComputingServiceRecord]) -> str:
    """Format records as the human-readable report.

    One "Computing service:" block per record with a "Batch System
    Information:" section; when the manager has general resources the
    "General resources:" header is printed followed by one resource string
    per line, indented two additional spaces.  An empty resource list omits
    the header entirely.
    """
    lines = []
    for record in records:
        header = "Computing service:"
        if record.service_id:
            header += f" {record.service_id}"
        lines.append(header)
        lines.append("  Batch System Information:")
        if record.manager.general_resources:
            # One join per manager: the header and its resources, each on an indented line.
            lines.append("\n      ".join(("    General resources:", *record.manager.general_resources)))
    if not lines:
        return ""
    lines.append("")
    return "\n".join(lines)


def fetch_info(url: str, timeout: float = 10.0) -> str:
    """Fetch an info document with one plain-HTTP GET and return its body.

    Redirects are not followed and proxy variables are not read.  Raises
    :class:`Unreachable` on connection failure or a non-HTTP answer,
    :class:`BadStatus` on any non-200 answer, :class:`BadContentType` when the
    response is not XML, :class:`DocumentTooLarge` when the body exceeds
    :data:`grespipe._text.MAX_DOCUMENT_BYTES` and :class:`FetchError` when the
    body ends before its ``Content-Length``.  A URL that is not ``http://`` or
    that carries user information (``user@host``) raises :class:`ValueError`.
    """
    import http.client
    from contextlib import closing
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    if parts.scheme != "http":
        raise ValueError(f"http URL required, got {url!r}")
    if "@" in parts.netloc:  # else http.client looks up ``user@host`` as the host name
        raise ValueError("user information (user@host) in an info URL is not supported")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    try:
        with closing(http.client.HTTPConnection(parts.netloc, timeout=timeout)) as connection:
            connection.request("GET", target, headers={"Accept": "application/xml"})
            with connection.getresponse() as response:
                if response.status != 200:
                    raise BadStatus(response.status)
                content_type = response.headers.get("Content-Type", "")
                body = read_bounded(response, url, DocumentTooLarge)
                missing = response.length  # bytes the Content-Length promised but never came
    except OSError as exc:
        raise Unreachable(f"cannot reach {url}: {exc}") from exc
    except http.client.HTTPException as exc:  # a bad port in the URL, or an answer that is not HTTP
        raise Unreachable(f"cannot fetch {url}: {exc!r}") from exc
    if missing:
        raise FetchError(f"{url}: body ended after {len(body)} of {len(body) + missing} bytes")
    mime = content_type.split(";", 1)[0].strip().lower()
    if mime not in _XML_MIME_TYPES and not mime.endswith("+xml"):
        raise BadContentType(f"expected XML, got {content_type!r}")
    return body.decode("utf-8")

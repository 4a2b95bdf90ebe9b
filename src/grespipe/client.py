"""Client side of the pipeline: fetch the info document, parse it back into
computing-manager records, and format them the way ``arcinfo`` prints them.

``fetch_info`` makes one HTTP/1.0 GET over a plain socket and reads the
answer itself, within one deadline for the whole exchange and the info
endpoint's own head limits, so fetching loads no ``http.client``, ``email``
or ``ssl``.  ``socket`` and ``xml.etree`` are imported by the functions that
use them, so a command that neither fetches nor parses does not load them.
"""

from __future__ import annotations

import gc
from _thread import allocate_lock

from ._text import ascii_int, read_bounded
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
_COLLECTOR = allocate_lock()  # held by a parse that reads and pauses the collector, or turns it back on


class ClientError(Exception):
    """Base class for client-side failures."""


class MalformedXml(ClientError):
    """The document is not well-formed XML."""


class NoServices(ClientError):
    """The document contains no ComputingService element."""


class FetchError(ClientError):
    """Base class for transport failures."""


class Unreachable(FetchError):
    """The endpoint could not be contacted, did not answer in time, or did not answer in the HTTP this client reads."""


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
    document's size.  The cyclic collector is paused meanwhile: the tree holds
    no cycle.  The pause is process-wide, so a concurrent parse may run with it
    on, losing only the gain; the state at entry is restored, so off stays off.

    Raises :class:`MalformedXml` for non-well-formed input and
    :class:`NoServices` when no ComputingService element exists.
    """
    with _COLLECTOR:  # so no other parse's restore falls between this read and pause and leaves it off
        enabled = gc.isenabled()
        gc.disable()
    try:
        services = _services(xml_text)
    finally:
        if enabled:
            with _COLLECTOR:
                gc.enable()
    if not services:
        raise NoServices("document contains no ComputingService element")
    return [
        ComputingServiceRecord(domain, service_id, ComputingManagerRecord(manager_id, tuple(resources)))
        for domain, service_id, managers in services
        for manager_id, resources in managers or [("", ())]
    ]


def _services(xml_text: str) -> list[tuple[str, str, list[tuple[str, list[str]]]]]:
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
    return services


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
        lines.append("Computing service:" + (f" {record.service_id}" if record.service_id else ""))
        lines.append("  Batch System Information:")
        if record.manager.general_resources:
            # One join per manager: the header and its resources, each on an indented line.
            lines.append("\n      ".join(("    General resources:", *record.manager.general_resources)))
    return "".join(f"{line}\n" for line in lines)


def fetch_info(url: str, timeout: float = 10.0) -> str:
    """Fetch an info document with one plain ``GET <target> HTTP/1.0`` and return its body.

    ``timeout`` seconds bound the whole exchange: connect, request, head and
    body.  The head is read within the endpoint's own limits, and only its
    ``Content-Type``, ``Content-Length`` and ``Transfer-Encoding`` are read.
    Redirects are not followed and proxy variables are not read.  Raises
    :class:`Unreachable` on a URL that cannot be split or put in the request head, on
    connection failure, at the deadline, or on an answer that is not HTTP/1.x within
    those limits, has a bad or conflicting ``Content-Length`` or any
    ``Transfer-Encoding``; :class:`BadStatus` on any non-200 answer,
    :class:`BadContentType` when the response is not XML, :class:`DocumentTooLarge` when
    the body exceeds :data:`grespipe._text.MAX_DOCUMENT_BYTES` and :class:`FetchError`
    when the body ends before its ``Content-Length``.  A URL that is not ``http://`` or
    that carries user information (``user@host``) raises :class:`ValueError`.
    """
    import time
    from urllib.parse import urlsplit

    from ._wire import MAX_LINE_BYTES, DeadlineSocket

    deadline = time.monotonic() + timeout
    try:
        parts = urlsplit(url)
    except ValueError as exc:  # a bracketed host left open or not an IPv6 address
        raise Unreachable(f"cannot fetch {url}: {exc}") from exc
    if parts.scheme != "http":
        raise ValueError(f"http URL required, got {url!r}")
    if "@" in parts.netloc:  # refused, rather than its credentials dropped or sent as the Host header
        raise ValueError("user information (user@host) in an info URL is not supported")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    sent = target + parts.netloc  # both go into the request head as they are
    if not (sent.isascii() and sent.isprintable()) or " " in sent:
        raise Unreachable(f"cannot fetch {url}: the URL holds a space, a control or a non-ASCII character")
    try:
        port = parts.port  # None when the URL names none
    except ValueError as exc:  # not digits, or not in 0-65535
        raise Unreachable(f"cannot fetch {url}: {exc}") from exc
    request = f"GET {target} HTTP/1.0\r\nHost: {parts.netloc}\r\nAccept: application/xml\r\n\r\n"
    try:
        with DeadlineSocket.connect_to(parts.hostname or "", 80 if port is None else port, deadline) as sock:
            sock.sendall(request.encode("ascii"))
            with sock.makefile("rb") as stream:
                lines = [stream.readline(MAX_LINE_BYTES + 1)]
                while (head := _read_head(lines, url)) is None:
                    lines.append(stream.readline(MAX_LINE_BYTES + 1))
                status, content_type, length = head
                if status != 200:
                    raise BadStatus(status)
                mime = content_type.split(";", 1)[0].strip().lower()
                if mime not in _XML_MIME_TYPES and not mime.endswith("+xml"):
                    raise BadContentType(f"expected XML, got {content_type!r}")
                body = read_bounded(stream, url, DocumentTooLarge, length)
    except TimeoutError as exc:  # the deadline passed, in a connect or later
        raise Unreachable(f"cannot reach {url}: no complete answer within {timeout:g} s") from exc
    except OSError as exc:
        raise Unreachable(f"cannot reach {url}: {exc}") from exc
    if length is not None and len(body) < length:
        raise FetchError(f"{url}: body ended after {len(body)} of {length} bytes")
    return body.decode("utf-8")


def _read_head(lines: list[bytes], url: str) -> tuple[int, str, int | None] | None:
    """The status, ``Content-Type`` (``""`` if none) and ``Content-Length`` (``None`` if none: the body ends with the
    stream) of a response head from the ``lines`` read so far, within the endpoint's limits; ``None`` until it ends."""
    from ._wire import MAX_HEADERS, MAX_LINE_BYTES, head_ended, http_major

    version, status = (lines[0].split(None, 2) + [b"", b""])[:2]
    if len(lines[0]) > MAX_LINE_BYTES or http_major(version) != 1 or not (
        len(status) == 3 and status.isdigit()
    ):
        raise Unreachable(f"cannot fetch {url}: not an HTTP/1.x status line: {lines[0][:80]!r}")
    if (ended := head_ended(lines)) is None:
        raise Unreachable(f"cannot fetch {url}: head over {MAX_HEADERS} lines, or a line over {MAX_LINE_BYTES} bytes")
    if not ended:
        return None
    content_type, length = "", None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name, value = name.lower(), value.strip().decode("latin-1")
        if name == b"content-type":
            content_type = value
        elif name == b"content-length":
            number = ascii_int(value)
            if number is None:
                raise Unreachable(f"cannot fetch {url}: bad Content-Length {value!r}")
            if length not in (None, number):  # the body's end is unknown (RFC 9112 section 6.3)
                raise Unreachable(f"cannot fetch {url}: conflicting Content-Length {length} and {number}")
            length = number
        elif name == b"transfer-encoding":
            raise Unreachable(f"cannot fetch {url}: Transfer-Encoding {value!r} is not read")
    return int(status), content_type, length

"""The HTTP version rule, the reader of header lines and the socket whose exchange ends by one deadline, shared by
the info endpoint (``_httpd``) and :func:`grespipe.client.fetch_info`, which import this module only when they run."""

from __future__ import annotations

import socket
import time
from io import BufferedIOBase

MAX_LINE_BYTES = 65536  # http.server's and http.client's limit on the bytes in any line of a head
MAX_HEADERS = 100  # their limit on the lines after the first line of a head, the blank one included


def http_major(version: bytes) -> int | None:
    """Return the major version of an ``HTTP/`` DIGIT ``.`` DIGIT word (RFC 9112 section 2.3), else ``None``."""
    major, dot, minor = version[5:6], version[6:7], version[7:]
    if len(version) == 8 and version[:5] == b"HTTP/" and dot == b"." and (major + minor).isdigit():
        return int(major)
    return None


def header_lines(stream: BufferedIOBase) -> list[bytes] | None:
    """Return the lines after a head's first line, up to the blank one (bare LF too) or the end of ``stream``;
    ``None`` once a line passes :data:`MAX_LINE_BYTES` or :data:`MAX_HEADERS` lines hold no end of the head."""
    lines = []
    while len(lines) < MAX_HEADERS and len(line := stream.readline(MAX_LINE_BYTES + 1)) <= MAX_LINE_BYTES:
        if line in (b"\r\n", b"\n", b""):
            return lines
        lines.append(line)
    return None


class DeadlineSocket(socket.socket):
    """A socket whose connect, reads and writes end by one ``deadline``, so a drip cannot hold either end."""

    def __init__(self, deadline: float, *args, **kwargs):  # then socket.socket's arguments, fileno= included
        super().__init__(*args, **kwargs)
        self.deadline = deadline  # on the time.monotonic() clock

    @classmethod
    def connect_to(cls, host: str, port: int, deadline: float) -> DeadlineSocket:
        """Connect to the first of ``host``'s addresses that accepts, each tried with only the time left."""
        error = OSError(f"no address for {host!r}")
        for family, kind, proto, _name, address in socket.getaddrinfo(host, port, type=socket.SOCK_STREAM):
            sock = cls(deadline, family, kind, proto)
            try:
                sock.connect(address)
                return sock
            except OSError as exc:  # past the deadline, every address left fails at once
                sock.close()
                error = exc
        raise error

    def _by_deadline(self, call, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("exchange deadline passed")
        self.settimeout(left)  # sendall's timeout, too, bounds the whole call
        return call(*args)

    def connect(self, *args) -> None:
        return self._by_deadline(super().connect, *args)

    def recv_into(self, *args) -> int:
        return self._by_deadline(super().recv_into, *args)

    def sendall(self, *args) -> None:
        return self._by_deadline(super().sendall, *args)

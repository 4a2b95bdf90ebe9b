"""The HTTP version rule, the head-end rule and the socket whose exchange ends by one deadline, shared by the info
endpoint (``_httpd``) and :func:`grespipe.client.fetch_info`, which import this module only when they run."""

from __future__ import annotations

import socket
import time

MAX_LINE_BYTES = 65536  # http.server's and http.client's limit on the bytes in any line of a head
MAX_HEADERS = 100  # their limit on the lines after the first line of a head, the blank one included


def http_major(version: bytes) -> int | None:
    """Return the major version of an ``HTTP/`` DIGIT ``.`` DIGIT word (RFC 9112 section 2.3), else ``None``."""
    major, dot, minor = version[5:6], version[6:7], version[7:]
    if len(version) == 8 and version[:5] == b"HTTP/" and dot == b"." and (major + minor).isdigit():
        return int(major)
    return None


def head_ended(lines: list[bytes]) -> bool | None:
    """Whether a head read so far as ``lines`` has ended at a blank line (bare LF too) or the end of the stream after
    its first line; ``None`` once a line passes :data:`MAX_LINE_BYTES` or :data:`MAX_HEADERS` after it hold no end."""
    ended = len(lines) > 1 and lines[-1] in (b"\r\n", b"\n", b"")
    return None if len(lines[-1]) > MAX_LINE_BYTES or not ended and len(lines) > MAX_HEADERS else ended


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
